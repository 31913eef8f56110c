"""Overlaps, S-polynomials and Buchberger's second criterion."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, MonomialOrdering, OverlapSpec,
                    criterion2_applies, enumerate_overlaps, mora,
                    normal_word_counts, reduce_basis, s_polynomial)
from ncpoly.algebra import _encode
from ncpoly.spoly import overlap_degrees, settled_key

from conftest import P, brute_force_overlaps, w


@pytest.fixture
def o(xyz):
    return MonomialOrdering("deglex", xyz)


# ---------------------------------------------------------------------------
# enumerate_overlaps
# ---------------------------------------------------------------------------

def test_single_suffix_prefix_overlap(xyz):
    specs = enumerate_overlaps(w(xyz, "xy"), w(xyz, "yz"), False)
    assert len(specs) == 1
    (spec,) = specs
    assert spec.overlap_word == w(xyz, "xyz")
    assert spec.l1 + w(xyz, "xy") + spec.r1 == spec.overlap_word
    assert spec.l2 + w(xyz, "yz") + spec.r2 == spec.overlap_word


def test_self_overlap(xyz):
    # PRE(xyx, 1) = SUFF(xyx, 1), listed once: the second copy of xyx
    # starts later, at shift 2
    (spec,) = enumerate_overlaps(w(xyz, "xyx"), w(xyz, "xyx"), True)
    assert spec.overlap_word == w(xyz, "xyxyx")
    assert spec.l1 == () and spec.l2 == w(xyz, "xy")


def test_disjoint_letters_no_overlap(xyz):
    assert enumerate_overlaps(w(xyz, "x"), w(xyz, "y"), False) == []


def test_containment_is_subword_kind(xyz):
    specs = enumerate_overlaps(w(xyz, "xyzx"), w(xyz, "yz"), False)
    assert [s.kind for s in specs] == ["subword"]
    specs = enumerate_overlaps(w(xyz, "yz"), w(xyz, "xyzx"), False)
    assert [s.kind for s in specs] == ["subword"]


def test_prefix_and_suffix_kinds(xyz):
    (spec,) = enumerate_overlaps(w(xyz, "xy"), w(xyz, "zx"), False)
    assert spec.kind == "prefix"      # zx hangs off the left of xy
    (spec,) = enumerate_overlaps(w(xyz, "xy"), w(xyz, "yz"), False)
    assert spec.kind == "suffix"


def test_empty_word_rejected(xyz):
    with pytest.raises(ValueError):
        enumerate_overlaps((), w(xyz, "x"), False)


# ---------------------------------------------------------------------------
# s_polynomial
# ---------------------------------------------------------------------------

def test_spoly_classic(xyz, o):
    p1 = P(xyz, o, "x*y - z")
    p2 = P(xyz, o, "y*z - x")
    (spec,) = enumerate_overlaps(p1.lm(), p2.lm(), False, 0, 1)
    assert s_polynomial(spec, p1, p2) == P(xyz, o, "x^2 - z^2")


def test_spoly_equal_lead_monomials(xyz, o):
    p1 = P(xyz, o, "y*z + 2*x + z")
    p2 = P(xyz, o, "y*z + x")
    specs = enumerate_overlaps(p1.lm(), p2.lm(), False, 0, 1)
    trivial = [s for s in specs if s.l1 == s.l2 == ()]
    assert len(trivial) == 1
    assert s_polynomial(trivial[0], p1, p2) == P(xyz, o, "x + z")


def test_spoly_subword(xyz, o):
    p1 = P(xyz, o, "x*y - z")
    p2 = P(xyz, o, "x + z")
    specs = enumerate_overlaps(p1.lm(), p2.lm(), False, 0, 1)
    at_start = [s for s in specs if s.l2 == ()]
    assert len(at_start) == 1
    assert s_polynomial(at_start[0], p1, p2) == P(xyz, o, "-z*y - z")


def test_spoly_placement_mismatch(xyz, o):
    p1 = P(xyz, o, "x*y - z")
    p2 = P(xyz, o, "y*z - x")
    (spec,) = enumerate_overlaps(p1.lm(), p2.lm(), False, 0, 1)
    with pytest.raises(ValueError):
        s_polynomial(spec, p2, p1)
    with pytest.raises(ValueError, match="LM\\(p2\\)"):     # p1 still fits
        s_polynomial(spec, p1, P(xyz, o, "y*y - x"))


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def test_criterion_needs_settled_entries(xyz, o):
    basis = P(xyz, o, "x*y - z", "y*z + x", "z*y + z")
    if not isinstance(basis, list):
        basis = [basis]
    spec_pool = enumerate_overlaps(basis[2].lm(), basis[1].lm(), False, 2, 1)
    assert spec_pool
    assert not criterion2_applies(spec_pool[0], basis, set())


def test_criterion_needs_a_third_placement(xyz, o):
    basis = P(xyz, o, "x*y - z", "y*z + x")
    (spec,) = enumerate_overlaps(basis[0].lm(), basis[1].lm(), False, 0, 1)
    # flood the settled set: still no third lead monomial divides xyz
    settled = {(i, j, s) for i in range(2) for j in range(2)
               for s in range(-3, 4)}
    assert not criterion2_applies(spec, basis, settled)


def test_criterion_fires_once_induced_overlaps_settle(xyz, o):
    # zy and yz overlap in zyz; yz also sits there via a second basis
    # element with the same lead monomial, whose overlaps are settled
    basis = P(xyz, o, "x*y - z", "y*z + 2*x + z", "y*z + x", "x + z",
              "-z*y - z")
    g5, g3 = basis[4], basis[2]
    specs = enumerate_overlaps(g5.lm(), g3.lm(), False, 4, 2)
    (spec,) = [s for s in specs if s.overlap_word == w(xyz, "zyz")]
    assert not criterion2_applies(spec, basis, set())
    settled = set()
    # settle every overlap involving the alternative divisor g2 = yz+2x+z
    for other in (0, 2, 3, 4):
        u_other = basis[other].lm()
        for ind in enumerate_overlaps(u_other, basis[1].lm(), False, other, 1):
            settled.add(settled_key(ind))
    assert criterion2_applies(spec, basis, settled)


def test_criterion_invariance_on_fixture(xyz, xy, o):
    F = P(xyz, o, "x*y - z", "y*z + 2*x + z", "y*z + x")
    with_c2 = mora(F, o, use_criterion2=True)
    without = mora(F, o, use_criterion2=False)
    assert with_c2.stats["criterion2_skips"] > 0
    assert (reduce_basis(with_c2.basis, o) == reduce_basis(without.basis, o))
    # criterion 2 must not skip an overlap this input needs: with one key
    # for many overlaps it did, and the run said complete with 5 elements
    # where the run without criterion 2 stops at the degree cap with 6
    dil = MonomialOrdering("deginvlex", xy)
    F = P(xy, dil, "x^3*y", "y^2*x*y - 3*y*x^2*y + 2*x*y^3 + 3*x^3*y",
          "2*x^2*y^2", "-y^2*x*y - 2*x*y^3")
    for strategy in ("normal", "sugar"):
        runs = [mora(F, dil, strategy, use_criterion2=c, max_degree=8)
                for c in (True, False)]
        assert [r.status for r in runs] == ["degree_cap_hit"] * 2
        assert runs[0].stats["criterion2_skips"] > 0
        counts = [normal_word_counts([g.lm() for g in r.basis], 2, 8)
                  for r in runs]
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

words = st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple)


@settings(max_examples=300)
@given(words, words, st.booleans())
def test_overlaps_match_brute_force(u1, u2, same):
    if same and u1 != u2:
        return
    specs = enumerate_overlaps(u1, u2, same)
    got = {(s.l1, s.r1, s.l2, s.r2) for s in specs}
    assert len(got) == len(specs)
    assert got == brute_force_overlaps(u1, u2, same)
    if same:
        # with their mirrors, the roles swapped, the listed overlaps are
        # every placement pair but the identical one, and no two listed
        # overlaps mirror each other
        mirrors = {(l2, r2, l1, r1) for l1, r1, l2, r2 in got}
        assert not got & mirrors
        assert got | mirrors == (brute_force_overlaps(u1, u2, False)
                                 - {((), (), (), ())})
    for s in specs:
        assert s.l1 + u1 + s.r1 == s.overlap_word
        assert s.l2 + u2 + s.r2 == s.overlap_word
        assert s.l1 == () or s.l2 == ()
        assert s.r1 == () or s.r2 == ()


def shift_loop_overlaps(u1, u2, same_element, i, j):
    """Reference for enumerate_overlaps's list, in order: every shift s of
    u2 against u1 from -(len(u2) - 1) up, from 1 up for a self pair, its
    letters compared by slices."""
    d1, d2 = len(u1), len(u2)
    specs = []
    for s in range(1 if same_element else -(d2 - 1), d1):
        lo, hi = max(0, s), min(d1, s + d2)
        if u1[lo:hi] != u2[lo - s:hi - s]:
            continue
        l1, r1 = (u2[:-s] if s < 0 else ()), u2[d1 - s:]
        l2, r2 = (u1[:s] if s > 0 else ()), u1[s + d2:]
        kind = ("subword" if not (l1 or r1) or not (l2 or r2)
                else "prefix" if s < 0 else "suffix")
        specs.append(OverlapSpec(i, j, l1, r1, l2, r2, kind, l1 + u1 + r1))
    return specs


@st.composite
def word_pairs(draw):
    """Two words over one of three letter sets: small letters, letters
    around 10 (``chr(10)`` is a newline) and letters across 255/256;
    with ``same``, the second word is the first."""
    letters = st.sampled_from(draw(st.sampled_from(
        [(0, 1, 2), (9, 10, 11), (254, 255, 256, 299)])))
    word = st.lists(letters, min_size=1, max_size=7).map(tuple)
    u1, same = draw(word), draw(st.booleans())
    return u1, u1 if same else draw(word), same


@settings(max_examples=500)
@given(word_pairs())
@example(case=((0, 0), (0,), False))           # x^2 against x: equal keys
@example(case=((10, 9, 10), (10, 9, 10), True))
@example(case=((255, 256, 255), (256, 255), False))
def test_overlaps_come_in_shift_order(case):
    u1, u2, same = case
    specs = enumerate_overlaps(u1, u2, same, 3, 5)
    # specs compare field by field, kind included, and the lists in order
    assert specs == shift_loop_overlaps(u1, u2, same, 3, 5)
    assert all(type(s) is OverlapSpec for s in specs)
    assert len(set(specs)) == len(specs)        # hashable and distinct
    # settled_key names one overlap, and each is listed once
    keys = {settled_key(s) for s in
            enumerate_overlaps(u1, u2, same, 3, 3 if same else 5)}
    assert len(keys) == len(specs)
    for s in specs:
        with pytest.raises(AttributeError):
            s.kind = "subword"


@settings(max_examples=500)
@given(word_pairs())
@example(case=((0, 0), (0,), False))            # x in x^2, twice
@example(case=((0,), (0, 0), False))
@example(case=((0, 1, 0, 1, 0), (1, 0), False))
@example(case=((10, 9, 10, 9), (9, 10), False))
@example(case=((9, 10), (10, 9, 10, 9), False))
@example(case=((0, 0, 0), (0, 0, 0), True))
@example(case=((255, 256, 255), (256, 255), False))
def test_overlaps_of_one_degree(case):
    # enumerate_overlaps restricted to a degree is the full list filtered
    # by degree, in order and kind included; overlap_degrees counts each
    # degree's overlaps
    u1, u2, same = case
    full = enumerate_overlaps(u1, u2, same, 3, 5)
    degrees = {}
    for spec in full:
        d = len(spec.overlap_word)
        degrees[d] = degrees.get(d, 0) + 1
    got = overlap_degrees(_encode(u1), _encode(u2), same)
    assert got == degrees and list(got) == list(degrees)
    for d in range(len(u1) + len(u2) + 2):
        restricted = enumerate_overlaps(u1, u2, same, 3, 5, d)
        assert restricted == [s for s in full if len(s.overlap_word) == d]


_A = Alphabet(["x", "y", "z"])
_O = MonomialOrdering("deglex", _A)
coeff = st.integers(-4, 4).filter(bool)
tails = st.lists(st.tuples(coeff, st.lists(st.integers(0, 2), max_size=3)),
                 max_size=3)


@settings(max_examples=200)
@given(words, words, tails, tails)
@example(u1=(0,), u2=(0,), t1=[], t2=[(-1, [0])])   # p2 cancels to zero
def test_spoly_cancels_overlap_word(u1, u2, t1, t2):
    from ncpoly import Polynomial, Term
    p1 = Polynomial(
        [Term(1, u1)] + [Term(c, tuple(m)) for c, m in t1], _A, _O)
    p2 = Polynomial(
        [Term(1, u2)] + [Term(c, tuple(m)) for c, m in t2], _A, _O)
    if p1.is_zero() or p2.is_zero() or p1.lm() != u1 or p2.lm() != u2:
        return
    for spec in enumerate_overlaps(u1, u2, False, 0, 1):
        s = s_polynomial(spec, p1, p2)
        assert all(t.mon != spec.overlap_word for t in s.terms)
        if not s.is_zero():
            assert _O.compare(s.lm(), spec.overlap_word) == -1
