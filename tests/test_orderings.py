"""Monomial orderings, their admissibility and initial forms."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itertools import product

from ncpoly import (Alphabet, MonomialOrdering, Polynomial, Term, WalkJob,
                    groebner_walk, initial)
from ncpoly.orderings import KINDS

from conftest import ORACLE_KEYS, P, admissibility_counterexample, w


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_deglex_compare(xyz):
    o = MonomialOrdering("deglex", xyz)
    assert o.compare(w(xyz, "zxyx"), w(xyz, "yyzx")) == -1


def test_compare_equal_words(xyz):
    for kind in KINDS:
        o = MonomialOrdering(kind, xyz)
        assert o.compare(w(xyz, "xyz"), w(xyz, "xyz")) == 0


def test_degrevlex_compare(xyz):
    o = MonomialOrdering("degrevlex", xyz)
    assert o.compare(w(xyz, "zxyx"), w(xyz, "xzx")) == 1


def test_three_orderings_on_sample_polynomial(xyz):
    # the same three monomials sort differently per ordering
    terms = [Term(1, w(xyz, m)) for m in ("xzx", "yyzx", "zxyx")]

    def order(kind):
        o = MonomialOrdering(kind, xyz)
        p = Polynomial(terms, xyz, o)
        return [t.mon for t in p.terms]

    assert order("deglex") == [w(xyz, m) for m in ("yyzx", "zxyx", "xzx")]
    assert order("deginvlex") == [w(xyz, m) for m in ("zxyx", "yyzx", "xzx")]
    assert order("degrevlex") == [w(xyz, m) for m in ("yyzx", "zxyx", "xzx")]


def test_degrevlex_right_to_left(xyz):
    # first difference scanning from the right decides
    o = MonomialOrdering("degrevlex", xyz)
    assert o.compare(w(xyz, "xz"), w(xyz, "xy")) == 1
    assert o.compare(w(xyz, "zx"), w(xyz, "yx")) == 1


def test_unit_smallest(xyz):
    for kind in KINDS:
        o = MonomialOrdering(kind, xyz)
        assert o.compare((), w(xyz, "z")) == -1


@pytest.mark.parametrize("word", [(3,), (0, -1), (256,), (0, 300)])
def test_compare_refuses_a_letter_outside_the_alphabet(xyz, word):
    # str keys would misplace such a word, or raise on the bytes path
    for kind in KINDS:
        o = MonomialOrdering(kind, xyz)
        with pytest.raises(ValueError):
            o.compare(word, (0,))
        with pytest.raises(ValueError):
            o.compare((), word)


@settings(max_examples=300)
@given(st.sampled_from(KINDS), st.sampled_from([3, 300]),
       st.lists(st.lists(st.integers(0, 299), max_size=5).map(tuple),
                min_size=1, max_size=8))
@example(kind="deglex", n=300,
         words=[(), (255,), (256,), (255, 256), (256, 255), (299, 0, 256)])
@example(kind="deginvlex", n=300,
         words=[(), (255,), (256,), (256, 0), (255, 299)])
def test_key_sorts_as_the_oracle(kind, n, words):
    # letters taken modulo n: on 300 letters they reach past 255, past
    # the bytes path
    o = MonomialOrdering(kind, Alphabet([f"g{k}" for k in range(n)]))
    words = sorted({tuple(x % n for x in u) for u in words} | {()})
    assert sorted(words, key=o.key) == sorted(words, key=ORACLE_KEYS[kind])


# ---------------------------------------------------------------------------
# refused orderings
# ---------------------------------------------------------------------------

def test_lex_refused_by_default(xyz):
    for kind in ("lex", "invlex"):
        with pytest.raises(ValueError) as refused:
            MonomialOrdering(kind, xyz)
        assert str(refused.value) == (f"{kind} is not admissible; "
                                      "choose deglex, deginvlex or degrevlex")


def test_unknown_kind(xyz):
    with pytest.raises(ValueError) as refused:
        MonomialOrdering("grevlex", xyz)
    assert str(refused.value) == ("unknown ordering 'grevlex'; "
                                  "choose deglex, deginvlex or degrevlex")


def test_basis_algorithms_refuse_non_admissible(xyz):
    # every basis algorithm takes a MonomialOrdering, and none can be
    # built non-admissible, however the kind is spelt
    for kind in ("Lex", "INVLEX"):
        with pytest.raises(ValueError, match="is not admissible"):
            MonomialOrdering(kind, xyz)
    assert MonomialOrdering("DegLex", xyz).kind == "deglex"


# ---------------------------------------------------------------------------
# initial
# ---------------------------------------------------------------------------

def test_initial_of_inhomogeneous(xyz):
    o = MonomialOrdering("deglex", xyz)
    p = P(xyz, o, "x^4 + z*x*y^2 + y^3 + z^2*x")
    assert initial(p) == P(xyz, o, "x^4 + z*x*y^2")


def test_initial_of_homogeneous_is_identity(xyz):
    o = MonomialOrdering("degrevlex", xyz)
    p = P(xyz, o, "x*y*z + 2*z^3 - y^2*x")
    assert initial(p) == p


def test_initial_of_walk_generator(xy):
    o = MonomialOrdering("degrevlex", xy)
    p = P(xy, o, "y^2 + 2*x*y + 5")
    assert initial(p) == P(xy, o, "y^2 + 2*x*y")


def test_initial_of_zero_errors(xyz):
    o = MonomialOrdering("deglex", xyz)
    with pytest.raises(ValueError):
        initial(Polynomial.zero(xyz, o))


def test_harmonious_trio(xyz):
    # the three kinds compare degree first, so any two take the same
    # initial form: the walk's harmony condition
    text = "x^4 + z*x*y^2 - 3*y*z*x*z + y^3 + z^2*x - 7"
    dl = MonomialOrdering("deglex", xyz)
    for kind in KINDS:
        top = initial(P(xyz, MonomialOrdering(kind, xyz), text))
        assert top.with_ordering(dl) == P(xyz, dl, "x^4 + z*x*y^2 - 3*y*z*x*z")


def test_decomposition_first_function_is_degree(xyz):
    # the first function of every kind's decomposition is the degree:
    # each word sorts below every longer word
    words = [w for n in range(4) for w in product(range(len(xyz)), repeat=n)]
    for kind in KINDS:
        key = MonomialOrdering(kind, xyz).key
        ranked = sorted(words, key=key)
        assert [len(w) for w in ranked] == sorted(len(w) for w in words)


def test_not_harmonious_with_unsafe_or_other_alphabet(xyz, xy):
    # lex cannot be built to walk to, and a walk between two alphabets is
    # refused as not harmonious
    with pytest.raises(ValueError, match="is not admissible"):
        MonomialOrdering("lex", xyz)
    wide = MonomialOrdering("deglex", xyz)
    narrow = MonomialOrdering("deglex", xy)
    with pytest.raises(ValueError, match="harmonious"):
        groebner_walk(WalkJob(source=wide, target=narrow, basis=[]))


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

def test_admissibility_of_degree_orderings(xyz):
    for kind in KINDS:
        key = MonomialOrdering(kind, xyz).key
        assert admissibility_counterexample(key, len(xyz)) is None


def test_lex_fails_admissibility(xyz):
    # the classic witness: x < xy yet x*x > x*yx
    key = ORACLE_KEYS["lex"]
    assert key(w(xyz, "x")) < key(w(xyz, "xy"))
    assert key(w(xyz, "xx")) > key(w(xyz, "xyx"))
    assert admissibility_counterexample(key, len(xyz), 2000)


def test_invlex_fails_admissibility(xyz):
    assert admissibility_counterexample(ORACLE_KEYS["invlex"], len(xyz), 2000)


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

_A = Alphabet(["x", "y", "z"])
words = st.lists(st.integers(0, 2), max_size=6).map(tuple)


@settings(max_examples=300)
@given(words, words, words, st.sampled_from(KINDS))
def test_compare_antisymmetric_transitive(a, b, c, kind):
    o = MonomialOrdering(kind, _A)
    assert o.compare(a, b) == -o.compare(b, a)
    # transitivity: a <= b <= c implies a <= c
    if o.compare(a, b) <= 0 and o.compare(b, c) <= 0:
        assert o.compare(a, c) <= 0


@settings(max_examples=300)
@given(words, words, st.lists(st.integers(0, 2), max_size=4).map(tuple),
       st.lists(st.integers(0, 2), max_size=4).map(tuple),
       st.sampled_from(KINDS))
def test_admissible_under_two_sided_multiplication(a, b, l, r, kind):
    o = MonomialOrdering(kind, _A)
    if a != ():
        assert o.compare((), a) == -1
    cmp = o.compare(a, b)
    assert o.compare(l + a + r, l + b + r) == cmp
