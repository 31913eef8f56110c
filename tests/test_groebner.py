"""Division, Mora's algorithm, reduced bases, sugar, logged runs."""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, InvolutiveDivision, MonomialOrdering,
                    MultiplicativeTable, Polynomial, Term,
                    criterion2_applies, divide, enumerate_overlaps,
                    inv_divide, log_expand, mora, parse_polynomial,
                    poly_combine, reduce_basis, s_polynomial, sugar_value)
from ncpoly.algebra import _Divisors, _encode
from ncpoly.groebner import _s_seed
from ncpoly.involutive import first_divisor
from ncpoly.spoly import OverlapSpec, settled_key

from conftest import (P, all_spolys_reduce_to_zero, brute_force_placement,
                      random_poly, reference_reduce, seeded_rng, w)


@pytest.fixture
def o(xyz):
    return MonomialOrdering("deglex", xyz)


MORA_FIXTURE = ("x*y - z", "y*z + 2*x + z", "y*z + x")
REDUCED_FIXTURE = ("y*z - z", "z*y + z", "z^2", "x + z")   # descending LMs


# ---------------------------------------------------------------------------
# divide
# ---------------------------------------------------------------------------

def test_divide_depends_on_divisor_order(xyz, o):
    p = P(xyz, o, "x*y*z + 2*y")
    d1, d2 = P(xyz, o, "x*y - z"), P(xyz, o, "y*z - x")
    rem_a, _ = divide(p, [d1, d2])
    rem_b, _ = divide(p, [d2, d1])
    assert rem_a == P(xyz, o, "z^2 + 2*y")
    assert rem_b == P(xyz, o, "x^2 + 2*y")


def test_divide_by_self(xyz, o):
    p = P(xyz, o, "x*y - 3*z + 1/2")
    rem, log = divide(p, [p])
    assert rem.is_zero()
    assert log_expand(log, [p]) == p


def test_divide_worked_example(xyz, o):
    p = P(xyz, o, "3*x*y*x*z^2*x^3 + 2*x^2")
    d = P(xyz, o, "5*z^2*x + 2*y^2 + x + 4")
    rem, log = divide(p, [d])
    assert rem == P(xyz, o, "-6/5*x*y*x*y^2*x^2 - 3/5*x*y*x^4 "
                            "- 12/5*x*y*x^3 + 2*x^2")
    # the identity p = remainder + sum(l * d * r)
    assert poly_combine(p, rem, -1) == log_expand(log, [d])


def test_divide_zero_input(xyz, o):
    rem, log = divide(Polynomial.zero(xyz, o), [P(xyz, o, "x")])
    assert rem.is_zero() and log == ()


def test_divide_rejects_zero_divisor(xyz, o):
    with pytest.raises(ValueError):
        divide(P(xyz, o, "x"), [Polynomial.zero(xyz, o)])


def test_divide_rejects_a_prepared_set_in_another_ordering(xyz, o):
    drl = MonomialOrdering("degrevlex", xyz)
    prepared = _Divisors([P(xyz, drl, "x*y - z")], drl)
    with pytest.raises(ValueError, match="different algebras or orderings"):
        divide(P(xyz, o, "x*y"), prepared)


def test_log_expand_checks_each_multiplier(xyz, o):
    F = [P(xyz, o, "x*y - z")]
    one = Term(Fraction(1), ())
    assert log_expand(((one, 0, one), (Term(Fraction(-1), ()), 0, one)),
                      F).is_zero()
    with pytest.raises(ValueError, match="nonzero"):
        log_expand(((one, 0, one), (Term(Fraction(0), (0,)), 0, one)), F)
    with pytest.raises(ValueError, match="out of range"):
        log_expand(((one, 0, Term(Fraction(2), (3,))),), F)
    with pytest.raises(ValueError, match="empty basis"):
        log_expand((), [])


letters = st.integers(0, 2)
row_sets = st.tuples(st.frozensets(letters), st.frozensets(letters))


@st.composite
def divisor_rows(draw):
    """Divisor words, their letter sets and a lookup order.  Sets of None
    stand for rows of every letter, which admit every placement;
    otherwise each row gets its own, possibly empty or partial, pair of
    sets."""
    lms = draw(st.lists(st.lists(letters, max_size=3).map(tuple),
                        min_size=1, max_size=4))
    sets = draw(st.none() | st.lists(row_sets, min_size=len(lms),
                                     max_size=len(lms)))
    active = draw(st.none() | st.lists(st.integers(0, len(lms) - 1),
                                       unique=True))
    return lms, sets, active


@settings(max_examples=500)
@given(st.lists(letters, max_size=8).map(tuple), divisor_rows(), st.booleans())
# thick, last letter of u not right-multiplicative: only the suffix placement
@example(u=(0, 1), rows=([(1,)], [({0}, {0})], None), thick=True)
# empty right set: the word occurs before its suffix occurrence
@example(u=(0, 1, 2, 0, 1), rows=([(0, 1)], [({0, 1, 2}, set())], None),
         thick=False)
@example(u=(0, 1, 2, 0, 1), rows=([(0, 1)], [({0, 1, 2}, set())], None),
         thick=True)
# empty left set: the word occurs at 0 and later; only 0 can be admitted
@example(u=(1, 0, 1), rows=([(1,)], [(set(), {0})], None), thick=False)
@example(u=(1, 0, 1), rows=([(1,)], [(set(), {0})], None), thick=True)
# the empty word occurs at every offset, the last one past the last letter
@example(u=(0, 1), rows=([()], [({0}, {1})], None), thick=False)
@example(u=(0, 1), rows=([(), (0,)], [({0}, set()), ({1}, {1})], None),
         thick=True)
# letters past 255, in the word and in the row sets
@example(u=(300, 0, 300), rows=([(300,), (0,)], [({0}, set()), ({300}, {300})],
                                 None), thick=False)
@example(u=(300, 0, 300), rows=([(300,), (0,)], [({0}, set()), ({300}, {300})],
                                 None), thick=True)
def test_first_divisor_matches_oracle(u, rows, thick):
    lms, sets, active = rows
    expected = None
    for j in range(len(lms)) if active is None else active:
        left, right = (None, None) if sets is None else sets[j]
        s = brute_force_placement(u, lms[j], left, right, thick)
        if s is not None:
            expected = (j, s)
            break
    if sets is None:
        sets = [(frozenset(range(3)), frozenset(range(3)))] * len(lms)
    lefts = [left for left, _ in sets]
    rights = [right for _, right in sets]
    assert first_divisor(_encode(u), [_encode(v) for v in lms], lefts, rights,
                         thick, active) == expected


_XYZ = Alphabet(["x", "y", "z"])
_ADMISSIBLE = [MonomialOrdering(kind, _XYZ)
               for kind in ("deglex", "deginvlex", "degrevlex")]
# multi-word numerators and denominators, so the kernel's running
# denominator grows past one machine word
coeffs = st.builds(Fraction, st.integers(-2**70, 2**70).filter(bool),
                   st.integers(1, 2**70))


def polys(ordering, max_degree, min_size):
    terms = st.lists(st.tuples(coeffs, st.lists(letters, max_size=max_degree)),
                     min_size=min_size, max_size=6)
    return terms.map(lambda ts: Polynomial(
        [Term(c, tuple(m)) for c, m in ts], _XYZ, ordering)).filter(
            lambda q: len(q.terms) >= min_size)


@st.composite
def division_problems(draw):
    """An admissible ordering, a polynomial, nonzero divisors, and the
    divisors' letter sets (None: conventional division), a thick flag and
    a lookup order for involutive division."""
    o = draw(st.sampled_from(_ADMISSIBLE))
    p = draw(polys(o, 6, 0))
    divisors = draw(st.lists(polys(o, 3, 1), min_size=1, max_size=4))
    sets = draw(st.none() | st.lists(row_sets, min_size=len(divisors),
                                     max_size=len(divisors)))
    active = draw(st.none() | st.lists(st.integers(0, len(divisors) - 1),
                                       unique=True))
    return o, p, divisors, sets, draw(st.booleans()), active


def _division_example(kind, p, divisors, sets=None, thick=False, active=None):
    o = MonomialOrdering(kind, _XYZ)
    return (o, parse_polynomial(p, _XYZ, o),
            [parse_polynomial(d, _XYZ, o) for d in divisors], sets, thick, active)


@settings(max_examples=300, deadline=None)
@given(division_problems())
# negative lead coefficients, divisors with coprime denominators and a
# dividend with denominators of its own
@example(problem=_division_example(
    "deglex", "5/7*x^2*y^2 + 1/3*x*y*z - y*z*y + 2/15*z^3",
    ["-3/4*x*y + 2/9*z", "5/11*y*z - 1/13*x"]))
@example(problem=_division_example(
    "degrevlex", f"{2**70 + 3}/17*x*y*x*z - 9/{2**66}*z*x*y + 1",
    [f"-{2**70 + 1}/3*x*y + 7/{2**65}*y", "4/9*z*x - 1/2*z"],
    [(frozenset({0, 1, 2}), frozenset({0, 1, 2})), (frozenset(), frozenset({1}))],
    False, [1, 0]))
# under each ordering, a step whose scale stays (x*y*z by the monic x*y - z,
# f == 1) and one whose scale grows threefold (y*z by 3*y*z + x, f > 1)
@example(problem=_division_example("deglex", "x*y*z + y*z",
                                   ["x*y - z", "3*y*z + x"]))
@example(problem=_division_example("deginvlex", "x*y*z + y*z",
                                   ["x*y - z", "3*y*z + x"]))
@example(problem=_division_example("degrevlex", "x*y*z + y*z",
                                   ["x*y - z", "3*y*z + x"]))
def test_reduction_matches_reference(problem):
    o, p, divisors, sets, thick, active = problem
    expected = reference_reduce(p, divisors, o, sets, thick,
                                None if sets is None else active)
    for P_ in (divisors, _Divisors(divisors, o)):
        if sets is None:
            rem, log = divide(p, P_)
        else:
            table = MultiplicativeTable(
                InvolutiveDivision(1), _XYZ, [d.lm() for d in divisors],
                [left for left, _ in sets], [right for _, right in sets])
            rem, log = inv_divide(p, P_, table, "thick" if thick else "thin",
                                  active)
        assert (rem.terms, log) == expected
        assert poly_combine(rem, log_expand(log, divisors), 1) == p


@settings(max_examples=200, deadline=None)
@given(division_problems(), st.data())
# a constant divisor: its empty lead word occurs at every offset
@example(problem=_division_example("deglex", "x*y*x + y + 2",
                                   ["y*x - z", "3", "x*y + 1"]),
         data=None)
def test_prepared_divisor_set_gives_the_list_answer(problem, data):
    o, p, divisors, _, _, _ = problem
    prepared = _Divisors(divisors, o)
    rem, log = divide(p, divisors)
    rem_set, log_set = divide(p, prepared)
    assert (rem.terms, log) == (rem_set.terms, log_set)
    specs = [spec for i, j in itertools.combinations_with_replacement(
                 range(len(divisors)), 2)
             if divisors[i].lm() and divisors[j].lm()
             for spec in enumerate_overlaps(divisors[i].lm(), divisors[j].lm(),
                                            i == j, i, j)]
    keys = sorted({settled_key(spec) for spec in specs})
    settled = set()
    if keys and data is not None:
        settled = set(data.draw(st.lists(st.sampled_from(keys))))
    for spec in specs:
        assert (criterion2_applies(spec, divisors, settled)
                == criterion2_applies(spec, prepared, settled))


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_unlogged_division_keeps_the_remainder_and_the_steps(problem):
    # an unlogged step names the logged step's divisor, the word it
    # cancelled, encoded, and the offset of the divisor's lead word there
    o, p, divisors, _, _, _ = problem
    rem, log = divide(p, divisors)
    want = tuple((j, _encode(l.mon + divisors[j].lm() + r.mon), len(l.mon))
                 for l, j, r in log)
    for P_ in (divisors, _Divisors(divisors, o)):
        rem_u, steps = divide(p, P_, logged=False)
        assert (rem_u.terms, steps) == (rem.terms, want)


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_a_prepared_set_builds_the_forms_its_steps_use(problem):
    o, p, divisors, _, _, _ = problem
    prepared = _Divisors(divisors, o)
    assert prepared.forms == [None] * len(divisors)
    _, steps = divide(p, prepared, logged=False)
    built = {j for j, f in enumerate(prepared.forms) if f is not None}
    assert built == {j for j, _, _ in steps}
    for j in built:
        den, coeffs, words = prepared.forms[j]
        terms = divisors[j].terms
        assert den == lcm(*(c.denominator for c, _ in terms))
        assert coeffs == [c * den for c, _ in terms]
        assert all(type(c) is int for c in coeffs)
        assert words == tuple(_encode(mon) for _, mon in terms)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_ADMISSIBLE).flatmap(
    lambda o: st.tuples(st.just(o), st.lists(polys(o, 3, 1), min_size=2,
                                            max_size=3))))
# non-monic, negative lead coefficients over coprime big denominators;
# the first and the third element make an S-polynomial that is zero
@example(problem=(_ADMISSIBLE[0], [parse_polynomial(text, _XYZ, _ADMISSIBLE[0])
                                    for text in (
    f"-{2**70 + 1}/3*x*y*x + 7/{2**65}*y",
    f"5/{2**66 + 1}*y*x*y - 2/9*x + 1/11",
    f"{2**70 + 1}/7*x*y*x - 3/{2**65}*y")]))
def test_an_s_polynomial_seed_divides_as_its_polynomial(problem):
    """Every overlap's seed, divided, gives its S-polynomial's remainder
    and log."""
    o, basis = problem
    basis = [q for q in basis if q.lm()]
    divisors = _Divisors(basis, o)
    for i, j in itertools.product(range(len(basis)), repeat=2):
        for spec in enumerate_overlaps(basis[i].lm(), basis[j].lm(),
                                       i == j, i, j):
            s = s_polynomial(spec, basis[i], basis[j])
            seed = _s_seed(spec, divisors)
            assert any(seed[0].values()) == (not s.is_zero())
            rem, log = divide(seed, divisors)
            want, want_log = divide(s, basis)
            assert (rem.terms, log) == (want.terms, want_log)
            assert poly_combine(rem, log_expand(log, basis), 1) == s


def _relabelled(polys, alphabet, ordering, letter_map):
    return [Polynomial([Term(t.coeff, tuple(letter_map[x] for x in t.mon))
                        for t in q.terms], alphabet, ordering) for q in polys]


@pytest.mark.parametrize("kind", ["deglex", "deginvlex", "degrevlex"])
def test_no_alphabet_cap(kind):
    # the letters 0, 255, 256 and 299 of g0 > ... > g299, and the same
    # system on a > b > c > d: the relabelling keeps the order of the
    # letters, so every result must map back letter for letter
    wide = Alphabet([f"g{k}" for k in range(300)])
    small = Alphabet(["a", "b", "c", "d"])
    o_wide, o_small = MonomialOrdering(kind, wide), MonomialOrdering(kind, small)
    down = {0: 0, 255: 1, 256: 2, 299: 3}
    up = {v: k for k, v in down.items()}
    F = P(wide, o_wide, "g0*g299 - g299*g256", "g255*g256 - g0", "g299^2 - 1")
    assert _relabelled(F, small, o_small, down) == P(
        small, o_small, "a*d - d*c", "b*c - a", "d^2 - 1")
    runs = []
    for o, G in ((o_wide, F), (o_small, _relabelled(F, small, o_small, down))):
        result = mora(G, o)
        assert result.status == "complete" and result.stats["criterion2_skips"]
        runs.append((result.basis, reduce_basis(result.basis, o)))
    (basis_w, reduced_w), (basis_s, reduced_s) = runs
    assert basis_w == _relabelled(basis_s, wide, o_wide, up)
    assert reduced_w == _relabelled(reduced_s, wide, o_wide, up)
    for text in ("g299*g0*g299*g255*g256", "g255*g256*g299^3 + g0",
                 "g256*g0*g299*g0 - 2*g255"):
        p = P(wide, o_wide, text)
        rem_w, log_w = divide(p, basis_w)
        rem_s, log_s = divide(_relabelled([p], small, o_small, down)[0],
                              basis_s)
        assert rem_w == _relabelled([rem_s], wide, o_wide, up)[0]
        assert log_w == tuple((Term(l.coeff, tuple(up[x] for x in l.mon)), k,
                               Term(r.coeff, tuple(up[x] for x in r.mon)))
                              for l, k, r in log_s)
        assert log_w and poly_combine(rem_w, log_expand(log_w, basis_w), 1) == p


def test_division_refuses_non_admissible_orderings(xy):
    # under lex, division can return a malformed remainder or never
    # return; divide and inv_divide take their ordering from their
    # polynomials, and none can be built under lex or invlex
    for kind in ("lex", "invlex"):
        with pytest.raises(ValueError, match=f"^{kind} is not admissible"):
            MonomialOrdering(kind, xy)


def test_divide_remainder_irreducible(xyz, o):
    rng = seeded_rng("divide-irreducible")
    for _ in range(25):
        p = random_poly(rng, xyz, o)
        divisors = [random_poly(rng, xyz, o) for _ in range(2)]
        divisors = [d for d in divisors if not d.is_zero() and d.lm()]
        if not divisors or p.is_zero():
            continue
        rem, log = divide(p, divisors)
        for t in rem.terms:
            assert all(brute_force_placement(t.mon, d.lm()) is None
                       for d in divisors)
        assert poly_combine(p, rem, -1) == log_expand(log, divisors)


# ---------------------------------------------------------------------------
# mora
# ---------------------------------------------------------------------------

def test_mora_worked_example(xyz, o):
    F = P(xyz, o, *MORA_FIXTURE)
    result = mora(F, o)
    assert result.status == "complete"
    assert [repr(g) for g in result.basis] == [
        "x*y - z", "y*z + 2*x + z", "y*z + x",
        "x + z", "-z*y - z", "2*z^2"]


def test_mora_single_monomial(xyz, o):
    (f,) = [P(xyz, o, "x")]
    result = mora([f], o)
    assert result.basis == [f] and result.status == "complete"


def test_mora_second_fixture_reduced_form(xy):
    # the unreduced basis depends on processing order, so compare the
    # canonical reduced form and check membership of the expected list
    o = MonomialOrdering("deglex", xy)
    F = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8")
    result = mora(F, o)
    assert result.status == "complete"
    assert all_spolys_reduce_to_zero(result.basis)
    expected = P(xy, o, "2*x*y + y^2 + 5", "x^2 + y^2 + 8",
                 "5*y^3 - 10*x + 37*y", "2*y*x + y^2 + 5")
    assert reduce_basis(result.basis, o) == reduce_basis(expected, o)
    for g in expected:
        rem, _ = divide(g, result.basis)
        assert rem.is_zero()


def test_mora_gb_property_on_fixture(xyz, o):
    result = mora(P(xyz, o, *MORA_FIXTURE), o)
    assert all_spolys_reduce_to_zero(result.basis)


def test_a_basis_with_a_constant_is_groebner(xyz, o):
    assert all_spolys_reduce_to_zero(P(xyz, o, "x*y*x - z", "3"))


def test_mora_strategy_independence(xyz, xy, o):
    fixtures = [
        (o, P(xyz, o, *MORA_FIXTURE)),
        (MonomialOrdering("deglex", xy),
         P(xy, MonomialOrdering("deglex", xy),
           "2*x*y + y^2 + 5", "x^2 + y^2 + 8")),
    ]
    for ordering, F in fixtures:
        normal = mora(F, ordering, strategy="normal")
        sugar = mora(F, ordering, strategy="sugar")
        assert (reduce_basis(normal.basis, ordering)
                == reduce_basis(sugar.basis, ordering))


def test_mora_logged(xyz, o):
    # a zero generator keeps its position: logs index the caller's F
    for F in (P(xyz, o, *MORA_FIXTURE),
              [Polynomial.zero(xyz, o)] + P(xyz, o, "x*y - y", "y*x - x")):
        result = mora(F, o, logged=True)
        assert len(result.logs) == len(result.basis)
        for g, log in zip(result.basis, result.logs):
            assert log_expand(log, F) == g


def test_mora_generators_reduce_to_zero(xyz, o):
    F = P(xyz, o, *MORA_FIXTURE)
    gb = reduce_basis(mora(F, o).basis, o)
    for f in F:
        rem, _ = divide(f, gb)
        assert rem.is_zero()


def test_mora_iteration_cap(xyz, o):
    F = P(xyz, o, *MORA_FIXTURE)
    result = mora(F, o, max_iterations=1)
    assert result.status == "iteration_cap_hit"
    assert result.stats["iterations"] == 1


def test_mora_degree_cap(xyz, o):
    # remainders above the cap stop the run instead of joining the basis
    F = P(xyz, o, "x*y - z", "y*z + x")
    result = mora(F, o, max_degree=1)
    assert result.status in ("degree_cap_hit", "complete")


@pytest.mark.parametrize("texts", [("x - 1", "x - 2"), ("x*y - z", "3", "y")])
def test_mora_unit_ideal(xyz, o, texts):
    # a constant, reached as a remainder or given, completes the run
    F = P(xyz, o, *texts)
    result = mora(F, o, logged=True)
    assert result.status == "complete"
    assert reduce_basis(result.basis, o) == [P(xyz, o, "1")]
    for g, log in zip(result.basis, result.logs, strict=True):
        assert log_expand(log, F) == g


def test_mora_rejects_empty_input(xyz, o):
    with pytest.raises(ValueError):
        mora([Polynomial.zero(xyz, o)], o)
    with pytest.raises(ValueError):
        mora(P(xyz, o, "x"), o, strategy="bogus")


# ---------------------------------------------------------------------------
# reduce_basis
# ---------------------------------------------------------------------------

def test_reduce_basis_worked_example(xyz, o):
    G = mora(P(xyz, o, *MORA_FIXTURE), o).basis
    assert reduce_basis(G, o) == P(xyz, o, *REDUCED_FIXTURE)


def test_reduce_basis_idempotent(xyz, o):
    G = reduce_basis(mora(P(xyz, o, *MORA_FIXTURE), o).basis, o)
    assert reduce_basis(G, o) == G


def test_reduce_basis_drops_multiples(xyz, o):
    assert reduce_basis(P(xyz, o, "2*x", "x^2"), o) == [P(xyz, o, "x")]


def test_reduce_basis_permutation_invariant(xyz, o):
    G = mora(P(xyz, o, *MORA_FIXTURE), o).basis
    expect = reduce_basis(G, o)
    for perm in itertools.permutations(G):
        assert reduce_basis(list(perm), o) == expect


def test_reduce_basis_sorted_descending(xyz, o):
    out = reduce_basis(mora(P(xyz, o, *MORA_FIXTURE), o).basis, o)
    keys = [o.key(g.lm()) for g in out]
    assert keys == sorted(keys, reverse=True)
    assert all(g.lc() == 1 for g in out)


def list_reduce_basis(G, ordering):
    """``reduce_basis`` as a loop over lists: drop each element whose lead
    word holds another's, then divide each element in turn by those not
    yet reduced, then those reduced, in that order."""
    work = [g.with_ordering(ordering).monic() for g in G if not g.is_zero()]
    i = 0
    while i < len(work):
        u = work[i].lm()
        if any(v == u[s:s + len(v)] for jj, g in enumerate(work) if jj != i
               for v in [g.lm()] for s in range(len(u) - len(v) + 1)):
            del work[i]
        else:
            i += 1
    done = []
    while work:
        g = work.pop(0)
        others = work + done
        done.append(divide(g, others, logged=False)[0] if others else g)
    return sorted(done, key=lambda g: ordering.key(g.lm()), reverse=True)


_XYZ = Alphabet(["x", "y", "z"])


@st.composite
def reduce_basis_inputs(draw):
    """An ordering of x > y > z and a list of polynomials in it, zero ones
    too, or the basis a short Mora run makes of them: a Gröbner Basis if
    the run completes, not always one if a cap stops it."""
    o = MonomialOrdering(draw(st.sampled_from(["deglex", "deginvlex",
                                               "degrevlex"])), _XYZ)
    term = st.tuples(st.sampled_from([1, -1, 2, 3, Fraction(1, 2)]),
                     st.lists(st.integers(0, 2), max_size=4).map(tuple))
    F = draw(st.lists(st.lists(term, max_size=4).map(
        lambda ts: Polynomial(ts, _XYZ, o)), min_size=1, max_size=5))
    if draw(st.booleans()) and any(not f.is_zero() for f in F):
        F = mora(F, o, max_degree=5, max_iterations=20).basis
    return o, F


@settings(max_examples=150, deadline=None)
@given(reduce_basis_inputs())
# divided by the reduced elements first, y*x*z*x - 1/3*z*y*z + 1/6*z*x
# would lose its last term here
@example(case=(MonomialOrdering("deglex", _XYZ), P(
    _XYZ, MonomialOrdering("deglex", _XYZ), "-z^2",
    "3*y*x*z*x - z^2*y^2 - x*z^2 - z*y*z", "2*z*y^2 + x", "x*y + 2")))
def test_reduce_basis_divides_in_list_order(case):
    o, F = case
    assert reduce_basis(F, o) == list_reduce_basis(F, o)


# ---------------------------------------------------------------------------
# sugar
# ---------------------------------------------------------------------------

def _spec(l1, r1, l2, r2):
    return OverlapSpec(0, 1, l1, r1, l2, r2, "suffix", ())


def test_sugar_formula(xyz):
    z = w(xyz, "z")
    spec = _spec((), z, z, ())
    assert sugar_value(spec, 3, 2) == 4
    assert sugar_value(spec, 3, 5) == 6


def test_sugar_trivial_tie(xyz):
    spec = _spec((), (), (), ())
    assert sugar_value(spec, 7, 7) == 7


def test_sugar_of_product_rule(xyz):
    # Sug(t1 * p * t2) = deg t1 + Sug p + deg t2, realised through the
    # cofactor degrees in the formula
    spec = _spec(w(xyz, "xy"), w(xyz, "z"), (), ())
    assert sugar_value(spec, 4, 0) == 2 + 4 + 1
