"""Monomial orderings, ordering functions and admissibility."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, MonomialOrdering, Polynomial, Term,
                    admissibility_check, autoreduce, decomposition,
                    degree_function, harmonious, initial, mora,
                    parse_polynomial, reduce_basis)
from ncpoly.orderings import ADMISSIBLE_KINDS, ALL_KINDS, OrderingFunction

from conftest import ORACLE_KEYS, P, w


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_deglex_compare(xyz):
    o = MonomialOrdering("deglex", xyz)
    assert o.compare(w(xyz, "zxyx"), w(xyz, "yyzx")) == -1


def test_compare_equal_words(xyz):
    for kind in ADMISSIBLE_KINDS:
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
    for kind in ADMISSIBLE_KINDS:
        o = MonomialOrdering(kind, xyz)
        assert o.compare((), w(xyz, "z")) == -1


@pytest.mark.parametrize("word", [(3,), (0, -1), (256,), (0, 300)])
def test_compare_refuses_a_letter_outside_the_alphabet(xyz, word):
    # str keys would misplace such a word, or raise on the bytes path
    for kind in ALL_KINDS:
        o = MonomialOrdering(kind, xyz, unsafe=True)
        with pytest.raises(ValueError):
            o.compare(word, (0,))
        with pytest.raises(ValueError):
            o.compare((), word)


@settings(max_examples=300)
@given(st.sampled_from(ALL_KINDS), st.sampled_from([3, 300]),
       st.lists(st.lists(st.integers(0, 299), max_size=5).map(tuple),
                min_size=1, max_size=8))
@example(kind="deglex", n=300,
         words=[(), (255,), (256,), (255, 256), (256, 255), (299, 0, 256)])
@example(kind="lex", n=300, words=[(), (255,), (256,), (256, 0), (255, 299)])
def test_key_sorts_as_the_oracle(kind, n, words):
    # letters taken modulo n: on 300 letters they reach past 255, past
    # the bytes path
    o = MonomialOrdering(kind, Alphabet([f"g{k}" for k in range(n)]),
                         unsafe=True)
    words = sorted({tuple(x % n for x in u) for u in words} | {()})
    assert sorted(words, key=o.key) == sorted(words, key=ORACLE_KEYS[kind])


# ---------------------------------------------------------------------------
# unsafe orderings
# ---------------------------------------------------------------------------

def test_lex_refused_by_default(xyz):
    with pytest.raises(ValueError):
        MonomialOrdering("lex", xyz)
    assert MonomialOrdering("lex", xyz, unsafe=True).admissible is False


def test_unknown_kind(xyz):
    with pytest.raises(ValueError):
        MonomialOrdering("grevlex", xyz)


def test_basis_algorithms_refuse_non_admissible(xyz):
    lex = MonomialOrdering("lex", xyz, unsafe=True)
    deglex = MonomialOrdering("deglex", xyz)
    f = parse_polynomial("x*y - z", xyz, deglex)
    with pytest.raises(ValueError):
        mora([f], lex)
    # a one-element basis needs no division, but is refused all the same
    with pytest.raises(ValueError):
        reduce_basis([f], lex)
    with pytest.raises(ValueError):
        autoreduce([f], 3, lex)


# ---------------------------------------------------------------------------
# initial
# ---------------------------------------------------------------------------

def test_initial_of_inhomogeneous(xyz):
    o = MonomialOrdering("deglex", xyz)
    p = P(xyz, o, "x^4 + z*x*y^2 + y^3 + z^2*x")
    assert initial(p, degree_function()) == P(xyz, o, "x^4 + z*x*y^2")


def test_initial_of_homogeneous_is_identity(xyz):
    o = MonomialOrdering("degrevlex", xyz)
    p = P(xyz, o, "x*y*z + 2*z^3 - y^2*x")
    assert initial(p, degree_function()) == p


def test_initial_of_walk_generator(xy):
    o = MonomialOrdering("degrevlex", xy)
    p = P(xy, o, "y^2 + 2*x*y + 5")
    assert initial(p, degree_function()) == P(xy, o, "y^2 + 2*x*y")


def test_initial_of_zero_errors(xyz):
    o = MonomialOrdering("deglex", xyz)
    with pytest.raises(ValueError):
        initial(Polynomial.zero(xyz, o), degree_function())


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

def test_admissibility_of_degree_orderings(xyz):
    for kind in ADMISSIBLE_KINDS:
        report = admissibility_check(MonomialOrdering(kind, xyz), 1000)
        assert report.passed, report.counterexample


def test_lex_fails_admissibility(xyz):
    # the classic witness: x < xy yet x*x > x*yx
    lex = MonomialOrdering("lex", xyz, unsafe=True)
    assert lex.compare(w(xyz, "x"), w(xyz, "xy")) == -1
    assert lex.compare(w(xyz, "xx"), w(xyz, "xyx")) == 1
    report = admissibility_check(lex, 2000)
    assert not report.passed
    assert report.counterexample


def test_invlex_fails_admissibility(xyz):
    report = admissibility_check(MonomialOrdering("invlex", xyz, unsafe=True),
                                 2000)
    assert not report.passed


# ---------------------------------------------------------------------------
# decompositions and harmony
# ---------------------------------------------------------------------------

def test_decomposition_first_function_is_degree(xyz):
    for kind in ADMISSIBLE_KINDS:
        gen = decomposition(MonomialOrdering(kind, xyz))
        first = next(gen)
        assert first == degree_function()
        assert first.extendible


def test_valuing_function_values(xyz):
    word = w(xyz, "zxy")
    n = len(xyz)
    val1 = OrderingFunction("valuing", 1, n)
    val4 = OrderingFunction("valuing", 4, n)
    assert val1(word) == 3          # z is the 3rd generator
    assert val4(word) == n + 1      # undefined position
    rev1 = OrderingFunction("reverse-valuing", 1, n)
    assert rev1(word) == 2          # last letter is y


def test_harmonious_trio(xyz):
    orderings = [MonomialOrdering(k, xyz) for k in ADMISSIBLE_KINDS]
    for o1 in orderings:
        for o2 in orderings:
            assert harmonious(o1, o2)


def test_not_harmonious_with_unsafe_or_other_alphabet(xyz, xy):
    deglex = MonomialOrdering("deglex", xyz)
    lex = MonomialOrdering("lex", xyz, unsafe=True)
    assert not harmonious(deglex, lex)
    assert not harmonious(deglex, MonomialOrdering("deglex", xy))


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

_A = Alphabet(["x", "y", "z"])
words = st.lists(st.integers(0, 2), max_size=6).map(tuple)


@settings(max_examples=300)
@given(words, words, words, st.sampled_from(ADMISSIBLE_KINDS))
def test_compare_antisymmetric_transitive(a, b, c, kind):
    o = MonomialOrdering(kind, _A)
    assert o.compare(a, b) == -o.compare(b, a)
    # transitivity: a <= b <= c implies a <= c
    if o.compare(a, b) <= 0 and o.compare(b, c) <= 0:
        assert o.compare(a, c) <= 0


@settings(max_examples=300)
@given(words, words, st.lists(st.integers(0, 2), max_size=4).map(tuple),
       st.lists(st.integers(0, 2), max_size=4).map(tuple),
       st.sampled_from(ADMISSIBLE_KINDS))
def test_admissible_under_two_sided_multiplication(a, b, l, r, kind):
    o = MonomialOrdering(kind, _A)
    if a != ():
        assert o.compare((), a) == -1
    cmp = o.compare(a, b)
    assert o.compare(l + a + r, l + b + r) == cmp


@settings(max_examples=300)
@given(words, words, st.sampled_from(ADMISSIBLE_KINDS))
def test_decomposition_faithful(m1, m2, kind):
    o = MonomialOrdering(kind, _A)
    if m1 == m2:
        return
    for theta in decomposition(o):
        v1, v2 = theta(m1), theta(m2)
        if v1 != v2:
            expected = -1 if v1 < v2 else 1
            assert o.compare(m1, m2) == expected
            return
        # every word is decided within deg(longer word) + 1 functions,
        # so the loop always returns for distinct words
