"""Tests of the benchmark's independent checker.

    python3 -m pytest perfbench/test_check.py

They show that the checker accepts correct bases and rejects corrupted
ones: an element dropped, a coefficient changed, and that the unit-ideal
check accepts both the known fault and a correct basis {1}.
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from ncpoly import (Alphabet, MonomialOrdering, format_polynomial, mora,  # noqa: E402
                    parse_polynomial, reduce_basis)

S3 = ["x^3 - 1", "y^2 - 1", "x*y*x*y - 1", "X*x - 1", "x*X - 1", "Y*y - 1", "y*Y - 1"]
KEY = check.ordering_key("deglex")


@pytest.fixture(scope="module")
def s3():
    alphabet = Alphabet(["Y", "X", "y", "x"])
    o = MonomialOrdering("deglex", alphabet)
    gens = [parse_polynomial(text, alphabet, o) for text in S3]
    basis = reduce_basis(mora(gens, o).basis, o)
    return [check.as_dict(f) for f in gens], [check.as_dict(g) for g in basis]


def test_accepts_the_reduced_s3_basis(s3):
    gens, basis = s3
    assert check.check_groebner_basis(basis, gens, KEY, 4, order=6) == 6
    assert check.reduced_basis(basis, KEY) == check.frozen(basis)


def test_rejects_a_dropped_element(s3):
    gens, basis = s3
    for idx in range(len(basis)):
        with pytest.raises(check.CheckError):
            check.check_groebner_basis(basis[:idx] + basis[idx + 1:], gens, KEY, 4, order=6)


def test_rejects_a_changed_coefficient(s3):
    gens, basis = s3
    for idx, g in enumerate(basis):
        tail = [w for w in g if w != max(g, key=KEY)]
        if not tail:
            continue
        bad = dict(g)
        bad[tail[0]] += Fraction(1, 2)
        corrupted = basis[:idx] + [bad] + basis[idx + 1:]
        with pytest.raises(check.CheckError):
            check.check_groebner_basis(corrupted, gens, KEY, 4, order=6)
        assert check.reduced_basis(corrupted, KEY) != check.reduced_basis(basis, KEY)


def test_rejects_a_wrong_group_order(s3):
    gens, basis = s3
    with pytest.raises(check.CheckError):
        check.check_groebner_basis(basis, gens, KEY, 4, order=24)


def test_reduced_basis_of_an_unreduced_groebner_basis():
    # the cyclic group of order 3 as x^2 = y, xy = yx = 1, y^2 = x; adding
    # 2*x^2*y - 2*x, which lies in the ideal, leaves the reduced basis alone
    x, y = (0,), (1,)
    base = [{x + x: Fraction(1), y: Fraction(-1)},
            {x + y: Fraction(1), (): Fraction(-1)},
            {y + x: Fraction(1), (): Fraction(-1)},
            {y + y: Fraction(1), x: Fraction(-1)}]
    padded = base + [{x + x + y: Fraction(2), x: Fraction(-2)}]
    assert check.reduced_basis(padded, KEY) == check.reduced_basis(base, KEY)
    check.check_groebner_basis(base, base, KEY, 2, order=3)


def test_normal_words_infinite_and_truncated():
    only_x2 = [{(0, 0): Fraction(1)}]
    assert check.normal_words(only_x2, 2, KEY) is None
    assert len(check.normal_words(only_x2, 2, KEY, max_degree=2)) == 1 + 2 + 3


def test_remainder_text_matches_ncpoly_formatting():
    alphabet = Alphabet(["a", "b", "c"])
    o = MonomialOrdering("deglex", alphabet)
    for coeff, word in ((1, (0, 0, 1)), (-1, (2,)), (3, (1, 1, 1, 0)),
                        (-5, ()), (1, ()), (-2, (0, 2, 2))):
        term = check.format_term(coeff, word, alphabet.generators)
        assert format_polynomial(parse_polynomial(term, alphabet, o)) == term


def test_queries_are_seeded_and_answers_known(s3):
    gens, basis = s3
    names = ("Y", "X", "y", "x")
    words = check.normal_words(basis, 4, KEY)
    first = inputs.membership_queries(3, "s3", gens, words, names, KEY, 20)
    assert first == inputs.membership_queries(3, "s3", gens, words, names, KEY, 20)
    assert first != inputs.membership_queries(4, "s3", gens, words, names, KEY, 20)
    reducer = check.Reducer(basis, KEY)
    alphabet = Alphabet(list(names))
    o = MonomialOrdering("deglex", alphabet)
    for text, expected in first:
        rem = reducer.normal_form(check.as_dict(parse_polynomial(text, alphabet, o)))
        answer = ("member" if not rem else "non-member, remainder: "
                  + check.format_poly(rem, names, KEY))
        assert answer == expected


def test_unit_ideal_accepts_the_known_fault_or_the_basis_one():
    alphabet = Alphabet(["x"])
    o = MonomialOrdering("deglex", alphabet)

    def result(*texts):
        return SimpleNamespace(status="complete", basis=[
            parse_polynomial(text, alphabet, o) for text in texts])

    workloads.check_unit_ideal(ValueError(workloads.UNIT_IDEAL_ERROR), 1)
    workloads.check_unit_ideal(result("1"), 0)
    workloads.check_unit_ideal(result("-3", "x - 1"), 0)
    for out, failed in ((ValueError(workloads.UNIT_IDEAL_ERROR), 0),
                        (ValueError("some other fault"), 1),
                        (result("1"), 1), (result("x - 1"), 0)):
        with pytest.raises(check.CheckError):
            workloads.check_unit_ideal(out, failed)
