"""Alphabets, terms, polynomials, parsing and printing."""

import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly import (Alphabet, MonomialOrdering, ParseError, Polynomial, Term,
                    format_polynomial, mora, normal_word_counts,
                    parse_polynomial, poly_combine, reduce_basis, term_mul_poly)
from ncpoly.algebra import _encode, _terms_text, _text_words
from ncpoly.orderings import _degrevlex_key, _heap_keys

from conftest import ORACLE_KEYS, P, group_presentation, w


@pytest.fixture
def o(xyz):
    return MonomialOrdering("deglex", xyz)


# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------

def test_alphabet_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["x", "y", "x"])
    with pytest.raises(ValueError):
        Alphabet(["", "x"])
    for name in (" u", "+w", "1v"):     # the scanner never reads these
        with pytest.raises(ValueError):
            Alphabet([name, "x"])


def test_alphabet_lookup(xyz):
    assert xyz.index("y") == 1
    assert xyz.name(2) == "z"
    with pytest.raises(ValueError):
        xyz.index("q")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def test_zero_polynomial_accessors_error(xyz, o):
    zero = Polynomial.zero(xyz, o)
    assert zero.is_zero()
    for fn in (zero.lt, zero.lm, zero.lc, zero.degree):
        with pytest.raises(ValueError):
            fn()


def test_polynomial_immutable(xyz, o):
    p = P(xyz, o, "x + y")
    with pytest.raises(AttributeError):
        p.terms = ()
    # nor can one be built over an alphabet its ordering does not share
    with pytest.raises(ValueError, match="different alphabet"):
        Polynomial(p.terms, Alphabet(["x", "y"]), o)


def test_terms_strictly_descending(xyz, o):
    p = P(xyz, o, "z + x*y + 1 + y*z")
    keys = [o.key(t.mon) for t in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert p.lm() == w(xyz, "xy")


def test_poly_combine_demo():
    ab = Alphabet(["a", "b"])
    o = MonomialOrdering("deglex", ab)
    left = P(ab, o, "2*b^2 + 2*b*a + 6*a")
    right = P(ab, o, "2*b^2 + a*b + 4*b")
    assert poly_combine(left, right, -1) == P(ab, o, "2*b*a - a*b + 6*a - 4*b")


def test_poly_combine_cancellation(xyz, o):
    p = P(xyz, o, "x*y - 3*z + 1/2")
    assert poly_combine(p, p, -1).is_zero()
    assert poly_combine(P(xyz, o, "x + z"), P(xyz, o, "x"), -1) == P(xyz, o, "z")
    assert poly_combine(p, P(xyz, o, "y"), 0) == p
    drl = MonomialOrdering("degrevlex", xyz)
    with pytest.raises(ValueError, match="different algebras or orderings"):
        poly_combine(p, P(xyz, drl, "y"), 1)


def test_term_mul_poly_division_quotient(xyz, o):
    p = P(xyz, o, "5*z^2*x + 2*y^2 + x + 4")
    got = term_mul_poly(Term(Fraction(3, 5), w(xyz, "xyx")), p,
                        Term(Fraction(1), w(xyz, "xx")))
    want = P(xyz, o, "3*x*y*x*z^2*x^3 + 6/5*x*y*x*y^2*x^2 + 3/5*x*y*x^4 "
                     "+ 12/5*x*y*x^3")
    assert got == want


def test_term_mul_poly_identity(xyz, o):
    p = P(xyz, o, "x*y - 3*z + 1")
    unit = Term(Fraction(1), ())
    assert term_mul_poly(unit, p, unit) == p


def test_term_mul_poly_term_by_term(xyz, o):
    got = term_mul_poly(Term(Fraction(1), w(xyz, "x")), P(xyz, o, "y + 1"),
                        Term(Fraction(1), ()))
    assert got == P(xyz, o, "x*y + x")


def test_term_mul_poly_rejects_foreign_letters(xyz, o):
    with pytest.raises(ValueError):
        term_mul_poly(Term(Fraction(1), (3,)), P(xyz, o, "x"),
                      Term(Fraction(1), ()))


def test_term_mul_poly_rejects_zero_terms(xyz, o):
    with pytest.raises(ValueError):
        term_mul_poly(Term(Fraction(0), ()), P(xyz, o, "x"),
                      Term(Fraction(1), ()))


def test_monic_and_scaled(xyz, o):
    p = P(xyz, o, "2*x*y - 4*z")
    assert p.monic() == P(xyz, o, "x*y - 2*z")
    assert p.scaled(Fraction(1, 2)) == P(xyz, o, "x*y - 2*z")
    assert (-p) == P(xyz, o, "-2*x*y + 4*z")
    assert p.scaled(0).is_zero()


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def test_parse_two_terms(xyz, o):
    p = parse_polynomial("x*y - z", xyz, o)
    assert p.terms == (Term(Fraction(1), w(xyz, "xy")),
                       Term(Fraction(-1), w(xyz, "z")))


def test_parse_with_coefficients_and_powers(xy):
    o = MonomialOrdering("deglex", xy)
    p = parse_polynomial("2*x^2*y^2 - 2*x*y^2 + x^2", xy, o)
    assert p.terms == (Term(Fraction(2), w(xy, "xxyy")),
                       Term(Fraction(-2), w(xy, "xyy")),
                       Term(Fraction(1), w(xy, "xx")))


def test_parse_rationals_and_constants(xyz, o):
    p = parse_polynomial("-3/4 + 1/2*z", xyz, o)
    assert p.terms == (Term(Fraction(1, 2), w(xyz, "z")),
                       Term(Fraction(-3, 4), ()))


def test_parse_unknown_generator(xyz, o):
    with pytest.raises(ParseError):
        parse_polynomial("q", xyz, o)


def test_parse_errors_carry_position(xyz, o):
    cases = (("", 0, "empty polynomial"),
             ("x +", 3, "expected a term"),
             ("x ^ 0", 4, "exponent must be >= 1"),
             ("1/0", 2, "zero denominator"),
             ("x y", 2, "expected '+' or '-' between terms"),
             ("2**x", 2, "expected gen"),
             ("x²", 1, "unexpected character '²'"),
             ("q", 0, "unknown generator starting at 'q'"),
             ("1" * 5000, 0, "integer too long"),
             ("x^99999999999999999999", 2, "exponent too large"))
    for text, position, message in cases:
        with pytest.raises(ParseError) as caught:
            parse_polynomial(text, xyz, o)
        assert caught.value.position == position, text
        assert str(caught.value) == f"{message} (at position {position})"


def test_parse_longest_name_first():
    ab = Alphabet(["xx", "x"])
    o = MonomialOrdering("deglex", ab)
    p = parse_polynomial("xx*x", ab, o)
    assert p.terms == (Term(Fraction(1), (0, 1)),)


# "y z" holds a space and "xy" starts with the name "x"; Alphabet refuses
# names that start with whitespace, an operator or a digit, so those
# three stay in the pieces only as text
_TRICKY = Alphabet(["x", "xy", "y z", "é"])
_TRICKY_ORDERING = MonomialOrdering("deglex", _TRICKY)
# an exponent of five digits or more could build a word of billions of
# letters; only the explicit examples below go past the index size
_LONG_EXPONENT = re.compile(r"\^\s*\d{5}")
_PIECES = (*_TRICKY.generators, " u", "+w", "1v", "y", "z", *"+-*/^", "0",
           "1", "12", "\u0663", " ", "\t", "\u00a0", "q", "\u00b2", "(", ".")


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)
       .filter(lambda text: not _LONG_EXPONENT.search(text)))
@example("1" * 5000)
@example("x^99999999999999999999")
def test_parse_accepts_or_refuses_with_a_position(text):
    try:
        p = parse_polynomial(text, _TRICKY, _TRICKY_ORDERING)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        assert str(exc).endswith(f"(at position {exc.position})")
    else:
        assert isinstance(p, Polynomial)


def test_format_zero(xyz, o):
    assert format_polynomial(Polynomial.zero(xyz, o)) == "0"


def test_format_runs_powers(xyz, o):
    assert format_polynomial(P(xyz, o, "x^2*y*x - 1/2")) == "x^2*y*x - 1/2"


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

_ALPHABET = Alphabet(["x", "y", "z"])
_ORDERING = MonomialOrdering("deglex", _ALPHABET)

words = st.lists(st.integers(0, 2), max_size=6).map(tuple)
coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                   st.integers(1, 9))
raw_terms = st.lists(st.tuples(coeffs, words), min_size=0, max_size=8)
polys = raw_terms.map(
    lambda ts: Polynomial([Term(c, m) for c, m in ts], _ALPHABET, _ORDERING))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
terms = st.tuples(coeffs, words).map(lambda t: Term(*t))


@given(polys)
def test_normalization_idempotent(p):
    again = Polynomial(p.terms, _ALPHABET, _ORDERING)
    assert again.terms == p.terms


@settings(max_examples=200)
@given(nonzero_polys)
def test_parse_format_round_trip(p):
    assert parse_polynomial(format_polynomial(p), _ALPHABET, _ORDERING) == p


@given(polys, polys)
def test_exact_add_then_subtract(p, q):
    assert poly_combine(poly_combine(p, q, 1), q, -1) == p
    for t in poly_combine(p, q, 1).terms:
        assert isinstance(t.coeff, Fraction)


@given(terms, terms, polys, terms, terms)
def test_term_mul_associativity(l1, l2, p, r2, r1):
    nested = term_mul_poly(l1, term_mul_poly(l2, p, r2), r1)
    flat = term_mul_poly(Term(l1.coeff * l2.coeff, l1.mon + l2.mon), p,
                         Term(r2.coeff * r1.coeff, r2.mon + r1.mon))
    assert nested == flat


@given(terms, polys, polys, terms)
def test_term_mul_distributes_over_combine(l, p, q, r):
    lhs = term_mul_poly(l, poly_combine(p, q, 1), r)
    rhs = poly_combine(term_mul_poly(l, p, r), term_mul_poly(l, q, r), 1)
    assert lhs == rhs


@given(st.sampled_from(("deglex", "deginvlex", "degrevlex")), terms, polys, terms)
def test_term_mul_poly_trusted_product_is_normalized(kind, l, p, r):
    o = MonomialOrdering(kind, _ALPHABET)
    p = p.with_ordering(o)
    got = term_mul_poly(l, p, r)
    product = [Term(l.coeff * t.coeff * r.coeff, l.mon + t.mon + r.mon)
               for t in p.terms]
    assert got.terms == Polynomial(product, _ALPHABET, o).terms
    assert isinstance(got.terms, tuple)
    assert all(isinstance(t.coeff, Fraction) for t in got.terms)


# ---------------------------------------------------------------------------
# Term texts
# ---------------------------------------------------------------------------

_WIDE = Alphabet([f"g{k}" for k in range(300)])   # letters past 255


@st.composite
def texts_and_words(draw):
    """A nonzero polynomial over three or 300 letters, and a word: any
    word, or one cut from two of its term words joined by a letter, so
    that it may straddle the joint of two terms in the text."""
    alphabet = draw(st.sampled_from([_ALPHABET, _WIDE]))
    letters = st.integers(0, len(alphabet) - 1)
    word = st.lists(letters, max_size=4).map(tuple)
    # positive coefficients never cancel, so p is nonzero
    p = Polynomial(draw(st.lists(st.tuples(st.integers(1, 3), word),
                                 min_size=1, max_size=4)),
                   alphabet, MonomialOrdering("deglex", alphabet))
    if draw(st.booleans()):
        return p, draw(word)
    mons = st.sampled_from([mon for _, mon in p.terms])
    joined = draw(mons) + (draw(letters),) + draw(mons)
    start = draw(st.integers(0, len(joined)))
    return p, joined[start:draw(st.integers(start, len(joined)))]


@settings(max_examples=300)
@given(texts_and_words())
# y, x, z straddles the joint of y and z: the separator is no letter
@example(case=(P(_ALPHABET, _ORDERING, "y + z"), (1, 0, 2)))
@example(case=(P(_ALPHABET, _ORDERING, "x*y + z"), ()))
def test_terms_text_holds_exactly_the_subwords_of_the_terms(case):
    p, v = case
    subword = any(mon[s:s + len(v)] == v for _, mon in p.terms
                  for s in range(len(mon) - len(v) + 1))
    assert (_encode(v) in _terms_text(p)) == subword


def _joined(word):
    return "".join(map(chr, word))


@settings(max_examples=300)
@given(st.lists(st.integers(0, 299), max_size=8).map(tuple))
@example(word=())
@example(word=(255,))
@example(word=(256,))
@example(word=(254, 255, 256, 255, 0))
@example(word=(10, 0, 13))
def test_encode_is_one_code_point_per_letter(word):
    # below 256 the word goes through bytes, else letter by letter: the
    # text must not depend on which
    assert _encode(word) == _joined(word)


@settings(max_examples=100)
@given(texts_and_words())
def test_terms_text_joins_the_encoded_terms(case):
    p, _ = case
    assert _terms_text(p) == chr(len(p.alphabet)).join(
        [_joined(mon) for _, mon in p.terms])
    if p.terms:
        assert _text_words(_terms_text(p), p.alphabet) == [
            _joined(mon) for _, mon in p.terms]


@pytest.mark.parametrize("n", [2, 300])
def test_codec_round_trips_words(n):
    # the alphabet's codec, chosen once from its size, encodes a word as
    # _encode does and decodes it back; the 300-letter one covers letters
    # 255 and 256 on both sides of the bytes path's limit
    encode, decode = Alphabet([f"g{k}" for k in range(n)])._codec
    words = [(), (0,), (1, 0, 1), (n - 1,) * 3]
    if n > 256:
        words += [(255,), (256,), (0, 255, 256, 299), (256, 255)]
    for word in words:
        text = encode(word)
        assert text == _encode(word) == _joined(word)
        assert decode(text) == word
    with pytest.raises(ValueError):
        encode((0, -1))


@settings(max_examples=200)
@given(st.sampled_from(["deglex", "deginvlex", "degrevlex"]),
       st.sampled_from([3, 300]),
       st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple),
                min_size=1, max_size=8, unique=True),
       st.integers(0, 3))
@example(kind="degrevlex", n=3, words=[(0, 1), (1, 0), (0,), (2, 2, 2)],
         longest=0)
@example(kind="deginvlex", n=300,
         words=[(), (255,), (256,), (256, 255), (0, 299)], longest=1)
def test_heap_keys_ascend_as_the_ordering_descends(kind, n, words, longest):
    # letters 0..2 of an alphabet of n; on 300 letters they flip to
    # 297..299, past the bytes path
    o = MonomialOrdering(kind, Alphabet([f"g{k}" for k in range(n)]))
    encode = o.alphabet._codec[0]
    key, word = _heap_keys(o, max(map(len, words)) + longest)
    texts = [encode(u) for u in words]
    assert [word(key(t)) for t in texts] == texts
    by_key = sorted(words, key=lambda u: key(encode(u)))
    assert by_key == sorted(words, key=ORACLE_KEYS[kind], reverse=True)


@settings(max_examples=200)
@given(st.sampled_from(["deglex", "deginvlex", "degrevlex"]),
       st.sampled_from([3, 300]),
       st.lists(st.tuples(st.lists(st.integers(0, 299), max_size=5).map(tuple),
                          st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 5)),
                min_size=1, max_size=8))
@example(kind="deglex", n=300,
         entries=[((255,), 0, 0, 0), ((256,), 0, 0, 0), ((), 1, 0, 0),
                  ((255, 256), 1, 2, 0), ((255, 256), 1, 1, 1),
                  ((256, 255), 0, 0, 0), ((299, 0, 256), 0, 0, 0)])
def test_queue_keys_ascend_as_the_oracle(kind, n, entries):
    # mora's overlap key is the word's key then chr(i), chr(j) and
    # chr(len(l1)); completion's queue ranks by the word's key, and
    # involutive sorts its tables by _degrevlex_key on encoded words.
    # Letters are taken modulo n: on 300 letters they reach past 255,
    # past the bytes path
    o = MonomialOrdering(kind, Alphabet([f"g{k}" for k in range(n)]))
    oracle, encode = ORACLE_KEYS[kind], o.alphabet._codec[0]
    entries = sorted({(tuple(x % n for x in u), i, j, a)
                      for u, i, j, a in entries})
    def overlap_key(e):
        return o.key(e[0]) + chr(e[1]) + chr(e[2]) + chr(e[3])

    assert sorted(entries, key=overlap_key) == sorted(
        entries, key=lambda e: (oracle(e[0]), *e[1:]))
    words = sorted({u for u, *_ in entries})
    assert sorted(words, key=lambda u: _degrevlex_key(encode(u))) \
        == sorted(words, key=ORACLE_KEYS["degrevlex"])


@pytest.mark.parametrize("word", [(-1,), (0, -1), (300, -1)])
def test_encode_refuses_a_negative_letter(word):
    with pytest.raises(ValueError):
        _encode(word)


# ---------------------------------------------------------------------------
# Normal words
# ---------------------------------------------------------------------------

def brute_force_normal_counts(words, n_letters, max_degree):
    """Oracle for ``normal_word_counts``: every word of each degree, tested
    for each of ``words`` as a subword."""
    texts = ["".join(map(str, v)) for v in words]
    return [sum(1 for u in product("".join(map(str, range(n_letters))), repeat=d)
                if not any(v in "".join(u) for v in texts))
            for d in range(max_degree + 1)]


def test_normal_word_counts_match_enumeration():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 3)
        words = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(0, 5))]
        max_degree = rng.randint(0, 7)
        assert (normal_word_counts(words, n, max_degree)
                == brute_force_normal_counts(words, n, max_degree))
    # a word holding another, and a word holding itself twice
    assert normal_word_counts([(0, 1, 0), (1,), (1,)], 2, 4) == [1, 1, 1, 1, 1]
    # the empty word is in every word
    for words in ([()], [(0, 1), ()]):
        assert normal_word_counts(words, 2, 5) == [0] * 6
    assert normal_word_counts([], 3, 3) == [1, 3, 9, 27]


# Coxeter graphs: the letters, and the pairs whose product has order
# m > 2 (every other pair commutes)
COXETER = {"D5": ("abcde", {"ab": 3, "bc": 3, "cd": 3, "ce": 3}),
           "F4": ("abcd", {"ab": 3, "bc": 4, "cd": 3})}


def coxeter_presentation(group):
    letters, edges = COXETER[group]
    alphabet = Alphabet(list(letters))
    o = MonomialOrdering("deglex", alphabet)
    texts = [f"{s}^2 - 1" for s in letters]
    for s, t in combinations(letters, 2):
        m = edges.get(s + t, 2)
        texts.append("*".join((s, t) * m)[:2 * m - 1] + " - "
                     + "*".join((t, s) * m)[:2 * m - 1])
    return o, P(alphabet, o, *texts)


@pytest.mark.parametrize("group, order", [("S3", 6), ("A4", 12), ("S4", 24),
                                          ("D5", 1920), ("F4", 1152)])
def test_normal_word_counts_give_group_orders(group_alphabet, group, order):
    if group in COXETER:
        o, F = coxeter_presentation(group)
    else:
        o = MonomialOrdering("deglex", group_alphabet)
        F = group_presentation(group_alphabet, o, group)
    basis = reduce_basis(mora(F, o).basis, o)
    counts = normal_word_counts([g.lm() for g in basis], len(o.alphabet), 30)
    # a degree with no normal word has none above it
    assert counts[-1] == 0
    assert sum(counts) == order
