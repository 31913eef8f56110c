"""Exact arithmetic in the free associative algebra.

Monomials are words over an ordered alphabet, stored as flat tuples of
generator indices (index 0 is the highest-priority generator).  Terms pair
a nonzero ``fractions.Fraction`` coefficient with a word, and polynomials
keep their terms strictly descending under a monomial ordering supplied
at construction time.  Floating point never appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Alphabet:
    """An ordered sequence of distinct generator names, highest priority first."""

    __slots__ = ("generators", "_index")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("alphabet needs at least one generator")
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        self.generators = generators
        self._index = {name: i for i, name in enumerate(generators)}

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "Alphabet(%s)" % " > ".join(self.generators)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def name(self, index):
        return self.generators[index]


# ---------------------------------------------------------------------------
# Words.  A word is a plain tuple of generator indices; () is the unit
# monomial.
# ---------------------------------------------------------------------------

def _encode(word):
    """A word as a str with one code point per letter, so that ``str.find``
    searches for one word inside another in C, for any alphabet size."""
    return "".join(map(chr, word))


class _Divisors:
    """The one conventional divisor search: nonzero polynomials in one
    ordering, ``polys``, with their lead words encoded once (``words``).

    Each element is checked once, when it is added.  ``first`` and
    ``occurrences`` find the lead words inside a word.
    """

    __slots__ = ("ordering", "polys", "words")

    def __init__(self, polys, ordering):
        self.ordering = ordering
        self.polys = []
        self.words = []
        for q in polys:
            self.add(q)

    def add(self, q):
        """Append the nonzero polynomial q, in the set's ordering."""
        if q.is_zero():
            raise ValueError("divisors must be nonzero")
        if q.ordering is not self.ordering and q.ordering != self.ordering:
            raise ValueError("polynomials live in different algebras or orderings")
        self.polys.append(q)
        self.words.append(_encode(q.terms[0].mon))

    def first(self, u):
        """The first element whose lead word occurs in the word u, and its
        leftmost offset there, as (j, s), or None."""
        text = _encode(u)
        for j, v in enumerate(self.words):
            s = text.find(v)
            if s >= 0:
                return j, s
        return None

    def occurrences(self, u):
        """Every (j, s) with element j's lead word at offset s in u."""
        text = _encode(u)
        for j, v in enumerate(self.words):
            s = text.find(v)
            while s >= 0:
                yield j, s
                s = text.find(v, s + 1)


class Term(NamedTuple):
    coeff: Fraction
    mon: tuple


class Polynomial:
    """A finite sum of terms, strictly descending under ``ordering``.

    The zero polynomial is the empty term sequence; asking it for a lead
    term/monomial/coefficient is an error rather than a sentinel.
    Instances are immutable and hashable.
    """

    __slots__ = ("alphabet", "ordering", "terms", "_hash")

    def __init__(self, terms, alphabet, ordering, _trusted=False):
        if ordering.alphabet != alphabet:
            raise ValueError("ordering belongs to a different alphabet")
        if not _trusted:
            terms = _normalize(terms, alphabet, ordering)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, alphabet, ordering):
        return cls((), alphabet, ordering, _trusted=True)

    def is_zero(self):
        return not self.terms

    def lt(self):
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0]

    def lm(self):
        return self.lt().mon

    def lc(self):
        return self.lt().coeff

    def degree(self):
        """Total degree: the degree of the term of maximal degree."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(len(t.mon) for t in self.terms)

    def monic(self):
        if self.is_zero():
            return self
        c = self.lc()
        if c == 1:
            return self
        terms = tuple(Term(t.coeff / c, t.mon) for t in self.terms)
        return Polynomial(terms, self.alphabet, self.ordering, _trusted=True)

    def scaled(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return Polynomial.zero(self.alphabet, self.ordering)
        terms = tuple(Term(t.coeff * scalar, t.mon) for t in self.terms)
        return Polynomial(terms, self.alphabet, self.ordering, _trusted=True)

    def with_ordering(self, ordering):
        """The same polynomial re-sorted under another ordering."""
        if ordering is self.ordering or ordering == self.ordering:
            return self
        return Polynomial(_sum_terms(self.terms, ordering), self.alphabet,
                          ordering, _trusted=True)

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.alphabet, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return format_polynomial(self)


def _normalize(terms, alphabet, ordering):
    n = len(alphabet)
    pairs = []
    for coeff, mon in terms:
        mon = tuple(mon)
        for letter in mon:
            if not (0 <= letter < n):
                raise ValueError(f"letter index {letter} out of range for alphabet")
        pairs.append((Fraction(coeff), mon))
    return _sum_terms(pairs, ordering)


def _sum_terms(pairs, ordering):
    """The (coefficient, word) pairs summed per word, zeros dropped, as
    terms descending under ``ordering``."""
    acc = {}
    for coeff, mon in pairs:
        prev = acc.get(mon)
        acc[mon] = coeff if prev is None else prev + coeff
    out = [Term(c, m) for m, c in acc.items() if c != 0]
    out.sort(key=lambda t: ordering.key(t.mon), reverse=True)
    return tuple(out)


def poly_combine(a, b, scalar):
    """a + scalar*b, renormalized.  Subtraction is scalar = -1."""
    if a.alphabet != b.alphabet or a.ordering != b.ordering:
        raise ValueError("polynomials live in different algebras or orderings")
    scalar = Fraction(scalar)
    if scalar == 0:
        return a
    pairs = a.terms + tuple((scalar * c, m) for c, m in b.terms)
    return Polynomial(_sum_terms(pairs, a.ordering), a.alphabet, a.ordering,
                      _trusted=True)


def term_mul_poly(l, p, r):
    """The two-sided product l * p * r of a polynomial by terms."""
    if l.coeff == 0 or r.coeff == 0:
        raise ValueError("multiplier terms must be nonzero")
    c = Fraction(l.coeff * r.coeff)
    terms = tuple(Term(c * t.coeff, l.mon + t.mon + r.mon) for t in p.terms)
    if not p.ordering.admissible:
        # lex/invlex are not compatible with multiplication: re-sort
        return Polynomial(terms, p.alphabet, p.ordering)
    # an admissible ordering is compatible with two-sided multiplication,
    # so the product is already strictly descending; only the multiplier
    # letters are new
    n = len(p.alphabet)
    if not all(0 <= x < n for x in l.mon + r.mon):
        raise ValueError("multiplier letter out of range for alphabet")
    return Polynomial(terms, p.alphabet, p.ordering, _trusted=True)


# ---------------------------------------------------------------------------
# Text grammar.  Terms joined by +/-; a term is `coeff`, `coeff*word` or
# `word`; a word is *-separated factors `gen` or `gen^k`; coefficients are
# integers or a/b rationals.  Generator names match longest-first.
# ---------------------------------------------------------------------------

def _tokenize(text, alphabet):
    names = sorted(alphabet.generators, key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        for name in names:
            if text.startswith(name, i):
                tokens.append(("gen", alphabet.index(name), i))
                i += len(name)
                break
        else:
            if ch.isalpha():
                raise ParseError(f"unknown generator starting at {text[i:i+8]!r}", i)
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            where = self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.length
            raise ParseError(f"expected {kind}", where)
        return self.take()

    def parse_poly(self):
        terms = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            coeff, mon = self.parse_term()
            terms.append((sign * coeff, mon))
            nxt = self.peek()
            if nxt is None:
                break
            if nxt not in ("+", "-"):
                raise ParseError("expected '+' or '-' between terms",
                                 self.tokens[self.pos][2])
            sign = -1 if self.take()[0] == "-" else 1
        return terms

    def parse_term(self):
        kind = self.peek()
        if kind == "int":
            num = self.take()[1]
            den = 1
            if self.peek() == "/":
                self.take()
                den = self.expect("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", self.tokens[self.pos - 1][2])
            coeff = Fraction(num, den)
            if self.peek() == "*":
                self.take()
                return coeff, self.parse_word()
            return coeff, ()
        if kind == "gen":
            return Fraction(1), self.parse_word()
        where = self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.length
        raise ParseError("expected a term", where)

    def parse_word(self):
        letters = list(self.parse_factor())
        while self.peek() == "*":
            self.take()
            letters.extend(self.parse_factor())
        return tuple(letters)

    def parse_factor(self):
        gen = self.expect("gen")[1]
        if self.peek() == "^":
            self.take()
            k = self.expect("int")[1]
            if k < 1:
                raise ParseError("exponent must be >= 1", self.tokens[self.pos - 1][2])
            return (gen,) * k
        return (gen,)


def parse_polynomial(text, alphabet, ordering):
    tokens = _tokenize(text, alphabet)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    parser = _Parser(tokens, len(text))
    # the tokenizer yields alphabet indices and the parser Fractions
    return Polynomial(_sum_terms(parser.parse_poly(), ordering), alphabet,
                      ordering, _trusted=True)


def format_word(mon, alphabet):
    if not mon:
        return "1"
    parts = []
    run_letter, run_len = mon[0], 1
    for letter in mon[1:]:
        if letter == run_letter:
            run_len += 1
        else:
            parts.append((run_letter, run_len))
            run_letter, run_len = letter, 1
    parts.append((run_letter, run_len))
    return "*".join(
        alphabet.name(g) if k == 1 else f"{alphabet.name(g)}^{k}"
        for g, k in parts)


def format_polynomial(p):
    if p.is_zero():
        return "0"
    pieces = []
    for idx, (coeff, mon) in enumerate(p.terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = format_word(mon, p.alphabet)
        else:
            body = f"{mag}*{format_word(mon, p.alphabet)}"
        if idx == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)
