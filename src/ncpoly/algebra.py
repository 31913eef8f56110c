"""Exact arithmetic in the free associative algebra.

Monomials are words over an ordered alphabet, stored as flat tuples of
generator indices (index 0 is the highest-priority generator).  Terms pair
a nonzero ``fractions.Fraction`` coefficient with a word, and polynomials
keep their terms strictly descending under a monomial ordering supplied
at construction time.  Floating point never appears anywhere.

The word searches, the reduction kernel and the orderings' keys work on
words encoded as ``str``, one code point per letter, by a codec that
each alphabet chooses once (``_codec``); every encoding of words is
decided here, and every order on words in ``orderings``.

Polynomial text is read by one grammar reader, ``_read_terms``, into
terms of integers and words, for two consumers: ``parse_polynomial``
builds a ``Polynomial`` of them, and ``_text_seed`` sums them straight
into the reduction kernel's integer seed, which the membership loop
divides with no ``Polynomial`` built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import NamedTuple


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Alphabet:
    """An ordered sequence of distinct generator names, highest priority first."""

    __slots__ = ("generators", "_index", "_scanner", "_codec")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("alphabet needs at least one generator")
        for name in generators:
            # the scanner below could never read such a name
            if (not name or name[0].isspace() or name[0] in "+-*/^"
                    or name[0].isdecimal()):
                raise ValueError(f"generator name {name!r} is empty or starts "
                                 "with whitespace, an operator or a digit")
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        self.generators = generators
        self._index = {name: i for i, name in enumerate(generators)}
        # one match per token, after its leading whitespace: an operator, a
        # decimal run, the longest name, any other character, or the end of
        # the text.  Some branch always matches after the whitespace, so
        # nothing backtracks into it and trailing whitespace is one match.
        # The group captures the token alone.
        names = "|".join([*map(re.escape, sorted(generators, key=len,
                                                 reverse=True)), r"\S"])
        self._scanner = re.compile(r"\s*([-+*/^]|\d+|%s|\Z)" % names)
        self._codec = _codec(len(generators))    # chosen once

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

def _codec(n_letters):
    """The (encode, decode) pair for words over ``n_letters`` letters,
    chosen once per alphabet (``Alphabet._codec``).  A word is encoded as
    a str with one code point per letter, so that ``str.find`` searches
    for one word inside another in C, for any alphabet size; decode turns
    such a str back into the tuple.

    Up to 256 letters a word goes through ``bytes``: latin-1 decodes byte
    b to ``chr(b)``, so the string is the one the letter-by-letter path
    makes, made in C.  A wider alphabet takes the letter-by-letter path
    both ways.  Either path refuses a negative letter with
    ``ValueError``."""
    if n_letters <= 256:
        return _bytes_encode, _bytes_decode
    return _letters_encode, _letters_decode


def _bytes_encode(word):
    return bytes(word).decode("latin-1")


def _bytes_decode(text):
    return tuple(text.encode("latin-1"))


def _letters_encode(word):
    return "".join(map(chr, word))


def _letters_decode(text):
    return tuple(map(ord, text))


def _encode(word):
    """The word encoded as its alphabet's codec encodes it, for a caller
    that knows no alphabet (``spoly.enumerate_overlaps``): through
    ``bytes``, unless a letter past 255 makes it raise."""
    try:
        return _bytes_encode(word)
    except ValueError:
        return _letters_encode(word)


def _terms_text(p):
    """p's term words, encoded by p's alphabet's codec, joined by a code
    point past p's alphabet: for p nonzero, a word occurs in it iff in a
    term."""
    encode = p.alphabet._codec[0]
    return chr(len(p.alphabet)).join([encode(mon) for _, mon in p.terms])


def _text_words(text, alphabet):
    """The encoded term words of a nonzero polynomial over ``alphabet``,
    in term order, from its ``_terms_text``."""
    return text.split(chr(len(alphabet)))


def _seed(p):
    """The polynomial p as a seed for ``groebner.reduce_by``: (work,
    scale), a dict from each of p's words, encoded by its alphabet's
    codec, to an integer coefficient, in term order, over the least
    positive integer scale that makes them integers."""
    encode = p.alphabet._codec[0]
    scale = 1
    for c, _ in p.terms:
        scale = lcm(scale, c.denominator)
    return {encode(mon): c.numerator * (scale // c.denominator)
            for c, mon in p.terms}, scale


class _Divisors:
    """The one conventional divisor search: nonzero polynomials in one
    ordering, ``polys``, with their lead words encoded once (``words``)
    and their integer forms (``forms``, see ``form``), words encoded by
    the ordering's alphabet's codec.

    Each element is checked once, when it is added.  ``first`` and
    ``occurrences`` find the lead words inside a word, in C: a lead word
    is tested with ``in`` and only one that occurs is looked up with
    ``str.find`` for its offsets.  ``add`` and
    ``remove`` edit the set in place, so a caller whose basis changes by
    one element at a time keeps one set, and the forms it has built.
    """

    __slots__ = ("ordering", "polys", "words", "forms")

    def __init__(self, polys, ordering):
        self.ordering = ordering
        self.polys = []
        self.words = []
        self.forms = []
        for q in polys:
            self.add(q)

    @classmethod
    def of(cls, P, ordering):
        """P prepared in ``ordering``: a list is prepared, a set checked."""
        if not isinstance(P, cls):
            return cls(P, ordering)
        if ordering is not P.ordering and ordering != P.ordering:
            raise ValueError("polynomials live in different algebras or orderings")
        return P

    def add(self, q, i=None):
        """Append the nonzero polynomial q, in the set's ordering, or put it
        in place of element i."""
        if q.is_zero():
            raise ValueError("divisors must be nonzero")
        if q.ordering is not self.ordering and q.ordering != self.ordering:
            raise ValueError("polynomials live in different algebras or orderings")
        word = self.ordering.alphabet._codec[0](q.terms[0].mon)
        if i is None:
            self.polys.append(q)
            self.words.append(word)
            self.forms.append(None)
        else:
            self.polys[i], self.words[i], self.forms[i] = q, word, None

    def remove(self, i):
        """Delete element i."""
        del self.polys[i], self.words[i], self.forms[i]

    def form(self, j):
        """The integer form of element j, (den, coefficients, words):
        its ``_seed`` scale, and its coefficients (a list) and encoded
        words (a tuple, the smaller), aligned with its terms.  It is
        built the first time it is asked for: a set prepared per query
        mostly cancels few of its elements."""
        f = self.forms[j]
        if f is None:
            work, den = _seed(self.polys[j])
            f = self.forms[j] = den, list(work.values()), tuple(work)
        return f

    def first(self, text):
        """The first element whose lead word occurs in the encoded word
        ``text``, and its leftmost offset there, as (j, s), or None."""
        for j, v in enumerate(self.words):
            if v in text:
                return j, text.find(v)
        return None

    def occurrences(self, u):
        """Every (j, s) with element j's lead word at offset s in the
        word u, a tuple."""
        text = self.ordering.alphabet._codec[0](u)
        for j, v in enumerate(self.words):
            if v in text:
                s = text.find(v)
                while s >= 0:
                    yield j, s
                    s = text.find(v, s + 1)


def normal_word_counts(words, n_letters, max_degree):
    """[c_0, ..., c_max_degree]: c_d words of degree d over ``n_letters``
    letters contain none of ``words`` (tuples of letter indices) as a
    subword.  The empty word is in every word, so it leaves none."""
    return list(islice(_normal_counts(
        [w for w in words if len(w) <= max_degree], n_letters), max_degree + 1))


def _normal_counts(words, n_letters):
    """Yield ``normal_word_counts(words, n_letters, d)[d]`` for d = 0, 1, ...

    Dynamic programming over the Aho–Corasick automaton of the words
    (Aho and Corasick, CACM 18(6), 1975): a state is the longest suffix
    read so far that is a prefix of some word, and a state is dead when
    one of the words ends it.  Each degree's count follows the live
    states one letter on, in O(states · n_letters).
    """
    goto, dead = [{}], [False]      # the trie of the words
    for word in words:
        s = 0
        for a in word:
            if dead[s]:
                break           # a word holds another: its tail is never read
            t = goto[s].get(a)
            if t is None:
                t = goto[s][a] = len(goto)
                goto.append({})
                dead.append(False)
            s = t
        dead[s] = True
    # breadth first, so the failure state of a state (its longest proper
    # suffix in the trie) is complete before the state itself
    delta = [None] * len(goto)    # full transitions, live states only
    order = [(0, 0)]           # (state, its failure state)
    for s, f in order:
        if s:
            dead[s] = dead[s] or dead[f]
        if dead[s]:
            continue
        delta[s] = [goto[s].get(a, delta[f][a] if s else 0)
                    for a in range(n_letters)]
        for a, t in goto[s].items():
            order.append((t, delta[f][a] if s else 0))
    # the live states one letter on from each live state
    live = [step and [t for t in step if not dead[t]] for step in delta]
    current = {} if dead[0] else {0: 1}
    while True:
        yield sum(current.values())
        following = {}
        for s, c in current.items():
            for t in live[s]:
                following[t] = following.get(t, 0) + c
        current = following


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
    if len(out) > 1:    # list.sort keys even a single item
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
    # every ordering is compatible with two-sided multiplication, so the
    # product is already strictly descending; only the multiplier letters
    # are new
    n = len(p.alphabet)
    if not all(0 <= x < n for x in l.mon + r.mon):
        raise ValueError("multiplier letter out of range for alphabet")
    return Polynomial(terms, p.alphabet, p.ordering, _trusted=True)


# ---------------------------------------------------------------------------
# Text grammar.  Terms joined by +/-; a term is `coeff`, `coeff*word` or
# `word`; a word is *-separated factors `gen` or `gen^k`; coefficients are
# integers or a/b rationals.  Whitespace may stand between tokens.  Operators
# and decimal runs match first, then generator names, longest first.  An
# integer past Python's digit limit and an exponent past an index are refused.
# ---------------------------------------------------------------------------

_SIGNS = ("+", "-")


class _Refused(Exception):
    """A grammar error at a token index; ``_read_terms`` positions it."""


def _integer(tokens, i):
    digits = tokens[i]
    if not digits.isdecimal():
        raise _Refused("expected int", i)
    try:
        return int(digits)
    except ValueError:
        raise _Refused("integer too long", i) from None


def _word(tokens, i, index):
    """The word whose first factor is token i, and the index after it."""
    letters = []
    while True:
        gen = index.get(tokens[i])
        if gen is None:
            raise _Refused("expected gen", i)
        if tokens[i + 1] == "^":
            i += 2
            k = _integer(tokens, i)
            if k < 1:
                raise _Refused("exponent must be >= 1", i)
            try:
                letters += (gen,) * k
            except OverflowError:
                raise _Refused("exponent too large", i) from None
        else:
            letters.append(gen)
        if tokens[i + 1] != "*":
            return tuple(letters), i + 1
        i += 2


def _refusal(text, alphabet, message, k):
    """The ParseError for token k of ``text``, placed by a rescan.  The
    first character that is no token wins, wherever it stands, as if
    every character were classified before the grammar is read."""
    matches = list(alphabet._scanner.finditer(text))
    index = alphabet._index
    for m in matches:
        t = m[1]
        if t and t not in index and t not in "-+*/^" and not t.isdecimal():
            at = m.start(1)
            return ParseError(f"unknown generator starting at {text[at:at + 8]!r}"
                              if t.isalpha() else f"unexpected character {t!r}",
                              at)
    return ParseError(message, matches[k].start(1))


def _read_terms(text, alphabet):
    """The terms of ``text`` over ``alphabet``, in text order, as a list of
    (signed numerator, denominator, word): integers as written, so
    ``2/4`` stays unreduced, and a word of alphabet indices, () for a
    constant.  Nothing is summed or dropped.  Malformed text raises
    ``ParseError`` at the first fault."""
    tokens = alphabet._scanner.findall(text)
    if not tokens[0]:
        raise ParseError("empty polynomial", 0)
    index = alphabet._index
    terms = []
    op = tokens[0]
    i = 1 if op in _SIGNS else 0
    try:
        while True:
            if tokens[i].isdecimal():
                num, den = _integer(tokens, i), 1
                if tokens[i + 1] == "/":
                    i += 2
                    den = _integer(tokens, i)
                    if den == 0:
                        raise _Refused("zero denominator", i)
                word = ()
                i += 1
                if tokens[i] == "*":
                    word, i = _word(tokens, i + 1, index)
            elif tokens[i] in index:
                num, den = 1, 1
                word, i = _word(tokens, i, index)
            else:
                raise _Refused("expected a term", i)
            terms.append((-num if op == "-" else num, den, word))
            op = tokens[i]
            if op not in _SIGNS:
                if op:
                    raise _Refused("expected '+' or '-' between terms", i)
                return terms
            i += 1
    except _Refused as refused:
        raise _refusal(text, alphabet, *refused.args) from None


def parse_polynomial(text, alphabet, ordering):
    pairs = [(Fraction(num) if den == 1 else Fraction(num, den), word)
             for num, den, word in _read_terms(text, alphabet)]
    return Polynomial(_sum_terms(pairs, ordering), alphabet, ordering,
                      _trusted=True)


def _text_seed(text, alphabet):
    """The polynomial ``text`` reads as over ``alphabet``, as a seed for
    ``groebner.reduce_by`` in any of the alphabet's orderings, with no
    ``Polynomial`` built: (work, scale), a dict from each word whose
    terms do not cancel, encoded by the alphabet's codec, to an integer
    coefficient, over the least common multiple of the text's
    denominators.  It refuses what ``parse_polynomial``
    refuses, with the same ``ParseError``.  ``_seed`` is kept apart: it
    reads terms already summed, and the summing here would cost it."""
    terms = _read_terms(text, alphabet)
    encode = alphabet._codec[0]
    scale = 1
    for _, den, _ in terms:
        if den != 1:
            scale = lcm(scale, den)
    work = {}
    for num, den, word in terms:
        v = encode(word)
        work[v] = work.get(v, 0) + num * (scale // den)
    return {v: c for v, c in work.items() if c}, scale


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
