"""Monomial orderings on words, and their functional decompositions.

The three degree-based orderings (deglex, deginvlex, degrevlex) are
admissible and first-class.  Plain lex/invlex are deliberately locked
behind ``unsafe=True``: lex fails admissibility (x < xy yet x^2 > xyx)
and no basis algorithm will accept either.

Every order on words is decided here.  Each ordering is one ``str``
sort key per word, so that ascending key order is ascending monomial
order.  With generator indices assigned highest-priority-first (index 0
greatest), t the word encoded by its alphabet's codec (``algebra._codec``,
one code point per letter) and flip the letter map x -> n - 1 - x:

    deglex     chr(len(t)) + t.translate(flip)  -- leftmost difference,
                                                   earlier generator wins
    deginvlex  chr(len(t)) + t                  -- leftmost difference,
                                                   later generator wins
    degrevlex  chr(len(t)) + t[::-1]            -- rightmost difference,
                                                   later generator wins
    lex        t.translate(flip)
    invlex     t

Under a degree-based ordering no key is a proper prefix of another, so
a key followed by more code points sorts as the pair would (``mora``'s
overlap keys).  ``involutive`` sorts its tables' encoded words by
``_degrevlex_key``, and the reduction kernel pops its words greatest
first by ``_heap_keys``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Optional

ADMISSIBLE_KINDS = ("deglex", "deginvlex", "degrevlex")
ALL_KINDS = ADMISSIBLE_KINDS + ("lex", "invlex")


@cache
def _flip(n):
    """The letter map x -> n - 1 - x on n letters, for ``str.translate``
    on encoded words: one per alphabet size."""
    return {x: n - 1 - x for x in range(n)}


def _keys(kind, alphabet):
    """``kind``'s key on words over ``alphabet``: one function, so that
    ``MonomialOrdering.key`` makes one call."""
    encode, flip = alphabet._codec[0], _flip(len(alphabet))
    if kind == "deglex":
        return lambda w: chr(len(w)) + encode(w).translate(flip)
    if kind == "deginvlex":
        return lambda w: chr(len(w)) + encode(w)
    if kind == "degrevlex":
        return lambda w: chr(len(w)) + encode(w)[::-1]
    if kind == "lex":
        return lambda w: encode(w).translate(flip)
    return encode


def _degrevlex_key(t):
    """The degrevlex key of the encoded word t."""
    return chr(len(t)) + t[::-1]


def _heap_keys(ordering, longest):
    """(key, word) for the admissible ``ordering``: ``key(t)`` is a str
    that ascends as the encoded word t, of at most ``longest`` letters,
    descends under the ordering, and ``word(key(t)) == t``.

    The key is a length prefix, ``chr(longest - len(t))``, so a longer
    word comes first, followed by t as it is under deglex (on equal
    lengths the leftmost difference decides, index 0 greatest), t
    flipped under deginvlex (the later letter greatest), and t reversed,
    then flipped, under degrevlex (the rightmost difference decides):
    the ascending keys' parts, flipped.  Every part is made in C."""
    kind = ordering.kind
    if kind == "deglex":
        return ((lambda t: chr(longest - len(t)) + t),
                itemgetter(slice(1, None)))
    flip = _flip(len(ordering.alphabet))
    if kind == "deginvlex":
        return ((lambda t: chr(longest - len(t)) + t.translate(flip)),
                lambda k: k[1:].translate(flip))
    return ((lambda t: chr(longest - len(t)) + t[::-1].translate(flip)),
            lambda k: k[:0:-1].translate(flip))


class MonomialOrdering:
    """A monomial ordering, as one ``str`` sort key per word (see the
    module docstring)."""

    __slots__ = ("kind", "alphabet", "_key")

    def __init__(self, kind, alphabet, unsafe=False):
        kind = kind.lower()
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown ordering {kind!r}; choose from {ALL_KINDS}")
        if kind not in ADMISSIBLE_KINDS and not unsafe:
            raise ValueError(
                f"{kind} is not admissible and is refused by default; "
                "pass unsafe=True to experiment with it")
        self.kind = kind
        self.alphabet = alphabet
        self._key = _keys(kind, alphabet)

    @property
    def admissible(self):
        return self.kind in ADMISSIBLE_KINDS

    def key(self, word):
        """The key of ``word``, a tuple of letters of the alphabet: keys
        ascend as words ascend.  Unchecked, since every caller passes
        words it has checked: a letter outside the alphabet gets a
        misplaced key or raises."""
        return self._key(word)

    def compare(self, m1, m2):
        """-1, 0 or 1 as m1 <, ==, > m2; ``ValueError`` if a letter is
        outside the alphabet."""
        m1, m2 = tuple(m1), tuple(m2)
        n = len(self.alphabet)
        if not all(0 <= x < n for x in m1 + m2):
            raise ValueError("letter index out of range for alphabet")
        k1, k2 = self.key(m1), self.key(m2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def __eq__(self, other):
        return (isinstance(other, MonomialOrdering)
                and self.kind == other.kind and self.alphabet == other.alphabet)

    def __hash__(self):
        return hash((self.kind, self.alphabet))

    def __repr__(self):
        return f"MonomialOrdering({self.kind!r})"


# ---------------------------------------------------------------------------
# Ordering functions and functional decompositions.
#
# val_i(m) is the 1-based alphabet position of the i-th letter of m, or
# n+1 when m has fewer than i letters.  The decompositions below agree
# with the direct comparators: on two distinct words, the first function
# whose values differ decides, larger value meaning larger monomial.
# ---------------------------------------------------------------------------

class OrderingFunction:
    """One of: degree; valuing(i); valuing counted from the word's right end.

    ``complement`` evaluates n+1-val instead of val (used by deglex, whose
    t-th comparison prefers *earlier* generators).
    """

    __slots__ = ("kind", "position", "n", "complement")

    KINDS = ("degree", "valuing", "reverse-valuing")

    def __init__(self, kind, position=1, n=None, complement=False):
        if kind not in self.KINDS:
            raise ValueError(f"unknown ordering-function kind {kind!r}")
        if kind != "degree":
            if n is None:
                raise ValueError("valuing functions need the alphabet size n")
            if position < 1:
                raise ValueError("valuing position must be >= 1")
        self.kind = kind
        self.position = position
        self.n = n
        self.complement = complement

    def _val(self, word, pos):
        if 1 <= pos <= len(word):
            return word[pos - 1] + 1
        return self.n + 1

    def __call__(self, word):
        if self.kind == "degree":
            return len(word)
        if self.kind == "valuing":
            v = self._val(word, self.position)
        else:  # counted from the right: position 1 is the last letter
            v = self._val(word, len(word) + 1 - self.position)
        return (self.n + 1 - v) if self.complement else v

    @property
    def extendible(self):
        # only deg, val_1 and val_deg keep their comparisons stable when
        # both words are multiplied on either side by the same monomial
        if self.kind == "degree":
            return True
        return self.position == 1

    def __eq__(self, other):
        return (isinstance(other, OrderingFunction)
                and (self.kind, self.position, self.n, self.complement)
                == (other.kind, other.position, other.n, other.complement))

    def __hash__(self):
        return hash((self.kind, self.position, self.n, self.complement))


def degree_function():
    return OrderingFunction("degree")


def decomposition(ordering):
    """Lazily yield the ordering functions of a degree-based ordering.

    deglex:     deg, n+1-val_1, n+1-val_2, ...
    deginvlex:  deg, val_1, val_2, ...
    degrevlex:  deg, val from the right end, moving leftwards
    """
    if ordering.kind not in ADMISSIBLE_KINDS:
        raise ValueError(f"no functional decomposition for {ordering.kind}")
    n = len(ordering.alphabet)
    yield degree_function()
    i = 1
    while True:
        if ordering.kind == "deglex":
            yield OrderingFunction("valuing", i, n, complement=True)
        elif ordering.kind == "deginvlex":
            yield OrderingFunction("valuing", i, n)
        else:
            yield OrderingFunction("reverse-valuing", i, n)
        i += 1


def harmonious(o1, o2):
    """Whether the two orderings share an identical, extendible first
    ordering function (the walk's precondition)."""
    try:
        f1 = next(decomposition(o1))
        f2 = next(decomposition(o2))
    except ValueError:
        return False
    return f1 == f2 and f1.extendible and o1.alphabet == o2.alphabet


def initial(p, theta):
    """The sub-polynomial of terms attaining the maximal theta-value."""
    if p.is_zero():
        raise ValueError("initial of the zero polynomial is undefined")
    values = [theta(t.mon) for t in p.terms]
    top = max(values)
    from .algebra import Polynomial
    kept = tuple(t for t, v in zip(p.terms, values) if v == top)
    return Polynomial(kept, p.alphabet, p.ordering, _trusted=True)


@dataclass
class AdmissibilityReport:
    passed: bool
    samples: int
    counterexample: Optional[str]


def _random_word(rng, n, max_degree):
    d = rng.randint(0, max_degree)
    return tuple(rng.randrange(n) for _ in range(d))


def admissibility_check(ordering, sample_budget=1000, seed=0, max_degree=5):
    """Randomized check of the two admissibility axioms.

    Samples words m != 1 and checks 1 < m; samples a < b with cofactors
    l, r and checks l*a*r < l*b*r.  Report-only; never raises.
    """
    rng = random.Random(seed)
    n = len(ordering.alphabet)
    fmt = lambda w: "*".join(ordering.alphabet.name(l) for l in w) or "1"
    for i in range(sample_budget):
        if i % 2 == 0:
            m = _random_word(rng, n, max_degree)
            if m and ordering.compare((), m) != -1:
                return AdmissibilityReport(False, i + 1, f"1 >= {fmt(m)}")
        else:
            a = _random_word(rng, n, max_degree)
            b = _random_word(rng, n, max_degree)
            if a == b:
                continue
            if ordering.compare(a, b) == 1:
                a, b = b, a
            l = _random_word(rng, n, 4)
            r = _random_word(rng, n, 4)
            if ordering.compare(l + a + r, l + b + r) != -1:
                return AdmissibilityReport(
                    False, i + 1,
                    f"{fmt(a)} < {fmt(b)} but {fmt(l + a + r)} >= {fmt(l + b + r)}")
    return AdmissibilityReport(True, sample_budget, None)
