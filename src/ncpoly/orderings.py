"""Monomial orderings on words: the three degree-based orderings.

DegLex, DegInvLex and DegRevLex are admissible, and they are the only
orderings that can be built: plain lex fails admissibility (x < xy yet
x^2 > xyx), and so does invlex.  All three compare degree first.

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

No key is a proper prefix of another, so a key followed by more code
points sorts as the pair would (``mora``'s overlap keys).  ``involutive``
sorts its tables' encoded words by ``_degrevlex_key``, and the reduction
kernel pops its words greatest first by ``_heap_keys``.
"""

from __future__ import annotations

from functools import cache
from itertools import takewhile
from operator import itemgetter

KINDS = ("deglex", "deginvlex", "degrevlex")


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
    return lambda w: chr(len(w)) + encode(w)[::-1]


def _degrevlex_key(t):
    """The degrevlex key of the encoded word t."""
    return chr(len(t)) + t[::-1]


def _heap_keys(ordering, longest):
    """(key, word) for ``ordering``: ``key(t)`` is a str that ascends
    as the encoded word t, of at most ``longest`` letters, descends
    under the ordering, and ``word(key(t)) == t``.

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

    def __init__(self, kind, alphabet):
        kind = kind.lower()
        if kind not in KINDS:
            problem = (f"{kind} is not admissible" if kind in ("lex", "invlex")
                       else f"unknown ordering {kind!r}")
            raise ValueError(f"{problem}; choose deglex, deginvlex or degrevlex")
        self.kind = kind
        self.alphabet = alphabet
        self._key = _keys(kind, alphabet)

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


def initial(p):
    """The terms of p of greatest degree.  Every kind compares degree
    first, so they are a prefix of ``p.terms``."""
    if p.is_zero():
        raise ValueError("initial of the zero polynomial is undefined")
    top = len(p.terms[0].mon)
    from .algebra import Polynomial
    kept = tuple(takewhile(lambda t: len(t.mon) == top, p.terms))
    return Polynomial(kept, p.alphabet, p.ordering, _trusted=True)
