"""Overlaps between lead monomials, S-polynomials, and the second criterion.

There is no analogue of Buchberger's first criterion here: an
S-polynomial only exists where two lead monomials genuinely overlap
inside one word, so non-overlapping placements never generate work.

Both word searches run in C on words encoded by ``algebra._encode``:
``enumerate_overlaps`` with ``str.find``, ``str.rfind`` and
``str.startswith``, ``criterion2_applies`` through
``algebra._Divisors.occurrences``.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Term, _Divisors, _encode, poly_combine, term_mul_poly


class OverlapSpec(NamedTuple):
    """A placement of two lead monomials sharing an overlap word.

    l1 * LM(g_i) * r1 == l2 * LM(g_j) * r2 == overlap_word, where at least
    one of l1, l2 and at least one of r1, r2 is the unit.  Prefix kind
    means a prefix of the first word equals a suffix of the second;
    suffix is the mirror; containment either way counts as subword.
    """

    i: int
    j: int
    l1: tuple
    r1: tuple
    l2: tuple
    r2: tuple
    kind: str
    overlap_word: tuple


def _shifts(t1, t2, same_element, degree=None):
    """The list of the shifts s of the overlaps of u2 against u1, given
    encoded as t1 and t2, ascending; only those of overlap degree
    ``degree`` if given.

    u2 placed at offset s of u1 covers max(d1, d2 + s) - min(s, 0)
    letters.  For s = -t < 0, u1 starts at offset t of u2: the degree is
    d2 for every t <= d2 - d1 (u1 inside u2) and d1 + t past that.  For
    s >= 0 it is d1 for every s <= d1 - d2 (u2 inside u1) and d2 + s past
    that.  So a degree bounds each side to one shift, or to the range of
    containments, and the search below runs over those bounds only.
    """
    d1, d2 = len(t1), len(t2)
    start = 1 if same_element else 0
    if degree is None:
        t_lo, t_end, s_lo, s_end = 1, d2, start, d1
    else:
        t_lo = 1 if degree == d2 else max(degree - d1, 1)
        t_end = max(min(degree - d1 + 1, d2), 0) if degree >= d2 else 0
        s_lo = start if degree == d1 else max(degree - d2, start)
        s_end = max(min(degree - d2 + 1, d1), 0) if degree >= d1 else 0
    # each offset where one word holds the other's first letter is a
    # candidate, confirmed by one startswith.  s = -t < 0: t is an offset
    # of u1's first letter in u2, taken from the right for s to ascend
    shifts = []
    first = t1[0]
    t = t2.rfind(first, t_lo, t_end)
    while t > 0:
        if t2.startswith(t1[:d2 - t], t):
            shifts.append(-t)
        t = t2.rfind(first, t_lo, t)
    # s >= 0: s is an offset of u2's first letter in u1
    first = t2[0]
    s = t1.find(first, s_lo, s_end)
    while s >= 0:
        if t1.startswith(t2[:d1 - s], s):
            shifts.append(s)
        s = t1.find(first, s + 1, s_end)
    return shifts


def overlap_degrees(t1, t2, same_element):
    """The number of overlaps of u2 against u1, given encoded as t1 and
    t2, per overlap degree: {d: n}, degrees by the shift of their first
    overlap, ascending."""
    d1, d2 = len(t1), len(t2)
    degrees = {}
    for s in _shifts(t1, t2, same_element):
        d = max(d1, d2 + s) - min(s, 0)
        degrees[d] = degrees.get(d, 0) + 1
    return degrees


def enumerate_overlaps(u1, u2, same_element, i=0, j=1, degree=None):
    """All overlap placements of u2 against u1, by ascending shift s (u2
    placed at offset s of u1, s < 0 where u2 starts first); only those
    whose overlap word has ``degree`` letters, if given.

    The shifts are found in C on the words encoded as ``algebra._encode``
    encodes them: each offset where one word holds the other's first
    letter is a candidate (``str.rfind`` in u2 for s < 0, ``str.find``
    in u1 for s >= 0), confirmed by one ``str.startswith``.  When
    ``same_element`` the identical placement (s == 0) is excluded,
    leaving only genuine self overlaps.
    """
    u1, u2 = tuple(u1), tuple(u2)
    d1, d2 = len(u1), len(u2)
    if d1 == 0 or d2 == 0:
        raise ValueError("overlaps are only defined for nonempty words")
    specs = []
    # each word's cofactors are the parts of the other word that hang off
    # its ends.  s = -t < 0: u1 starts at offset t of u2; l1 is u2's head,
    # and u1 either ends inside u2 or hangs off its right end as r2.
    # s >= 0: u2 starts at offset s of u1; l2 is u1's head, and u2 either
    # ends inside u1 or hangs off its right end as r1
    for s in _shifts(_encode(u1), _encode(u2), same_element, degree):
        if s < 0:
            r2 = u1[d2 + s:]
            specs.append(OverlapSpec(i, j, u2[:-s], u2[d1 - s:], (), r2,
                                     "prefix" if r2 else "subword", u2 + r2))
        else:
            r1 = u2[d1 - s:]
            specs.append(OverlapSpec(i, j, (), r1, u1[:s], u1[s + d2:],
                                     "suffix" if r1 and s else "subword",
                                     u1 + r1))
    return specs


def s_polynomial(spec, p1, p2):
    """LC(p2) * l1 * p1 * r1  -  LC(p1) * l2 * p2 * r2.

    The placement must match the polynomials' actual lead monomials;
    the lead terms then cancel by construction.
    """
    if spec.l1 + p1.lm() + spec.r1 != spec.overlap_word:
        raise ValueError("overlap placement does not match LM(p1)")
    if spec.l2 + p2.lm() + spec.r2 != spec.overlap_word:
        raise ValueError("overlap placement does not match LM(p2)")
    left = term_mul_poly(Term(p2.lc(), spec.l1), p1, Term(1, spec.r1))
    right = term_mul_poly(Term(p1.lc(), spec.l2), p2, Term(1, spec.r2))
    return poly_combine(left, right, -1)


def settled_key(spec):
    """The bookkeeping key of one overlap: its participant indices in
    ascending order and the offset of the larger-index element's lead
    word from the smaller one's.  A self overlap, which
    ``enumerate_overlaps`` lists at shifts s and -s, has the absolute
    offset."""
    return _overlap_key(spec.i, len(spec.l1), spec.j, len(spec.l2))


def _overlap_key(i, a, j, b):
    """``settled_key`` of the overlap of element i placed at offset a and
    element j at offset b of one word."""
    if i < j:
        return (i, j, b - a)
    if j < i:
        return (j, i, a - b)
    return (i, i, abs(b - a))


def criterion2_applies(spec, basis, settled, by_degree=False):
    """Buchberger's second criterion.

    True iff some basis lead monomial divides the overlap word at a
    placement distinct from both participants, such that every induced
    overlap S-polynomial is already settled (processed or known to
    reduce to zero).  Placements where the third monomial does not
    overlap a participant need no check at all: a non-overlapping pair
    of placements always reduces to zero.  An induced overlap is settled
    when its ``settled_key`` is in ``settled``; with ``by_degree`` also
    when its overlap word is shorter than the spec's, for a caller that
    takes overlaps by ascending degree and has therefore popped, or
    dropped by its Hilbert counts, every overlap of a lower degree.
    ``basis`` is a list of nonzero polynomials, or the prepared divisor
    set (``algebra._Divisors``) that holds ``mora``'s basis; the
    placements come from its string search.
    """
    if not isinstance(basis, _Divisors):
        basis = _Divisors(basis, basis[0].ordering)
    w = spec.overlap_word
    # the participants' placements, as (element, offset in w)
    own = ((spec.i, len(spec.l1)), (spec.j, len(spec.l2)))
    for h_idx, s in basis.occurrences(w):
        if (h_idx, s) not in own and _admits_skip(len(w), basis.words, own,
                                                  h_idx, s, settled, by_degree):
            return True
    return False


def _admits_skip(n, words, own, h_idx, b0, settled, by_degree):
    b1 = b0 + len(words[h_idx])
    for p_idx, a0 in own:
        a1 = a0 + len(words[p_idx])
        if a1 <= b0 or b1 <= a0:
            continue  # disjoint as placed: reduces to zero regardless
        if by_degree and max(a1, b1) - min(a0, b0) < n:
            continue  # a lower degree: popped or dropped already
        if _overlap_key(p_idx, a0, h_idx, b0) not in settled:
            return False
    return True
