"""Overlaps between lead monomials, S-polynomials, and the second criterion.

There is no analogue of Buchberger's first criterion here: an
S-polynomial only exists where two lead monomials genuinely overlap
inside one word, so non-overlapping placements never generate work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Term, _Divisors, poly_combine, term_mul_poly


@dataclass(frozen=True)
class OverlapSpec:
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


def enumerate_overlaps(u1, u2, same_element, i=0, j=1):
    """All overlap placements of u2 against u1.

    Scans every shift of u2 relative to u1 that shares at least one
    letter position.  When ``same_element`` the identical placement
    (l1 == l2) is excluded, leaving only genuine self overlaps.
    """
    u1, u2 = tuple(u1), tuple(u2)
    d1, d2 = len(u1), len(u2)
    if d1 == 0 or d2 == 0:
        raise ValueError("overlaps are only defined for nonempty words")
    specs = []
    for s in range(-(d2 - 1), d1):
        lo, hi = max(0, s), min(d1, s + d2)
        if u1[lo:hi] != u2[lo - s:hi - s]:
            continue
        # u2 starts at offset s of u1; each word's cofactors are the parts
        # of the other word that hang off its ends
        l1, r1 = (u2[:-s] if s < 0 else ()), u2[d1 - s:]
        l2, r2 = (u1[:s] if s > 0 else ()), u1[s + d2:]
        if same_element and l1 == l2:
            continue
        kind = ("subword" if not (l1 or r1) or not (l2 or r2)
                else "prefix" if s < 0 else "suffix")
        specs.append(OverlapSpec(i, j, l1, r1, l2, r2, kind, l1 + u1 + r1))
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
    """Canonical bookkeeping key for an overlap: participant indices in
    ascending order plus the left cofactor of the smaller-index element."""
    return _overlap_key(spec.i, spec.l1, spec.j, spec.l2)


def _overlap_key(i, l_i, j, l_j):
    """``settled_key`` of an overlap of elements i and j placed with left
    cofactors l_i and l_j."""
    if i < j:
        return (i, j, l_i)
    if j < i:
        return (j, i, l_j)
    return (i, j, min(l_i, l_j))


def criterion2_applies(spec, basis, settled):
    """Buchberger's second criterion.

    True iff some basis lead monomial divides the overlap word at a
    placement distinct from both participants, such that every induced
    overlap S-polynomial is already settled (processed or known to
    reduce to zero).  Placements where the third monomial does not
    overlap a participant need no check at all: a non-overlapping pair
    of placements always reduces to zero.  ``basis`` is a list of
    nonzero polynomials, or the prepared divisor set
    (``algebra._Divisors``) that holds ``mora``'s basis; the
    placements come from its string search.
    """
    if not isinstance(basis, _Divisors):
        basis = _Divisors(basis, basis[0].ordering)
    w = spec.overlap_word
    own_key = settled_key(spec)
    # the participants' placements, as (element, offset in w)
    own = ((spec.i, len(spec.l1)), (spec.j, len(spec.l2)))
    for h_idx, s in basis.occurrences(w):
        if (h_idx, s) not in own and _admits_skip(w, basis.words, own, h_idx,
                                                  s, settled, own_key):
            return True
    return False


def _admits_skip(w, words, own, h_idx, b0, settled, own_key):
    b1 = b0 + len(words[h_idx])
    for p_idx, a0 in own:
        a1 = a0 + len(words[p_idx])
        if a1 <= b0 or b1 <= a0:
            continue  # disjoint as placed: reduces to zero regardless
        # l's are prefixes of w, so the maximal common prefix is simply
        # the shorter one
        cut_l = min(a0, b0)
        induced = _overlap_key(p_idx, w[cut_l:a0], h_idx, w[cut_l:b0])
        if induced == own_key or induced not in settled:
            return False
    return True
