"""Noncommutative involutive divisions and the Involutive Basis algorithm.

Twelve divisions are supported, keyed 1-12:

     1  Left                      8  RightOverlap
     2  Right                     9  StrongRightOverlap
     3  LeftOverlap              10  TwoSidedRightOverlap
     4  StrongLeftOverlap        11  SuffixOnlyRightOverlap
     5  TwoSidedLeftOverlap      12  SubwordFreeLeftOverlap's mirror
     6  PrefixOnlyLeftOverlap        (SubwordFreeRightOverlap)
     7  SubwordFreeLeftOverlap

Left and Right are global (the multiplicative sets do not depend on the
basis); the rest are local and recomputed from scratch whenever the
basis changes.  Every right-handed kind is the exact word-reversal
mirror of the corresponding left-handed kind.

Involutive reduction is conventional reduction whose cofactors the
multiplicative table must admit: ``inv_divide`` runs the division loop
and divisor lookup of ``groebner`` with the table's letter sets, and
reads nothing else of the division.  Divisibility comes in two
flavours: thin divisors test only the cofactor letters adjacent to the
divisor (the last letter of the left cofactor and the first of the
right), thick divisors test every cofactor letter.  Thin is the
default.  Thick-divisor runs can leave words conventionally reducible
yet involutively irreducible; see the degree-cap tests for a witness.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Term, term_mul_poly
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, BasisResult,
                       _basis_in, first_divisor, log_conjugate, log_identity,
                       log_reduced, reduce_by)
from .orderings import _degrevlex_key

DIVISION_NAMES = {
    1: "Left",
    2: "Right",
    3: "LeftOverlap",
    4: "StrongLeftOverlap",
    5: "TwoSidedLeftOverlap",
    6: "PrefixOnlyLeftOverlap",
    7: "SubwordFreeLeftOverlap",
    8: "RightOverlap",
    9: "StrongRightOverlap",
    10: "TwoSidedRightOverlap",
    11: "SuffixOnlyRightOverlap",
    12: "SubwordFreeRightOverlap",
}

# right-handed local kinds and the left-handed kind they mirror
_MIRROR = {2: 1, 8: 3, 9: 4, 10: 5, 11: 6, 12: 7}


class InvolutiveDivision:
    __slots__ = ("key",)

    def __init__(self, key):
        key = int(key)
        if key not in DIVISION_NAMES:
            raise ValueError(f"division key must be 1..12, got {key}")
        self.key = key

    @property
    def name(self):
        return DIVISION_NAMES[self.key]

    @property
    def is_global(self):
        return self.key in (1, 2)

    @property
    def left_handed(self):
        return self.key not in _MIRROR

    def __eq__(self, other):
        return isinstance(other, InvolutiveDivision) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"InvolutiveDivision({self.key}: {self.name})"


class MultiplicativeTable:
    """Per basis element: the left- and right-multiplicative generator sets.

    Rows are aligned with the lead-monomial list the table was built
    from.  ``sets_for`` looks a row up by word (first match)."""

    __slots__ = ("division", "alphabet", "lms", "left", "right")

    def __init__(self, division, alphabet, lms, left, right):
        self.division = division
        self.alphabet = alphabet
        self.lms = list(lms)
        self.left = [frozenset(s) for s in left]
        self.right = [frozenset(s) for s in right]

    def __eq__(self, other):
        return (isinstance(other, MultiplicativeTable)
                and self.division == other.division
                and self.alphabet == other.alphabet and self.lms == other.lms
                and self.left == other.left and self.right == other.right)

    __hash__ = None     # mutable lists

    def row(self, idx):
        return self.left[idx], self.right[idx]

    def sets_for(self, word):
        word = tuple(word)
        for idx, lm in enumerate(self.lms):
            if lm == word:
                return self.left[idx], self.right[idx]
        raise KeyError(f"word {word} is not a lead monomial of this table")

    def nonmult_left(self, idx):
        return frozenset(range(len(self.alphabet))) - self.left[idx]

    def nonmult_right(self, idx):
        return frozenset(range(len(self.alphabet))) - self.right[idx]

    def named(self):
        """{word: (left names, right names)} with human-readable sets."""
        name = self.alphabet.name
        return {
            lm: (frozenset(name(g) for g in self.left[idx]),
                 frozenset(name(g) for g in self.right[idx]))
            for idx, lm in enumerate(self.lms)
        }


def assign_multiplicative(division, lms, alphabet):
    """Build the multiplicative table for the given lead monomials.

    Local divisions internally sort the monomials descending by
    DegRevLex (stable), so the result is invariant under permutation of
    the input; rows come back aligned with the input order.
    """
    lms = [tuple(m) for m in lms]
    n = len(alphabet)
    everything = set(range(n))
    m = len(lms)

    if division.key == 1:    # Left: all left multiplicative, no right
        left = [set(everything) for _ in lms]
        right = [set() for _ in lms]
        return MultiplicativeTable(division, alphabet, lms, left, right)

    if not division.left_handed:
        mirrored = assign_multiplicative(
            InvolutiveDivision(_MIRROR[division.key]),
            [w[::-1] for w in lms], alphabet)
        return MultiplicativeTable(division, alphabet, lms,
                                   mirrored.right, mirrored.left)

    order = sorted(range(m), key=lambda t: _degrevlex_key(lms[t]), reverse=True)
    u = [lms[t] for t in order]
    left = [set(everything) for _ in u]
    right = [set(everything) for _ in u]

    if division.key == 3:
        _left_overlap_rules(u, right)
    elif division.key == 4:
        _left_overlap_rules(u, right)
        _disjoint_cones(u, right)
    elif division.key == 5:
        _two_sided_rules(u, left, right)
    elif division.key == 6:
        _prefix_rule(u, right)
        _edge_overlap_rules(u, right)
    elif division.key == 7:
        _edge_overlap_rules(u, right)

    out_left = [None] * m
    out_right = [None] * m
    for slot, t in enumerate(order):
        out_left[t] = left[slot]
        out_right[t] = right[slot]
    return MultiplicativeTable(division, alphabet, lms, out_left, out_right)


def _edge_overlap_rules(u, right):
    """Proper prefix-of/suffix-of matches between distinct ends of two
    monomials (including self overlaps) knock out right-multiplicative
    letters; shared by all the one-sided left overlap divisions."""
    for a in range(len(u)):
        for b in range(a, len(u)):
            ua, ub = u[a], u[b]
            alpha, beta = len(ua), len(ub)
            for k in range(1, beta):
                if ua[:k] == ub[beta - k:]:         # PRE(ua,k) == SUFF(ub,k)
                    if k < alpha:
                        right[b].discard(ua[k])     # letter k+1 of ua
                if ua[alpha - k:] == ub[:k]:        # SUFF(ua,k) == PRE(ub,k)
                    right[a].discard(ub[k])         # letter k+1 of ub

def _left_overlap_rules(u, right):
    # subword matches (strict: ub may not be a suffix of ua) ...
    for a in range(len(u)):
        for b in range(a + 1, len(u)):
            ua, ub = u[a], u[b]
            alpha, beta = len(ua), len(ub)
            for k in range(1, alpha - beta + 1):    # k < alpha - beta + 1
                if ua[k - 1:k - 1 + beta] == ub:
                    right[b].discard(ua[k + beta - 1])
    # ... plus the shared end-overlap rules
    _edge_overlap_rules(u, right)


def _disjoint_cones(u, right):
    """Ensure every monomial contains a right-nonmultiplicative letter of
    every other; runs back-to-front and reads the table as it mutates."""
    for a in range(len(u) - 1, -1, -1):
        for b in range(len(u) - 1, -1, -1):
            if all(letter in right[a] for letter in u[b]):
                right[a].discard(u[b][0])


def _two_sided_rules(u, left, right):
    for a in range(len(u)):
        for b in range(a, len(u)):
            ua, ub = u[a], u[b]
            alpha, beta = len(ua), len(ub)
            if a != b:
                for k in range(1, alpha - beta + 2):    # k <= alpha - beta + 1
                    if ua[k - 1:k - 1 + beta] == ub:
                        if k < alpha - beta + 1:
                            right[b].discard(ua[k + beta - 1])
                        elif k >= 2:    # ub is a suffix of ua
                            left[b].discard(ua[k - 2])  # letter k-1 of ua
            for k in range(1, beta):
                if ua[:k] == ub[beta - k:]:
                    xl, xr = ub[beta - k - 1], ua[k]
                    if xl in left[a] and xr in right[b]:
                        right[b].discard(xr)
                if ua[alpha - k:] == ub[:k]:
                    xr, xl = ub[k], ua[alpha - k - 1]
                    if xr in right[a] and xl in left[b]:
                        left[b].discard(xl)


def _prefix_rule(u, right):
    for a in range(len(u)):
        for b in range(len(u)):
            if a == b:
                continue
            ua, ub = u[a], u[b]
            if len(ub) < len(ua) and ua[:len(ub)] == ub:
                right[b].discard(ua[len(ub)])


# ---------------------------------------------------------------------------
# Involutive divisibility and reduction
# ---------------------------------------------------------------------------

def _thick(mode):
    """Whether ``mode`` asks for thick divisors; only 'thin' and 'thick'
    are modes."""
    if mode not in ("thin", "thick"):
        raise ValueError(f"mode must be 'thin' or 'thick', got {mode!r}")
    return mode == "thick"


def involutively_divides(u2, u1, table, mode="thin"):
    """The admitted placement u1 = u3 * u2 * u4 with minimal-degree u3,
    or None.  ``mode`` selects thin or thick divisors."""
    u2, u1 = tuple(u2), tuple(u1)
    left, right = table.sets_for(u2)
    hit = first_divisor(u1, [u2], [left], [right], _thick(mode))
    if hit is None:
        return None
    s = hit[1]
    return u1[:s], u1[s + len(u2):]


def inv_divide(p, P, table, mode="thin", active=None):
    """Involutive remainder of p modulo P, with its log over P.

    Conventional division under p's ordering, whose cofactors the
    multiplicative table must admit: a term is divided by the first
    element of P (in ``active`` order, default all of P) that
    involutively divides it, at the admitted placement with the shortest
    left cofactor.  The table always describes all of P, and its lead
    monomials are the ones read.  The log has one triple per reduction
    step."""
    return reduce_by(p, P, table.lms, table.left, table.right, _thick(mode),
                     active)


# ---------------------------------------------------------------------------
# Autoreduction
# ---------------------------------------------------------------------------

def autoreduce(P, division, ordering, mode="thin", logs=None, stats=None,
               table=None):
    """Repeatedly replace the first p_i that is involutively reducible by
    the rest, until stable.  The table is always built from the full
    current set; the divisors are the set without p_i.  Zero reductions
    drop the element.  Returns a ``BasisResult`` whose ``table`` is the
    multiplicative table of the result and whose ``logs`` are None
    unless provided, and then aligned with P.  ``stats["inv_reductions"]``,
    when stats is given, counts the reduction steps.

    ``table`` is for a basis that grew by one element: the table this
    function returned for P[:-1], under the same division and mode.  It
    is used only when its division and lead monomials match those of
    P[:-1] (zero polynomials dropped).  Then the elements of P[:-1] are
    checked only against the last element and against the elements that
    replace them, until the row of one of them grows; the result is the
    same as without ``table``."""
    if not isinstance(division, InvolutiveDivision):
        division = InvolutiveDivision(division)
    thick = _thick(mode)    # rejects an unknown mode even when nothing is divided
    basis, logs = _basis_in(P, ordering, logs)
    alphabet = ordering.alphabet
    # fresh[i]: basis[i] may reduce, or be reduced by, the other elements.
    # No term of an element that is not fresh is divisible by another such
    # element j under j's recorded row rows[j], nor under any smaller row:
    # smaller letter sets admit fewer placements, thin or thick.  So those
    # elements need checking only against the fresh ones.
    fresh = [True] * len(basis)
    rows = [None] * len(basis)
    if (table is not None and table.division == division
            and table.lms == [p.lm() for p in basis[:-1]]):
        fresh[:-1] = [False] * len(table.lms)
        rows[:-1] = zip(table.left, table.right)
    while True:
        table = assign_multiplicative(division, [p.lm() for p in basis], alphabet)
        now = list(zip(table.left, table.right))
        if not all(fresh[i] or (left <= rows[i][0] and right <= rows[i][1])
                   for i, (left, right) in enumerate(now)):
            fresh = [True] * len(basis)
        rows = now
        active = [j for j in range(len(basis)) if fresh[j]]
        for i in range(len(basis)):
            if not fresh[i] and all(
                    first_divisor(u, table.lms, table.left, table.right,
                                  thick, active) is None
                    for _, u in basis[i].terms):
                continue
            others = [j for j in range(len(basis)) if j != i]
            if not others:
                continue
            rem, dlog = inv_divide(basis[i], basis, table, mode, others)
            if stats is not None:
                stats["inv_reductions"] = stats.get("inv_reductions", 0) + len(dlog)
            if not dlog:
                continue
            if rem.is_zero():
                del basis[i], fresh[i], rows[i]
                if logs is not None:
                    del logs[i]
            else:
                basis[i] = rem
                fresh[i] = True
                if logs is not None:
                    logs[i] = log_reduced(logs[i], dlog, logs)
            break
        else:
            return BasisResult(basis, logs=logs, table=table)


# ---------------------------------------------------------------------------
# The Involutive Basis algorithm
# ---------------------------------------------------------------------------

def _certificate(P, table, dlog):
    """The zero-reduction certificate of a reduction log: per step, the
    divisor object, the word it reduced and its left cofactor's length."""
    return tuple((P[j], l.mon + table.lms[j] + r.mon, len(l.mon))
                 for l, j, r in dlog)


def _certificate_holds(steps, P, table, mode):
    """Whether ``inv_divide`` would make every recorded choice again: at
    each recorded word, the same divisor object at the same placement.
    Reduction is deterministic, so it would then reach zero again through
    the same arithmetic."""
    thick = _thick(mode)
    for divisor, word, left in steps:
        hit = first_divisor(word, table.lms, table.left, table.right, thick)
        if hit is None or P[hit[0]] is not divisor or hit[1] != left:
            return False
    return True


def involutive_basis(F, division, ordering, mode="thin",
                     max_degree=DEFAULT_MAX_DEGREE,
                     max_iterations=DEFAULT_MAX_ITERATIONS, logged=False):
    """Compute a Locally Involutive Basis (in the case of termination).

    Autoreduce; then repeatedly reduce the prolongation with minimal lead
    monomial (ties: element index, then left before right).  A nonzero
    remainder joins the basis, which is autoreduced again and all
    prolongations recomputed; the run completes when every prolongation
    reduces to zero.  All twelve divisions are continuous and Gröbner, so
    a complete result is an Involutive Basis and a Gröbner Basis.

    A prolongation that reduced to zero leaves a certificate: the divisor
    and placement chosen at each step.  While its element is still in the
    basis and every recorded choice is still the one ``inv_divide`` would
    make, the prolongation is known to reduce to zero again and is not
    rebuilt.  Stats: ``prolongations`` counts prolongations examined,
    reused or reduced (``max_iterations`` caps this count); ``reused``
    counts those settled by a certificate; ``inv_reductions`` counts the
    reduction steps actually performed; ``basis_changes`` counts
    remainders added to the basis."""
    basis, logs = _basis_in(F, ordering, [log_identity(k) for k in range(len(F))]
                            if logged else None)
    _thick(mode)
    if not isinstance(division, InvolutiveDivision):
        division = InvolutiveDivision(division)
    if not basis:
        raise ValueError("input basis has no nonzero polynomials")
    stats = {"prolongations": 0, "reused": 0, "inv_reductions": 0,
             "basis_changes": 0}
    status = "complete"
    certificates = {}   # (element, side, letter) -> certificate
    table = None

    while True:
        # after a basis change, table describes all but the appended
        # remainder, so autoreduce need only check what that touches
        result = autoreduce(basis, division, ordering, mode, logs, stats, table)
        basis, logs, table = result.basis, result.logs, result.table
        live = {id(p) for p in basis}
        certificates = {
            key: known for key, known in certificates.items()
            if id(key[0]) in live and all(id(d) in live for d, _, _ in known)}
        queue = []
        for idx in range(len(basis)):
            lm = basis[idx].lm()
            for x in sorted(table.nonmult_left(idx)):
                queue.append((ordering.key((x,) + lm), idx, 0, x))
            for x in sorted(table.nonmult_right(idx)):
                queue.append((ordering.key(lm + (x,)), idx, 1, x))
        queue.sort()
        for _, idx, side, x in queue:
            if stats["prolongations"] >= max_iterations:
                status = "iteration_cap_hit"
                break
            stats["prolongations"] += 1
            g = basis[idx]
            known = certificates.get((g, side, x))
            if known is not None and _certificate_holds(known, basis, table, mode):
                stats["reused"] += 1
                continue
            letter, unit = Term(Fraction(1), (x,)), Term(Fraction(1), ())
            lterm, rterm = (letter, unit) if side == 0 else (unit, letter)
            s = term_mul_poly(lterm, g, rterm)
            rem, dlog = inv_divide(s, basis, table, mode)
            stats["inv_reductions"] += len(dlog)
            if rem.is_zero():
                certificates[g, side, x] = _certificate(basis, table, dlog)
                continue
            if len(rem.lm()) > max_degree:
                status = "degree_cap_hit"
                break
            if logged:
                logs.append(log_reduced(log_conjugate(lterm, logs[idx], rterm),
                                        dlog, logs))
            basis.append(rem)
            stats["basis_changes"] += 1
            break
        else:
            break  # every prolongation reduced to zero
        if status != "complete":
            break

    # the table autoreduce returned last describes the final basis: every
    # exit above leaves the basis as that table found it
    stats["basis_size"] = len(basis)
    return BasisResult(basis, status, stats, logs, table)
