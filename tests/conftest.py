"""Shared fixtures and small helpers for the test suite."""

import random

import pytest

from ncpoly import (Alphabet, Polynomial, Term, divide, enumerate_overlaps,
                    parse_polynomial, s_polynomial)
from ncpoly.algebra import _Divisors


@pytest.fixture
def xyz():
    return Alphabet(["x", "y", "z"])


@pytest.fixture
def xy():
    return Alphabet(["x", "y"])


@pytest.fixture
def group_alphabet():
    # inverses as capitals, capitals greater
    return Alphabet(["Y", "X", "y", "x"])


# the oracle for each ordering's str key: a tuple key on words (index 0
# greatest) that must sort words exactly as ``MonomialOrdering.key`` does
ORACLE_KEYS = {
    "deglex": lambda u: (len(u), tuple(-x for x in u)),
    "deginvlex": lambda u: (len(u), u),
    "degrevlex": lambda u: (len(u), u[::-1]),
    # no algorithm takes these two, and no MonomialOrdering can be built
    # under them: they are the admissibility sampler's negative controls
    "lex": lambda u: tuple(-x for x in u),
    "invlex": lambda u: u,
}


def admissibility_counterexample(key, n, samples=1000):
    """A sampled breach of the admissibility axioms by ``key``, a sort key
    on tuple words over n letters, or None: words m != 1 must have
    1 < m, and a < b must give l*a*r < l*b*r for cofactors l and r.
    Words have at most 5 letters, cofactors at most 4."""
    rng = random.Random(0)

    def word(degree):
        return tuple(rng.randrange(n) for _ in range(rng.randint(0, degree)))

    for i in range(samples):
        if i % 2 == 0:
            m = word(5)
            if m and not key(()) < key(m):
                return f"1 >= {m}"
            continue
        a, b = word(5), word(5)
        if a == b:
            continue
        if key(a) > key(b):
            a, b = b, a
        l, r = word(4), word(4)
        if not key(l + a + r) < key(l + b + r):
            return f"{a} < {b} but {l + a + r} >= {l + b + r}"
    return None


def w(alphabet, text):
    """Word from a string of single-letter generator names."""
    return tuple(alphabet.index(ch) for ch in text)


def P(alphabet, ordering, *texts):
    polys = [parse_polynomial(t, alphabet, ordering) for t in texts]
    return polys[0] if len(polys) == 1 else polys


# monoid presentations of small groups over Y > X > y > x, capitals the
# inverses
GROUPS = {
    "S3": ("x^3 - 1", "y^2 - 1", "x*y*x*y - 1"),
    "A4": ("x^3 - 1", "y^2 - 1", "x*y*x*y*x*y - 1"),
    "S4": ("x^4 - 1", "y^3 - 1", "x*y*x*y - 1"),
}
INVERSES = ("X*x - 1", "x*X - 1", "Y*y - 1", "y*Y - 1")


def group_presentation(alphabet, ordering, group):
    return P(alphabet, ordering, *GROUPS[group], *INVERSES)


def monic_set(polys):
    return {p.monic() for p in polys}


def random_word(rng, n, max_degree):
    return tuple(rng.randrange(n) for _ in range(rng.randint(0, max_degree)))


def random_poly(rng, alphabet, ordering, max_degree=4, max_terms=5):
    terms = [Term(rng.randint(-5, 5) or 1,
                  random_word(rng, len(alphabet), max_degree))
             for _ in range(rng.randint(1, max_terms))]
    return Polynomial(terms, alphabet, ordering)


def all_spolys_reduce_to_zero(basis):
    """The Gröbner Basis property, checked directly from the definition.
    A basis that holds a nonzero constant generates the whole algebra,
    so it is Gröbner; the empty word has no overlaps.  The basis is
    prepared as a divisor set once, for every division."""
    if not all(g.lm() for g in basis):
        return True
    divisors = _Divisors(basis, basis[0].ordering)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            for spec in enumerate_overlaps(basis[i].lm(), basis[j].lm(),
                                           i == j, i, j):
                s = s_polynomial(spec, basis[i], basis[j])
                if s.is_zero():
                    continue
                rem, _ = divide(s, divisors, logged=False)
                if not rem.is_zero():
                    return False
    return True


def brute_force_overlaps(u1, u2, same_element):
    """Oracle for enumerate_overlaps: test every placement pair of u1 and
    u2 inside every word of the right length and record the genuine
    overlaps (shared letter positions, no redundant slack on either
    side).  A self pair keeps the placements whose second copy starts
    later (s > 0): s == 0 is the identical placement, and -s is s with
    the roles swapped."""
    d1, d2 = len(u1), len(u2)
    found = set()
    for s in range(1 if same_element else -(d2 - 1), d1):
        # place u1 at offset 0 and u2 at offset s; keep placements whose
        # letters agree on the intersection, which must be nonempty
        lo, hi = max(0, s), min(d1, s + d2)
        if lo >= hi:
            continue
        if any(u1[k] != u2[k - s] for k in range(lo, hi)):
            continue
        start, end = min(0, s), max(d1, s + d2)
        word = [None] * (end - start)
        for k in range(d1):
            word[k - start] = u1[k]
        for k in range(d2):
            word[s + k - start] = u2[k]
        l1 = tuple(word[:0 - start])
        r1 = tuple(word[d1 - start:])
        l2 = tuple(word[:s - start])
        r2 = tuple(word[s + d2 - start:])
        found.add((l1, r1, l2, r2))
    return found


def brute_force_placement(u, v, left=None, right=None, thick=False):
    """Oracle for one row of ``first_divisor``, from the definition: the
    smallest s with u == u3 * v * u4, len(u3) == s, whose cofactors the
    letter sets admit (thin: the letters next to v; thick: every cofactor
    letter; ``left=None``: every placement), else None."""
    for s in range(len(u) - len(v) + 1):
        if u[s:s + len(v)] != v:
            continue
        u3, u4 = u[:s], u[s + len(v):]
        if left is None:
            return s
        tested3, tested4 = (u3, u4) if thick else (u3[-1:], u4[:1])
        if all(x in left for x in tested3) and all(x in right for x in tested4):
            return s
    return None


def reference_rows(key, lms, n):
    """Oracle for the rows of LeftOverlap (3), TwoSidedLeftOverlap (5),
    PrefixOnlyLeftOverlap (6), SubwordFreeLeftOverlap (7) and their
    mirrors (8, 10, 11, 12) on the lead monomials ``lms`` over n letters,
    as (left, right) lists of frozensets, found by letter-by-letter scans
    over tuple slices of every pair of words.  A right-handed division is
    worked out on the reversed words, with its sides swapped."""
    left_key = {8: 3, 10: 5, 11: 6, 12: 7}.get(key, key)
    words = [tuple(u) if key == left_key else tuple(u)[::-1] for u in lms]
    if left_key == 5:
        left, right = _two_sided_scan(words, n)
    else:
        left = [set(range(n)) for _ in words]
        right = [set(range(n)) for _ in words]
        for a in range(len(words)):
            for b in range(a, len(words)):
                # the longer word first
                long, short = (a, b) if len(words[b]) <= len(words[a]) else (b, a)
                da, db = _discards_scan(left_key, words[long], words[short])
                right[long].difference_update(da)
                right[short].difference_update(db)
    rows = [frozenset(s) for s in left], [frozenset(s) for s in right]
    return rows if key == left_key else rows[::-1]


def _discards_scan(key, ua, ub):
    """The letters that the pair (ua, ub), ua at least as long, discards
    from the right sets of ua and of ub under 3, 6 or 7."""
    alpha, beta = len(ua), len(ub)
    da, db = [], []
    if key == 3:            # ub inside ua, but not as its suffix
        for k in range(alpha - beta):
            if ua[k:k + beta] == ub:
                db.append(ua[k + beta])
    elif key == 6 and beta < alpha and ua[:beta] == ub:     # a prefix
        db.append(ua[beta])
    for k in range(1, beta):    # a proper prefix of one ends the other
        if ua[:k] == ub[beta - k:]:
            db.append(ua[k])
        if ua[alpha - k:] == ub[:k]:
            da.append(ub[k])
    return da, db


def _two_sided_scan(words, n):
    """TwoSidedLeftOverlap's (left, right) sets: the rules run over the
    pairs of words taken descending by DegRevLex (stable), the longer
    word first, and read the sets as they change them."""
    order = sorted(range(len(words)), reverse=True,
                   key=lambda t: (len(words[t]), words[t][::-1]))
    left = [set(range(n)) for _ in words]
    right = [set(range(n)) for _ in words]
    for s, a in enumerate(order):
        ua, la, ra = words[a], left[a], right[a]
        alpha = len(ua)
        for b in order[s:]:
            ub, lb, rb = words[b], left[b], right[b]
            beta = len(ub)
            if a != b:
                for k in range(alpha - beta + 1):
                    if ua[k:k + beta] == ub:
                        if k < alpha - beta:
                            rb.discard(ua[k + beta])
                        elif k:         # ub is a suffix of ua
                            lb.discard(ua[k - 1])
            for k in range(1, beta):
                if ua[:k] == ub[beta - k:]:
                    xl, xr = ub[beta - k - 1], ua[k]
                    if xl in la and xr in rb:
                        rb.discard(xr)
                if ua[alpha - k:] == ub[:k]:
                    xr, xl = ub[k], ua[alpha - k - 1]
                    if xr in ra and xl in lb:
                        lb.discard(xl)
    return left, right


def seeded_rng(name):
    return random.Random(hash(name) & 0xFFFFFFFF)


def reference_reduce(p, divisors, ordering, sets=None, thick=False, active=None):
    """Oracle for ``divide`` and ``inv_divide``: the textbook division on
    a running polynomial kept as a dict, written from the definition.
    Each step takes the greatest word u under ``ordering.key``; the first
    divisor (in ``active`` order) that ``brute_force_placement`` admits
    in u, at its smallest placement, cancels u, and otherwise u moves to
    the remainder.  ``sets`` holds each divisor's (left, right) letter
    sets, None for conventional division.  Returns the remainder's terms
    (descending) and the log, shaped as the library returns them."""
    work = {t.mon: t.coeff for t in p.terms}
    rem, log = [], []
    order = range(len(divisors)) if active is None else active
    while work:
        u = max(work, key=ordering.key)
        for j in order:
            left, right = (None, None) if sets is None else sets[j]
            lm = max((t.mon for t in divisors[j].terms), key=ordering.key)
            s = brute_force_placement(u, lm, left, right, thick)
            if s is not None:
                break
        else:
            rem.append(Term(work.pop(u), u))
            continue
        q = {t.mon: t.coeff for t in divisors[j].terms}
        m = work[u] / q[lm]
        l, r = u[:s], u[s + len(lm):]
        for mon, coeff in q.items():
            v = l + mon + r
            work[v] = work.get(v, 0) - m * coeff
            if work[v] == 0:
                del work[v]
        log.append((Term(m, l), j, Term(1, r)))
    return tuple(rem), tuple(log)
