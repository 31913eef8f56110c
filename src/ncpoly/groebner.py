"""Mora's algorithm for noncommutative Gröbner Bases.

Also houses the division algorithm, the unique reduced basis, sugar
values and logged representations (explicit expressions of basis
elements over the input generators).  The division loop, ``reduce_by``,
runs in integers.  It reads a prepared divisor set
(``algebra._Divisors``: ordering, elements, integer forms) through a
lookup: ``divide`` passes ``_Divisors.first``, involutive division
``involutive.first_divisor``.  ``mora`` and ``reduce_basis`` each edit
one set as their basis changes; ``mora`` divides each S-polynomial as
an integer seed built from two forms.

The algorithm need not terminate -- noncommutative monomial ideals can
fail to be finitely generated -- so runs are bounded by a lead-monomial
degree cap and an iteration cap, reported through the result status
rather than an exception.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter
from typing import Optional

from .algebra import (Polynomial, Term, _Divisors, _normal_counts, _seed,
                      _sum_terms, term_mul_poly)
from .spoly import (criterion2_applies, enumerate_overlaps, overlap_degrees,
                    settled_key)

DEFAULT_MAX_DEGREE = 20
DEFAULT_MAX_ITERATIONS = 100_000
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Logged representations: a list of (left term, input index, right term)
# triples whose expansion sum(l * F[k] * r) reproduces a polynomial exactly.
# ---------------------------------------------------------------------------

def log_identity(k):
    return ((Term(Fraction(1), ()), k, Term(Fraction(1), ())),)


def log_scale(log, scalar):
    return tuple((Term(l.coeff * scalar, l.mon), k, r) for l, k, r in log)


def log_conjugate(lterm, log, rterm):
    """The representation of lterm * (expansion of log) * rterm."""
    return tuple(
        (Term(lterm.coeff * l.coeff, lterm.mon + l.mon), k,
         Term(r.coeff * rterm.coeff, r.mon + rterm.mon))
        for l, k, r in log)


def log_merge(*logs):
    acc = {}
    for log in logs:
        for l, k, r in log:
            key = (l.mon, k, r.mon)
            entry = acc.get(key)
            coeff = l.coeff * r.coeff
            acc[key] = coeff if entry is None else entry + coeff
    return tuple(
        (Term(c, lm), k, Term(Fraction(1), rm))
        for (lm, k, rm), c in acc.items() if c != 0)


def log_reduced(base, dlog, logs):
    """The representation of a reduction's remainder: the representation
    ``base`` of the reduced polynomial minus the division log ``dlog``,
    whose triples index the representations ``logs``."""
    return log_merge(base, *(log_scale(log_conjugate(l, logs[k], r), -1)
                             for l, k, r in dlog))


def log_expand(log, F):
    """sum(l * F[k] * r) over the triples of the representation."""
    if not F:
        raise ValueError("cannot expand a representation over an empty basis")
    ordering = F[0].ordering
    terms = (t for l, k, r in log for t in term_mul_poly(l, F[k], r).terms)
    return Polynomial(_sum_terms(terms, ordering), F[0].alphabet, ordering,
                      _trusted=True)


# ---------------------------------------------------------------------------
# Division
# ---------------------------------------------------------------------------

def reduce_by(seed, divisors, find, logged=True):
    """Reduce the seed (work, scale) by the elements P of the prepared
    set ``divisors`` term by term, returning (remainder, log).

    The running polynomial is ``work / scale``: a dict from word to
    integer coefficient over one positive integer denominator, which the
    kernel takes over, with a heap of its words, greatest first under
    the set's ordering, which must be admissible.  ``find`` is the
    caller's divisor lookup: while the greatest word u has a divisor,
    ``find(u)`` gives (j, s), and P[j] is cancelled in place at the
    placement whose left cofactor is u[:s], in integers, through
    ``divisors.form(j)``, P[j]'s integer form.  ``scale``
    grows only as far as that step needs, and scaling by a nonzero
    integer keeps every zero test, so each step is the one exact
    rational division takes.  A word whose coefficient is zero stays in
    the dict until it is popped, so each word is pushed once.
    Irreducible words go to the remainder, descending, in ``Fraction``s.
    The log has one entry per step.  Logged, it is a triple (left term,
    j, right term) with ``Fraction`` coefficients, and the seed equals
    remainder + expansion(log) over P; unlogged, it is j.
    """
    ordering, P, form = divisors.ordering, divisors.polys, divisors.form
    if not ordering.admissible:
        raise ValueError(f"ordering {ordering.kind} is not admissible")
    desc = ordering.desc_key
    work, scale = seed
    heap = [(desc(u), u) for u in work]
    heapq.heapify(heap)
    rem_terms = []
    log = []
    while heap:
        u = heapq.heappop(heap)[1]
        a = work.pop(u)
        if not a:
            continue
        hit = find(u)
        if hit is None:
            rem_terms.append(Term(Fraction(a, scale), u))
            continue
        j, s = hit
        q = P[j].terms
        # den * q has integer coefficients coeffs, the lead one L
        den, coeffs = form(j)
        L = coeffs[0]
        left, right = u[:s], u[s + len(q[0].mon):]
        log.append((Term(Fraction(a * den, scale * L), left), j, Term(_ONE, right))
                   if logged else j)
        # cancel a / scale = a1 / s1 against den * q over the least scale
        # that keeps the multiplier (a1 / s1) / L times that scale an integer
        g = gcd(a, scale)
        a1, s1 = a // g, scale // g
        g = gcd(a1, L)
        need = s1 * abs(L // g)
        grown = lcm(scale, need)
        if grown != scale:
            f = grown // scale
            for v in work:
                work[v] *= f
            scale = grown
        m = a1 // g * (scale // need)
        if L > 0:
            m = -m
        # every product word is below u, so none is popped already; the
        # lead term cancels u exactly
        for k in range(1, len(q)):
            v = left + q[k].mon + right
            d = work.get(v)
            t = m * coeffs[k]
            if d is None:
                heapq.heappush(heap, (desc(v), v))
                work[v] = t
            else:
                work[v] = d + t
    remainder = Polynomial(tuple(rem_terms), ordering.alphabet, ordering,
                           _trusted=True)
    return remainder, tuple(log)


def divide(p, P, logged=True):
    """Divide p by P, returning (remainder, log).

    Conventional division under p's ordering, which every element of P
    must share: every placement of a basis lead monomial is admitted,
    and each term is divided by the first element of P whose lead
    monomial it contains, at the leftmost placement.  P is a list of
    nonzero polynomials, or a prepared divisor set
    (``algebra._Divisors``) that a caller dividing by one basis many
    times builds once: a list is prepared on every call.  ``reduce_by``
    reads the set with ``_Divisors.first`` as the lookup.  p may also be
    a seed (work, scale) in P's ordering, P prepared: ``mora`` hands
    over its S-polynomials so.  See ``reduce_by`` for the loop and the
    log; a caller that discards the log passes ``logged=False`` and gets
    one divisor index per step.
    """
    if isinstance(p, Polynomial):
        if not isinstance(P, _Divisors):
            P = _Divisors(P, p.ordering)
        elif p.ordering is not P.ordering and p.ordering != P.ordering:
            raise ValueError("polynomials live in different algebras or orderings")
        p = _seed(p)
    return reduce_by(p, P, P.first, logged)


# ---------------------------------------------------------------------------
# Sugar
# ---------------------------------------------------------------------------

def sugar_value(spec, sugar1, sugar2):
    """max(deg l1 + Sug_1 + deg r1, deg l2 + Sug_2 + deg r2)."""
    return max(len(spec.l1) + sugar1 + len(spec.r1),
               len(spec.l2) + sugar2 + len(spec.r2))


# ---------------------------------------------------------------------------
# Mora's algorithm
# ---------------------------------------------------------------------------

@dataclass
class BasisResult:
    """What every basis algorithm returns.  ``logs``, when the run was
    logged, holds one representation per basis element over the
    caller's input list, zero polynomials included; ``table`` is the
    multiplicative table of an involutive basis."""
    basis: list
    status: str = "complete"
    stats: dict = field(default_factory=dict)
    logs: Optional[list] = None
    table: Optional[object] = None


def _basis_in(F, ordering, logs=None):
    """The entry of every basis algorithm: refuse a non-admissible
    ordering, convert F to it and drop its zero polynomials.  Returns
    (basis, logs), logs holding the entries of ``logs`` (aligned with F)
    for the kept elements, or None."""
    if not ordering.admissible:
        raise ValueError(f"ordering {ordering.kind} is not admissible")
    keep = [k for k, f in enumerate(F) if not f.is_zero()]
    return ([F[k].with_ordering(ordering) for k in keep],
            None if logs is None else [logs[k] for k in keep])


def _s_seed(spec, divisors):
    """``spoly.s_polynomial`` of the overlap ``spec`` of two elements of
    the prepared set ``divisors``, as a seed for ``divide``.  With Tk / dk
    element k's integer form and Lk its lead coefficient, the seed is
        L2 * (l1 * T1 * r1) - L1 * (l2 * T2 * r2)  over  d1 * d2,
    less the overlap word, whose coefficient cancels."""
    d1, c1 = divisors.form(spec.i)
    d2, c2 = divisors.form(spec.j)
    L1, L2 = c1[0], c2[0]
    l, r = spec.l1, spec.r1
    work = {l + t.mon + r: L2 * c for t, c in zip(divisors.polys[spec.i].terms, c1)}
    l, r = spec.l2, spec.r2
    for t, c in zip(divisors.polys[spec.j].terms, c2):
        v = l + t.mon + r
        work[v] = work.get(v, 0) - L1 * c
    del work[spec.overlap_word]
    return work, d1 * d2


def mora(F, ordering, strategy="normal", use_criterion2=True,
         max_degree=DEFAULT_MAX_DEGREE, max_iterations=DEFAULT_MAX_ITERATIONS,
         logged=False, hilbert=None):
    """Compute a Gröbner Basis for <F> (in the case of termination).

    Overlaps are taken ascending by overlap word (sugar strategy: by
    sugar value first), with ties between distinct element pairs broken
    by participant indices (a < c, or a = c and b <= d) and any remaining
    ties by the first left cofactor; of two overlaps with equal keys the
    newer comes first.  They wait in one bucket per first key part, the
    overlap degree (sugar strategy: the sugar value), and each pop takes
    the lowest bucket.  A nonzero constant, given or reached as a
    remainder, completes the run at once.

    Under the normal strategy every overlap of a lower degree than the
    one at hand has been taken, or dropped by ``hilbert``, when criterion
    2 runs, so criterion 2 counts an induced overlap of lower degree as
    settled (``criterion2_applies(by_degree=True)``).  Otherwise it reads
    the keys of the overlaps taken so far, one key per overlap
    (``settled_key``).

    ``hilbert(d)``, when given, is the ideal's number of normal words of
    degree d; it needs homogeneous input and the normal strategy, so
    overlaps come in ascending degree and each remainder is homogeneous
    of its overlap's degree.  A new pair then pends bare entries, one per
    overlap degree: the pair and how many overlaps it has of that degree
    (``overlap_degrees``).
    When degree d comes up, that is when its bucket is the lowest, the
    run counts the degree-d words that the current lead words leave
    normal, once (reading on from the last count if no element was added
    since); each remainder added at degree d lowers that count by one,
    since its lead word was normal.  Once the count equals hilbert(d),
    the lead words span the ideal's degree-d part and every overlap of
    degree d left reduces to zero (Traverso, J. Symb. Comput. 22, 1996):
    the degree is dropped whole, and each of its overlaps counts as an
    iteration and in ``hilbert_skips``, as far as ``max_iterations``
    reaches.  A degree met when it comes up is never built; otherwise
    its overlaps are built (``enumerate_overlaps`` restricted to d),
    keyed and sorted then, by a stable sort of the newest first.  A
    remainder added at degree d has a normal lead word of degree d, so
    its overlaps all have higher degrees, whose buckets are not built
    yet.  A count below hilbert(d) raises ``ValueError``.  Without ``hilbert`` every overlap
    is built and inserted when its pair is formed, and the stats have no
    ``hilbert_skips``.
    """
    if strategy not in ("normal", "sugar"):
        raise ValueError(f"unknown strategy {strategy!r}")
    G, logs = _basis_in(F, ordering, [log_identity(k) for k in range(len(F))]
                        if logged else None)
    if not G:
        raise ValueError("input basis has no nonzero polynomials")
    if hilbert is not None:
        if strategy != "normal":
            raise ValueError("hilbert counts need the normal strategy")
        if any(len(t.mon) != len(g.terms[0].mon) for g in G for t in g.terms):
            raise ValueError("hilbert counts need homogeneous input")
    by_degree = strategy == "normal"
    sugars = [g.degree() for g in G]
    divisors = _Divisors(G, ordering)
    G, words = divisors.polys, divisors.words   # grown through divisors.add
    # first key part -> bucket: (key, spec) ascending by key; with
    # ``hilbert``, bare entries (i, j, count) until the degree is
    # ``built`` (see ``overlap_degrees``)
    pending = {}
    built = None

    def keyed(spec):
        # i <= j in every spec mora builds
        return (ordering.key(spec.overlap_word), spec.i, spec.j, len(spec.l1),
                spec.l1), spec

    def insert(part, spec):
        entry = keyed(spec)
        bucket = pending.setdefault(part, [])
        bucket.insert(bisect.bisect_left(bucket, entry[0], key=itemgetter(0)),
                      entry)

    def add_overlaps(i, j):
        if hilbert is None:
            for spec in enumerate_overlaps(G[i].lm(), G[j].lm(), i == j, i, j):
                insert(len(spec.overlap_word) if by_degree
                       else sugar_value(spec, sugars[i], sugars[j]), spec)
            return
        for d, n in overlap_degrees(words[i], words[j], i == j).items():
            pending.setdefault(d, []).append((i, j, n))

    def come_up(d):
        specs = []
        for i, j, _ in pending[d]:
            specs += enumerate_overlaps(G[i].lm(), G[j].lm(), i == j, i, j, d)
        # a stable sort of the newest first leaves equal keys as inserting
        # them in creation order would
        specs.reverse()
        return sorted(map(keyed, specs), key=itemgetter(0))

    # a nonzero constant generates the whole algebra, so the basis is
    # already Gröbner; the empty word has no overlaps to enumerate
    if all(words):
        for i in range(len(G)):
            for j in range(i, len(G)):
                add_overlaps(i, j)

    settled = set()
    stats = {"spolys_considered": 0, "zero_reductions": 0, "criterion2_skips": 0}
    if hilbert is not None:
        stats["hilbert_skips"] = 0
    stats["iterations"] = 0
    status = "complete"
    degree = None    # the overlap degree whose normal words ``normal`` counts
    counted = None   # len(G) when ``counts`` began to read the lead words
    normal, wanted = 0, None   # wanted: hilbert(degree)

    while pending:
        if stats["iterations"] >= max_iterations:
            status = "iteration_cap_hit"
            break
        part = min(pending)
        bucket = pending[part]
        if hilbert is not None and part != degree:
            if counted != len(G):       # new lead words: count afresh
                counted, degree = len(G), -1
                counts = _normal_counts([g.lm() for g in G],
                                        len(ordering.alphabet))
            # ``counts`` has yielded degrees up to ``degree``: read on to part
            normal = next(islice(counts, part - degree - 1, None))
            degree, wanted = part, hilbert(part)
            if normal < wanted:
                raise ValueError(
                    f"the lead words leave {normal} normal words of degree "
                    f"{part}, fewer than the {wanted} of hilbert: the basis "
                    "that hilbert counts is not a Gröbner Basis")
        if normal == wanted:
            size = (len(bucket) if part == built
                    else sum(e[2] for e in bucket))
            dropped = min(size, max_iterations - stats["iterations"])
            stats["iterations"] += dropped
            stats["hilbert_skips"] += dropped
            if dropped < size:
                status = "iteration_cap_hit"
                break
            del pending[part]
            continue
        if hilbert is not None and part != built:
            built = part
            bucket = pending[part] = come_up(part)
        stats["iterations"] += 1
        spec = bucket.pop(0)[1]
        if not bucket:
            del pending[part]
        settled.add(settled_key(spec))
        if use_criterion2 and criterion2_applies(spec, divisors, settled,
                                                 by_degree):
            stats["criterion2_skips"] += 1
            continue
        stats["spolys_considered"] += 1
        seed = _s_seed(spec, divisors)
        if not any(seed[0].values()):
            stats["zero_reductions"] += 1
            continue
        rem, dlog = divide(seed, divisors, logged)
        if rem.is_zero():
            stats["zero_reductions"] += 1
            continue
        if len(rem.lm()) > max_degree:
            status = "degree_cap_hit"
            break
        if logged:
            s_log = log_reduced(
                log_conjugate(Term(G[spec.j].lc(), spec.l1), logs[spec.i],
                              Term(_ONE, spec.r1)),
                ((Term(G[spec.i].lc(), spec.l2), spec.j, Term(_ONE, spec.r2)),),
                logs)
            logs.append(log_reduced(s_log, dlog, logs))
        divisors.add(rem)
        normal -= 1     # a homogeneous remainder: its lead word, of this degree
        sugars.append(sugar_value(spec, sugars[spec.i], sugars[spec.j]))
        if not rem.lm():
            break    # a nonzero constant: see above
        new = len(G) - 1
        for i in range(len(G)):
            add_overlaps(i, new)

    stats["basis_size"] = len(G)
    return BasisResult(G, status, stats, logs)


# ---------------------------------------------------------------------------
# The unique reduced basis
# ---------------------------------------------------------------------------

def reduce_basis(G, ordering):
    """The unique reduced Gröbner Basis: monic elements, no element's lead
    monomial a multiple of another's, every element fully reduced against
    the rest.  Output sorted descending by lead monomial."""
    divisors = _Divisors([g.monic() for g in _basis_in(G, ordering)[0]],
                         ordering)
    polys, words = divisors.polys, divisors.words
    i = 0
    while i < len(words):
        if any(v in words[i] for jj, v in enumerate(words) if jj != i):
            divisors.remove(i)
        else:
            i += 1
    # each element leaves at the front, is divided by the rest and goes
    # back in at the end, keeping its monic lead term: none divides another
    for _ in range(len(polys)):
        g = polys[0]
        divisors.remove(0)
        divisors.add(divide(g, divisors, logged=False)[0] if polys else g)
    return sorted(polys, key=lambda g: ordering.key(g.lm()), reverse=True)
