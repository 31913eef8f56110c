"""Basis conversion between any two of the degree-based orderings.

A walk needs harmonious orderings, whose functional decompositions share
an extendible first ordering function.  DegLex, DegInvLex and DegRevLex
all compare degree first, so any two over one alphabet are harmonious,
and ``_initials`` refuses only two alphabets that differ.

Two walks, two lifts; they share only ``_initials``.  Both complete the
degree-initials G' of the source basis G in the target ordering and
return a run stopped by a cap as it stands.  The Gröbner walk lifts each
element h of the reduced inner basis by one reduction under the source
ordering, f = h - NF_G(h), which keeps h's lead term, and reduces the
lifted elements.  The involutive walk's inner run is logged; expanding
its representations over G is the lift, with no final reduction.

G' is homogeneous, and when G is Gröbner the ideal of G' leaves as many
normal words of each degree as G's lead words do.  So the Gröbner walk
passes those counts to its inner ``mora`` as ``hilbert``, read from one
automaton of G's lead words a degree at a time, as far as the run's
overlap degrees reach.  Once the inner run's lead words leave that many
normal words of the overlap degree at hand, the rest of that degree is
dropped whole, and a degree met when it comes up is never built;
fewer than that many refuses G as not Gröbner, as a remainder of full
degree in the lift does.  Neither test finds every G that is not
Gröbner: the walk trusts its source, and on such a G its counts can
drop overlaps that a full inner run would have turned into a refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .algebra import _Divisors, _normal_counts, poly_combine
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, BasisResult,
                       _basis_in, divide, log_expand, mora, reduce_basis)
from .involutive import involutive_basis
from .orderings import initial


@dataclass
class WalkJob:
    source: object                 # MonomialOrdering the input basis lives in
    target: object                 # MonomialOrdering to convert to
    basis: list                    # GB (resp. IB) w.r.t. the source ordering
    division: Optional[object] = None   # involutive walk only
    mode: str = "thin"


def _initials(job):
    """The source basis G in the source ordering, zero polynomials
    dropped, and its degree-initials in the target ordering."""
    if job.source.alphabet != job.target.alphabet:
        raise ValueError("walks require harmonious orderings: the source "
                         "and target must order words over one alphabet")
    G, _ = _basis_in(job.basis, job.source)
    return G, [initial(g).with_ordering(job.target) for g in G]


def groebner_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                  max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Gröbner Basis to the reduced basis of
    the target ordering."""
    G, initials = _initials(job)
    counts = _normal_counts([g.lm() for g in G], len(job.source.alphabet))
    known = []      # G's normal words per degree, read as the run needs them

    def hilbert(d):
        known.extend(islice(counts, d + 1 - len(known)))
        return known[d]

    inner = mora(initials, job.target, max_degree=max_degree,
                 max_iterations=max_iterations, hilbert=hilbert)
    if inner.status != "complete":
        return inner
    divisors = _Divisors(G, job.source)
    lifted = []
    for h in reduce_basis(inner.basis, job.target):
        h = h.with_ordering(job.source)
        rem, _ = divide(h, divisors, logged=False)
        # the terms of degree deg h are divided first, and only by the
        # initials of G: a remainder of that degree means G' failed
        if not rem.is_zero() and len(rem.lm()) == len(h.lm()):
            raise ValueError(
                "initials basis failed to divide an initial-ideal "
                "element to zero; the input was not a Gröbner Basis "
                "for the source ordering")
        lifted.append(poly_combine(h, rem, -1).with_ordering(job.target))
    return BasisResult(reduce_basis(lifted, job.target), stats=inner.stats)


def involutive_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                    max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Involutive Basis to the target ordering."""
    if job.division is None:
        raise ValueError("the involutive walk needs an involutive division")
    G, initials = _initials(job)
    inner = involutive_basis(initials, job.division, job.target,
                             mode=job.mode, max_degree=max_degree,
                             max_iterations=max_iterations, logged=True)
    if inner.status != "complete":
        return inner
    G = [g.with_ordering(job.target) for g in G]
    return BasisResult([log_expand(log, G) for log in inner.logs],
                       stats=inner.stats)
