"""Basis conversion between harmonious orderings (the degree-based trio).

Both walks have one shape, ``_walk``: take the degree-initials G' of the
source basis, complete <G'> in the target ordering, express each element
of the result over G' and substitute the full source elements for their
initials.  They differ in the lift.  The Gröbner walk divides each
element of the reduced basis H' by G' under the *source* ordering (G' is
a Gröbner Basis there, so the remainder is zero) and reduces the result.
The involutive walk's inner run is logged, its logs are the
representations, and there is no final reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import _Divisors
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, BasisResult,
                       _basis_in, divide, log_expand, mora, reduce_basis)
from .involutive import involutive_basis
from .orderings import degree_function, harmonious, initial


@dataclass
class WalkJob:
    source: object                 # MonomialOrdering the input basis lives in
    target: object                 # MonomialOrdering to convert to
    basis: list                    # GB (resp. IB) w.r.t. the source ordering
    division: Optional[object] = None   # involutive walk only
    mode: str = "thin"


def _walk(job, complete, logs):
    """``complete(F)`` completes the target-ordered initials F;
    ``logs(inner, initials)`` yields the representations over the
    initials.  A completion stopped by a cap is returned as it stands."""
    if not harmonious(job.source, job.target):
        raise ValueError(
            "walks require harmonious orderings: their functional "
            "decompositions must share an identical, extendible first "
            "ordering function (here: the degree function of deglex, "
            "deginvlex and degrevlex)")
    G, _ = _basis_in(job.basis, job.source)
    theta = degree_function()
    G_init = [initial(g, theta) for g in G]
    inner = complete([g.with_ordering(job.target) for g in G_init])
    if inner.status != "complete":
        return inner
    target_G = [g.with_ordering(job.target) for g in G]
    return BasisResult([log_expand(log, target_G) for log in logs(inner, G_init)],
                       stats=inner.stats)


def groebner_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                  max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Gröbner Basis to the reduced basis of
    the target ordering."""
    def division_logs(inner, G_init):
        divisors = _Divisors(G_init, job.source)
        for h in reduce_basis(inner.basis, job.target):
            rem, log = divide(h.with_ordering(job.source), divisors)
            if not rem.is_zero():
                raise ValueError(
                    "initials basis failed to divide an initial-ideal "
                    "element to zero; the input was not a Gröbner Basis "
                    "for the source ordering")
            yield log

    result = _walk(job, lambda F: mora(F, job.target, max_degree=max_degree,
                                       max_iterations=max_iterations),
                   division_logs)
    if result.status == "complete":
        result.basis = reduce_basis(result.basis, job.target)
    return result


def involutive_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                    max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Involutive Basis to the target ordering."""
    if job.division is None:
        raise ValueError("the involutive walk needs an involutive division")
    return _walk(job, lambda F: involutive_basis(
        F, job.division, job.target, mode=job.mode, max_degree=max_degree,
        max_iterations=max_iterations, logged=True),
        lambda inner, G_init: inner.logs)
