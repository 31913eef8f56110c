"""Basis conversion between harmonious orderings (the degree-based trio).

Both walks follow the same shape: take the degree-initials G' of the
source basis, compute the target-ordering basis H' of <G'>, express each
element of H' over G' and substitute the full source elements for their
initials.  The Gröbner walk finishes with a reduction to the unique
reduced basis; the involutive walk has no final reduction step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, divide,
                       log_expand, mora, reduce_basis)
from .involutive import InvolutiveDivision, involutive_basis
from .orderings import degree_function, harmonious, initial


@dataclass
class WalkJob:
    source: object                 # MonomialOrdering the input basis lives in
    target: object                 # MonomialOrdering to convert to
    basis: list                    # GB (resp. IB) w.r.t. the source ordering
    division: Optional[object] = None   # involutive walk only
    mode: str = "thin"


@dataclass
class WalkResult:
    basis: list
    status: str = "complete"
    stats: dict = field(default_factory=dict)


def _check_job(job):
    if not harmonious(job.source, job.target):
        raise ValueError(
            "walks require harmonious orderings: their functional "
            "decompositions must share an identical, extendible first "
            "ordering function (here: the degree function of deglex, "
            "deginvlex and degrevlex)")
    if not job.basis:
        raise ValueError("empty input basis")


def _initials(job):
    theta = degree_function()
    source_basis = [g.with_ordering(job.source) for g in job.basis]
    return source_basis, [initial(g, theta) for g in source_basis]


def groebner_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                  max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Gröbner Basis to the target ordering.

    Elements of the target-ordering reduced basis H' of the initial
    ideal are expressed over the initials G' by dividing under the
    *source* ordering, where G' is a Gröbner Basis for <G'> and the
    remainder is therefore zero.  Returns the reduced target basis.
    """
    _check_job(job)
    G, G_init = _initials(job)
    inner = mora([g.with_ordering(job.target) for g in G_init], job.target,
                 max_degree=max_degree, max_iterations=max_iterations)
    if inner.status != "complete":
        return WalkResult(basis=inner.basis, status=inner.status,
                          stats=inner.stats)
    H_prime = reduce_basis(inner.basis, job.target)
    lifted = []
    target_G = [g.with_ordering(job.target) for g in G]
    for h in H_prime:
        rem, log = divide(h.with_ordering(job.source), G_init, job.source)
        if not rem.is_zero():
            raise AssertionError(
                "initials basis failed to divide an initial-ideal element "
                "to zero; the input was not a Gröbner Basis for the source "
                "ordering")
        lifted.append(log_expand(log, target_G))
    return WalkResult(basis=reduce_basis(lifted, job.target),
                      status="complete", stats=inner.stats)


def involutive_walk(job, max_degree=DEFAULT_MAX_DEGREE,
                    max_iterations=DEFAULT_MAX_ITERATIONS):
    """Convert a source-ordering Involutive Basis to the target ordering.

    The inner Involutive Basis run is logged, so each element of H'
    arrives with an explicit representation over the initials; the lift
    substitutes the full source elements.  No final reduction.
    """
    _check_job(job)
    if job.division is None:
        raise ValueError("the involutive walk needs an involutive division")
    division = (job.division if isinstance(job.division, InvolutiveDivision)
                else InvolutiveDivision(job.division))
    G, G_init = _initials(job)
    inner = involutive_basis(
        [g.with_ordering(job.target) for g in G_init], division, job.target,
        mode=job.mode, max_degree=max_degree, max_iterations=max_iterations,
        logged=True)
    if inner.status != "complete":
        return WalkResult(basis=inner.basis, status=inner.status,
                          stats=inner.stats)
    lifted = []
    target_G = [g.with_ordering(job.target) for g in G]
    for log in inner.logs:
        lifted.append(log_expand(log, target_G))
    return WalkResult(basis=lifted, status="complete", stats=inner.stats)
