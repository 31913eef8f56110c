"""Pinned output digest: the exact text of a slice of worked runs.

Reduced logged Mora on S3 and A4, involutive completion on S3 under
Left, Right and LeftOverlap (thin, logged) and LeftOverlap thick, one
Gröbner Walk and one Involutive Walk.  Each run is written out as text
(status, every basis element through ``format_polynomial``, every log
triple, the table and the stats) and the SHA-256 of the whole text is
pinned.  A change to the reduction loop, the orderings or the
representation bookkeeping that alters any output, even one log
coefficient or the order of a basis, changes the digest.
``OUTPUT_DIGEST`` hashes the same runs with their stats left out, so a
change that only skips work moves ``DIGEST`` and leaves it.

The group presentations have coefficients +-1 only.  ``DENSE_DIGEST``
pins runs on two dense cubics whose intermediate coefficients grow to
hundreds of bits: logged Mora (normal and sugar), the reduced basis,
and the division of a fixed non-member by the raw and the reduced
basis, all under deglex.  ``GRID_DIGEST`` pins unlogged involutive
completion on S3 under all twelve divisions, deglex and degrevlex, thin
and thick, capped at 500 prolongations: its stats, basis and table,
which reach the cone recut of divisions 4 and 9 and the whole rows of
5 and 10.  ``RANDOM_DIGEST`` pins involutive completion beyond the group
presentations: ten seeded inputs of two or three ``random_poly``
polynomials over x > y, under all twelve divisions, thin and thick,
capped at 300 prolongations and degree 8, hashing status, basis and
stats.  Its runs end under all three statuses, and an element leaves
the basis (a deletion or a replacement by autoreduction) at 444 of the
2,565 restarts that follow a run's first.
"""

import hashlib
import random

from ncpoly import (Alphabet, InvolutiveDivision, MonomialOrdering, WalkJob,
                    divide, format_polynomial, groebner_walk, involutive_basis,
                    involutive_walk, mora, parse_polynomial, reduce_basis)
from ncpoly.algebra import format_word

from conftest import group_presentation, random_poly

DIGEST = "ea053978b4bb52cda0323cc204c14dbb78d4f2aae0124382ed5acb725cc331fc"
# the same runs with every stats field None: bases, logs and tables only
OUTPUT_DIGEST = "5358fe15006200a51a9a2b59d7bef465e38a0f8eb9d0708458b0be5cebdcc913"
DENSE_DIGEST = "a019d30e19fca54fc380cefd6305c9c9bf7daede458335f90dcdb5155f69ee33"

GRID_DIGEST = "db55adc49a7b71b2e140c717db9141fec31bb34ac79467a290dafd3037ed9f37"
RANDOM_DIGEST = "18bf3ddbb160c07c09c65931285a0a7fdcecdb3ba7ef1690f788e55ef084a8df"

DENSE_CUBICS = (
    "-x^3 - 9*x^2*y - 9*x*y*x - 4*x*y^2 + 3*y*x^2 - 8*y*x*y - 3*y^2*x - 8*y^3",
    "7*x^3 - 2*x^2*y - 3*x*y*x + 5*x*y^2 - 7*y*x^2 - 6*y*x*y + 3*y^2*x + 7*y^3",
)
NON_MEMBER = "2/3*x^4*y - 5*y*x^3*y + 7/4*x*y*x*y*x - y^5 + 1/5*x*y - 3"


def _log_text(log, alphabet):
    return " + ".join(
        f"({l.coeff})*[{format_word(l.mon, alphabet)}]*F{k}"
        f"*({r.coeff})*[{format_word(r.mon, alphabet)}]" for l, k, r in log)


def _runs():
    A = Alphabet(["Y", "X", "y", "x"])
    deglex = MonomialOrdering("deglex", A)
    drl = MonomialOrdering("degrevlex", A)
    s3 = group_presentation(A, drl, "S3")
    for group in ("S3", "A4"):
        res = mora(group_presentation(A, drl, group), drl, logged=True)
        yield f"mora {group}", res.status, res.stats, res.basis, res.logs, None
        yield (f"reduce_basis {group}", None, None, reduce_basis(res.basis, drl),
               None, None)
    for key, mode in ((1, "thin"), (2, "thin"), (3, "thin"), (3, "thick")):
        res = involutive_basis(group_presentation(A, deglex, "S3"),
                               InvolutiveDivision(key), deglex, mode=mode,
                               logged=mode == "thin")
        yield (f"involutive S3 {key} {mode}", res.status, res.stats, res.basis,
               res.logs, res.table)
    gb = reduce_basis(mora(s3, drl).basis, drl)
    res = groebner_walk(WalkJob(drl, deglex, gb))
    yield "groebner_walk S3", res.status, res.stats, res.basis, None, None
    ib = involutive_basis(s3, InvolutiveDivision(1), drl).basis
    res = involutive_walk(WalkJob(drl, deglex, ib, InvolutiveDivision(1)))
    yield "involutive_walk S3", res.status, res.stats, res.basis, None, None


def _dense_runs():
    A = Alphabet(["x", "y"])
    deglex = MonomialOrdering("deglex", A)
    F = [parse_polynomial(text, A, deglex) for text in DENSE_CUBICS]
    p = parse_polynomial(NON_MEMBER, A, deglex)
    for strategy in ("normal", "sugar"):
        res = mora(F, deglex, strategy, logged=True)
        yield (f"mora dense {strategy}", res.status, res.stats, res.basis,
               res.logs, None)
        reduced = reduce_basis(res.basis, deglex)
        yield f"reduce_basis dense {strategy}", None, None, reduced, None, None
        for label, basis in (("raw", res.basis), ("reduced", reduced)):
            rem, log = divide(p, basis)
            yield (f"divide dense {strategy} {label}", None, None, [rem],
                   [log], None)


def _grid_runs():
    A = Alphabet(["Y", "X", "y", "x"])
    for kind in ("deglex", "degrevlex"):
        o = MonomialOrdering(kind, A)
        F = group_presentation(A, o, "S3")
        for key in range(1, 13):
            for mode in ("thin", "thick"):
                res = involutive_basis(F, InvolutiveDivision(key), o, mode=mode,
                                       max_iterations=500)
                yield (f"involutive S3 {kind} {key} {mode}", res.status,
                       res.stats, res.basis, None, res.table)


def _random_runs():
    A = Alphabet(["x", "y"])
    o = MonomialOrdering("deglex", A)
    rng = random.Random(7)
    for n in range(10):
        F = [random_poly(rng, A, o) for _ in range(rng.randint(2, 3))]
        for key in range(1, 13):
            for mode in ("thin", "thick"):
                res = involutive_basis(F, InvolutiveDivision(key), o, mode=mode,
                                       max_iterations=300, max_degree=8)
                yield (f"random {n} {key} {mode}", res.status, res.stats,
                       res.basis, None, None)


def digest_text(runs):
    lines = []
    for label, status, stats, basis, logs, table in runs:
        lines.append(f"{label}: {status} {stats}")
        lines.extend(format_polynomial(g) for g in basis)
        for log in logs or ():
            lines.append(_log_text(log, basis[0].alphabet))
        if table is not None:
            for idx, lm in enumerate(table.lms):
                left, right = table.row(idx)
                lines.append(f"{lm} {sorted(left)} {sorted(right)}")
    return "\n".join(lines)


def test_output_digest_pinned():
    assert hashlib.sha256(digest_text(_runs()).encode()).hexdigest() == DIGEST


def test_output_digest_without_stats():
    runs = (run[:2] + (None,) + run[3:] for run in _runs())
    text = digest_text(runs)
    assert hashlib.sha256(text.encode()).hexdigest() == OUTPUT_DIGEST


def test_dense_digest_pinned():
    text = digest_text(_dense_runs())
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_DIGEST


def test_grid_digest_pinned():
    text = digest_text(_grid_runs())
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_DIGEST


def test_random_digest_pinned():
    text = digest_text(_random_runs())
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_DIGEST
