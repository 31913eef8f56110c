"""Pinned digest of a seeded corpus of capped Mora runs and Gröbner Walks.

Each draw of ``random.Random(20261020)`` picks an admissible ordering of
x > y > z and one to four ``random_poly`` polynomials.  Mora runs on
them under the normal and the sugar strategy, capped at degree 6 and at
7, 40 and 100000 iterations, so runs end under every status and stop
inside and at the edges of the overlap degrees they reach.  Each
complete degrevlex basis is walked to deglex, whose inner run drops
overlap degrees by the Hilbert counts, capped at 5, 30 and 100000
iterations.  Each run's status, stats and basis, or the message of the
exception it raises, is hashed.  The corpus checks as well as pins,
without changing the hashed text: a draw's complete uncapped normal and
sugar runs give one reduced basis, each complete walk equals the reduced
basis of a direct deglex run when that run completes, and every 10th
complete uncapped run without a constant passes
``all_spolys_reduce_to_zero``.

``HILBERT_DIGEST`` pins ``mora`` under Hilbert counts on homogeneous
input, where it drops most overlap degrees whole: each draw of
``random.Random(20261021)`` is one to four homogeneous polynomials over
x > y or x > y > z; their basis, capped at degree 6, has its initials
completed in each ordering under the basis's normal-word counts, capped
at 25 and 100000 iterations.  A complete inner run must leave as many
normal words in each degree up to 8 as the source basis does: a cheap
check that it is a Gröbner Basis.
"""

import hashlib
import random

from ncpoly import (Alphabet, MonomialOrdering, Polynomial, Term, WalkJob,
                    format_polynomial, groebner_walk, initial, mora,
                    normal_word_counts, reduce_basis)

from conftest import all_spolys_reduce_to_zero, random_poly

CORPUS_DRAWS = 300
CORPUS_DIGEST = "22d7dfcd25538991227bab1cceca42bb3f9402dcb340617df201189b108d9cf7"

HILBERT_DRAWS = 300
HILBERT_DIGEST = "e8a2299a592036dff59207bbf3754f344cb94b5f3a800dcbb53e50ff943cecb7"

MORA_CAPS = (7, 40, 100_000)
WALK_CAPS = (5, 30, 100_000)
KINDS = ("deglex", "deginvlex", "degrevlex")


def _outcome(run):
    try:
        res = run()
    except Exception as exc:    # a refusal is an outcome too
        return f"{type(exc).__name__}: {exc}", None
    text = "\n".join([f"{res.status} {res.stats}"]
                     + [format_polynomial(g) for g in res.basis])
    return text, res


def corpus_lines(draws):
    A = Alphabet(["x", "y", "z"])
    orderings = {kind: MonomialOrdering(kind, A) for kind in KINDS}
    deglex = orderings["deglex"]
    rng = random.Random(20261020)
    checked = 0     # complete uncapped runs without a constant so far
    for n in range(draws):
        o = orderings[rng.choice(KINDS)]
        F = [random_poly(rng, A, o, max_terms=3)
             for _ in range(rng.randint(1, 4))]
        reduced = {}    # strategy -> reduced basis of its complete uncapped run
        direct = None   # reduced basis of a direct deglex run, [] if capped
        for strategy in ("normal", "sugar"):
            for cap in MORA_CAPS:
                text, res = _outcome(lambda: mora(F, o, strategy, max_degree=6,
                                                  max_iterations=cap))
                yield f"{n} {o.kind} {strategy} {cap}: {text}"
                if res is None or res.status != "complete":
                    continue
                if cap == MORA_CAPS[-1]:
                    reduced[strategy] = reduce_basis(res.basis, o)
                    if all(g.lm() for g in res.basis):
                        if checked % 10 == 0:
                            assert all_spolys_reduce_to_zero(res.basis), \
                                f"draw {n}, {strategy}"
                        checked += 1
                if o.kind != "degrevlex":
                    continue
                job = WalkJob(o, deglex, res.basis)
                for walk_cap in WALK_CAPS:
                    text, walked = _outcome(lambda: groebner_walk(
                        job, max_degree=6, max_iterations=walk_cap))
                    yield f"  walk {walk_cap}: {text}"
                    if walked is None or walked.status != "complete":
                        continue
                    # a complete walk is the reduced basis of the target
                    if direct is None:
                        run = mora(F, deglex, max_degree=6)
                        direct = (reduce_basis(run.basis, deglex)
                                  if run.status == "complete" else [])
                    assert not direct or walked.basis == direct, \
                        f"draw {n}, {strategy} {cap}, walk {walk_cap}"
        # a complete run's reduced basis does not depend on the strategy
        if len(reduced) == 2:
            assert reduced["normal"] == reduced["sugar"], f"draw {n}"


def corpus_digest(draws):
    text = "\n".join(corpus_lines(draws))
    return hashlib.sha256(text.encode()).hexdigest()


def hilbert_lines(draws):
    rng = random.Random(20261021)
    for n in range(draws):
        A = Alphabet(["x", "y", "z"][:rng.choice((2, 3))])
        o = MonomialOrdering(rng.choice(KINDS), A)
        F = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(2, 4)
            F.append(Polynomial(
                [Term(rng.randint(-3, 3) or 1,
                      tuple(rng.randrange(len(A)) for _ in range(d)))
                 for _ in range(rng.randint(1, 4))], A, o))
        text, gb = _outcome(lambda: mora(F, o, max_degree=6))
        yield f"{n} {o.kind} {len(A)}: {text}"
        if gb is None or gb.status != "complete":
            continue
        counts = normal_word_counts([g.lm() for g in gb.basis], len(A), 16)
        for kind in KINDS:
            target = MonomialOrdering(kind, A)
            initials = [initial(g).with_ordering(target) for g in gb.basis]
            for cap in (25, 100_000):
                text, inner = _outcome(lambda: mora(
                    initials, target, max_degree=6, max_iterations=cap,
                    hilbert=counts.__getitem__))
                # a complete inner run is a Gröbner Basis of the initial
                # ideal, whose normal words the source's lead words count
                if inner is not None and inner.status == "complete":
                    assert normal_word_counts(
                        [g.lm() for g in inner.basis], len(A), 8) \
                        == counts[:9], f"draw {n}, {kind}"
                yield f"  {kind} {cap}: {text}"


def test_hilbert_digest_pinned():
    text = "\n".join(hilbert_lines(HILBERT_DRAWS))
    assert hashlib.sha256(text.encode()).hexdigest() == HILBERT_DIGEST


def test_corpus_digest_pinned():
    assert corpus_digest(CORPUS_DRAWS) == CORPUS_DIGEST
