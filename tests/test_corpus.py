"""Pinned digest of a seeded corpus of capped Mora runs and Gröbner Walks.

Each draw of ``random.Random(20261020)`` picks an admissible ordering of
x > y > z and one to four ``random_poly`` polynomials.  Mora runs on
them under the normal and the sugar strategy, capped at degree 6 and at
7, 40 and 100000 iterations, so runs end under every status and stop
inside and at the edges of the overlap degrees they reach.  Each
complete degrevlex basis is walked to deglex, whose inner run drops
overlap degrees by the Hilbert counts, capped at 5, 30 and 100000
iterations.  Each run's status, stats and basis, or the message of the
exception it raises, is hashed.

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
                    degree_function, format_polynomial, groebner_walk, initial,
                    mora, normal_word_counts)

from conftest import random_poly

CORPUS_DRAWS = 300
CORPUS_DIGEST = "12d5062cdc53ee57e7f9009b13f0aad37baf5710b3d0f953b93999999d808a12"

HILBERT_DRAWS = 300
HILBERT_DIGEST = "3383fc141dda3f0e38b1bf6772e4269ce4689b9fe26bd1ce052abb701ac96a75"

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
    rng = random.Random(20261020)
    for n in range(draws):
        o = orderings[rng.choice(KINDS)]
        F = [random_poly(rng, A, o, max_terms=3)
             for _ in range(rng.randint(1, 4))]
        for strategy in ("normal", "sugar"):
            for cap in MORA_CAPS:
                text, res = _outcome(lambda: mora(F, o, strategy, max_degree=6,
                                                  max_iterations=cap))
                yield f"{n} {o.kind} {strategy} {cap}: {text}"
                if (res is None or res.status != "complete"
                        or o.kind != "degrevlex"):
                    continue
                job = WalkJob(o, orderings["deglex"], res.basis)
                for walk_cap in WALK_CAPS:
                    text, _ = _outcome(lambda: groebner_walk(
                        job, max_degree=6, max_iterations=walk_cap))
                    yield f"  walk {walk_cap}: {text}"


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
            initials = [initial(g, degree_function()).with_ordering(target)
                        for g in gb.basis]
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
