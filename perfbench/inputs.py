"""Benchmark inputs: fixed problem files, seeded presentations and queries.

The fixed presentations live in ``problems/``.  The seeded ones are
written per run from ``--seed``, so the same seed gives the same files:

    python3 perfbench/inputs.py --seed 7 --out DIR

writes the seeded problem files for seed 7 into DIR.  Membership queries
are drawn from the seed as well, against the normal words of the reduced
basis computed in set-up, which the checker then verifies.
"""

import argparse
import itertools
import random
from pathlib import Path

import check

PROBLEM_DIR = Path(__file__).resolve().parent / "problems"

# Group orders, the number of normal words a correct basis must leave.
GROUP_ORDERS = {"coxeter_d5": 1920, "coxeter_f4": 1152,
                "s3": 6, "a4": 12, "s4": 24}

DENSE_LETTERS = ("x", "y")
DENSE_DEGREE = 3
DENSE_COUNT = 2
DENSE_COEFF = 9


def problem_path(name, work_dir):
    """Where a problem file lives: the checked-in copy, else the seeded one."""
    fixed = PROBLEM_DIR / f"{name}.txt"
    return fixed if fixed.is_file() else Path(work_dir) / f"{name}.txt"


def dense_cubics(seed):
    """Two dense homogeneous cubics in two letters with integer
    coefficients drawn from [-9, 9]: a generic presentation whose
    reduced-basis coefficients grow to well over a hundred bits."""
    rng = random.Random(f"{seed}:dense")
    lines = []
    for _ in range(DENSE_COUNT):
        terms = {}
        for word in itertools.product(range(len(DENSE_LETTERS)), repeat=DENSE_DEGREE):
            c = rng.randint(-DENSE_COEFF, DENSE_COEFF)
            if c:
                terms[word] = c
        lines.append(check.format_poly(terms, DENSE_LETTERS, check.ordering_key("deglex")))
    return lines


def write_seeded(seed, out_dir):
    """Write every seeded problem file for ``seed``; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dense_cubics.txt"
    body = "\n".join(dense_cubics(seed))
    path.write_text(f"# two dense generic cubics in two letters, seed {seed}\n"
                    f"vars: {' > '.join(DENSE_LETTERS)}\n{body}\n",
                    encoding="utf-8")
    return [path]


def membership_queries(seed, label, generators, words, names, key, count):
    """``count`` query lines with their known answers.

    Even-numbered queries are two-sided combinations c1*u1*g1*v1 +
    c2*u2*g2*v2 of input generators with |u| + |v| = 2, so they are
    members.  Odd-numbered ones add c * w for a normal word w, so the
    remainder must be exactly c * w.  The fixed shape keeps the cost of a
    stream steady from seed to seed.
    """
    rng = random.Random(f"{seed}:queries:{label}")
    n = len(names)
    queries = []
    while len(queries) < count:
        combo = {}
        for _ in range(2):
            g = rng.choice(generators)
            cut = rng.randint(0, 2)
            left = tuple(rng.randrange(n) for _ in range(cut))
            right = tuple(rng.randrange(n) for _ in range(2 - cut))
            check.add_scaled(combo, g, rng.choice((-3, -2, -1, 1, 2, 3)), left, right)
        if not combo:
            continue
        if len(queries) % 2 == 0:
            expected = "member"
        else:
            w = rng.choice(words)
            c = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
            check.add_scaled(combo, {w: 1}, c)
            expected = "non-member, remainder: " + check.format_term(c, w, names)
        queries.append((check.format_poly(combo, names, key), expected))
    return queries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    for path in write_seeded(args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
