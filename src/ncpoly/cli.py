"""Batch front end and ideal-membership loop.

Problem files declare an alphabet and generators:

    # a comment
    vars: x > y > z
    ordering: deglex        (optional override of the default/flag)
    x*y - z
    y*z + 2*x + z

Results land next to the input as ``<stem>.<ord>.<alg>`` (for example
``demo.deg.inv``), one polynomial per line followed by ``# stats:``
footer lines, and the exit code reports how the run ended: 0 complete,
2 when a degree/iteration cap stopped it, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .algebra import (Alphabet, ParseError, _Divisors, format_polynomial,
                      parse_polynomial)
from .groebner import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_ITERATIONS, divide,
                       mora, reduce_basis)
from .involutive import involutive_basis
from .orderings import MonomialOrdering
from .walk import WalkJob, groebner_walk, involutive_walk

ORDERING_ABBREV = {"deglex": "deg", "deginvlex": "dil", "degrevlex": "drl"}
ALGORITHM_ABBREV = {"groebner": "gb", "involutive": "inv",
                    "gwalk": "gwk", "iwalk": "iwk"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2


class ProblemFileError(ValueError):
    pass


def parse_problem_file(path):
    """Returns (alphabet, [(line number, generator text)], ordering name or
    None).  Every refusal is a ``ProblemFileError`` that starts with
    ``path:``, followed by the line number when one line is at fault; a
    second ``vars:`` or ``ordering:`` line is refused at its line."""
    alphabet = None
    ordering = None
    generators = []
    with open(path, "rb") as handle:
        data = handle.read()
    # bytes.splitlines breaks at \n, \r and \r\n, as text mode does
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFileError(
                f"{path}:{lineno}: not UTF-8 text "
                f"({exc.reason} at byte {exc.start} of the line)") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("vars:"):
                raise ProblemFileError(
                    f"{path}:{lineno}: first directive must be "
                    "'vars: <name> > <name> > ...'")
            names = [part.strip() for part in line[5:].split(">")]
            try:
                alphabet = Alphabet(names)
            except ValueError as exc:
                raise ProblemFileError(f"{path}:{lineno}: {exc}") from None
            continue
        if line.startswith("vars:"):
            raise ProblemFileError(f"{path}:{lineno}: a second 'vars:' line")
        if line.startswith("ordering:"):
            if ordering is not None:
                raise ProblemFileError(f"{path}:{lineno}: a second 'ordering:' line")
            ordering = line[len("ordering:"):].strip()
            if not ordering:
                raise ProblemFileError(f"{path}:{lineno}: no ordering named")
            continue
        generators.append((lineno, line))
    if alphabet is None:
        raise ProblemFileError(f"{path}: missing 'vars:' declaration")
    if not generators:
        raise ProblemFileError(f"{path}: no generator polynomials")
    return alphabet, generators, ordering


def _parse_generators(path, alphabet, ordering, lines):
    out = []
    for lineno, text in lines:
        try:
            out.append(parse_polynomial(text, alphabet, ordering))
        except ParseError as exc:
            raise ProblemFileError(
                f"{path}:{lineno}:{exc.position}: {exc}") from exc
    return out


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="ncpoly",
        description="Noncommutative Gröbner and Involutive Basis engine.")
    parser.add_argument("problem", help="problem file (vars: line plus generators)")
    parser.add_argument("--algorithm", choices=sorted(ALGORITHM_ABBREV),
                        default="groebner")
    parser.add_argument("--ordering", choices=sorted(ORDERING_ABBREV),
                        default=None,
                        help="monomial ordering (target ordering for walks); "
                             "default degrevlex unless the file overrides it")
    parser.add_argument("--source-ordering", choices=sorted(ORDERING_ABBREV),
                        default="degrevlex",
                        help="walks only: the ordering the walk starts from")
    parser.add_argument("--division", type=int, choices=range(1, 13),
                        default=3, metavar="1..12",
                        help="involutive division key (default 3, LeftOverlap)")
    parser.add_argument("--divisors", choices=("thin", "thick"), default="thin")
    parser.add_argument("--strategy", choices=("normal", "sugar"),
                        default="normal")
    parser.add_argument("--no-criterion2", action="store_true",
                        help="disable Buchberger's second criterion")
    parser.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    parser.add_argument("--max-iterations", type=int,
                        default=DEFAULT_MAX_ITERATIONS)
    parser.add_argument("--membership", action="store_true",
                        help="after computing, answer ideal-membership "
                             "queries read from stdin ('quit' exits)")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def run(args, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        alphabet, gen_lines, file_ordering = parse_problem_file(args.problem)
        ordering = MonomialOrdering(args.ordering or file_ordering
                                    or "degrevlex", alphabet)
        generators = _parse_generators(args.problem, alphabet, ordering,
                                       gen_lines)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE

    if args.verbose:
        # Mora's runs read no involutive option, involutive runs no Mora one
        if args.algorithm in ("groebner", "gwalk"):
            ignored = ("--division/--divisors"
                       if args.division != 3 or args.divisors != "thin" else None)
        else:
            ignored = ("--strategy/--no-criterion2"
                       if args.strategy != "normal" or args.no_criterion2 else None)
        if ignored:
            print(f"warning: {ignored} are ignored with --algorithm "
                  f"{args.algorithm}", file=err)

    caps = {"max_degree": args.max_degree, "max_iterations": args.max_iterations}
    started = time.perf_counter()
    try:
        basis, stats, status, computed_in = _dispatch(args, generators,
                                                      ordering, caps)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    elapsed = time.perf_counter() - started

    out_path = _output_path(args.problem, ordering.kind, args.algorithm)
    try:
        _write_output(out_path, alphabet, computed_in, basis, stats, status,
                      elapsed)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}",
              file=err)
        return EXIT_USAGE
    if args.verbose:
        print(f"wrote {out_path} ({len(basis)} polynomials, status {status})",
              file=out)

    code = EXIT_OK if status == "complete" else EXIT_CAP
    if args.membership:
        if status != "complete":
            print("membership loop skipped: basis incomplete", file=err)
            return EXIT_CAP
        gb = reduce_basis(basis, ordering)
        membership_repl(gb, ordering, out=out, err=err)
    return code


def _dispatch(args, generators, ordering, caps):
    """Returns (basis, stats, status, the ordering the basis is in).  A
    walk converts its source run's basis, unless a cap stopped that run;
    its source and target orderings must differ."""
    walks = args.algorithm in ("gwalk", "iwalk")
    source = (MonomialOrdering(args.source_ordering, ordering.alphabet)
              if walks else ordering)
    if walks and source == ordering:
        raise ValueError("a walk needs two different orderings, but "
                         f"--source-ordering and --ordering are both {ordering.kind}")
    if args.algorithm in ("groebner", "gwalk"):
        result = mora(generators, source, strategy=args.strategy,
                      use_criterion2=not args.no_criterion2, **caps)
    else:
        result = involutive_basis(generators, args.division, source,
                                  mode=args.divisors, **caps)
    if not walks or result.status != "complete":
        return result.basis, result.stats, result.status, source
    job = WalkJob(source=source, target=ordering, basis=result.basis,
                  division=args.division, mode=args.divisors)
    convert = groebner_walk if args.algorithm == "gwalk" else involutive_walk
    walk = convert(job, **caps)
    stats = dict(result.stats)
    stats.update({f"walk_{k}": v for k, v in walk.stats.items()})
    return walk.basis, stats, walk.status, ordering


def _output_path(problem_path, ordering_kind, algorithm):
    stem = os.path.splitext(problem_path)[0]
    return f"{stem}.{ORDERING_ABBREV[ordering_kind]}.{ALGORITHM_ABBREV[algorithm]}"


def _formatted(polys):
    """``format_polynomial`` of each of ``polys``, with Python's
    integer-string limit lifted: reduction can make integers longer than
    the parser takes as input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return [format_polynomial(p) for p in polys]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _write_output(path, alphabet, ordering, basis, stats, status, elapsed):
    """Write the result file.  Its text is made whole before the file is
    opened, so a formatting error leaves no partial file."""
    lines = ["vars: " + " > ".join(alphabet.generators),
             f"ordering: {ordering.kind}", *_formatted(basis),
             f"# stats: status={status}", f"# stats: basis_size={len(basis)}"]
    lines += [f"# stats: {key}={value}" for key, value in stats.items()
              if key != "basis_size"]
    lines.append(f"# stats: wall_time={elapsed:.3f}s")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def membership_repl(reduced_gb, ordering, inp=None, out=None, err=None):
    """Answer one membership query per input line against a reduced basis.

    Prints 'member' for a zero remainder, otherwise 'non-member' with the
    remainder.  Parse errors are reported and the loop continues; 'quit'
    (or end of input) exits."""
    inp = inp if inp is not None else sys.stdin
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    alphabet = ordering.alphabet
    divisors = _Divisors(reduced_gb, ordering)
    for raw in inp:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "quit":
            break
        try:
            p = parse_polynomial(line, alphabet, ordering)
        except ParseError as exc:
            print(f"error: {exc}", file=err)
            continue
        rem, _ = divide(p, divisors, logged=False)
        if rem.is_zero():
            print("member", file=out)
        else:
            print(f"non-member, remainder: {_formatted([rem])[0]}", file=out)


def main(argv=None):
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if min(args.max_degree, args.max_iterations) < 0:
            parser.error("--max-degree and --max-iterations must be >= 0")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
