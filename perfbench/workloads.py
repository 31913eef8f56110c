"""The three benchmark workloads.

Each workload has ``setup(work_dir)``, which reads its problem files with
``cli.parse_problem_file`` and builds what its passes need; ``run_pass``,
which makes one whole round of operations and records each one in a
``Pass``; and ``check``, which verifies one pass's outputs with the
independent checker.  The ncpoly functions are looked up on their module
at call time, so a traced pass sees every call.
"""

import io
import sys
from fractions import Fraction
from time import perf_counter

import check
import hostspeed
import inputs

ORDERINGS = ("deglex", "degrevlex")
UNIT_IDEAL_ERROR = "overlaps are only defined for nonempty words"
UNIT_BASIS = check.frozen([{(): Fraction(1)}])


def ncpoly_module(layer):
    return sys.modules[f"ncpoly.{layer}"]


class Pass:
    """The operations of one pass: outputs, latencies, failures, and the
    host-speed samples taken between operations."""

    def __init__(self):
        self.outputs = {}
        self.latencies = []
        self.failed = 0
        self.calibration = hostspeed.Calibration()
        self._samples = []   # per operation: the host-speed sample before it

    def run(self, label, fn, *args, **kwargs):
        self._samples.append(self.calibration.sample())
        started = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # recorded and checked: one op is meant to fail
            out = exc
            self.failed += 1
        self.latencies.append(perf_counter() - started)
        self.outputs[label] = out
        return out

    @property
    def attempted(self):
        return len(self.latencies)

    def corrected_latencies(self):
        """Operation latencies at the host's reference speed; call after
        the pass, once a last host-speed sample has been taken."""
        self.calibration.sample(force=True)
        return [self.calibration.correct(latency, k)
                for latency, k in zip(self.latencies, self._samples)]

    def fingerprint(self):
        """Everything a pass returned, comparable with another pass."""
        return {label: _fingerprint(out) for label, out in self.outputs.items()}


def _fingerprint(out):
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    if isinstance(out, str):
        return out
    if isinstance(out, list):
        return [g.terms for g in out]
    return out.status, [g.terms for g in out.basis]


class Problem:
    """One problem file parsed under each ordering."""

    def __init__(self, name, work_dir, kinds=ORDERINGS):
        cli, algebra = ncpoly_module("cli"), ncpoly_module("algebra")
        orderings = ncpoly_module("orderings")
        self.name = name
        self.order = inputs.GROUP_ORDERS.get(name)
        path = str(inputs.problem_path(name, work_dir))
        self.alphabet, lines, _ = cli.parse_problem_file(path)
        self.names = self.alphabet.generators
        self.ordering, self.gens = {}, {}
        for kind in kinds:
            o = orderings.MonomialOrdering(kind, self.alphabet)
            self.ordering[kind] = o
            self.gens[kind] = [algebra.parse_polynomial(text, self.alphabet, o)
                               for _, text in lines]

    def gen_dicts(self):
        return [check.as_dict(f) for f in self.gens["deglex"]]


def _complete(result, what):
    if isinstance(result, Exception):
        raise check.CheckError(f"{what} failed: {result!r}")
    if result.status != "complete":
        raise check.CheckError(f"{what} ended with status {result.status}")
    return [check.as_dict(g) for g in result.basis]


class Checked:
    """Runs the full basis check once per distinct basis."""

    def __init__(self):
        self.counts = {}

    def basis(self, basis, problem, kind):
        key = (problem.name, kind, check.frozen(basis))
        if key not in self.counts:
            self.counts[key] = check.check_groebner_basis(
                basis, problem.gen_dicts(), check.ordering_key(kind),
                len(problem.names), problem.order)
        return self.counts[key]


class Groebner:
    """Mora (normal and sugar), reduce_basis and the Gröbner Walk."""

    name = "groebner"
    PROBLEMS = ("coxeter_d5", "coxeter_f4", "dense_cubics")
    # (problem, ordering, strategy); each run is followed by reduce_basis,
    # and the reduced degrevlex basis of each problem is walked to deglex
    MORA = (("coxeter_d5", "deglex", "normal"), ("coxeter_d5", "deglex", "sugar"),
            ("coxeter_d5", "degrevlex", "normal"),
            ("coxeter_f4", "deglex", "normal"), ("coxeter_f4", "deglex", "sugar"),
            ("coxeter_f4", "degrevlex", "normal"),
            ("dense_cubics", "deglex", "sugar"), ("dense_cubics", "degrevlex", "normal"))

    def setup(self, work_dir):
        self.problems = {name: Problem(name, work_dir) for name in self.PROBLEMS}
        self.unit = Problem("unit_ideal", work_dir, kinds=("deglex",))

    def run_pass(self, p):
        groebner, walk = ncpoly_module("groebner"), ncpoly_module("walk")
        for name, kind, strategy in self.MORA:
            prob = self.problems[name]
            o = prob.ordering[kind]
            res = p.run((name, kind, strategy), groebner.mora,
                        prob.gens[kind], o, strategy=strategy)
            p.run((name, kind, strategy, "reduced"), groebner.reduce_basis, res.basis, o)
        for name, prob in self.problems.items():
            job = walk.WalkJob(source=prob.ordering["degrevlex"],
                               target=prob.ordering["deglex"],
                               basis=p.outputs[(name, "degrevlex", "normal", "reduced")])
            p.run((name, "walk"), walk.groebner_walk, job)
        p.run(("unit_ideal",), groebner.mora, self.unit.gens["deglex"],
              self.unit.ordering["deglex"])

    def check(self, p):
        checked = Checked()
        reduced = {}
        for name, kind, strategy in self.MORA:
            prob = self.problems[name]
            key = check.ordering_key(kind)
            basis = _complete(p.outputs[(name, kind, strategy)],
                              f"mora {name} {kind} {strategy}")
            checked.basis(basis, prob, kind)
            ref = check.reduced_basis(basis, key)
            out = p.outputs[(name, kind, strategy, "reduced")]
            if isinstance(out, Exception) or check.frozen(
                    check.as_dict(g) for g in out) != ref:
                raise check.CheckError(f"reduce_basis {name} {kind} {strategy} "
                                       "differs from the reference reduced basis")
            if reduced.setdefault((name, kind), ref) != ref:
                raise check.CheckError(f"{name} {kind}: strategies disagree")
        for name in self.PROBLEMS:
            walked = _complete(p.outputs[(name, "walk")], f"walk {name}")
            if check.frozen(walked) != reduced[name, "deglex"]:
                raise check.CheckError(f"walk {name} differs from Mora")
            counts = {n for (problem, _, _), n in checked.counts.items()
                      if problem == name}
            if len(counts) != 1:
                raise check.CheckError(f"{name}: normal-word counts {counts}")
        check_unit_ideal(p.outputs[("unit_ideal",)], p.failed)


def check_unit_ideal(out, failed):
    """``mora`` on the unit ideal either hits the known fault, the one
    failed operation of a pass, or (once that is mended) returns a basis
    whose reduced form is {1}, and then no operation of the pass fails."""
    if isinstance(out, ValueError) and str(out) == UNIT_IDEAL_ERROR:
        expected_failed = 1
    else:
        unit = _complete(out, "mora unit_ideal")
        if check.reduced_basis(unit, check.ordering_key("deglex")) != UNIT_BASIS:
            raise check.CheckError(f"unit ideal: reduced basis is not {{1}}: {unit!r}")
        expected_failed = 0
    if failed != expected_failed:
        raise check.CheckError(f"{failed} failed operations, expected {expected_failed}")


class Involutive:
    """Involutive completion on S3/A4/S4 and one Involutive Walk."""

    name = "involutive"
    # (problem, ordering, division key, divisors)
    RUNS = (("s3", "deglex", 1, "thin"), ("s3", "deglex", 2, "thin"),
            ("s3", "deglex", 3, "thin"), ("s3", "deglex", 3, "thick"),
            ("a4", "deglex", 3, "thin"), ("s4", "deglex", 1, "thin"),
            ("a4", "degrevlex", 3, "thin"))
    WALK = ("a4", 1)   # degrevlex -> deglex under the Left division

    def setup(self, work_dir):
        self.problems = {name: Problem(name, work_dir) for name in ("s3", "a4", "s4")}

    def run_pass(self, p):
        involutive, walk = ncpoly_module("involutive"), ncpoly_module("walk")
        for name, kind, division, mode in self.RUNS:
            prob = self.problems[name]
            p.run((name, kind, division, mode), involutive.involutive_basis,
                  prob.gens[kind], involutive.InvolutiveDivision(division),
                  prob.ordering[kind], mode=mode)
        name, division = self.WALK
        prob = self.problems[name]
        job = walk.WalkJob(source=prob.ordering["degrevlex"],
                           target=prob.ordering["deglex"],
                           basis=p.outputs[(name, "degrevlex", 3, "thin")].basis,
                           division=involutive.InvolutiveDivision(division))
        p.run((name, "walk"), walk.involutive_walk, job)

    def _mora_reference(self, prob, kind):
        """The reduced Mora basis, itself checked, to compare against."""
        groebner = ncpoly_module("groebner")
        o = prob.ordering[kind]
        out = groebner.reduce_basis(groebner.mora(prob.gens[kind], o).basis, o)
        basis = [check.as_dict(g) for g in out]
        ref = check.reduced_basis(basis, check.ordering_key(kind))
        if check.frozen(basis) != ref:
            raise check.CheckError(f"Mora reference for {prob.name} is not reduced")
        return ref

    def check(self, p):
        checked = Checked()
        references = {}
        for name, kind, division, mode in self.RUNS:
            prob = self.problems[name]
            basis = _complete(p.outputs[(name, kind, division, mode)],
                              f"involutive {name} {kind} {division} {mode}")
            checked.basis(basis, prob, kind)
            if (name, kind) not in references:
                references[name, kind] = self._mora_reference(prob, kind)
            if check.reduced_basis(basis, check.ordering_key(kind)) != references[name, kind]:
                raise check.CheckError(
                    f"involutive {name} {kind} {division} {mode}: reduced basis "
                    "differs from the reduced Mora basis")
        name, _ = self.WALK
        walked = _complete(p.outputs[(name, "walk")], f"involutive walk {name}")
        checked.basis(walked, self.problems[name], "deglex")
        if check.reduced_basis(walked, check.ordering_key("deglex")) != references[name, "deglex"]:
            raise check.CheckError("involutive walk differs from the reduced Mora basis")
        if p.failed:
            raise check.CheckError(f"{p.failed} failed operations")


class Membership:
    """A seeded stream of membership queries through cli.membership_repl.

    The dense presentation here is the fixed seed-0 draw: the cost of a
    dense query hangs on the one reduced basis it runs against (a pass of
    them took 0.28 s to 0.52 s across six seeds), while the seeded
    queries average out over the stream."""

    name = "membership"
    # problem, number of queries per pass
    QUERIES = (("coxeter_d5", 320), ("dense_cubics_seed0", 160))
    KIND = "deglex"
    # normal words up to this degree can be drawn: all of them for D5,
    # whose longest element has length 20, and for the dense quotient
    WORD_DEGREE = 20

    def __init__(self, seed):
        self.seed = seed
        self.queries = None

    def setup(self, work_dir):
        groebner = ncpoly_module("groebner")
        self.problems, self.bases = [], []
        for name, _ in self.QUERIES:
            prob = Problem(name, work_dir, kinds=(self.KIND,))
            o = prob.ordering[self.KIND]
            res = groebner.mora(prob.gens[self.KIND], o)
            self.problems.append(prob)
            self.bases.append(groebner.reduce_basis(res.basis, o))

    def make_queries(self):
        """Draw the queries against the normal words of the set-up bases."""
        key = check.ordering_key(self.KIND)
        self.queries = []
        for idx, ((name, count), prob, basis) in enumerate(
                zip(self.QUERIES, self.problems, self.bases)):
            dicts = [check.as_dict(g) for g in basis]
            # a basis broken badly enough to overflow the enumeration
            # still gets queries; the check then reports it
            words = check.normal_words(dicts, len(prob.names), key,
                                       self.WORD_DEGREE) or [()]
            for text, expected in inputs.membership_queries(
                    self.seed, name, prob.gen_dicts(), words, prob.names, key, count):
                self.queries.append((idx, text, expected))

    def run_pass(self, p):
        cli = ncpoly_module("cli")
        for n, (idx, text, _) in enumerate(self.queries):
            p.run(n, _ask, cli.membership_repl, self.bases[idx],
                  self.problems[idx].ordering[self.KIND], text)

    def check(self, p):
        """The set-up bases pass the basis checks, so the answers drawn
        against them are known; then every answer must match."""
        key = check.ordering_key(self.KIND)
        for (name, _), prob, basis in zip(self.QUERIES, self.problems, self.bases):
            dicts = [check.as_dict(g) for g in basis]
            Checked().basis(dicts, prob, self.KIND)
            if check.reduced_basis(dicts, key) != check.frozen(dicts):
                raise check.CheckError(f"{name}: set-up basis is not reduced")
        for n, (_, text, expected) in enumerate(self.queries):
            if p.outputs[n] != expected:
                raise check.CheckError(
                    f"query {text!r}: answered {p.outputs[n]!r}, expected {expected!r}")


def _ask(repl, basis, ordering, text):
    out, err = io.StringIO(), io.StringIO()
    repl(basis, ordering, inp=[text], out=out, err=err)
    if err.getvalue():
        raise ValueError(err.getvalue().strip())
    return out.getvalue().strip()
