"""Spans and counts around the public functions of each ncpoly module.

``Tracer.install`` replaces every binding of a traced function, in every
ncpoly module namespace that holds one, with a wrapper that records a
span: name, parent span, start and end.  Calls made inside ncpoly go
through module globals, so they are caught too.  Spans stay in memory;
``Tracer.metrics`` turns them into the per-layer metrics once the traced
pass has ended, and ``Tracer.remove`` puts the original functions back.
Nothing in ncpoly is edited.
"""

import sys
from time import perf_counter

# layer (module name) -> traced public functions of that module
TRACED = {
    "algebra": ("poly_combine", "term_mul_poly", "parse_polynomial"),
    "spoly": ("enumerate_overlaps", "criterion2_applies", "s_polynomial"),
    "groebner": ("divide", "mora", "reduce_basis", "log_identity", "log_scale",
                 "log_conjugate", "log_merge", "log_expand"),
    "involutive": ("inv_divide", "assign_multiplicative", "autoreduce",
                   "involutive_basis"),
    "walk": ("groebner_walk", "involutive_walk"),
    "cli": ("parse_problem_file", "membership_repl"),
}
LOG_FUNCTIONS = frozenset(TRACED["groebner"][3:])

NAME, PARENT, START, END, INFO = range(5)


def _info(name, args, out):
    """The count a span carries besides its timing, read from the call."""
    if name == "enumerate_overlaps":
        return len(out)
    if name == "criterion2_applies":
        return bool(out)
    if name == "divide":
        return len(out[1]), out[0].is_zero()
    if name == "inv_divide":
        return len(out[1]), args[0]
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.key_calls = 0
        self._stack = []
        self._restore = []

    def install(self):
        import ncpoly
        from ncpoly.orderings import MonomialOrdering
        modules = [ncpoly] + [sys.modules[f"ncpoly.{layer}"] for layer in TRACED]
        wrappers = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(sys.modules[f"ncpoly.{layer}"], name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        key = MonomialOrdering.key

        def counted_key(ordering, word):
            self.key_calls += 1
            return key(ordering, word)

        self._restore.append((MonomialOrdering, "key", key))
        MonomialOrdering.key = counted_key

    def remove(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[INFO] = _info(name, args, out)
            return out

        return traced

    def metrics(self):
        """Per-layer metrics from the recorded spans.

        ``*_calls`` count every call; ``*_s`` sum the spans of a function
        that are not inside another span of the same function; ``*_self_s``
        sum span time minus the time of its direct child spans.
        """
        spans = self.spans
        calls, total, own = {}, {}, {}
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for idx, span in enumerate(spans):
            name, parent = span[NAME], span[PARENT]
            duration = span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + duration - child[idx]
            outer = spans[parent][NAME] if parent >= 0 else None
            if outer != name and not (name in LOG_FUNCTIONS and outer in LOG_FUNCTIONS):
                total[name] = total.get(name, 0.0) + duration

        def parent_name(span):
            return spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None

        def infos(name, parent=None):
            """Counts of the calls to ``name`` that returned, optionally
            only those made directly by ``parent``."""
            return [s for s in spans if s[NAME] == name and s[INFO] is not None
                    and (parent is None or parent_name(s) == parent)]

        c2 = [s[INFO] for s in infos("criterion2_applies")]
        divides = [s[INFO] for s in infos("divide")]
        spoly_divides = [s[INFO] for s in infos("divide", "mora")]
        prolongations = [(s[PARENT], s[INFO][1])
                         for s in infos("inv_divide", "involutive_basis")]
        table_builds = sum(1 for s in spans if s[NAME] == "assign_multiplicative"
                           and parent_name(s) != "assign_multiplicative")
        get = lambda table, name: table.get(name, 0)
        return {
            "algebra.poly_combine_calls": get(calls, "poly_combine"),
            "algebra.poly_combine_s": get(total, "poly_combine"),
            "algebra.term_mul_poly_calls": get(calls, "term_mul_poly"),
            "algebra.term_mul_poly_s": get(total, "term_mul_poly"),
            "algebra.parse_s": get(total, "parse_polynomial"),
            "orderings.key_calls": self.key_calls,
            "spoly.overlaps": sum(s[INFO] for s in infos("enumerate_overlaps")),
            "spoly.enumerate_overlaps_s": get(total, "enumerate_overlaps"),
            "spoly.criterion2_calls": len(c2),
            "spoly.criterion2_s": get(total, "criterion2_applies"),
            "spoly.criterion2_skip_ratio": _ratio(sum(c2), len(c2)),
            "spoly.s_polynomial_s": get(total, "s_polynomial"),
            "groebner.divide_calls": get(calls, "divide"),
            "groebner.divide_s": get(total, "divide"),
            "groebner.divide_steps": sum(steps for steps, _ in divides),
            "groebner.divide_zero_ratio": _ratio(
                sum(zero for _, zero in spoly_divides), len(spoly_divides)),
            "groebner.mora_self_s": get(own, "mora"),
            "groebner.reduce_basis_s": get(total, "reduce_basis"),
            "groebner.log_s": sum(get(total, name) for name in LOG_FUNCTIONS),
            "involutive.prolongations": len(prolongations),
            "involutive.distinct_prolongation_ratio": _ratio(
                len(set(prolongations)), len(prolongations)),
            "involutive.inv_divide_calls": get(calls, "inv_divide"),
            "involutive.inv_divide_s": get(total, "inv_divide"),
            "involutive.inv_reductions": sum(s[INFO][0] for s in infos("inv_divide")),
            "involutive.table_builds": table_builds,
            "involutive.table_s": get(total, "assign_multiplicative"),
            "involutive.autoreduce_calls": get(calls, "autoreduce"),
            "involutive.autoreduce_s": get(total, "autoreduce"),
            "involutive.completion_self_s": get(own, "involutive_basis"),
            "walk.groebner_walk_s": get(total, "groebner_walk"),
            "walk.involutive_walk_s": get(total, "involutive_walk"),
            "walk.lift_self_s": get(own, "groebner_walk") + get(own, "involutive_walk"),
            "cli.membership_repl_self_s": get(own, "membership_repl"),
            "cli.parse_problem_file_s": get(total, "parse_problem_file"),
        }


def _ratio(part, whole):
    return part / whole if whole else 0.0
