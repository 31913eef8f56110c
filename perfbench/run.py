"""Benchmark for ncpoly: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload groebner --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; ncpoly is imported from ``src/``
there and from nowhere else.  One run writes the seeded inputs, sets up
at least 5 times and for at least a second (``setup_s`` is the median),
makes one untimed pass under ``tracemalloc`` (``peak_alloc_mb``) whose
outputs the independent checker verifies, then repeats whole timed
passes until ``--seconds`` have gone by, comparing each pass's outputs
with the checked ones.  With ``--trace 1`` every timed pass is followed
by a traced set-up and a traced pass, and the per-layer metrics are
reported instead.  The last line of standard output is one JSON object.
"""

import argparse
import gc
import importlib
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import check
import hostspeed
import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up runs at least this many times and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# per-layer metrics taken from the traced set-up rather than the pass
SETUP_LAYER_METRICS = ("algebra.parse_s", "cli.parse_problem_file_s")
LAYERS = ("algebra", "orderings", "spoly", "groebner", "involutive", "walk", "cli")

END_TO_END = {"setup_s": "s", "run_s": "s", "queries_per_s": "1/s",
              "query_p99_ms": "ms", "peak_alloc_mb": "MB"}


def import_ncpoly():
    """Import every ncpoly module from this checkout's src/ only; exit
    with an error if the sources are not there."""
    if not (SRC / "ncpoly" / "__init__.py").is_file():
        sys.exit(f"error: no ncpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for layer in LAYERS:
        module = importlib.import_module(f"ncpoly.{layer}")
        if Path(module.__file__).resolve().parent != (SRC / "ncpoly").resolve():
            sys.exit(f"error: ncpoly imported from {module.__file__}, not {SRC}")


def make_workload(name, seed):
    if name == "groebner":
        return workloads.Groebner()
    if name == "involutive":
        return workloads.Involutive()
    return workloads.Membership(seed)


def timed_setup(workload, work_dir, calibration):
    calibration.sample(force=True)
    started = perf_counter()
    workload.setup(work_dir)
    return perf_counter() - started


def timed_pass(workload):
    p = workloads.Pass()
    started = perf_counter()
    workload.run_pass(p)
    return perf_counter() - started, p


def run_workload(name, seed, seconds, trace):
    """One run of one workload; returns the result object."""
    workload = make_workload(name, seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        inputs.write_seeded(seed, work_dir)
        setups, setup_speed = [], hostspeed.Calibration()
        deadline = perf_counter() + SETUP_SECONDS
        while len(setups) < SETUP_REPEATS or perf_counter() < deadline:
            setups.append(timed_setup(workload, work_dir, setup_speed))
        setup_speed.sample(force=True)
        if name == "membership":
            workload.make_queries()

        if trace:  # per-layer runs report no allocation peak; skip its cost
            _, checked = timed_pass(workload)
        else:
            gc.collect()  # the peak must not hang on garbage left by set-up
            tracemalloc.start()
            _, checked = timed_pass(workload)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        correct = True
        try:
            workload.check(checked)
        except check.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        reference = checked.fingerprint()

        durations, op_latencies, factors = [], [], []
        wall_durations, traced_durations, layers = [], [], []
        attempted = failed = 0
        deadline = perf_counter() + seconds
        while True:
            duration, p = timed_pass(workload)
            wall_durations.append(duration)
            corrected = p.corrected_latencies()
            durations.append(sum(corrected))
            op_latencies.append(corrected)
            factors.append(p.calibration.factor())
            attempted += p.attempted
            failed += p.failed
            correct = correct and p.fingerprint() == reference
            if trace:
                duration, p, layer = traced_unit(workload, work_dir)
                traced_durations.append(duration)
                layers.append(layer)
                attempted += p.attempted
                failed += p.failed
                correct = correct and p.fingerprint() == reference
            if perf_counter() >= deadline:
                break

    wall, factor = statistics.median(wall_durations), statistics.median(factors)
    if trace:
        metrics = per_layer_metrics(layers)
        metrics["bench.trace_overhead_s"] = (statistics.median(traced_durations) - wall, "s")
        metrics["bench.wall_run_s"] = (wall, "s")
        metrics["bench.speed_factor"] = (factor, "ratio")
    else:
        metrics = {
            "setup_s": statistics.median(setup_speed.correct(t, k)
                                         for k, t in enumerate(setups)),
            "run_s": statistics.median(durations),
            "queries_per_s": attempted / sum(durations),
            "query_p99_ms": 1000 * statistics.quantiles(
                map(statistics.median, zip(*op_latencies)), n=100,
                method="inclusive")[98],
            "peak_alloc_mb": peak / 2**20,
        }
        metrics = {key: (value, END_TO_END[key]) for key, value in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return result, {"wall_run_s": wall, "speed_factor": factor}


def traced_unit(workload, work_dir):
    """One set-up and one pass, each under its own tracer.  The set-up
    metrics (parsing) come from the set-up; every other per-layer metric
    comes from the pass alone, so work done in set-up does not show as
    work of the pass.  Returns the pass time, the pass and the metrics."""
    _, setup = traced(lambda: workload.setup(work_dir))
    (duration, p), layer = traced(lambda: timed_pass(workload))
    layer["algebra.query_parse_s"] = layer["algebra.parse_s"]
    for key in SETUP_LAYER_METRICS:
        layer[key] = setup[key]
    return duration, p, layer


def traced(step):
    """``step()`` with every traced function wrapped; its result and the
    per-layer metrics of its spans."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = step()
    finally:
        tracer.remove()
    return out, tracer.metrics()


def per_layer_metrics(layers):
    """Median of each per-layer metric over the traced units, with units.
    Counts are expected to repeat exactly; a count that does not is
    reported on standard error."""
    out = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("_s"):
            out[key] = (statistics.median(values), "s")
        elif key.endswith("_ratio"):
            out[key] = (statistics.median(values), "ratio")
        else:
            if len(set(values)) > 1:
                print(f"warning: count {key} varies across traced passes: {values}",
                      file=sys.stderr)
            out[key] = (values[0], "count")
    return out


def print_summary(name, result, info):
    """The result in readable form, with the plain wall time of a pass and
    the host-speed factor the corrected timings were scaled by."""
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  (plain wall time of a pass {info['wall_run_s']:.6g} s, "
          f"median host-speed factor {info['speed_factor']:.4g})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("groebner", "involutive", "membership", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_ncpoly()
    names = (("groebner", "involutive", "membership") if args.workload == "all"
             else (args.workload,))
    results = {}
    for name in names:
        results[name], info = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(name, results[name], info)
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": metric
                             for name, r in results.items()
                             for key, metric in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))


if __name__ == "__main__":
    main()
