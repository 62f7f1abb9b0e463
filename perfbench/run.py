"""affiter benchmark: one workload, one seed, for a fixed number of seconds.

    python3 perfbench/run.py --workload fb-d2 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  numpy and BLAS are held to one thread.

Every run starts with one untimed warm-up pass.  ``--trace 0`` then
repeats whole workload passes, untraced, until ``--seconds`` have elapsed
(at least ``MIN_PASSES``).  It reports the end-to-end metrics:

- ``setup_s``: preset builders, including their validation, per pass;
- ``iters_per_s``: iterations per second inside ``SolverPreset.solve``;
- ``certify_s``: ``run_certificates``, plus ``gronwall_envelope`` and
  ``error_budget_check`` where the workload calls them, per pass;
- ``total_s``: wall time of a pass (``affiter.cli.main`` for cli-cesaro);
- ``peak_traced_mb``: ``tracemalloc`` peak of the warm-up pass while it
  builds and solves; tracing stops before the certificates, which it
  would slow tenfold (see ``workloads.Clock``).

``--trace 1`` alternates untraced and traced passes.  Traced passes wrap
the affiter functions listed in ``TRACED`` (see ``tracer.py``) and report,
per span, ``<span>_calls`` and ``<span>_s`` (inclusive time), each layer's
(module's) self time as ``<layer>.self_s``, and the counters listed in
``LAYER_EXTRAS``.  ``trace.overhead_frac`` is the traced pass time over the
untraced one, minus 1.

An end-to-end timing is the best of the run: ``total_s`` is the shortest
pass, and ``setup_s``, ``iters_per_s`` and ``certify_s`` add up each
builder, solve or certificate call's shortest time over the passes.  On a
shared virtual machine (measured on a 2-vCPU KVM guest on an Intel Xeon)
the CPU alternates between two speeds 45-80 % apart, each held for a
fraction of a second to minutes, so the median of a run depends on
how long it spent in the slow phase, while the best of many short calls
mostly does not.  Per-layer metrics are medians over traced passes.  The
report lines before the final JSON line also give the per-pass median, the
highest percentile with at least ten samples beyond it and the sample
count.  Every pass's outputs are checked (see ``workloads.py``);
``failed_frac`` is failed checks over checks attempted.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; set before numpy loads, which reads these once
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "certify_s": "s",
    "total_s": "s",
    "peak_traced_mb": "MB",
}


def _import_affiter():
    if not (SRC / "affiter" / "__init__.py").is_file():
        raise SystemExit(f"affiter sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import affiter

    if Path(affiter.__file__).resolve().parent != SRC / "affiter":
        raise SystemExit(f"imported affiter from {affiter.__file__}, not from {SRC}")
    return affiter


af = _import_affiter()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SOLVE_SPAN, Target, Tracer, summarize  # noqa: E402


def _space_bytes_meter(tracer, args, result):
    # computed from the row, not measured: each input point read plus the output
    row = args[0]
    tracer.counts["space.affine_combine_bytes"] += (len(row.entries) + 1) * result.nbytes


def _trace_meter(tracer, _args, result):
    trace = result[1]
    arrays = list(trace.points) + list(trace.xbars)
    for record in trace.aux or ():
        arrays.extend(v for v in record.values() if isinstance(v, np.ndarray))
    tracer.counts["engine.trace_bytes"] += sum(a.nbytes for a in arrays)
    tracer.counts["engine.peak_orbit_points"] = max(
        tracer.counts["engine.peak_orbit_points"], trace.peak_orbit_points)
    tracer.counts["iterations"] += trace.n_steps


TRACED = [
    Target("solvers.build", af.solvers, "forward_backward"),
    Target("solvers.build", af.solvers, "peaceman_rachford"),
    Target(SOLVE_SPAN, af.SolverPreset, "solve", meter=_trace_meter),
    Target("schedules.validate_weights", af.schedules, "validate_weights"),
    Target("schedules.chi_value", af.schedules, "chi_value"),
    Target("schedules.relaxation_at", af.schedules, "relaxation_at"),
    Target("schedules.row", af.WeightSchedule, "row"),
    Target("space.affine_combine", af.space, "affine_combine", meter=_space_bytes_meter),
    Target("engine.run", af.engine, "run"),
    Target("engine.prevalidate", af.engine, "_prevalidate"),
    Target("engine.stack_at", af.IterationConfig, "stack_at"),
    Target("engine.error_budget_check", af.engine, "error_budget_check"),
    Target("operators.compose", af.operators, "compose"),
    Target("operators.apply_stack", af.operators, "apply_stack"),
    Target("operators.tail_apply", af.operators, "tail_apply"),
    Target("certificates.run_certificates", af.certificates, "run_certificates"),
    Target("certificates.verify_reference", af.certificates, "verify_reference"),
    Target("certificates.gronwall_envelope", af.certificates, "gronwall_envelope"),
    Target("problems.catalog", af.problems, "catalog"),
    Target("cli.main", af.cli, "main"),
    Target("cli.build_preset", af.cli, "_build_preset"),
    Target("cli.write_trace", af.cli, "_write_trace"),
]
LAYERS = ("space", "schedules", "operators", "engine", "certificates", "solvers",
          "problems", "cli")
LAYER_EVALS = ("resolvent_A", "resolvent_B", "gradient")
LAYER_EXTRAS = {
    "space.affine_combine_bytes": "B-computed",
    "operators.apply_stack_per_iter": "calls/iter",
    **{f"operators.layer_evals.{layer}": "count" for layer in LAYER_EVALS},
    "engine.run_self_s": "s",
    "engine.numpy_baseline_s": "s",
    "engine.overhead_x": "x",
    "engine.trace_bytes": "B",
    "engine.peak_orbit_points": "points",
    "cli.trace_csv_bytes": "B",
    "cli.report_bytes": "B",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in dict.fromkeys(t.span for t in TRACED):
        units[f"{span}_calls"] = "count"
        units[f"{span}_s"] = "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(LAYER_EXTRAS)
    return units


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile(values):
    """Highest order statistic with at least ten samples above it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return {"pct": round(100.0 * k / (len(ordered) - 1), 1), "value": ordered[k]}


def _untraced_pass(workload, checks, peak=False):
    sample, out, peak_mb = workloads.timed_pass(workload, peak=peak)
    workload.check(out, checks)
    return sample, peak_mb


def _traced_pass(workload, checks):
    with Tracer(TRACED) as tracer:
        sample, out, _peak = workloads.timed_pass(workload, tracer)
    workload.check(out, checks)
    spans, counts = tracer.take()
    summary = summarize(spans)
    metrics = {}
    for span in dict.fromkeys(t.span for t in TRACED):
        metrics[f"{span}_calls"] = summary.calls[span]
        metrics[f"{span}_s"] = summary.inclusive_s(span)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary.layer_self_s(layer)
    iterations = counts["iterations"]
    metrics["operators.apply_stack_per_iter"] = (
        summary.calls_in_solve["operators.apply_stack"] / iterations)
    metrics["engine.run_self_s"] = summary.self_ns["engine.run"] * 1e-9
    for key in ("space.affine_combine_bytes", "engine.trace_bytes", "engine.peak_orbit_points",
                "cli.trace_csv_bytes", "cli.report_bytes"):
        metrics[key] = counts[key]
    for layer in LAYER_EVALS:
        key = f"operators.layer_evals.{layer}"
        metrics[key] = counts[key]
    return sample, metrics


def _best_calls(samples, attr) -> float:
    """Each call's shortest time over the passes, summed over one pass."""
    return sum(map(min, zip(*(getattr(s, attr) for s in samples))))


def measure_end_to_end(workload, seconds, checks):
    # the first pass warms caches and lazy set-up; it is not timed, and it
    # gives the memory peak
    _sample, peak_mb = _untraced_pass(workload, checks, peak=True)
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_PASSES or time.perf_counter() - start < seconds:
        samples.append(_untraced_pass(workload, checks)[0])
    series = {
        "setup_s": [s.setup_s for s in samples],
        "iters_per_s": [s.iterations / s.solve_s for s in samples],
        "certify_s": [s.certify_s for s in samples],
        "total_s": [s.total_s for s in samples],
        "peak_traced_mb": [peak_mb],
    }
    best = {
        "setup_s": _best_calls(samples, "setup_calls"),
        "iters_per_s": samples[0].iterations / _best_calls(samples, "solve_calls"),
        "certify_s": _best_calls(samples, "certify_calls"),
        "total_s": min(series["total_s"]),
    }
    return series, END_TO_END, best


def measure_per_layer(workload, seconds, checks):
    _untraced_pass(workload, checks)  # warm-up
    plain, traced, baselines = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(_untraced_pass(workload, checks)[0])
        traced.append(_traced_pass(workload, checks))
        baselines.append(workloads.numpy_baseline(workload))
    series = {name: [m[name] for _s, m in traced] for name in traced[0][1]}
    series["engine.numpy_baseline_s"] = baselines
    series["engine.overhead_x"] = [s.twin_solve_s / b for s, b in zip(plain, baselines)]
    plain_total = statistics.median(s.total_s for s in plain)
    series["trace.overhead_frac"] = [s.total_s / plain_total - 1.0 for s, _m in traced]
    return series, per_layer_units(), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": _git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "affiter": af.__version__, "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    print("env " + json.dumps(env, sort_keys=True))
    scratch = SCRATCH / f"{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        checks = workloads.Checks()
        measure = measure_per_layer if args.trace else measure_end_to_end
        series, units, best = measure(workload, args.seconds, checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    metrics = {}
    for name, unit in units.items():
        values = series[name]
        median = statistics.median(values)
        value = best.get(name, median)
        metrics[name] = {"value": value, "unit": unit}
        tail = _percentile(values)
        tail_text = (f"p{tail['pct']:g} {tail['value']:.6g}" if tail
                     else "no percentile with ten samples beyond it")
        how = (f"best of {len(values)} passes; per-pass median {median:.6g}" if name in best
               else f"median of {len(values)}")
        print(f"metric {name} {value:.6g} {unit} ({how}; {tail_text})")
    failed_frac = len(checks.failures) / checks.attempted
    print(f"metric failed_frac {failed_frac:g} frac "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for label in dict.fromkeys(checks.failures):
        print(f"failed check: {label}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
