"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Every workload drives affiter's public API from outside, one caller in a
closed loop (each call waits for the previous one).  Library functions are
looked up on the ``affiter`` package at call time, so a ``Tracer`` that is
active during a pass sees every call.

- ``fb-d2``: d=2.  Memoryless and nesterov-inertial forward-backward
  (N=500 each, certificates i and ii), then Peaceman-Rachford over
  window(2) with geometric resolvent errors (N=300), ``error_budget_check``
  and ``gronwall_envelope``.  Two-float vectors: Python overhead per step
  dominates, and the O(N^2) envelope shows.
- ``cli-cesaro``: ``affiter run`` in-process on a generated l1_quadratic
  config (d=3, cesaro weights, horizon 60).  The only workload on the
  cesaro running-mean path, the catalog, config parsing and file output;
  certificate (ii) is O(N^3) on cesaro rows.

Every pass takes well under a second, so that many passes run within one
phase of the machine's CPU speed (see ``run.py``).  There is no large-d
workload: a forward-backward run averaged over window(10) at d=100 000, and
again at d=10 000, spread by 0.3 to 0.5 of its median between runs of the
same code, because the host's speed changed over minutes.

All problems are ``min ||x||_1 + 1/2 ||x - a||^2`` with ``a`` and ``x0``
drawn from the seed; the solution is the soft threshold of ``a`` at 1.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import io
import json
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import affiter as af
from affiter import cli

import reference
from tracer import SOLVE_SPAN, Target, Tracer

# forward-backward step (beta = 1): at gamma = 1 the gradient layer maps every
# point to a, and at 1.5 the nesterov-inertial run stops converging
GAMMA = 0.8
NESTEROV_TAU = 2.0
PR_ERROR_RATE = 0.9
REL_TOL = 1e-12      # library iterates against the numpy loops, relative to the orbit scale
DIST_TOL = 1e-9      # final distance to the solution, relative to 1 + the start distance
# the cesaro mean of a contractive orbit closes in like log(n) / n, so its
# tolerance is CESARO_DIST_SCALE / horizon
CESARO_DIST_SCALE = 4.0


def count_calls(tracer, layer: str, fn):
    """``fn`` itself when untraced; otherwise a wrapper counting its calls."""
    if tracer is None:
        return fn
    key = f"operators.layer_evals.{layer}"
    counts = tracer.counts

    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


@dataclasses.dataclass
class Sample:
    """Wall times of one pass over the library calls (checks excluded).

    The ``*_calls`` lists hold the time of each builder, solve and
    certificate call in call order, which is the same in every pass.
    """

    setup_calls: list = dataclasses.field(default_factory=list)
    solve_calls: list = dataclasses.field(default_factory=list)
    certify_calls: list = dataclasses.field(default_factory=list)
    total_s: float = 0.0
    iterations: int = 0
    # solve time of the runs that have a bare-numpy twin (engine.overhead_x)
    twin_solve_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(self.setup_calls)

    @property
    def solve_s(self) -> float:
        return sum(self.solve_calls)

    @property
    def certify_s(self) -> float:
        return sum(self.certify_calls)


class Clock:
    """Times the builder, solve and certificate calls of one pass.

    With ``peak=True`` it also runs ``tracemalloc`` from the start of the
    pass until the first certificate call, and keeps the peak in
    ``peak_mb``.  Each workload builds and solves everything before it
    certifies, so that phase holds every trace the pass retains.
    """

    def __init__(self, peak: bool = False):
        self.sample = Sample()
        self.peak_mb: float | None = None
        if peak:
            tracemalloc.start()
        self._start = time.perf_counter()

    def _timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def end_peak(self) -> None:
        if tracemalloc.is_tracing():
            self.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()

    def build(self, builder, **kwargs):
        preset, dt = self._timed(builder, **kwargs)
        self.sample.setup_calls.append(dt)
        return preset

    def solve(self, preset, twin: bool):
        (solution, trace), dt = self._timed(preset.solve)
        self.sample.solve_calls.append(dt)
        self.sample.iterations += trace.n_steps
        if twin:
            self.sample.twin_solve_s += dt
        return solution, trace

    def certify(self, fn, *args, **kwargs):
        self.end_peak()
        out, dt = self._timed(fn, *args, **kwargs)
        self.sample.certify_calls.append(dt)
        return out

    def stop(self) -> Sample:
        self.sample.total_s = time.perf_counter() - self._start
        self.end_peak()
        return self.sample


class Checks:
    """Correctness checks of a run; ``failed_frac = len(failures) / attempted``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def _norm(x) -> float:
    return float(np.linalg.norm(x))


class L1Problem:
    """``min ||x||_1 + 1/2 ||x - a||^2`` built from public pieces.

    ``catalog("l1_quadratic")`` is not used: it allocates ``np.eye(d)``.
    """

    def __init__(self, rng, dim: int):
        self.a = rng.uniform(-3.0, 3.0, dim)
        self.x0 = rng.standard_normal(dim)
        self.solution = af.soft_threshold(self.a, 1.0)

    def layers(self, tracer):
        a = self.a
        A = af.l1_subdifferential()
        A = dataclasses.replace(A, resolvent=count_calls(tracer, "resolvent_A", A.resolvent))
        return A, count_calls(tracer, "gradient", lambda x: x - a)

    def dist_ok(self, x, tol=DIST_TOL) -> bool:
        return _norm(x - self.solution) <= tol * (1.0 + _norm(self.x0 - self.solution))


def _matches(points, twin, scale: float) -> bool:
    """Every library iterate within ``REL_TOL * scale`` of the numpy loop's."""
    count = 0
    for lib, ref in zip(points, twin):
        count += 1
        if _norm(lib - ref) > REL_TOL * scale:
            return False
    return count == len(points)


def _all_passed(certs) -> bool:
    return all(report.passed for report in certs.values())


class FbD2:
    name = "fb-d2"

    def __init__(self, seed: int, smoke: bool, _scratch: Path):
        rng = np.random.default_rng(seed)
        self.problem = L1Problem(rng, 2)
        self.pr_direction = rng.standard_normal(2)
        self.n_fb, self.n_pr = (200, 300) if smoke else (500, 300)
        n = np.arange(self.n_pr - 1, dtype=np.float64)
        self.nu = 1.0 / (n + 1.0) ** 2     # summable

    def _fb_kwargs(self, tracer):
        p = self.problem
        A, grad = p.layers(tracer)
        return dict(A=A, B=grad, beta=1.0, gamma=GAMMA, x0=p.x0, max_iters=self.n_fb,
                    stop_residual=0.0, reference=p.solution)

    def _pr_pieces(self, tracer):
        p = self.problem
        A, _grad = p.layers(tracer)
        B = af.affine_monotone(np.eye(2), -p.a)
        B = dataclasses.replace(B, resolvent=count_calls(tracer, "resolvent_B", B.resolvent))
        v, rate = self.pr_direction, PR_ERROR_RATE
        return A, B, (lambda n: rate**n * v)

    def run_pass(self, clock: Clock, tracer):
        solution = self.problem.solution
        fb = self._fb_kwargs(tracer)
        variants = {
            "memoryless": {},
            "inertial": dict(variant="inertial", eta=af.EtaSchedule("nesterov", tau=NESTEROV_TAU)),
        }
        traces = {}
        for label, extra in variants.items():
            preset = clock.build(af.forward_backward, **fb, **extra)
            traces[label] = clock.solve(preset, twin=True)[1]

        A, B, b_errors = self._pr_pieces(tracer)
        # with gamma = 1 and B x = x - a, the reflected composition fixes 2 y* - a
        pr_fixed = 2.0 * solution - self.problem.a
        pr = clock.build(af.peaceman_rachford, A=A, B=B, gamma=1.0, weights=af.window(2),
                         x0=self.problem.x0, b_errors=b_errors, max_iters=self.n_pr,
                         stop_residual=0.0, reference=pr_fixed)
        pr_solution, pr_trace = clock.solve(pr, twin=False)

        out = {label: (trace.points, clock.certify(af.run_certificates, trace, solution,
                                                   which=("i", "ii")))
               for label, trace in traces.items()}
        budget = clock.certify(af.error_budget_check, pr.config, self.n_pr)
        thetas = pr_trace.thetas
        envelope = clock.certify(af.gronwall_envelope, thetas[0], self.nu, thetas[1:], thetas)
        out["pr"] = (pr_solution, pr_trace.points[-1], pr_fixed, budget, thetas, envelope)
        return out

    def check(self, out, checks: Checks) -> None:
        p = self.problem
        scale = max(_norm(p.x0), _norm(p.solution))
        memoryless, inertial = self.twins()
        points, certs = out["memoryless"]
        twin = np.stack(list(memoryless))
        checks.expect("memoryless: final distance", p.dist_ok(points[-1]))
        checks.expect("memoryless: certificates", _all_passed(certs))
        checks.expect("memoryless: bit-exact with the numpy loop",
                      np.stack(points[1:]).tobytes() == twin.tobytes())

        points, certs = out["inertial"]
        checks.expect("inertial: final distance", p.dist_ok(points[-1]))
        checks.expect("inertial: certificates", _all_passed(certs))
        checks.expect("inertial: matches the numpy loop", _matches(points[1:], inertial, scale))

        solution, x_last, pr_fixed, budget, thetas, envelope = out["pr"]
        checks.expect("peaceman_rachford: final distance", p.dist_ok(solution))
        checks.expect("peaceman_rachford: orbit reaches the fixed point",
                      _norm(x_last - pr_fixed) <= DIST_TOL * (1.0 + _norm(p.x0 - pr_fixed)))
        declared = 2.0 * _norm(self.pr_direction) * (1.0 - PR_ERROR_RATE ** (self.n_pr + 1)) \
            / (1.0 - PR_ERROR_RATE)
        checks.expect("error_budget_check: closed-form total, no flags",
                      not budget.flags and abs(budget.total - declared) <= REL_TOL * declared)
        expected = reference.gronwall_recurrence(thetas[0], self.nu, thetas[1:])
        rel = np.abs(envelope.envelope - expected) / np.maximum(expected, np.finfo(float).tiny)
        checks.expect("gronwall_envelope: matches the recurrence",
                      envelope.envelope.shape == expected.shape and float(rel.max()) <= REL_TOL
                      and envelope.dominated)

    def twins(self):
        p = self.problem
        return (reference.memoryless_fb(p.x0, p.a, GAMMA, self.n_fb),
                reference.inertial_fb(p.x0, p.a, GAMMA, self.n_fb, NESTEROV_TAU))


def _iterations_meter(tracer, _args, result):
    tracer.counts["iterations"] += result[1].n_steps


class CliCesaro:
    """``affiter run`` in-process; files go to a scratch directory of the run."""

    name = "cli-cesaro"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        rng = np.random.default_rng(seed)
        self.problem = L1Problem(rng, 3)
        self.horizon = 20 if smoke else 60
        scratch.mkdir(parents=True, exist_ok=True)
        self.config_path = scratch / "config.json"
        self.out_dir = scratch / "out"
        self.config_path.write_text(json.dumps({
            "problem": {"name": "l1_quadratic", "params": {"a": self.problem.a.tolist()}},
            "solver": {"name": "forward_backward",
                       "params": {"gamma": GAMMA, "epsilon": 0.1, "variant": "mean"}},
            "weights": {"family": "cesaro"},
            "relaxation": {"policy": "constant", "value": 1.0},
            "horizon": self.horizon,
            "stop_residual": 0.0,
            "x0": self.problem.x0.tolist(),
            "seed": seed,
        }))
        self.first_csv: bytes | None = None

    def _layer_counting_catalog(self, tracer):
        catalog = cli.catalog

        def counted_catalog(name, **params):
            spec = catalog(name, **params)
            A = spec.ingredients["A"]
            ingredients = dict(
                spec.ingredients,
                A=dataclasses.replace(
                    A, resolvent=count_calls(tracer, "resolvent_A", A.resolvent)),
                grad=count_calls(tracer, "gradient", spec.ingredients["grad"]),
            )
            return dataclasses.replace(spec, ingredients=ingredients)

        return mock.patch.object(cli, "catalog", counted_catalog)

    def run_pass(self, clock: Clock, tracer):
        # three once-per-pass boundaries; nothing per iteration is wrapped
        probes = Tracer([
            Target("cli.build_preset", cli, "_build_preset"),
            Target(SOLVE_SPAN, af.SolverPreset, "solve", meter=_iterations_meter),
            Target("certificates.run_certificates", cli, "run_certificates"),
        ])
        certify = cli.run_certificates

        def certify_after_peak(*args, **kwargs):
            clock.end_peak()
            return certify(*args, **kwargs)

        argv = ["run", str(self.config_path), "--out-dir", str(self.out_dir)]
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(self._layer_counting_catalog(tracer))
            stack.enter_context(mock.patch.object(cli, "run_certificates", certify_after_peak))
            stack.enter_context(probes)
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            code = cli.main(argv)
        spans, counts = probes.take()
        times = dict.fromkeys(("cli.build_preset", SOLVE_SPAN, "certificates.run_certificates"), 0.0)
        for name, start, end, _parent in spans:
            times[name] += (end - start) * 1e-9
        clock.sample.setup_calls = [times["cli.build_preset"]]
        clock.sample.solve_calls = [times[SOLVE_SPAN]]
        clock.sample.twin_solve_s = times[SOLVE_SPAN]
        clock.sample.certify_calls = [times["certificates.run_certificates"]]
        clock.sample.iterations = counts["iterations"]
        csv = (self.out_dir / "trace.csv").read_bytes()
        report = (self.out_dir / "report.json").read_bytes()
        if tracer is not None:
            tracer.counts["cli.trace_csv_bytes"] += len(csv)
            tracer.counts["cli.report_bytes"] += len(report)
        return code, csv, json.loads(report)

    def twins(self):
        p = self.problem
        return (reference.cesaro_fb(p.x0, p.a, GAMMA, self.horizon),)

    def check(self, out, checks: Checks) -> None:
        code, csv, report = out
        p = self.problem
        lines = csv.decode().splitlines()
        checks.expect("cli: exit code 0", code == 0)
        checks.expect("cli: trace.csv has a header and one row per step",
                      len(lines) == self.horizon + 1 and lines[0] == cli.TRACE_HEADER)
        certs = report.get("certificates", {})
        checks.expect("cli: report certificates pass",
                      set(certs) == {"i", "ii"} and all(c["passed"] for c in certs.values()))
        solution = np.array(report.get("solution", []), dtype=np.float64)
        checks.expect("cli: final distance", solution.shape == p.x0.shape
                      and p.dist_ok(solution, CESARO_DIST_SCALE / self.horizon))
        (twin,) = self.twins()
        *_, last = twin
        scale = max(_norm(p.x0), _norm(p.solution))
        checks.expect("cli: solution matches the numpy loop",
                      solution.shape == last.shape and _norm(solution - last) <= REL_TOL * scale)
        if self.first_csv is None:
            self.first_csv = csv
        else:
            checks.expect("cli: trace.csv byte-identical across runs", csv == self.first_csv)


def timed_pass(workload, tracer=None, peak: bool = False):
    """One pass of ``workload``: its ``Sample``, its outputs and, with ``peak``,
    the traced memory peak of its build-and-solve phase in MB.

    Every pass starts from a collected heap, so that no pass pays for the
    garbage of the one before.
    """
    gc.collect()
    clock = Clock(peak)
    out = workload.run_pass(clock, tracer)
    return clock.stop(), out, clock.peak_mb


def numpy_baseline(workload) -> float:
    """Seconds the bare numpy loops take for the runs that have one."""
    twins = workload.twins()
    t0 = time.perf_counter()
    for twin in twins:
        collections.deque(twin, maxlen=0)
    return time.perf_counter() - t0


#: workload classes by name; each is built as ``cls(seed, smoke, scratch_dir)``
WORKLOADS = {cls.name: cls for cls in (FbD2, CliCesaro)}
