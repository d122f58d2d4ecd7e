"""The benchmark's workloads.  Each builds its inputs from the workload seed
(``setup``) and then runs one pass over them (``run``), checking every
output on the way.  Calls into feasik go through module attributes
(``engine.solve``, ``certificates.check_descent``, ...) so that the tracer's
replacements see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from feasik import certificates, cli, engine, instances, model
from feasik import controls as ctl
from feasik import schedules as sch

from tracer import Patches

ROOT = Path(__file__).resolve().parent.parent
SWEEP_GRID = ROOT / "demos" / "configs" / "sweep_grid.json"
MAX_ITER = 100_000

# Taken before any tracer replaces it: the benchmark's own checks must not
# count as work of the layers they check.
_feasible = model.feasible


def _every_sign_test(problem, x) -> bool:
    """Membership of x in Q and in every constraint set, tested one
    constraint at a time, apart from ``feasible``'s own loop."""
    return problem.outer.member(x) and all(
        problem.constraint(i).violation(x) <= 0.0 for i in problem.indices())


@dataclass
class PassResult:
    """One pass: its wall time, the (start, end) of each top-level
    operation in pass order, one (start, end, steps, corrections) row per
    solve, a digest per checked operation (compared across passes) and the
    failed checks."""

    wall_s: float = 0.0
    segments: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @contextlib.contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.segments.append((t0, time.perf_counter()))

    @property
    def attempted(self) -> int:
        return len(self.digests)

    def check(self, ok: bool, label: str, what: str) -> None:
        if not ok:
            self.failures.append((label, what))

    def record(self, label: str, *parts) -> None:
        h = hashlib.sha256()
        for p in parts:
            h.update(p if isinstance(p, bytes) else repr(p).encode())
        self.digests.append((label, h.hexdigest()))


@contextlib.contextmanager
def solve_log(out: PassResult):
    """Time every ``solve`` call of the pass, wherever feasik calls it from."""
    orig = engine.solve

    def timed_solve(cfg, *args, **kwargs):
        t0 = time.perf_counter()
        result = orig(cfg, *args, **kwargs)
        t1 = time.perf_counter()
        steps = result.k_feasible if result.feasible else cfg.max_iter
        out.solves.append((t0, t1, steps, result.corrections))
        return result

    patches = Patches()
    patches.everywhere(orig, timed_solve)
    try:
        yield
    finally:
        patches.undo()


def run_config(problem, x0, control, phi=None, weights=None) -> engine.RunConfig:
    return engine.RunConfig(
        problem=problem, control=control,
        relaxation=sch.ConstantRelaxation(1.0), overrelaxation=sch.Harmonic(),
        phi=phi or sch.PhiOne(), weights=weights or sch.UniformOverActive(),
        x0=x0, counter_mode="bracketed", max_iter=MAX_ITER)


def _solve_digest(result) -> tuple:
    return (result.status, result.k_feasible, result.corrections,
            result.final.tobytes())


def _trace_csv(out: PassResult, label: str, result, dim: int) -> None:
    buf = io.StringIO()
    engine.write_trace_csv(result.trace, dim, buf)
    out.record(label, buf.getvalue().encode())


def _certify(out: PassResult, label: str, cfg, result) -> None:
    """Every run ends feasible, passes the exact sign test and has a
    descent certificate without violations."""
    problem = cfg.problem
    out.check(result.status == "feasible", label, f"status {result.status}")
    out.check(_feasible(problem, result.final, tol=0.0)
              and _every_sign_test(problem, result.final), label,
              "final iterate fails the exact sign test")
    z, big_r = problem.interior
    cert = certificates.check_descent(
        result, z, big_r, cfg.weights.floor(cfg.control.max_card),
        outer=problem.outer)
    out.check(cert.ok, label, f"descent violations at {cert.violations[:3]}")
    out.record(label, *_solve_digest(result), len(cert.violations))


def _solve_and_certify(out: PassResult, runs) -> None:
    """Solve every (label, config) first and certify afterwards, as the
    acceptance suite does, so that all traces are alive together."""
    results = []
    for _, cfg in runs:
        with out.timed():
            results.append(engine.solve(cfg))
    for (label, cfg), result in zip(runs, results):
        with out.timed():
            _certify(out, label, cfg, result)
    label, cfg = runs[0]
    with out.timed():
        _trace_csv(out, label + ".csv", results[0], cfg.problem.dim)


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

class Counterexamples:
    name = "counterexamples"

    def setup(self, seed):
        # The paper's fixed instances; the seed has nothing to vary.
        return certificates.build_a1_config("raw", 10_000)

    def run(self, a1_cfg, out: PassResult) -> None:
        for reproduce, args in ((certificates.reproduce_a1, (10_000, 100)),
                                (certificates.reproduce_a2, (100_000, 30)),
                                (certificates.reproduce_a1_bracketed, ()),
                                (certificates.reproduce_a2_bracketed, ())):
            with out.timed():
                rep = reproduce(*args)
            out.check(rep.ok and rep.max_rel_err <= 1e-12, rep.name,
                      f"{rep.status}, max_rel_err {rep.max_rel_err}, {rep.notes}")
            out.record(rep.name, rep.lines())
        with out.timed():
            result = engine.solve(a1_cfg)
        out.check(result.status == "max_iter" and not any(
            rec.feasible_flag for rec in result.trace), "a1.solve",
            f"status {result.status}")
        z, big_r = a1_cfg.problem.interior
        with out.timed():
            cert = certificates.check_descent(result, z, big_r, 1.0)
        out.check(cert.ok, "a1.solve",
                  f"descent violations at {cert.violations[:3]}")
        out.record("a1.solve", *_solve_digest(result), len(cert.violations))
        with out.timed():
            _trace_csv(out, "a1.csv", result, a1_cfg.problem.dim)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_controls(m: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 10_000)
    period = [int(v) for v in rng.permutation(m)] \
        + [int(rng.integers(0, m)) for _ in range(m)]
    return {
        "cyclic": ctl.Cyclic(list(range(m))),
        "repetitive": ctl.Repetitive(lambda k, p=period: (p[k % len(p)],)),
        "remotest": ctl.RemotestSet(),
        "random": ctl.RandomSets.uniform_singletons(m, seed),
    }


def evenly(rng, lo: float, hi: float, n: int):
    """n values spread evenly over [lo, hi], in seeded random order."""
    return lo + (hi - lo) * (rng.permutation(n) + 0.5) / n


def start_point(problem, rng, distance: float):
    """A start in Q at ``distance`` from the interior point, in a seeded
    random direction."""
    u = rng.standard_normal(problem.dim)
    z = problem.interior[0]
    return problem.outer.project(z + (distance / np.linalg.norm(u)) * u)


class Suite:
    """The generator's own draws of the interior radius and the start
    distance move one run's step count by orders of magnitude (a run with
    R near 0.1 and the start near distance 8 takes over a thousand steps
    where the median run takes a few), and a pass of 800 instances does not
    average that out.  So dimension and pool size cycle through 2-8 and
    3-12, and the radius and the distance are spread evenly over [0.5, 1]
    and [3, 8]; the polyhedra and directions stay random."""

    name = "suite"
    instances = 800

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        n = self.instances
        seeds = rng.integers(0, 2 ** 31, n)
        radii = evenly(rng, 0.5, 1.0, n)
        distances = evenly(rng, 3.0, 8.0, n)
        runs = []
        for j, s in enumerate(int(s) for s in seeds):
            problem, _ = instances.random_slater_polyhedron(
                s, dim=2 + j % 7, m=3 + (j // 7) % 10,
                interior_radius=float(radii[j]), boxed_outer=(j % 4 == 0))
            x0 = start_point(problem, rng, distances[j])
            for cname, control in _suite_controls(int(problem.m), s).items():
                for phi in (sch.PhiOne(), sch.PhiSubgradNorm()):
                    runs.append((f"{s}.{cname}.{phi.kind}",
                                 run_config(problem, x0, control, phi)))
        return runs

    def run(self, runs, out: PassResult) -> None:
        _solve_and_certify(out, runs)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), out.timed():
            code = cli.main(["sweep", "--config", str(SWEEP_GRID)])
        rows = stdout.getvalue().splitlines()[1:]
        out.check(code == 0 and len(rows) == 9 and all(
            r.split(",")[4] != "MAX" for r in rows), "sweep.csv",
            f"exit {code}, {stderr.getvalue().strip()}")
        out.record("sweep.csv", stdout.getvalue().encode())


# ---------------------------------------------------------------------------
# ladders of random metric-halfspace polyhedra
# ---------------------------------------------------------------------------

def ladder_instances(seed: int, tag: int, rungs):
    """``count`` halfspace polyhedra with interior radius 0.5 per (d, m,
    count) rung.  As in the suite, the start distances of a rung are spread
    evenly over the generator's range [3, 8]."""
    out = []
    rng = np.random.default_rng([seed, tag])
    for d, m, count in rungs:
        for distance in evenly(rng, 3.0, 8.0, count):
            s = int(rng.integers(0, 2 ** 31))
            problem, _ = instances.random_slater_polyhedron(
                s, dim=d, m=m, interior_radius=0.5, sublevel=False)
            out.append((f"{d}x{m}.{s}", problem, start_point(problem, rng, distance)))
    return out


class LadderCyclic:
    name = "ladder_cyclic"
    rungs = [(25, 100, 96), (50, 200, 64)]

    def setup(self, seed):
        return [(label, run_config(p, x0, ctl.Cyclic(range(int(p.m)))))
                for label, p, x0 in ladder_instances(seed, 1, self.rungs)]

    def run(self, runs, out: PassResult) -> None:
        _solve_and_certify(out, runs)


class LadderScan:
    name = "ladder_scan"
    remotest_rungs = [(200, 2000, 12)]
    block_rungs = [(50, 200, 40)]

    def setup(self, seed):
        runs = [(label + ".remotest", run_config(p, x0, ctl.RemotestSet()))
                for label, p, x0 in ladder_instances(seed, 2, self.remotest_rungs)]
        runs += [(label + ".block",
                  run_config(p, x0, ctl.Intermittent([range(int(p.m))]),
                             weights=sch.UniformOverViolated()))
                 for label, p, x0 in ladder_instances(seed, 3, self.block_rungs)]
        return runs

    def run(self, runs, out: PassResult) -> None:
        _solve_and_certify(out, runs)


WORKLOADS = {w.name: w for w in (Counterexamples(), Suite(), LadderCyclic(),
                                 LadderScan())}
