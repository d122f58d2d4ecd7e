"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from feasik import (ConstantRelaxation, Cyclic, Harmonic, PhiOne,
                    PhiSubgradNorm, RandomSets, RemotestSet, Repetitive,
                    RunConfig, UniformOverActive, check_descent,
                    check_single_operator, positivity_diagnostic,
                    random_slater_polyhedron, reproduce_a1,
                    reproduce_a1_bracketed, reproduce_a2,
                    reproduce_a2_bracketed, slater_delta, solve,
                    trace_csv_text)
from feasik.model import (AbsCoordMinusC, Constraint, Halfspace, Problem,
                          QuadCoordMinusC, feasible)
from feasik.operators import check_cutter_property

from conftest import interior_point_with_margin, outside_point, random_metric_body


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1 ------------------------------------------------------------

def test_c01_counterexample_a1():
    t0 = time.perf_counter()
    rep = reproduce_a1(max_iter=10_000, oracle_up_to=100)
    dt = time.perf_counter() - t0
    ok = rep.ok and rep.max_rel_err <= 1e-12 and dt < 1.0
    report(1, ok, f"raw A.1 never feasible in 1e4 steps, "
                  f"max_rel_err={rep.max_rel_err:.1e} over k<=100, {dt:.2f}s")


# -- criterion 2 ------------------------------------------------------------

def test_c02_counterexample_a2():
    from feasik.certificates import a2_b
    t0 = time.perf_counter()
    rep = reproduce_a2(max_iter=100_000, oracle_up_to=30)
    dt = time.perf_counter() - t0
    ok = (rep.ok and rep.max_rel_err <= 1e-12 and a2_b(1) == 1.0 / 128.0
          and dt < 5.0)
    report(2, ok, f"raw A.2 never feasible in 1e5 steps, b_1 == 1/128 exactly, "
                  f"max_rel_err={rep.max_rel_err:.1e} over k<=30, {dt:.2f}s")


# -- criteria 3 and 4 share the randomized suite ------------------------------

def _suite_controls(m: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 10_000)
    period = [int(v) for v in rng.permutation(m)] \
        + [int(rng.integers(0, m)) for _ in range(m)]
    return {
        "cyclic": Cyclic(list(range(m))),
        "repetitive": Repetitive(lambda k, p=period: (p[k % len(p)],)),
        "remotest": RemotestSet(),
        "random-uniform": RandomSets.uniform_singletons(m, seed),
    }


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    elapsed = 0.0
    for seed in range(200):
        problem, x0 = random_slater_polyhedron(seed, boxed_outer=(seed % 4 == 0))
        m = int(problem.m)
        for cname, control in _suite_controls(m, seed).items():
            for phi in (PhiOne(), PhiSubgradNorm()):
                cfg = RunConfig(
                    problem=problem, control=control,
                    relaxation=ConstantRelaxation(1.0),
                    overrelaxation=Harmonic(), phi=phi,
                    weights=UniformOverActive(), x0=x0,
                    counter_mode="bracketed", max_iter=100_000)
                t0 = time.perf_counter()
                result = solve(cfg)
                elapsed += time.perf_counter() - t0
                runs.append((seed, cname, phi.kind, cfg, result))
    return runs, elapsed


def test_c03_finite_convergence_suite(suite_runs):
    runs, elapsed = suite_runs
    failures = []
    worst_k = 0
    for seed, cname, phik, cfg, result in runs:
        if not (result.feasible and result.k_feasible <= 100_000
                and feasible(cfg.problem, result.final, tol=0.0)):
            failures.append((seed, cname, phik))
        else:
            worst_k = max(worst_k, result.k_feasible)
    ok = not failures and elapsed < 60.0
    report(3, ok, f"{len(runs)} runs (200 instances x 4 controls x 2 phi) all "
                  f"exactly feasible, max k={worst_k}, solve time {elapsed:.1f}s"
                  + (f", failures={failures[:3]}" if failures else ""))


def test_c04_descent_certificates(suite_runs):
    runs, _ = suite_runs
    violations = 0
    applicable = 0
    min_slack_rel = 0.0
    for seed, cname, phik, cfg, result in runs:
        z, big_r = cfg.problem.interior
        lam = cfg.weights.floor(cfg.control.max_card)
        cert = check_descent(result, z, big_r, lam, outer=cfg.problem.outer)
        violations += len(cert.violations)
        applicable += cert.applicable_count
        for e in cert.entries:
            if e.applicable:
                base = float(np.linalg.norm(result.trace[e.k].x - z) ** 2)
                min_slack_rel = min(min_slack_rel, e.slack / (1.0 + base))
    ok = violations == 0 and min_slack_rel >= -1e-9
    report(4, ok, f"{applicable} applicable correction steps across the suite, "
                  f"0 expected violations (got {violations}), "
                  f"worst relative slack {min_slack_rel:.1e}")


# -- criterion 5 ------------------------------------------------------------

def test_c05_single_operator_inequality():
    rng = np.random.default_rng(505)
    dim = 3
    done, bad = 0, 0
    while done < 1000:
        body = random_metric_body(rng, dim)
        rho = float(rng.uniform(0.05, 0.5))
        y = interior_point_with_margin(rng, body, dim, rho)
        x = outside_point(rng, body, dim)
        if y is None or x is None:
            continue
        alpha = float(rng.uniform(0.05, 2.0))
        _, _, ok = check_single_operator(Constraint(0, body), x, y, rho, alpha)
        bad += not ok
        done += 1
    report(5, bad == 0, f"1000 random (cutter, x, y, rho, alpha) tuples, "
                        f"{bad} violations at 1e-10 relative")


# -- criterion 6 ------------------------------------------------------------

def test_c06_cutter_property():
    rng = np.random.default_rng(606)
    dim = 3
    done, bad = 0, 0
    while done < 10_000:
        body = random_metric_body(rng, dim)
        x = rng.uniform(-4, 4, dim)
        z = body.project(rng.uniform(-4, 4, dim))
        lhs, rhs, _ = check_cutter_property(Constraint(0, body), x, z)
        bad += not (lhs >= rhs - 1e-10)
        done += 1
    report(6, bad == 0, f"10000 random (cutter, x, z) triples, {bad} violations "
                        f"of <T(x)-x, z-x> >= ||T(x)-x||^2 - 1e-10")


# -- criterion 7 ------------------------------------------------------------

def test_c07_slater_bound():
    fs = [AbsCoordMinusC(axis=1, c=1.0), QuadCoordMinusC(axis=0, c=1.0)]
    z = np.array([0.0, 0.0])
    delta = slater_delta(fs, z, 2.0)
    rng = np.random.default_rng(707)
    checked, bad = 0, 0
    while checked < 10_000:
        u = rng.standard_normal(2)
        u *= rng.uniform(0.0, 2.0) / np.linalg.norm(u)
        x = z + u
        for f in fs:
            if f.value(x) > 0.0:
                bad += not (float(np.linalg.norm(f.subgradient(x))) >= delta)
                checked += 1
    report(7, delta == 0.5 and bad == 0,
           f"delta = {delta} (expected 0.5); {checked} violating samples in "
           f"B(z,2), {bad} below delta")


# -- criterion 8 ------------------------------------------------------------

def test_c08_stochastic_positivity():
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0)),
                    Constraint(1, Halfspace([0.0, 1.0], 0.0))])
    probe = [np.array([-1.0, 1.0])]  # violates only constraint 1
    uniform = RandomSets([((0,), 0.5), ((1,), 0.5)], seed=1)
    only_first = RandomSets([((0,), 1.0)], seed=1)
    mixed = RandomSets([((0, 1), 0.3), ((0,), 0.7)], seed=1)
    got = (positivity_diagnostic(uniform, p, probe).probes[0][1],
           positivity_diagnostic(only_first, p, probe).probes[0][1],
           positivity_diagnostic(mixed, p, probe).probes[0][1])
    ok = got == (0.5, 0.0, 0.3)  # exact atom sums
    report(8, ok, f"worked examples give probabilities {got}, "
                  f"expected (0.5, 0.0, 0.3) exactly")


# -- criterion 9 ------------------------------------------------------------

def test_c09_bracketed_mode_repairs_counterexamples():
    rep1 = reproduce_a1_bracketed()
    rep2 = reproduce_a2_bracketed()
    ok = rep1.ok and rep2.ok
    report(9, ok, f"bracketed A.1 feasible at k={rep1.k_feasible}, "
                  f"bracketed A.2 feasible at k={rep2.k_feasible}")


# -- criterion 10 -----------------------------------------------------------

def test_c10_determinism():
    texts = set()
    for _ in range(3):
        problem, x0 = random_slater_polyhedron(99)
        cfg = RunConfig(
            problem=problem,
            control=RandomSets.uniform_singletons(int(problem.m), seed=2024),
            relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
            phi=PhiSubgradNorm(), weights=UniformOverActive(), x0=x0,
            counter_mode="bracketed", max_iter=100_000)
        result = solve(cfg)
        texts.add(trace_csv_text(result.trace, problem.dim))
    report(10, len(texts) == 1,
           f"3 repeats of a seeded random-control run produced "
           f"{len(texts)} distinct trace CSV byte string(s)")
