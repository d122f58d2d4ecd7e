import math

import numpy as np
import pytest

from feasik import (AbsCoordMinusC, Affine, Ball, CertificateError,
                    ConstantRelaxation, Constraint, Cyclic, Explicit, FromFunction,
                    Halfspace, Harmonic, OuterSet, PhiOne, PhiSubgradNorm, Problem,
                    QuadCoordMinusC, RunConfig, UniformOverActive, certificates, engine,
                    check_descent, check_single_operator, oracle_a1, oracle_a2,
                    reproduce_a1, reproduce_a1_bracketed, reproduce_a2,
                    reproduce_a2_bracketed, slater_delta, solve)
from feasik.certificates import a2_b, a2_problem, build_a1_config, build_a2_config

from conftest import interior_point_with_margin, outside_point, random_metric_body


def cyclic_cfg(problem, x0, **kw):
    base = dict(problem=problem, control=Cyclic(list(range(int(problem.m)))),
                relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                phi=PhiOne(), weights=UniformOverActive(), x0=x0,
                counter_mode="bracketed", max_iter=1000)
    base.update(kw)
    return RunConfig(**base)


def test_check_descent_two_halfspaces(axis_halfspaces):
    result = solve(cyclic_cfg(axis_halfspaces, [1.0, 1.0]))
    cert = check_descent(result, [-3.0, -3.0], 1.0, 1.0,
                         outer=axis_halfspaces.outer)
    assert cert.ok
    assert cert.applicable_count >= 1
    assert all(e.slack >= 0.0 for e in cert.entries if e.applicable)
    d = cert.to_dict()
    assert d["violations"] == [] and d["applicable"] == cert.applicable_count


def test_descent_entries_are_slotted(axis_halfspaces):
    # A certificate keeps one entry per step, so an entry carries no __dict__.
    result = solve(cyclic_cfg(axis_halfspaces, [1.0, 1.0]))
    entry = check_descent(result, [-3.0, -3.0], 1.0, 1.0).entries[0]
    assert not hasattr(entry, "__dict__")


def test_check_descent_skips_non_corrections(axis_halfspaces):
    # the iterate satisfies the first constraint, so step 0 does not move
    result = solve(cyclic_cfg(axis_halfspaces, [-1.0, 1.0]))
    cert = check_descent(result, [-3.0, -3.0], 1.0, 1.0)
    assert not cert.entries[0].applicable
    assert cert.ok


def test_check_descent_large_r_not_applicable(axis_halfspaces):
    # r_0 = 10 > R: the first correction is outside the lemma's hypothesis
    over = FromFunction(lambda j: 10.0 if j == 0 else 1.0 / (j + 1),
                        divergent_sum=True)
    result = solve(cyclic_cfg(axis_halfspaces, [1.0, 1.0], overrelaxation=over))
    cert = check_descent(result, [-3.0, -3.0], 1.0, 1.0)
    first_corrections = [e for e in cert.entries if e.rho > 1.0]
    assert first_corrections and all(not e.applicable for e in first_corrections)
    assert cert.ok


def test_check_descent_z_outside_q():
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))],
                outer=OuterSet(Halfspace([0.0, 1.0], 0.0)))
    result = solve(cyclic_cfg(p, [1.0, 0.0]))
    with pytest.raises(CertificateError, match="outer set"):
        check_descent(result, [-1.0, 5.0], 0.5, 1.0, outer=p.outer)


def test_check_descent_needs_a_kept_trace(axis_halfspaces):
    # A streamed run keeps no trace: replaying it raised a TypeError.
    result = solve(cyclic_cfg(axis_halfspaces, [1.0, 1.0]), observers=[lambda rec: None])
    with pytest.raises(CertificateError, match="kept no trace"):
        check_descent(result, [-3.0, -3.0], 1.0, 1.0)


@pytest.mark.parametrize("z", [[-3.0], [-3.0, -3.0, -3.0]])
def test_descent_checks_z_against_the_iterates(axis_halfspaces, z):
    # A z of length 1 broadcast silently; one of length 3 raised numpy's
    # broadcast ValueError.
    result = solve(cyclic_cfg(axis_halfspaces, [1.0, 1.0]))
    with pytest.raises(CertificateError, match=f"z has dimension {len(z)}, the iterates 2"):
        check_descent(result, z, 1.0, 1.0)


def test_reproduce_a2_fails_with_a_note_when_no_b_position_is_reached():
    # max_iter=2 ends before b_0's position: max() of no positions raised.
    report = reproduce_a2(max_iter=2)
    assert not report.ok and report.status == "max_iter"
    assert report.notes == ["no b-position within max_iter=2: nothing to check"]
    assert "a2: FAIL" in report.lines()[0]


def test_single_operator_hand_example():
    c = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    lhs, rhs, ok = check_single_operator(
        c, np.array([1.0, 0.0]), np.array([-2.0, 0.0]), rho_val=1.0, alpha=1.0)
    assert (lhs, rhs, ok) == (1.0, 5.0, True)


def test_single_operator_alpha_two_reduces_to_nonexpansive():
    c = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    x, y = np.array([1.0, 0.0]), np.array([-2.0, 0.0])
    lhs, rhs, ok = check_single_operator(c, x, y, rho_val=1.0, alpha=2.0)
    assert rhs == float(np.linalg.norm(x - y) ** 2)  # coefficient (2-a)/a = 0
    assert ok and lhs <= rhs


def test_single_operator_requires_infeasible_x():
    c = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    with pytest.raises(CertificateError, match="hypothesis"):
        check_single_operator(c, np.array([-1.0, 0.0]), np.array([-2.0, 0.0]),
                              rho_val=0.5, alpha=1.0)


def test_single_operator_random_sweep():
    rng = np.random.default_rng(47)
    dim = 3
    done = 0
    while done < 1000:
        body = random_metric_body(rng, dim)
        rho = float(rng.uniform(0.05, 0.5))
        y = interior_point_with_margin(rng, body, dim, rho)
        x = outside_point(rng, body, dim)
        if y is None or x is None:
            continue
        alpha = float(rng.uniform(0.05, 2.0))
        _, _, ok = check_single_operator(Constraint(0, body), x, y, rho, alpha)
        assert ok
        done += 1


def test_slater_delta_values():
    fs = [AbsCoordMinusC(axis=1, c=1.0), QuadCoordMinusC(axis=0, c=1.0)]
    z = np.array([0.0, 0.0])
    assert slater_delta(fs, z, 2.0) == 0.5
    assert slater_delta(fs, z, 4.0) == 0.25
    with pytest.raises(CertificateError, match="Slater point invalid"):
        slater_delta(fs, np.array([2.0, 0.0]), 2.0)


def test_slater_bound_holds_on_samples():
    fs = [AbsCoordMinusC(axis=1, c=1.0), QuadCoordMinusC(axis=0, c=1.0)]
    z = np.array([0.0, 0.0])
    delta = slater_delta(fs, z, 2.0)
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 2000:
        u = rng.standard_normal(2)
        u *= rng.uniform(0, 2.0) / np.linalg.norm(u)
        x = z + u
        for f in fs:
            if f.value(x) > 0.0:
                assert float(np.linalg.norm(f.subgradient(x))) >= delta
                checked += 1


def test_oracle_a1_closed_form():
    assert oracle_a1(0) == (1.0, 1.0)
    assert oracle_a1(1) == (0.0, 1.0)
    assert oracle_a1(2) == (0.0, 0.25)
    assert oracle_a1(3) == (0.0, 0.25)
    assert oracle_a1(4) == (0.0, 0.0625)


def test_oracle_a2_values():
    assert a2_b(0) == 0.5
    assert a2_b(1) == 1.0 / 128.0  # exact in binary64
    b0, x0 = oracle_a2(0)
    assert (b0, x0) == (0.5, 2.0)


def test_a2_b2_against_extended_precision():
    # independent oracle: one recursion step at 60 digits, then rounded
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b1 = mpmath.mpf(1) / 128
        b2 = b1 / (2 * mpmath.sqrt(2) / mpmath.sqrt(b1) + 4) ** 2
        want = float(b2)
    assert a2_b(2) == want
    assert want == 1.0 / 165888.0


def test_reproduce_a1_raw_and_bracketed():
    rep = reproduce_a1(max_iter=2000, oracle_up_to=100)
    assert rep.ok and rep.status == "max_iter"
    assert rep.max_rel_err == 0.0  # the trace stays on exact powers of two
    rep = reproduce_a1_bracketed()
    assert rep.ok and rep.k_feasible == 4


def test_a1_engine_iterates_bit_exact():
    result = solve(build_a1_config("raw", max_iter=250))
    for k in range(1, 101):
        wx, wy = oracle_a1(2 * k)
        assert float(result.trace[2 * k].x[0]) == wx
        assert float(result.trace[2 * k].x[1]) == wy


def test_reproduce_a2_raw_and_bracketed():
    rep = reproduce_a2(max_iter=2000, oracle_up_to=12)
    assert rep.ok and rep.status == "max_iter"
    assert rep.max_rel_err <= 1e-12
    rep = reproduce_a2_bracketed()
    assert rep.ok and rep.k_feasible == 130


def test_reproduce_a2_fast_forwards_through_one_run(monkeypatch):
    # The golden output shows the fast-forward rows only to k = 10 and the
    # error to three digits, so each iterate is pinned here: it equals, bit
    # for bit, one step at k = 0 of a run on constraint 1 with r = b_k fixed.
    cfg = build_a2_config("raw", 200)
    sched = cfg.overrelaxation
    x = next(rec.x for pos, rec in enumerate(solve(cfg).trace)
             if sched.source(pos) == ("b", 1))  # the last b-position of 1e5 steps
    want = []
    for k in range(1, 30):
        one = RunConfig(
            problem=cfg.problem, control=Explicit([(1,)]),
            relaxation=ConstantRelaxation(1.0),
            overrelaxation=FromFunction(lambda j, r=a2_b(k): r, divergent_sum=True),
            phi=PhiSubgradNorm(), weights=UniformOverActive(), x0=x,
            counter_mode="raw", max_iter=1)
        x = engine.step(one, x, 0, 0)[0]
        want.append(x.tobytes())

    got, configs, solves = [], [], []

    def recorded_step(*args, **kwargs):
        out = engine.step(*args, **kwargs)
        got.append(out[0].tobytes())
        return out

    def counted_init(self, *args, init=RunConfig.__init__, **kwargs):
        configs.append(self)
        init(self, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return engine.solve(*args, **kwargs)

    monkeypatch.setattr(certificates, "step", recorded_step)
    monkeypatch.setattr(certificates, "solve", counted_solve)
    monkeypatch.setattr(RunConfig, "__init__", counted_init)
    report = reproduce_a2()
    assert report.ok and report.table[-1][0] == "10 (ff)"
    assert (len(configs), len(got), len(solves)) == (2, 29, 1)
    assert got == want


def test_bracketed_a2_takes_one_subgradient_per_cutter_image(monkeypatch):
    # phi = ||g|| reuses the g . g of the subgradient projection: the run
    # evaluates each violated constraint's subgradient once, not twice.
    calls = []
    for cls in (AbsCoordMinusC, QuadCoordMinusC):
        def counted(self, x, orig=cls.subgradient):
            calls.append(type(self).__name__)
            return orig(self, x)
        monkeypatch.setattr(cls, "subgradient", counted)
    cfg = build_a2_config("bracketed", 10_000)
    result = solve(cfg)
    assert result.k_feasible == 130
    images = sum(len(rec.violated) for rec in result.trace)
    assert images == 3 and len(calls) == 3
    calls.clear()
    assert reproduce_a2_bracketed().ok and len(calls) == 3


def test_fixed_point_consistency_along_runs(axis_halfspaces):
    # A step that did not move had every active constraint satisfied, in Q.
    for cfg in (cyclic_cfg(axis_halfspaces, [-1.0, 1.0]),
                build_a2_config("raw", max_iter=300)):
        p = cfg.problem
        still = [rec for rec in solve(cfg).trace if rec.active and not rec.corrected]
        assert still and all(not rec.violated and p.outer.member(rec.x) and all(
            p.constraint(i).violation(rec.x) <= 0.0 for i in rec.active) for rec in still)
