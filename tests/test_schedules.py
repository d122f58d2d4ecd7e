import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (AbsCoordMinusC, ConfigError, ConstantOverrelaxation,
                    ConstantRelaxation, Constraint, Cyclic, ExplicitTable,
                    FromFunction, Geometric, Halfspace, Harmonic,
                    InconsistentConstraintError, MaxAffine, MergedDecreasing,
                    OverrelaxationList, PhiCustom, PhiOne, PhiSubgradNorm,
                    QuadCoordMinusC, RandomSets, RelaxationList, RunConfig,
                    Sublevel, UniformOverActive, UniformOverViolated, beta,
                    random_slater_polyhedron, solve)
from feasik.certificates import a2_b


def test_beta_values():
    assert beta(1.0, 1.0, 0.0) == 0.0
    assert beta(0.5, 1.0, 2.0) == 1.25
    assert beta(1.0, 2.0, 1.0) == 1.5


def test_beta_never_undershoots():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        r = float(rng.uniform(1e-12, 10))
        phi = float(rng.uniform(1e-6, 100))
        d = float(rng.uniform(1e-12, 10))
        assert beta(r, phi, d) >= 1.0


def test_relaxation_range():
    assert ConstantRelaxation(2.0).alpha(5) == 2.0
    with pytest.raises(ConfigError, match=r"relaxation outside \(0,2\]"):
        ConstantRelaxation(2.5)
    with pytest.raises(ConfigError):
        ConstantRelaxation(0.0)
    sched = RelaxationList([1.0, 1.5])
    assert sched.alpha(1) == 1.5
    with pytest.raises(ConfigError, match="exhausted"):
        sched.alpha(2)


def test_harmonic_partial_sum_divergence():
    # sum_{k<K} 1/(k+1) = H_K >= ln(K+1) > B for K = ceil(e^B)
    h = Harmonic()
    for b_target in (2.0, 5.0):
        big_k = math.ceil(math.exp(b_target))
        total = sum(h.r(k) for k in range(big_k))
        assert total > b_target
    assert h.r(10 ** 6) < 2e-6


def test_overrelaxation_validation():
    with pytest.raises(ConfigError):
        ConstantOverrelaxation(0.0)
    with pytest.raises(ConfigError):
        OverrelaxationList([1.0, 0.0])
    listed = OverrelaxationList([1.0, 0.5])
    assert listed.r(1) == 0.5
    with pytest.raises(ConfigError, match="exhausted"):
        listed.r(2)
    with pytest.raises(ConfigError):
        Geometric(1.0, 1.0)
    assert Geometric(1.0, 0.5).r(3) == 0.125
    assert not Geometric(1.0, 0.5).divergent_sum
    fn = FromFunction(lambda k: 2.0 ** -k, divergent_sum=False)
    assert fn.r(2000) == 0.0  # mathematical positivity underflows; tolerated
    with pytest.raises(ConfigError):
        FromFunction(lambda k: -1.0).r(0)


def test_merged_decreasing_a2_layout():
    sched = MergedDecreasing(lambda k: 1.0 / (k + 1), a2_b)
    first = [sched.r(j) for j in range(4)]
    assert first == [1.0, 0.5, 0.5, 1.0 / 3.0]
    assert [sched.source(j) for j in range(4)] == [
        ("a", 0), ("a", 1), ("b", 0), ("a", 2)]
    # on the 1/128 tie the a-element comes first
    assert sched.position_of("a", 127) == 128
    assert sched.position_of("b", 1) == 129
    assert sched.r(128) == 1.0 / 128.0 and sched.r(129) == 1.0 / 128.0
    values = [sched.r(j) for j in range(500)]
    assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


def test_merged_decreasing_evaluates_each_element_once():
    calls = {"a": 0, "b": 0}

    def a_fn(k):
        calls["a"] += 1
        return 1.0 / (k + 1)

    def b_fn(k):
        calls["b"] += 1
        return 2.0 ** -(k + 1)

    sched = MergedDecreasing(a_fn, b_fn)
    got = [(sched.r(j), sched.source(j)) for j in range(1000)]
    assert calls["a"] + calls["b"] <= 1000 + 2
    # The merge itself, spelled out.
    want, ai, bi = [], 0, 0
    while len(want) < 1000:
        if 1.0 / (ai + 1) >= 2.0 ** -(bi + 1):
            want.append((1.0 / (ai + 1), ("a", ai)))
            ai += 1
        else:
            want.append((2.0 ** -(bi + 1), ("b", bi)))
            bi += 1
    assert got == want


def test_merged_decreasing_rejects_increasing_input():
    sched = MergedDecreasing(lambda k: float(k + 1), lambda k: 0.5)
    with pytest.raises(ConfigError, match="nonincreasing"):
        sched.r(3)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("side", ["a", "b"])
def test_merged_decreasing_rejects_non_finite_inputs(side, value):
    # A NaN passed both order checks, and an inf at position 0 had no
    # earlier value to exceed.  FromFunction.r rejects both, and so does
    # the merge, at the first position and at a later one.
    with pytest.raises(ConfigError):
        FromFunction(lambda k: value).r(0)
    for at in (0, 3):
        def bad(k):
            return value if k == at else 1.0 / (k + 1)

        def good(k):
            return 2.0 ** -(k + 1)

        sched = MergedDecreasing(bad, good) if side == "a" else MergedDecreasing(good, bad)
        with pytest.raises(ConfigError, match="not finite"):
            for j in range(10):
                sched.r(j)


def test_weight_rules_sum_to_one():
    # weights(active, active) is the whole convex combination; weights of a
    # violated subtuple are those of its indices, in its order.
    rng = np.random.default_rng(9)
    table = {i: float(rng.uniform(0.5, 2.0)) for i in range(8)}
    rules = [UniformOverActive(), UniformOverViolated(),
             ExplicitTable(table, floor_value=0.02)]
    by_hand = [
        lambda active, viol: [1.0 / len(active)] * len(viol),
        lambda active, viol: [1.0 / len(viol) for _ in viol],
        lambda active, viol: [table[i] / sum([table[j] for j in active])
                              for i in viol],
    ]
    for rule, expected in zip(rules, by_hand):
        for _ in range(200):
            active = tuple(sorted(rng.choice(8, size=rng.integers(1, 6),
                                             replace=False)))
            viol = tuple(i for i in active if rng.random() < 0.5)
            full = rule.weights(active, active)
            assert len(full) == len(active)
            assert abs(sum(full) - 1.0) <= 1e-14
            assert all(v >= 0.0 for v in full)
            assert rule.weights(active, viol) == expected(active, viol)


def test_uniform_over_violated_concentrates():
    assert UniformOverViolated().weights((0, 1, 2), (1,)) == [1.0]
    assert UniformOverViolated().weights((0, 1), ()) == []


def test_weight_floors():
    assert UniformOverActive().floor(4) == 0.25
    table = ExplicitTable({0: 1.0, 1: 1.0}, floor_value=0.5)
    assert table.floor(2) == 0.5
    skewed = ExplicitTable({0: 1.0, 1: 9.0}, floor_value=0.5)
    with pytest.raises(ConfigError, match="below declared floor"):
        skewed.weights((0, 1), (0,))


def test_explicit_table_rejects_a_weight_that_underflows_to_zero():
    # 1e-300 / (1e-300 + 1e300) is 0.0, which the floor test alone let
    # through at a floor of 1e-12 or less: certify assumes every weight of a
    # violated row is at least the floor, and a weight of 0.0 drops its row.
    table = ExplicitTable({0: 1e-300, 1: 1e300}, 1e-12)
    assert table.weights((0, 1), (1,)) == [1.0]
    with pytest.raises(ConfigError, match="weight 0.0 for violated index 0"):
        table.weights((0, 1), (0, 1))


def counter_trace(mode: str, seed: int) -> list:
    """The trace of a seeded random-singleton run on a small polyhedron:
    a mix of corrected steps and steps that meet a satisfied constraint."""
    problem, x0 = random_slater_polyhedron(seed, dim=3, m=6,
                                           interior_radius=0.2)
    cfg = RunConfig(problem=problem,
                    control=RandomSets.uniform_singletons(6, seed),
                    relaxation=ConstantRelaxation(1.0),
                    overrelaxation=Harmonic(), phi=PhiOne(),
                    weights=UniformOverActive(), x0=x0, counter_mode=mode,
                    max_iter=300)
    return solve(cfg).trace


# The correction counter [k] is the trace's ``bracket_k`` column.

def test_counter_modes():
    trace = counter_trace("bracketed", 8)
    steps = trace[:-1]
    assert any(r.corrected for r in steps) and not all(r.corrected for r in steps)
    assert trace[0].bracket_k == 0
    for rec, nxt in zip(trace, trace[1:]):
        assert nxt.bracket_k == rec.bracket_k + rec.corrected
    trace = counter_trace("raw", 8)
    assert not all(r.corrected for r in trace[:-1])
    # raw tracks the step index regardless
    assert [r.bracket_k for r in trace] == [r.k for r in trace]
    problem, x0 = random_slater_polyhedron(3, dim=3, m=6)
    with pytest.raises(ConfigError, match="unknown counter mode"):
        RunConfig(problem=problem, control=Cyclic(range(6)),
                  relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                  phi=PhiOne(), weights=UniformOverActive(), x0=x0,
                  counter_mode="other")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), mode=st.sampled_from(["bracketed", "raw"]))
def test_counter_nondecreasing_unit_increments(seed, mode):
    trace = counter_trace(mode, seed)
    assert trace[0].bracket_k == 0
    for rec, nxt in zip(trace, trace[1:]):
        assert nxt.bracket_k - rec.bracket_k == (
            1 if mode == "raw" or rec.corrected else 0)


def test_phi_kinds():
    sub = Constraint(0, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))
    half = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    x_out = np.array([2.0, 0.0])
    x_in = np.array([0.5, 0.0])
    assert PhiOne().value(sub, x_out) == 1.0
    assert PhiSubgradNorm().value(sub, x_out) == 4.0  # ||(2x, 0)|| at x = 2
    assert PhiSubgradNorm().value(sub, x_in) == 1.0
    with pytest.raises(ConfigError):
        PhiSubgradNorm().value(half, x_out)
    custom = PhiCustom(lambda c, x: 2.0, delta=1.0, big_delta=3.0)
    assert custom.value(sub, x_out) == 2.0
    with pytest.raises(ConfigError):
        PhiCustom(lambda c, x: 1.0, delta=0.0, big_delta=1.0)


def test_subgrad_norm_phi_of_a_metric_cutter_sublevel_body():
    # The metric cutter hands phi no g.g, so phi takes it from the
    # subgradient projection at x.
    rng = np.random.default_rng(5)
    for _ in range(200):
        pieces = [(rng.standard_normal(3), float(rng.standard_normal()))
                  for _ in range(3)]
        f = MaxAffine(pieces)
        con = Constraint(0, Sublevel(f), cutter="metric")
        x = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)
        g = f.subgradient(x)
        want = math.sqrt(float(g.dot(g))) if f.value(x) > 0.0 else 1.0
        assert PhiSubgradNorm().value(con, x) == want
        if f.value(x) > 0.0:
            assert want == float(np.linalg.norm(g))
    quad = Constraint(0, Sublevel(QuadCoordMinusC(axis=0, c=1.0)), cutter="metric")
    assert PhiSubgradNorm().value(quad, np.array([3.0, 0.0])) == 6.0
    # |x_1| - (-1) is positive at the origin with the subgradient 0 there.
    empty = Constraint(0, Sublevel(AbsCoordMinusC(axis=1, c=-1.0)), cutter="metric")
    with pytest.raises(InconsistentConstraintError, match="zero subgradient"):
        PhiSubgradNorm().value(empty, np.zeros(2))
