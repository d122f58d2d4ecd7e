import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (AbsCoordMinusC, Affine, Box, ConfigError,
                    ConstantOverrelaxation, ConstantRelaxation,
                    Constraint, Cyclic, Explicit,
                    FromFunction, Halfspace, Harmonic, Intermittent, OuterSet,
                    PhiCustom, PhiOne, PhiSubgradNorm, Problem,
                    QuadCoordMinusC, RandomSets, RemotestSet, RunConfig,
                    Sublevel, UniformOverActive, feasible,
                    random_slater_polyhedron, solve, step, trace_csv_text)
from feasik.certificates import build_a2_config
from feasik.engine import ZERO_ENTRY, compensated_sum
from feasik.model import STACKED_MIN_ROWS
from feasik.schedules import WeightRule
from reference import neumaier_loop


def make_cfg(problem, x0, control=None, alpha=1.0, over=None, phi=None,
             counter="bracketed", max_iter=1000, **kw):
    return RunConfig(
        problem=problem,
        control=control if control is not None else Cyclic(list(range(int(problem.m)))),
        relaxation=ConstantRelaxation(alpha),
        overrelaxation=over if over is not None else Harmonic(),
        phi=phi if phi is not None else PhiOne(),
        weights=UniformOverActive(),
        x0=x0, counter_mode=counter, max_iter=max_iter, **kw)


def test_step_single_halfspace_hand_value():
    # T(x0) = (0,0), beta = (1+2)/2 = 1.5, x1 = (2,0) + 1.5*(-2,0) = (-1,0)
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))])
    cfg = make_cfg(p, [2.0, 0.0], control=Cyclic([0]),
                   over=FromFunction(lambda j: 1.0, divergent_sum=True))
    x1, corrected, rec = step(cfg, cfg.x0, 0, 0)
    assert np.array_equal(x1, [-1.0, 0.0])
    assert corrected and rec.violated == (0,)
    result = solve(cfg)
    assert result.status == "feasible" and result.k_feasible == 1


def test_step_all_active_satisfied_is_identity(axis_halfspaces):
    cfg = make_cfg(axis_halfspaces, [-1.0, 5.0], control=Cyclic([0]))
    x = np.array([-1.0, 5.0])  # violates C_1 but C_0 is the active one
    x1, corrected, rec = step(cfg, x, 0, 0)
    assert np.array_equal(x1, x)
    assert not corrected and rec.violated == ()


def test_step_alternating_metric_update(axis_halfspaces):
    # from (0, y) on the second halfspace with alpha = 1/2:
    # y' = y - (r + y)/2 = (y - r)/2
    for y, r in ((2.0, 0.5), (2.5, 0.7)):
        cfg = make_cfg(axis_halfspaces, [0.0, y], control=Explicit([(1,)]), alpha=0.5,
                       over=FromFunction(lambda j, rv=r: rv, divergent_sum=True),
                       counter="raw")
        x1, _, _ = step(cfg, np.array([0.0, y]), 0, 0)
        assert x1[0] == 0.0
        assert x1[1] == pytest.approx((y - r) / 2.0, rel=1e-15, abs=0.0)


# With phi = ||g||, a subgradient cutter's overshoot term beta * (T(x) - x)
# is -(r + f)/||g||^2 * g, so ``step`` is the subgradient form itself.

def test_step_subgradient_hand_value():
    # x1 = 2 - (1+3)/16 * 4 = 1: lands exactly on the boundary
    p = Problem(2, [Constraint(0, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))])
    cfg = make_cfg(p, [2.0, 0.0], control=Cyclic([0]), phi=PhiSubgradNorm(),
                   over=FromFunction(lambda j: 1.0, divergent_sum=True))
    x1, corrected, _ = step(cfg, cfg.x0, 0, 0)
    assert np.array_equal(x1, [1.0, 0.0])
    assert corrected


def test_step_subgradient_empty_violated_is_identity():
    p = Problem(2, [Constraint(0, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))])
    cfg = make_cfg(p, [0.5, 0.0], control=Cyclic([0]), phi=PhiSubgradNorm())
    x = np.array([0.5, 0.0])
    x1, corrected, rec = step(cfg, x, 0, 0)
    assert np.array_equal(x1, x) and not corrected and rec.violated == ()


def test_step_subgradient_a2_recursion():
    # update on f2 = x^2 - 1 from (x, 0): x' = (x + (1 - r)/x)/2
    p = Problem(2, [Constraint(0, Sublevel(AbsCoordMinusC(axis=1, c=1.0))),
                    Constraint(1, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))])
    xval, r = 2.0, 0.5
    cfg = make_cfg(p, [xval, 0.0], control=Explicit([(1,)]), phi=PhiSubgradNorm(),
                   over=FromFunction(lambda j: r, divergent_sum=True), counter="raw")
    x1, _, _ = step(cfg, np.array([xval, 0.0]), 0, 0)
    assert x1[0] == 1.125
    assert x1[0] == pytest.approx((xval + (1 - r) / xval) / 2.0, rel=1e-15)


def subgradient_form(problem, x, active, alpha, r):
    """x - alpha * sum_{i violated} lambda_i * (r + f_i)/||g_i||^2 * g_i
    with uniform weights over the active set: the closed form of a step on
    sublevel constraints with phi = ||g||, kept as the reference."""
    lam = 1.0 / len(active)
    terms = []
    for i in active:
        f = problem.constraint(i).body.f
        fval = f.value(x)
        if fval > 0.0:
            g = f.subgradient(x)
            terms.append(lam * ((-(r + fval) / float(g @ g)) * g))
    if not terms:
        return np.array(x), False
    step_vec = alpha * compensated_sum(terms)
    return x + step_vec, bool(np.any(step_vec != 0.0))


def test_step_paths_agree():
    rng = np.random.default_rng(31)
    dim = 3
    for trial in range(1000):
        m = int(rng.integers(1, 4))
        cons = []
        for i in range(m):
            if rng.random() < 0.5:
                a = rng.standard_normal(dim)
                a /= np.linalg.norm(a)
                cons.append(Constraint(i, Sublevel(Affine(a, float(rng.uniform(-1, 1))))))
            else:
                cons.append(Constraint(i, Sublevel(
                    QuadCoordMinusC(axis=int(rng.integers(0, dim)),
                                    c=float(rng.uniform(0.2, 2.0))))))
        p = Problem(dim, cons)
        x = rng.uniform(-3, 3, dim)
        active = tuple(sorted(rng.choice(m, size=rng.integers(1, m + 1),
                                         replace=False)))
        rval = float(rng.uniform(0.01, 1.0))
        cfg = make_cfg(p, np.zeros(dim), control=Explicit([active]),
                       alpha=float(rng.uniform(0.2, 2.0)), phi=PhiSubgradNorm(),
                       over=FromFunction(lambda j, rv=rval: rv,
                                         divergent_sum=True), counter="raw")
        xa, ca, _ = step(cfg, x, 0, 0)
        xb, cb = subgradient_form(p, x, active, cfg.relaxation.alpha(0), rval)
        assert ca == cb
        np.testing.assert_allclose(xa, xb, rtol=1e-12, atol=1e-12)


class DropOneRow(WeightRule):
    """Weight (i + 1) / 10 on each violated row i but ``dropped``, whose
    weight is 0.0."""

    def __init__(self, dropped):
        self.dropped = dropped

    def weights(self, active, violated):
        return [0.0 if i == self.dropped else (i + 1) / 10 for i in violated]

    def floor(self, max_card):
        return 0.0


@pytest.mark.parametrize("phi_kind", ["one", "custom", "subgrad_norm"])
@pytest.mark.parametrize("stacked", [False, True])
def test_a_zero_weight_drops_its_term_bit_for_bit(stacked, phi_kind):
    # Rows 0-4 of a halfspace pool are violated at x, x lies on the facets
    # of rows 5 and 6, and row 2 has the weight 0.0: the step, by the scalar
    # loop or by the residual pass and one batched cut, is bit for bit the
    # step over rows 0, 1, 3 and 4.  A lone moved row of weight 0.0 leaves x
    # in place, uncorrected.  Row 2's a.a is subnormal, so its cut moves x
    # by inf and its beta is NaN: a term scaled by 0.0 rather than dropped
    # would make the step NaN.  Rows 5 and 6 are cut without moving x, and
    # the pass settles rows 7 and 8: only these get ZERO_ENTRY itself.  A phi
    # that varies by row is called once per moved row, in order, and the
    # subgradient-norm phi, which needs sublevel sets, raises at the first.
    rng = np.random.default_rng(17)
    dim, m = 5, STACKED_MIN_ROWS
    x = rng.standard_normal(dim)
    x.flags.writeable = False
    normals = rng.standard_normal((m, dim))
    normals[2] = 1e-160
    gaps = np.where(np.arange(m) < 5, -1.0, 1.0) * rng.uniform(0.5, 1.5, m)
    gaps[5:7] = 0.0
    problem = Problem(dim, [Constraint(i, Halfspace(a, float(a @ x) + g))
                            for i, (a, g) in enumerate(zip(normals, gaps))])
    assert problem.affine_rows.aa is not None  # float64 halfspaces: batched

    def run(active):
        log = []
        phi = {"one": PhiOne(), "subgrad_norm": PhiSubgradNorm(),
               "custom": PhiCustom(lambda c, y: log.append((c.index, y.tobytes()))
                                   or 1.0 + 0.5 * (c.index % 3), 0.5, 2.0)}[phi_kind]
        cfg = RunConfig(problem=problem, control=Explicit([active]),
                        relaxation=ConstantRelaxation(1.5), overrelaxation=Harmonic(),
                        phi=phi, weights=DropOneRow(2), x0=x)
        pass_ = problem.affine_rows.at(x) if stacked else None
        out = step(cfg, x, 0, 0, stacked=pass_)
        assert log == [(i, x.tobytes()) for i in out[2].violated] if phi_kind == "custom" \
            else not log
        return out

    if phi_kind == "subgrad_norm":
        for active in [(0, 1, 2, 3, 4, 5, 6, 7, 8), (2,)]:
            with pytest.raises(ConfigError, match="needs sublevel constraints"):
                run(active)
        return
    x_drop, corrected, rec = run((0, 1, 2, 3, 4, 5, 6, 7, 8))
    x_want, corrected_want, rec_want = run((0, 1, 3, 4))
    assert rec.violated == (0, 1, 2, 3, 4) and rec_want.violated == (0, 1, 3, 4)
    assert x_drop.tobytes() == x_want.tobytes() and np.isfinite(x_drop).all()
    assert not math.isfinite(rec.per_index[2][1])
    assert all(e == (0.0,) * 4 and e is not ZERO_ENTRY for e in rec.per_index[5:7])
    assert all((e is ZERO_ENTRY) == stacked for e in rec.per_index[7:])
    assert corrected and corrected_want
    assert float(rec.step_norm).hex() == float(rec_want.step_norm).hex()
    x_lone, corrected, rec = run((2,))
    assert rec.violated == (2,) and x_lone is x and not corrected


def test_step_record_fields_each_hold_their_own_value():
    # TraceRecord is built positionally, so each field takes a distinct
    # value here: a reordered field cannot swap two values unseen.
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0)),
                    Constraint(1, Halfspace([0.0, 1.0], 0.0))])
    cfg = make_cfg(p, [2.0, -1.0], control=Intermittent([(0, 1)]), alpha=0.5)
    x = np.array([2.0, -1.0])
    x_next, corrected, rec = step(cfg, x, 5, 2)
    # r = 1/3, beta = (r + 2)/2 = 7/6, weight 1/2: the step is 0.5 * 7/12 * (-2, 0).
    assert rec.k == 5 and rec.bracket_k == 2 and rec.x is x
    assert rec.active == (0, 1) and rec.violated == (0,)
    assert rec.per_index == ((2.0, 2.0, pytest.approx(7 / 6), pytest.approx(1 / 3)),
                             (0.0, 0.0, 0.0, 0.0))
    assert rec.alpha_used == 0.5 and rec.r_used == pytest.approx(1 / 3)
    assert rec.step_norm == pytest.approx(7 / 12)
    assert rec.corrected is True and corrected and rec.feasible_flag is False
    np.testing.assert_allclose(x_next, [17 / 12, -1.0])
    # The terminal record: steps 0 and 2 leave x in place, so k = 4 and [k] = 2.
    result = solve(make_cfg(p, [2.0, -1.0], control=Cyclic([1, 0]), alpha=0.5))
    last = result.trace[-1]
    assert (last.k, last.bracket_k) == (4, 2) and last.x is result.final
    assert last.active == last.violated == last.per_index == ()
    assert last.alpha_used is None and last.r_used is None
    assert type(last.step_norm) is float and last.step_norm == 0.0
    assert last.corrected is False and last.feasible_flag is True


def read_only_cases():
    """Runs over every cutter path: metric and subgradient cutters, a boxed
    Q, stacked pools, and block, remotest and random controls."""
    small, x_small = random_slater_polyhedron(5, dim=3, m=6, boxed_outer=True)
    metric, x_metric = random_slater_polyhedron(6, dim=4, m=20, sublevel=False)
    return [
        make_cfg(small, x_small, phi=PhiSubgradNorm()),
        make_cfg(small, x_small, control=Intermittent([range(6)])),
        make_cfg(metric, x_metric, control=Intermittent([range(20)])),
        make_cfg(metric, x_metric, control=RemotestSet()),
        make_cfg(metric, x_metric, control=RandomSets.uniform_singletons(20, 3)),
        build_a2_config("bracketed", 10_000),
    ]


@pytest.mark.parametrize("case", range(6))
def test_iterates_are_read_only_and_step_never_writes_x(case):
    cfg = read_only_cases()[case]
    result = solve(cfg)
    assert result.status == "feasible"
    assert result.final is result.trace[-1].x
    for rec in result.trace:
        assert not rec.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rec.x[0] = 0.0
    # The cyclic, random and A.2 runs have steps that leave x in place,
    # where solve sets no flag: the iterate they keep is already read-only.
    trace = result.trace
    assert any(n.x is rec.x for rec, n in zip(trace, trace[1:])) == (case in (0, 4, 5))
    # Records streamed to observers, which no trace keeps, are read-only too.
    writeable = []
    streamed = solve(cfg, observers=[lambda rec: writeable.append(rec.x.flags.writeable)])
    assert streamed.trace is None and streamed.final.tobytes() == result.final.tobytes()
    assert len(writeable) == len(trace) and not any(writeable)
    # Replayed from writeable copies, no step changes the x it is given.
    for rec in result.trace[:-1]:
        x = np.array(rec.x)
        x_next, _, replay = step(cfg, x, rec.k, rec.bracket_k)
        assert np.array_equal(x, rec.x) and replay.x is x
        assert x_next.tobytes() == result.trace[rec.k + 1].x.tobytes()


def test_solve_two_halfspaces(axis_halfspaces):
    cfg = make_cfg(axis_halfspaces, [1.0, 1.0])
    result = solve(cfg)
    assert result.status == "feasible" and result.k_feasible <= 10
    assert feasible(axis_halfspaces, result.final, tol=0.0)
    # terminal record is the feasible snapshot
    last = result.trace[-1]
    assert last.feasible_flag and last.active == ()


def test_solve_feasible_at_zero(axis_halfspaces):
    result = solve(make_cfg(axis_halfspaces, [-1.0, -1.0]))
    assert result.status == "feasible" and result.k_feasible == 0
    assert len(result.trace) == 1


def test_solve_max_iter(axis_halfspaces):
    cfg = make_cfg(axis_halfspaces, [10.0, 10.0], max_iter=1)
    result = solve(cfg)
    assert result.status == "max_iter" and result.k_feasible is None
    assert len(result.trace) == 2  # one executed step plus the terminal snapshot


def test_max_iter_is_nonnegative(axis_halfspaces):
    with pytest.raises(ConfigError, match="^field 'max_iter': must be nonnegative$"):
        make_cfg(axis_halfspaces, [10.0, 10.0], max_iter=-1)
    assert solve(make_cfg(axis_halfspaces, [10.0, 10.0], max_iter=0)).steps == 0


def test_raw_equals_bracketed_when_full_control(axis_halfspaces):
    # with I_k = I every infeasible step is a correction, so [k] = k
    control = Intermittent([(0, 1)])
    runs = {}
    for mode in ("bracketed", "raw"):
        cfg = make_cfg(axis_halfspaces, [2.0, 3.0], control=control, counter=mode)
        runs[mode] = solve(cfg)
    a, b = runs["bracketed"], runs["raw"]
    assert a.k_feasible == b.k_feasible
    for ra, rb in zip(a.trace, b.trace):
        assert np.array_equal(ra.x, rb.x)
        assert ra.bracket_k == rb.k or ra.active == ()


def test_fejer_monotone_once_applicable(axis_halfspaces):
    z = np.array([-3.0, -3.0])
    big_r = 1.0
    cfg = make_cfg(axis_halfspaces, [4.0, 2.0])
    result = solve(cfg)
    for rec, nxt in zip(result.trace, result.trace[1:]):
        rhos = [rho for i, (_, _, _, rho) in zip(rec.active, rec.per_index)
                if i in rec.violated]
        if rhos and max(rhos) <= big_r:
            assert (np.linalg.norm(nxt.x - z)
                    <= np.linalg.norm(rec.x - z) + 1e-10)


def test_x0_must_lie_in_outer():
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))],
                outer=OuterSet(Box([-1.0, -1.0], [1.0, 1.0])))
    with pytest.raises(ConfigError, match="x0"):
        make_cfg(p, [2.0, 0.0])


def test_outer_projection_applied_each_step():
    p = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], -2.0))],
                outer=OuterSet(Box([-3.0, 0.5], [3.0, 3.0])))
    cfg = make_cfg(p, [2.0, 1.0])
    result = solve(cfg)
    assert result.feasible
    assert p.outer.member(result.final)
    assert all(p.outer.member(rec.x) for rec in result.trace)


def test_infinite_pool_requires_window_and_runs():
    pool = lambda i: Constraint(i, Halfspace([1.0, 0.0], float(i)))
    p = Problem(2, pool=pool, m=math.inf)
    with pytest.raises(ConfigError, match="feas_window"):
        make_cfg(p, [5.0, 0.0], control=Cyclic([0, 1, 2]))
    cfg = make_cfg(p, [5.0, 0.0], control=Cyclic([0, 1, 2]),
                   feas_window=(0, 1, 2))
    result = solve(cfg)
    assert result.feasible


def test_nonfinite_iterate_stops_the_run():
    # r/phi = 1e10/1e-308 overflows, and the step's compensated sum turns
    # inf - inf into NaN: the run stops at once instead of spinning.
    p = Problem(1, [Constraint(0, Halfspace([1.0], 0.0))])
    phi = PhiCustom(lambda c, x: 1e-308, delta=1e-308, big_delta=1.0)
    cfg = make_cfg(p, [1.0], control=Cyclic([0]), phi=phi,
                   over=ConstantOverrelaxation(1e10))
    with np.errstate(all="ignore"):
        result = solve(cfg)
    assert result.status == "nonfinite" and not result.feasible
    assert result.k_feasible is None
    assert len(result.trace) == 2 and math.isnan(result.trace[0].step_norm)
    assert np.isnan(result.final).all() and not result.trace[-1].feasible_flag


def test_overflowing_step_norm_of_a_finite_iterate_continues():
    # From 1e100 the overshoot r = 1e200 lands near -1e200: the square of
    # the step's length overflows, so the step norm reads inf although the
    # iterate is finite.
    p = Problem(1, [Constraint(0, Halfspace([1.0], 0.0))])
    cfg = make_cfg(p, [1e100], control=Cyclic([0]),
                   over=ConstantOverrelaxation(1e200))
    with np.errstate(over="ignore"):
        result = solve(cfg)
    assert math.isinf(result.trace[0].step_norm)
    assert result.status == "feasible" and result.k_feasible == 1
    assert -math.inf < result.final[0] <= -1e200


def test_nondivergent_schedule_warns(axis_halfspaces):
    from feasik import Geometric
    with pytest.warns(UserWarning, match="divergent"):
        make_cfg(axis_halfspaces, [1.0, 1.0], over=Geometric(1.0, 0.5))


def test_compensated_sum_matches_fsum():
    rng = np.random.default_rng(41)
    for _ in range(100):
        vecs = [rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8)
                for _ in range(rng.integers(1, 30))]
        got = compensated_sum(vecs)
        want = np.array([math.fsum(v[i] for v in vecs) for i in range(4)])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-300)


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308]
# Near 2^1023: two of a kind overflow, a pair of opposites cancels exactly,
# and equal magnitudes tie.
EDGE_FLOATS = [2.0 ** 1023, 1.5 * 2.0 ** 1023, 1.7976931348623157e308, 2.0 ** 1022,
               2.0 ** 971, 2.0 ** 970, 1.0, 5e-324]
TERM_ENTRIES = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
              st.integers(-300, 300)))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.lists(TERM_ENTRIES, min_size=dim, max_size=dim), min_size=1, max_size=8)))
def test_compensated_sum_is_the_neumaier_loop_bit_for_bit(rows):
    vectors = [np.array(r, dtype=np.float64) for r in rows]
    dim = len(rows[0])
    with np.errstate(all="ignore"):
        got = compensated_sum(vectors)
        want = neumaier_loop(vectors, dim)
    assert got.shape == want.shape == (dim,)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 40), st.integers(1, 64),
       st.lists(TERM_ENTRIES, min_size=1, max_size=16),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["mixed", "swamped", "edge"]))
def test_compensated_sum_is_the_neumaier_loop_bit_for_bit_on_long_sums(
        n, dim, palette, seed, mode):
    """2-40 terms in up to 64 dimensions.  Half the entries come from a small
    drawn palette, negated at random, so magnitude ties, signed zeros,
    infinities and NaN meet; the rest are fresh at random scales.  A swamped
    sum opens with 2^1000 and closes with -2^1000, so the result is the fold
    of the compensation terms alone, where a reordered fold (as
    ``np.add.reduce`` makes of a single column) changes the rounding.  An
    edge sum draws every entry from ``EDGE_FLOATS``, negated at random, so
    partial sums overflow mid-column and cancel exactly.

    A NaN is compared as a NaN: which operand's sign numpy's add keeps
    depends on its kernel, so the loop itself gives either sign at these
    sizes (a d = 10 sum of 8 terms gives the second operand's NaN where
    ``np.add.accumulate`` gives the first's)."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        picked = np.array(palette)[rng.integers(0, len(palette), (n, dim))]
        picked *= rng.choice([-1.0, 1.0], (n, dim))
        fresh = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
        rows = np.where(rng.random((n, dim)) < 0.5, picked, fresh)
        if mode == "swamped":
            big = np.full((1, dim), 2.0 ** 1000)
            rows = np.concatenate([big, rng.standard_normal((n - 2, dim)), -big])
        elif mode == "edge":
            rows = (np.array(EDGE_FLOATS)[rng.integers(0, len(EDGE_FLOATS), (n, dim))]
                    * rng.choice([-1.0, 1.0], (n, dim)))
        got = compensated_sum(list(rows))
        want = neumaier_loop(list(rows), dim)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_trace_csv_round_trip(axis_halfspaces):
    cfg = make_cfg(axis_halfspaces, [1.0, 1.0])
    result = solve(cfg)
    text = trace_csv_text(result.trace, 2)
    head = text.splitlines()[0]
    assert head == "k,bracket_k,alpha,r,active,violated,step_norm,feasible,x_0,x_1"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert len(rows) == len(result.trace)
    for rec, row in zip(result.trace, rows):
        assert int(row[0]) == rec.k and int(row[1]) == rec.bracket_k
        x = np.array([float(v) for v in row[8:]])
        assert x.tobytes() == rec.x.tobytes()  # floats survive bit-exactly
        assert tuple(int(i) for i in row[4].split(";") if i) == rec.active
        assert row[7] == ("true" if rec.feasible_flag else "false")


def test_trace_csv_deterministic_with_seeded_control(axis_halfspaces):
    texts = set()
    for _ in range(3):
        cfg = make_cfg(axis_halfspaces, [2.0, 1.5],
                       control=RandomSets.uniform_singletons(2, seed=77))
        texts.add(trace_csv_text(solve(cfg).trace, 2))
    assert len(texts) == 1
