"""The engine's exactness mechanisms one at a time: the stacked pass and its
margins, settled rows, candidate rescoring, batched cuts and quiet steps.

Decisions are compared with the scalar tests on the pool's lazy twin, which
never stacks, and with a control's ``_select`` without a pass.  Runs are
compared with ``reference_solve``, and batched steps with its
``reference_step`` from the same iterates; the tests keep the asserts that
name a mechanism: ``ZERO_ENTRY`` itself on settled rows, the cutters a
batched step calls, when ``step`` runs, and one emission per k.
"""

import io
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import feasik
from conftest import affine_body, large_pool, quiet_pool, slater_pool, zero_entries
from feasik import (Affine, Ball, Box, ConfigError, ConstantRelaxation, Constraint,
                    Cyclic, Explicit, ExplicitTable, FromFunction, Halfspace, Harmonic,
                    Intermittent, MaxViolation, MergedDecreasing, OuterSet, PhiCustom,
                    PhiOne, Problem, RandomSets, RemotestSet, Repetitive, RunConfig,
                    Sublevel, UniformOverActive, UniformOverViolated, engine,
                    evaluate_cutter, feasible, random_slater_polyhedron, solve, step,
                    violated_indices)
from feasik.engine import ZERO_ENTRY
from feasik.model import (CUT_MIN_ROWS, FLOAT32_MIN_ENTRIES, STACKED_MIN_ROWS,
                          AffineRows, ConvexFunction, RowPass, norm)
from reference import (fields, lazy_twin, observed, reference_solve, reference_step,
                       solve_kept, solve_observed, solve_spans)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def pools_and_points(draw):
    """A finite pool of at least STACKED_MIN_ROWS affine rows, with a point.

    ``integer`` pools use small integer data and put the point exactly on
    some facets (a @ x == b in floating point); others take the point near
    a facet, at random, or with a NaN or infinite coordinate.  Some pools
    mix in balls, which stay outside the stack."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dim = draw(st.integers(1, 6))
    m = draw(st.integers(STACKED_MIN_ROWS, STACKED_MIN_ROWS + 24))
    kind = draw(st.sampled_from(["integer", "near", "random", "nan", "inf"]))
    balls = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if kind == "integer":
        x = rng.integers(-4, 5, dim).astype(float)
    else:
        x = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
    bodies = []
    for n in range(m):
        if kind == "integer":
            a = rng.integers(-5, 6, dim).astype(float)
            if not a.any():
                a[0] = 1.0
            b = float(a @ x) + float(rng.integers(-2, 3))
        else:
            a = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3)
            b = float(a @ x) + float(rng.standard_normal()) * 10.0 ** -rng.integers(0, 17)
        if n == 0:
            first = (a, b)
        bodies.append(affine_body(a, b, rng.random() < 0.3))
        if balls and rng.random() < 0.15:
            bodies.append(Ball(x + rng.standard_normal(dim), float(rng.uniform(0.5, 2.0))))
    if kind == "near":
        # Project x onto the first facet: the residual there is rounding noise.
        a, b = first
        x = x - ((float(a @ x) - b) / float(a @ a)) * a
    elif kind in ("nan", "inf"):
        x[rng.integers(0, dim)] = math.nan if kind == "nan" else rng.choice([-1, 1]) * math.inf
    problem = Problem(dim, [Constraint(i, body) for i, body in enumerate(bodies)])
    tol = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5]))
    return problem, x, tol


@st.composite
def wide_pools_and_points(draw):
    """A pool of affine rows in up to 300 dimensions whose entries span
    1e-40 to 1e30, some of them binary32 subnormals, with a point whose
    coordinates may be subnormal in binary32 too.  The point lies on each
    facet as float64 rounds a @ x, or near it, or anywhere."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dim = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    m = draw(st.integers(STACKED_MIN_ROWS, STACKED_MIN_ROWS + 8))
    lo, hi = sorted(draw(st.integers(-40, 30)) for _ in range(2))
    x_exponent = draw(st.integers(-46, 3))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) * 10.0 ** (x_exponent + rng.uniform(-1.0, 1.0, dim))
    bodies = []
    for n in range(m):
        a = rng.standard_normal(dim) * 10.0 ** rng.uniform(lo, hi, dim)
        # binary32 subnormals, the ties halfway between them included
        tiny = rng.random(dim) < 0.2
        a[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * rng.integers(
            1, 2 ** 24, tiny.sum()) * 2.0 ** -150
        if not a.dot(a) > 0.0:
            a[0] = 1.0
        s = float(a @ x)
        b = s + draw(st.sampled_from([0.0, 0.0, 1e-7, -1e-7, 1.0])) * (abs(s) + 1e-300)
        bodies.append(affine_body(a, b, rng.random() < 0.3))
    problem = Problem(dim, [Constraint(i, body) for i, body in enumerate(bodies)])
    return problem, x, 0.0


def stacked_rows(problem, dtype):
    """The pool's stacked rows; for float32, the same rows rounded to
    float32 through the constructor, which takes its margins from the
    dtype of A."""
    rows = problem.affine_rows
    if dtype is np.float64:
        return rows
    return AffineRows(rows.A.astype(np.float32), rows.b.copy(), rows.metric.copy(),
                      rows.norms.copy(), rows.aa)


def out_of_range(rows, x) -> bool:
    """x is not finite, or past the range where ``rows.at`` could overflow:
    2^1000 for float64 rows, 2^120 for float32 ones."""
    assert rows.safe == (2.0 ** 120 if rows.A.dtype == np.float32 else 2.0 ** 1000)
    return not float(np.abs(x).max()) * rows.l1_max + rows.b_max < rows.safe


DTYPES = [np.float64, np.float32]


def doubled(problem):
    """Every row twice, the copy at a higher index: exact ties."""
    bodies = [problem.constraint(i).body for i in problem.indices()]
    return Problem(problem.dim, [Constraint(i, body) for i, body in
                                 enumerate(bodies + bodies)])


@SETTINGS
@given(pools_and_points(), st.booleans())
def test_stacked_decisions_match_scalar(case, duplicate):
    problem, x, tol = case
    if duplicate:
        problem = doubled(problem)
    assert problem.affine_rows is not None
    scalar = lazy_twin(problem)
    assert scalar.affine_rows is None
    assert feasible(problem, x, tol=tol) == feasible(scalar, x, tol=tol)
    assert violated_indices(problem, x) == violated_indices(scalar, x)
    # The reference loop itself, spelled out.
    assert feasible(problem, x, tol=tol) == all(
        problem.constraint(i).violation(x) <= tol for i in problem.indices())
    p = problem.affine_rows.at(x)
    for control in (RemotestSet(), MaxViolation()):
        assert control._select(0, x, problem, p) == control._select(0, x, problem)
    if p is None:
        return
    # A position outside the stack is never settled and always a candidate.
    outside = [i for i in problem.indices() if not isinstance(
        getattr(b := problem.constraint(i).body, "f", b), (Halfspace, Affine))]
    assert not (p.v > p.margin)[outside].any() and not p.satisfied[outside].any()
    for control in (RemotestSet(), MaxViolation()):
        assert set(outside) <= set(p.candidates(*control._stacked_score(p)))


@pytest.mark.parametrize("dtype", DTYPES)
@SETTINGS
@given(st.one_of(pools_and_points(), wide_pools_and_points()))
def test_margin_bounds_the_scalar_residual(dtype, case):
    problem, x, _ = case
    rows = stacked_rows(problem, dtype)
    assert rows.A.dtype == dtype
    p = rows.at(x)
    assert (p is None) == out_of_range(rows, x)
    if p is None:
        return
    for i in problem.indices():
        s = problem.constraint(i).violation(x)
        assert abs(s - p.v[i]) <= p.margin[i]


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300),
       st.sampled_from([-1, 2, -2]))
def test_sign_tests_ignore_the_layout_of_x(seed, dim, stride):
    # Every facet passes through x as the contiguous dot product rounds it.
    # Over a strided view of the same values that product may round the
    # other way, which used to flip membership.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    bodies = [Halfspace(a, float(a.dot(x)))
              for a in rng.standard_normal((STACKED_MIN_ROWS, dim))]
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)])
    view = np.full(abs(stride) * dim, np.nan)[::stride]
    view[:] = x
    assert not view.flags.c_contiguous and np.array_equal(view, x)
    for p in (problem, lazy_twin(problem)):
        for window in (None, range(STACKED_MIN_ROWS)):
            assert feasible(p, view, window) is feasible(p, x, window) is True
            assert violated_indices(p, view, window) == ()
    assert problem.affine_rows is not None


def rounded_otherwise(problem, rows, x, rng):
    """A residual pass as another summation order might have rounded it:
    each stacked v_i anywhere within its margin of the scalar violation,
    often at the edge.  A zero row, with its infinite margin, keeps v_i = 0."""
    p = rows.at(x)
    stacked = np.isfinite(p.margin)
    s = np.array([problem.constraint(i).violation(x) if keep else 0.0
                  for i, keep in enumerate(stacked)])
    t = rng.choice([-1.0, 1.0, 0.0, 0.5, -0.5], len(s)) * rng.uniform(0.9, 1.0, len(s))
    margin = np.where(stacked, p.margin, 0.0)
    assert (np.abs(p.v - s) <= margin).all()  # the pass itself is one of them
    return RowPass(rows, s + t * margin * (1.0 - 2.0 ** -40), p.margin)


@pytest.mark.parametrize("dtype", DTYPES)
@SETTINGS
@given(st.one_of(pools_and_points(), wide_pools_and_points()), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_decisions_hold_for_any_rounding_within_the_margin(dtype, case, duplicate, seed):
    problem, x, tol = case
    if duplicate:
        problem = doubled(problem)
    rows = stacked_rows(problem, dtype)
    if out_of_range(rows, x):
        return
    scalar = lazy_twin(problem)
    p = rounded_otherwise(problem, rows, x, np.random.default_rng(seed))
    for t in {0.0, tol}:  # a nonzero tol takes the scalar loop
        assert feasible(problem, x, tol=t, stacked=p) == feasible(scalar, x, tol=t)
    for control in (RemotestSet(), MaxViolation()):
        assert control._select(0, x, problem, p) == control._select(0, x, problem)
    every = tuple(problem.indices())
    held = [i for i in every if isinstance(problem.constraint(i).body, Halfspace)
            and problem.constraint(i).violation(x) <= 0.0]
    assert set(p.settled.nonzero()[0].tolist()) <= set(held)


class Unreachable(ConvexFunction):
    """A function whose every evaluation raises."""

    def value(self, x):
        raise ValueError("evaluated")


def test_feasible_keeps_the_scalar_scan_order():
    # Row 0 is violated by 2^-52, within its margin, so its own test
    # decides it; row 1 lies outside the stack (it is not affine) and
    # raises in its sign test; row 2 is certainly violated.
    # The scalar loop stops at row 0 and never reaches row 1.
    x = np.array([1.0, -1.0 + 2.0 ** -52])
    bodies = [Halfspace([1.0, 1.0], 0.0), Sublevel(Unreachable()),
              Halfspace([1.0, 0.0], -5.0)]
    bodies += [Halfspace([1.0, 0.0], 10.0)] * STACKED_MIN_ROWS
    problem = Problem(2, [Constraint(i, b) for i, b in enumerate(bodies)])
    p = problem.affine_rows.at(x)
    assert not p.v[0] > p.margin[0] and not p.satisfied[0] and p.v[2] > p.margin[2]
    assert p.margin[1] == math.inf and not p.v[1] > p.margin[1] and not p.satisfied[1]
    with pytest.raises(ValueError):
        problem.constraint(1).violation(x)
    assert feasible(problem, x) is feasible(lazy_twin(problem), x) is False


@pytest.mark.parametrize("dtype", DTYPES)
def test_margin_survives_cancellation(dtype):
    # Terms of 1e16 cancel to a residual of order one: any summation order
    # may round it differently, and the margin must cover the gap.
    rng = np.random.default_rng(3)
    dim = 40
    for _ in range(50):
        x = rng.standard_normal(dim) * 1e8
        cons = []
        for i in range(STACKED_MIN_ROWS):
            a = rng.standard_normal(dim) * 1e8
            cons.append(Constraint(i, Halfspace(a, float(a @ x))))
        problem = Problem(dim, cons)
        p = stacked_rows(problem, dtype).at(x)
        for i in range(STACKED_MIN_ROWS):
            assert abs(cons[i].body.violation(x) - p.v[i]) <= p.margin[i]
        assert feasible(problem, x, stacked=p) == feasible(lazy_twin(problem), x)


def test_ties_break_to_the_lowest_index():
    # Rows 3 and 20 are the same halfspace, both at the largest distance.
    # The lower index wins, also where the pass errs by nearly its margin,
    # down on row 3 and up on row 20: the candidates' band covers the
    # roundings of the scores (a band of the spread alone fails here).
    rng = np.random.default_rng(0)
    for a, x in [([0.0, 1.0, 0.0], np.zeros(3))] + [
            (rng.standard_normal(3), rng.standard_normal(3)) for _ in range(20)]:
        cons = [Constraint(i, Halfspace([1.0, 0.0, 0.0], 100.0 + i))
                for i in range(STACKED_MIN_ROWS + 8)]
        far = Halfspace(a, float(np.dot(a, x)) - 5.0)
        cons[3], cons[20] = Constraint(3, far), Constraint(20, far)
        problem = Problem(3, cons)
        p = problem.affine_rows.at(x)
        v = p.v.copy()
        v[[3, 20]] += np.array([-1.0, 1.0]) * p.margin[[3, 20]] * (1.0 - 2.0 ** -40)
        for q in (p, RowPass(problem.affine_rows, v, p.margin)):
            assert RemotestSet()._select(0, x, problem, q) == (3,)
            assert MaxViolation()._select(0, x, problem, q) == (3,)


def test_small_and_lazy_pools_keep_the_scalar_path():
    cons = [Constraint(i, Halfspace([1.0, float(i)], 1.0))
            for i in range(STACKED_MIN_ROWS - 1)]
    assert Problem(2, cons).affine_rows is None
    cons.append(Constraint(len(cons), Halfspace([1.0, -1.0], 1.0)))
    assert Problem(2, cons).affine_rows is not None
    assert lazy_twin(Problem(2, cons)).affine_rows is None
    balls = [Constraint(i, Ball([0.0, float(i)], 1.0)) for i in range(40)]
    assert Problem(2, balls).affine_rows is None


def test_rows_whose_margin_could_underflow_stay_scalar():
    # ||a||_1 = 2e-300: 2 gamma ||a||_1 would be subnormal and lose its
    # relative accuracy, so that row keeps its own sign test.  Its a . a
    # underflows, which a halfspace rejects; an affine sublevel row keeps it.
    cons = [Constraint(i, Halfspace([1.0, float(i)], 1.0))
            for i in range(STACKED_MIN_ROWS)]
    cons.append(Constraint(len(cons), Sublevel(Affine([1e-300, 1e-300], 0.0))))
    problem = Problem(2, cons)
    rows = problem.affine_rows
    assert rows.offset[-1] == math.inf and not rows.A[-1].any() and rows.norms[-1] == 1.0
    for x in ([-1.0, 0.0], [1e-20, 0.0], [-1e-20, 0.0], [0.0, 0.0]):
        x = np.array(x)
        assert feasible(problem, x) == feasible(lazy_twin(problem), x)
        assert violated_indices(problem, x) == violated_indices(lazy_twin(problem), x)


def test_affine_rows_whose_square_underflows_are_zero_rows():
    # ||a||_1 = 2e-170 is above 2^-900, but a.a underflows to 0.0, so the
    # row has no usable distance.  It is a zero row: the remotest control
    # rescores it and meets the lazy twin's ConfigError, with no numpy
    # warning from a division by its norm on the way.
    rng = np.random.default_rng(0)
    bodies = [Halfspace(a, -1.0) for a in rng.standard_normal((STACKED_MIN_ROWS, 3))]
    bodies.insert(8, Sublevel(Affine([1e-170, 1e-170, 0.0], -1.0)))
    problem = Problem(3, [Constraint(i, b) for i, b in enumerate(bodies)])
    rows = problem.affine_rows
    assert rows.stacked == STACKED_MIN_ROWS and rows.offset[8] == math.inf
    assert rows.norms[8] == 1.0 and not rows.A[8].any() and rows.aa is None
    for p in (problem, lazy_twin(problem)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = RunConfig(problem=p, control=RemotestSet(),
                            relaxation=ConstantRelaxation(1.0),
                            overrelaxation=Harmonic(), phi=PhiOne(),
                            weights=UniformOverActive(), x0=np.zeros(3))
            with pytest.raises(ConfigError, match="halfspace normal must be nonzero"):
                solve(cfg)


def make_control(control_kind, m):
    """A fresh control over a pool of m rows; ``random_sets`` draws atoms of
    one to five indices that cover the pool."""
    if control_kind == "two_blocks":
        return Intermittent([range(0, m, 2), range(1, m, 2)])
    if control_kind == "random_sets":
        cuts = [0, 1, 3, 6, 10, 15] + list(range(20, m, 5)) + [m]
        atoms = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        return RandomSets([(s, 1.0 / len(atoms)) for s in atoms], seed=m)
    return {"cyclic": Cyclic(range(m)), "remotest": RemotestSet(),
            "max_violation": MaxViolation(), "block": Intermittent([range(m)])}[control_kind]


def solve_matching_the_reference(problem, x0, control_kind, weights=None):
    """Solve with a fresh control of ``control_kind`` and the weight rule
    ``weights`` (by default uniform over the violated rows for the block
    control, over the active ones otherwise), check that the run is the
    reference's, record for record, with its trace CSV bytes and
    ``ZERO_ENTRY`` on the settled rows; return its ``k_feasible``, how many
    entries were ``ZERO_ENTRY`` and its records."""
    m = int(problem.m)
    if weights is None:
        weights = UniformOverViolated() if control_kind == "block" else UniformOverActive()

    def cfg():
        return RunConfig(problem=problem, control=make_control(control_kind, m),
                         relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                         phi=PhiOne(), weights=weights, x0=x0, max_iter=20_000)

    want = observed(reference_solve, cfg(), want_csv := io.StringIO())
    records, csv = [], io.StringIO()
    got = observed(lambda c, emit: solve_kept(c, lambda r: records.append(r) or emit(r), csv),
                   cfg())
    assert got == want and csv.getvalue() == want_csv.getvalue() and got[2][0] == "feasible"
    return got[2][1], zero_entries(problem, records), records


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("control_kind", ["cyclic", "remotest", "max_violation", "block"])
def test_solve_stacked_matches_lazy_pool(seed, control_kind):
    dim, m = 6, 3 * STACKED_MIN_ROWS
    problem, x0 = slater_pool(seed, dim, m)
    assert problem.affine_rows is not None
    _, shared, _ = solve_matching_the_reference(problem, x0, control_kind)
    assert bool(shared) == (control_kind in ("block", "cyclic"))  # a maximal row never settles


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("control_kind", ["cyclic", "remotest", "max_violation", "block"])
def test_balls_among_stacked_rows_match_lazy_pool(seed, control_kind):
    # Balls at the first, a middle and the last position are zero rows of
    # the stack.  Each contains B(z, 2R) = B(0, 0.5), so the runs converge,
    # and is tighter than some facets, so the runs correct toward it.
    dim, m = 6, 2 * STACKED_MIN_ROWS
    pool, x0 = slater_pool(seed, dim, m)
    rng = np.random.default_rng(seed + 100)
    affine = [pool.constraint(i).body for i in pool.indices()]
    balls = [Ball(0.1 * u / np.linalg.norm(u), float(rng.uniform(0.7, 1.2)))
             for u in (rng.standard_normal(dim) for _ in range(3))]
    bodies = [balls[0]] + affine[:m // 2] + [balls[1]] + affine[m // 2:] + [balls[2]]
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)],
                      interior=pool.interior)
    problem.spot_check_interior()
    outside = [0, m // 2 + 1, m + 2]
    assert problem.affine_rows.offset[outside].tolist() == [math.inf] * 3
    _, _, records = solve_matching_the_reference(problem, x0, control_kind)
    assert any(i in outside for r in records for i in r.violated)


WEIGHT_RULES = {
    "uniform_active": UniformOverActive(),
    "uniform_violated": UniformOverViolated(),
    "table": ExplicitTable({i: 1.0 + i % 3 for i in range(2 * STACKED_MIN_ROWS + 3)},
                           0.005),
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("control_kind", ["block", "two_blocks", "random_sets",
                                          "remotest"])
@pytest.mark.parametrize("weight_kind", sorted(WEIGHT_RULES))
def test_mixed_pools_match_lazy_pool_under_every_weight_rule(
        seed, control_kind, weight_kind):
    # Halfspaces, affine sublevel sets and three balls, each containing
    # B(z, 2R) = B(0, 0.5), at random positions of the pool.
    dim, m = 6, 2 * STACKED_MIN_ROWS
    pool, x0 = slater_pool(seed, dim, m)
    rng = np.random.default_rng(seed + 200)
    bodies = [pool.constraint(i).body for i in pool.indices()]
    for _ in range(3):
        u = rng.standard_normal(dim)
        bodies.append(Ball(0.1 * u / np.linalg.norm(u), float(rng.uniform(0.7, 1.2))))
    bodies = [bodies[j] for j in rng.permutation(len(bodies))]
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)],
                      interior=pool.interior)
    problem.spot_check_interior()
    assert problem.affine_rows is not None
    k_feasible, _, _ = solve_matching_the_reference(problem, x0, control_kind,
                                                    WEIGHT_RULES[weight_kind])
    assert k_feasible >= 1


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(-150, 150),
       st.sampled_from([1, -1, 2]))
def test_stored_normal_products_are_the_computed_ones(seed, dim, exponent, stride):
    # A halfspace keeps a.a and ||a|| from its construction, and the stack
    # takes its norms from them: each must equal a fresh computation on the
    # stored normal bit for bit (float.hex tells -0.0, NaN and ulps apart).
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((STACKED_MIN_ROWS, dim)) * 10.0 ** exponent
    normals = [np.repeat(a, abs(stride))[::stride] for a in normals]
    bodies = [Halfspace(a, 1.0) if n % 3 else Sublevel(Affine(a, 1.0))
              for n, a in enumerate(normals)]
    bodies += [Halfspace(a, 1.0) for a in normals[:STACKED_MIN_ROWS // 2]]
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)])
    rows = problem.affine_rows
    assert rows is not None
    for i, body in enumerate(bodies):
        a = getattr(body, "f", body).a
        if isinstance(body, Halfspace):
            assert body.a.flags.c_contiguous
            assert body.aa.hex() == float(a.dot(a)).hex()
            assert body.a_norm.hex() == norm(a).hex()
        assert float(rows.norms[i]).hex() == norm(a).hex()
    # A pool of halfspaces only keeps each a.a for the batched cuts, as the
    # halfspace computed it.
    halfspaces = [Halfspace(a, 1.0) for a in normals]
    rows = Problem(dim, [Constraint(i, b) for i, b in enumerate(halfspaces)]).affine_rows
    assert [float(v).hex() for v in rows.aa] == [h.aa.hex() for h in halfspaces]


# Run in a child under another OpenBLAS kernel: a halfspace pool keeps each
# row's a.a as its halfspace computed it, on any kernel.  The generic Katmai
# kernels (Prescott) round a row view of a matrix with odd d otherwise than
# an aligned copy of the same values, so a product recomputed from A differs.
KERNEL_CHECK = """
import numpy as np
from feasik import Constraint, Halfspace, Problem
rng = np.random.default_rng(0)
for dim in range(2, 12):
    halfspaces = [Halfspace(a.copy(), 1.0) for a in rng.standard_normal((200, dim))]
    rows = Problem(dim, [Constraint(i, h) for i, h in enumerate(halfspaces)]).affine_rows
    assert [float(v).hex() for v in rows.aa] == [h.aa.hex() for h in halfspaces], dim
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernel names are x86-64's")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_stored_normal_products_hold_on_other_kernels(coretype):
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(feasik.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", KERNEL_CHECK], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_settled_cutters_record_zero_entries():
    # Late in a cyclic run most active halfspaces hold: the step records
    # them as ZERO_ENTRY itself without calling their cutter.
    dim, m = 4, 2 * STACKED_MIN_ROWS
    problem, x0 = slater_pool(11, dim, m, sublevel_every=m + 1)
    _, shared, records = solve_matching_the_reference(problem, x0, "block",
                                                      UniformOverActive())
    first = records[0]
    held = [e for i, e in zip(first.active, first.per_index) if i not in first.violated]
    assert held and all(e is ZERO_ENTRY for e in held) and shared >= len(held)


def test_pools_from_the_size_threshold_on_are_stored_in_float32():
    dim = 64
    m = FLOAT32_MIN_ENTRIES // dim
    for rows, dtype in ((m - 1, np.float64), (m, np.float32), (m + 1, np.float32)):
        problem, _ = slater_pool(0, dim, rows)
        assert problem.affine_rows.A.dtype == dtype
    problem, _ = large_pool(0)
    rows = problem.affine_rows
    assert rows.A.dtype == np.float32 and rows.stacked == problem.m - 1
    assert rows.offset[int(problem.m) // 2] == math.inf


def decide_as_the_lazy_twin(problem, x):
    scalar = lazy_twin(problem)
    assert feasible(problem, x) == feasible(scalar, x)
    assert violated_indices(problem, x) == violated_indices(scalar, x)
    p = problem.affine_rows.at(x)
    for control in (RemotestSet(), MaxViolation()):
        assert control._select(0, x, problem, p) == control._select(0, x, scalar)
    return p


def test_iterates_past_float32_range_decide_as_the_lazy_twin():
    # 2^120 (1.3e36) bounds ||x||_inf ||a_i||_1 + |b_i| on float32 rows,
    # whose unit normals have ||a_i||_1 between 1 and sqrt(32) here: past it
    # the pass is None, the scalar tests decide, and float64 still computes
    # every violation.
    problem, x0 = large_pool(1)
    rows = problem.affine_rows
    assert rows.A.dtype == np.float32
    u = x0 / np.abs(x0).max()
    for scale in (1.0, 1e30, 1e35, 1e36, 1e37, 1e39, 1e150):
        p = decide_as_the_lazy_twin(problem, scale * u)
        assert (p is None) == (scale >= 1e36)
    assert decide_as_the_lazy_twin(problem, 1e-3 * u) is not None


@pytest.mark.parametrize("entry", [1e37, 1e39, -3e38])
def test_entries_past_float32_range_keep_float64(entry):
    # 1e39 and -3e38 round to infinity in float32, 1e37 is past the safe
    # range of its sums; the pool keeps float64 rows and decides as before.
    problem, x0 = large_pool(2)
    bodies = [problem.constraint(i).body for i in problem.indices()]
    a = np.zeros(problem.dim)
    a[3] = entry
    bodies[7] = Sublevel(Affine(a, 0.0))
    big = Problem(problem.dim, [Constraint(i, b) for i, b in enumerate(bodies)])
    assert big.affine_rows.A.dtype == np.float64
    for x in (x0, -x0, np.zeros(problem.dim), np.sign(entry) * np.eye(problem.dim)[3]):
        assert decide_as_the_lazy_twin(big, x) is not None


@pytest.mark.parametrize("control_kind", ["cyclic", "remotest", "max_violation", "block"])
def test_solve_on_float32_rows_matches_lazy_pool(control_kind):
    problem, x0 = large_pool(4)
    assert problem.affine_rows.A.dtype == np.float32
    problem.spot_check_interior(n_dirs=4)
    k_feasible, _, _ = solve_matching_the_reference(problem, x0, control_kind)
    assert k_feasible >= 10


@st.composite
def near_zero_pools(draw):
    """A pool of at least STACKED_MIN_ROWS affine rows that x satisfies by a
    wide margin, but for a few rows whose violation is a small multiple of
    their own margin, of either sign: the largest stacked violation lies
    within a margin or two of zero.  Some pools add a ball around x, a zero
    row of score 0.0."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dim = draw(st.one_of(st.integers(1, 8), st.integers(9, 120)))
    m = draw(st.integers(STACKED_MIN_ROWS, STACKED_MIN_ROWS + 24))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3)
    normals = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-1, 2, (m, 1))
    s = normals @ x
    rhs = s + rng.uniform(1.0, 10.0, m) * (np.abs(s) + 1.0)
    near = rng.choice(m, draw(st.integers(0, 4)), replace=False)
    margin = stacked_rows(Problem(dim, [Constraint(i, Halfspace(a, b)) for i, (a, b)
                                        in enumerate(zip(normals, rhs))]),
                          dtype).at(x).margin
    times = rng.choice([-2.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0], len(near))
    rhs[near] = [float(normals[i].dot(x)) - t * margin[i] for i, t in zip(near, times)]
    bodies = [affine_body(a, b, rng.random() < 0.3) for a, b in zip(normals, rhs)]
    if draw(st.booleans()):
        bodies.insert(int(rng.integers(0, m + 1)), Ball(x, 1.0))
    problem = Problem(dim, [Constraint(i, body) for i, body in enumerate(bodies)])
    return problem, stacked_rows(problem, dtype), x


@SETTINGS
@given(near_zero_pools(), st.integers(0, 2 ** 32 - 1))
def test_maximal_controls_pick_the_scalar_argmax_near_zero(case, seed):
    problem, rows, x = case
    passes = [rows.at(x), rounded_otherwise(problem, rows, x, np.random.default_rng(seed))]
    for control in (RemotestSet(), MaxViolation()):
        scores = [control._score(problem.constraint(i), x) for i in problem.indices()]
        argmax = (scores.index(max(scores)),)  # ties go to the lowest index
        for p in passes:
            assert control._select(0, x, problem, p) == argmax


def test_a_near_zero_remotest_step_rescores_few_rows():
    # As in ladder_scan's remotest runs: 2000 unit rows in 200 dimensions,
    # stored in float32.  x satisfies all of them by 0.5 or more but row 7,
    # which it violates by 1.5 of its margin, so the best lower bound is
    # about half a margin: below the band of every satisfied row, whose
    # scalar score is 0.0 and can therefore not be the largest.
    rng = np.random.default_rng(5)
    dim, m, j = 200, 2000, 7
    normals = rng.standard_normal((m, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    x = rng.standard_normal(dim) / math.sqrt(dim)
    rhs = normals @ x + rng.uniform(0.5, 1.0, m)

    def pool():
        return Problem(dim, [Constraint(i, Halfspace(a, b))
                             for i, (a, b) in enumerate(zip(normals, rhs))])

    rhs[j] = float(normals[j].dot(x)) - 1.5 * pool().affine_rows.at(x).margin[j]
    problem = pool()
    assert problem.affine_rows.A.dtype == np.float32
    p = problem.affine_rows.at(x)
    assert p.satisfied.sum() == m - 1 and p.v[j] > p.margin[j]
    control = RemotestSet()
    assert len(p.candidates(*control._stacked_score(p))) <= 3
    assert control._select(0, x, problem, p) == control._select(0, x, problem) == (j,)


def test_an_iterate_without_a_pass_gets_one_try():
    # Past the safe range of the rows (||x||_inf ||a_i||_1 near 2^1000)
    # at(x) is None and the scalar tests decide; feasible must not take
    # the pass again at the same x.  Row 0 has ||a||_1 = 1e150, and each
    # of the first three steps brings one coordinate of x0 = 1e152 back, so
    # three iterates have no pass and the fourth has one.  Every norm and
    # dot product stays finite.
    p = Problem(3, [Constraint(0, Halfspace([1e150, 0.0, 0.0], 1e150))]
                + [Constraint(i, Halfspace(np.eye(3)[i % 3] * (i + 1), 1.0))
                   for i in range(1, 20)])
    rows = p.affine_rows
    at, passes = rows.at, []

    def counting_at(x):
        passes.append((x, at(x)))
        return passes[-1][1]

    cfg = RunConfig(problem=p, control=Cyclic(range(20)),
                    relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                    phi=PhiOne(), weights=UniformOverActive(), x0=[1e152] * 3)
    with mock.patch.object(rows, "at", counting_at):
        result = solve(cfg)
    assert result.status == "feasible" and result.steps == 3
    assert [id(x) for x, _ in passes] == [id(rec.x) for rec in result.trace]
    assert [rp is None for _, rp in passes] == [True, True, True, False]


@st.composite
def runs(draw):
    """A factory of fresh, equal run configurations on a random polyhedron
    around B(0, 0.5): stacked or lazy pools, above or below
    STACKED_MIN_ROWS rows, in the whole space or in a box that may clip the
    steps; cyclic, repetitive, random, explicit, remotest or full-block
    control; either counter; the whole pool or a window; tol 0 or not."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dim = draw(st.integers(2, 5))
    m = draw(st.sampled_from([6, STACKED_MIN_ROWS, 2 * STACKED_MIN_ROWS]))
    control_kind = draw(st.sampled_from(["cyclic", "repetitive", "random_sets",
                                         "explicit", "remotest", "block"]))
    max_iter = draw(st.sampled_from([40, 400]))
    problem, x0 = slater_pool(seed, dim, m)
    box = draw(st.sampled_from([None, 1.0, 3.0]))
    if box is not None:
        cons = [problem.constraint(i) for i in problem.indices()]
        problem = Problem(dim, cons, outer=OuterSet(Box(-box * np.ones(dim),
                                                        box * np.ones(dim))),
                          interior=problem.interior)
        x0 = np.clip(x0, -box, box)
    if draw(st.booleans()):
        problem = lazy_twin(problem)
    window = draw(st.one_of(st.none(), st.lists(st.integers(0, m - 1), min_size=1,
                                                max_size=m, unique=True).map(tuple)))
    rng = np.random.default_rng(seed)
    order = rng.permutation(m).tolist()
    sets = [tuple(rng.choice(m, rng.integers(1, 4), replace=False).tolist())
            for _ in range(max_iter)]
    cuts = list(range(0, m, 3)) + [m]
    atoms = [tuple(range(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]

    def control():
        return {"cyclic": lambda: Cyclic(order),
                # each index twice in a row: the second visit follows a move
                "repetitive": lambda: Repetitive(lambda k: (order[k // 2 % m],)),
                "random_sets": lambda: RandomSets(
                    [(a, 1.0 / len(atoms)) for a in atoms], seed=seed),
                "explicit": lambda: Explicit(sets),
                "remotest": RemotestSet,
                "block": lambda: Intermittent([range(m)])}[control_kind]()

    weights = UniformOverViolated if control_kind == "block" else UniformOverActive
    counter_mode = draw(st.sampled_from(["bracketed", "raw"]))
    alpha = draw(st.sampled_from([1.0, 1.5]))
    tol = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.05]))
    return lambda: RunConfig(
        problem=problem, control=control(), relaxation=ConstantRelaxation(alpha),
        overrelaxation=Harmonic(), phi=PhiOne(), weights=weights(), x0=x0,
        counter_mode=counter_mode, max_iter=max_iter, feas_window=window,
        feas_tol=tol)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_solve_tests_each_iterate_once_with_the_reference_verdicts(make):
    # solve takes no pass and no test at an iterate a step left in place;
    # the reference tests every iterate, and the runs must agree bit for bit.
    want = observed(reference_solve, make(), want_csv := io.StringIO())
    csv = io.StringIO()
    with mock.patch.object(engine, "feasible", wraps=feasible) as spy:
        got = observed(lambda cfg, emit: solve_kept(cfg, emit, csv), make())
    assert got == want and csv.getvalue() == want_csv.getvalue()
    records, error, _ = got
    assert error is None
    assert spy.call_count == sum(not same_x for _, same_x in records)


def wide_floats(rng, shape, lo, hi):
    """Floats of either sign with magnitudes 10^lo to 10^hi, a tenth of them
    subnormal and a tenth signed zeros."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
    kind = rng.random(shape)
    tiny = kind < 0.1
    v[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * rng.integers(
        1, 2 ** 52, tiny.sum()) * 2.0 ** -1074
    zeros = (kind >= 0.1) & (kind < 0.2)
    v[zeros] = rng.choice([-0.0, 0.0], zeros.sum())
    return v


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.integers(1, 300),
       st.integers(-300, 300), st.integers(-300, 300))
def test_vecdot_is_the_row_dot_bit_for_bit(seed, rows, dim, lo, hi):
    # AffineRows.cut_rows, and so every batched step, rests on np.vecdot over
    # rows gathered from a stack rounding as each row's ndarray.dot does:
    # both reach the same BLAS dot kernel.  A numpy or BLAS where they do
    # not fails here by name.  At d = 1 ndarray.dot returns the lone
    # product, -0.0 included, where vecdot adds it to +0.0; a cut treats
    # both zeros alike, as v <= 0, and adding 0.0 makes them one.
    lo, hi = sorted((lo, hi))
    rng = np.random.default_rng(seed)
    A = wide_floats(rng, (rows + 3, dim), lo, hi)
    x = wide_floats(rng, dim, lo, hi)
    N = A[rng.integers(0, rows + 3, rows)]  # a gather: repeated, unsorted
    with np.errstate(all="ignore"):  # products may overflow, in both
        got, want = np.vecdot(N, x), np.array([row.dot(x) for row in N])
        if dim == 1:
            got, want = got + 0.0, want + 0.0
        assert got.tobytes() == want.tobytes()
        # A square is never -0.0: here every bit agrees at every d.
        assert np.vecdot(N, N).tobytes() == \
            np.array([row.dot(row) for row in N]).tobytes()


@st.composite
def batched_steps(draw):
    """A halfspace pool, a point x and an active set that holds ``cut`` rows x
    does not certainly satisfy: violated ones, ones x lies on exactly (s =
    0.0, never settled, not cut), ones violated by 1e-170 whose displacement
    underflows to zero, and in a quarter of the float64 pools one whose a.a
    is subnormal, so that s / a.a overflows to inf, silently as in the
    scalar cut.  ``cut`` lies just below or above CUT_MIN_ROWS, or at 32 and
    more; x satisfies the other rows by a wide margin.  The rows are stored
    in float64, in float32, or beside an affine sublevel row (a mixed pool)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    dim = draw(st.integers(1, 40))
    cut = draw(st.sampled_from([CUT_MIN_ROWS - 1, CUT_MIN_ROWS, CUT_MIN_ROWS + 1,
                                12, 32, 40]))
    held = draw(st.integers(0, 30))
    pool = draw(st.sampled_from(["float64", "float64", "float32", "mixed"]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
    x[0] = 0.0  # the underflowing rows cut along it
    # float32 rows cannot hold 1e80, so a float32 pool has no tiny rows
    tiny = 0.0 if pool == "float32" else 0.15
    kinds = rng.choice(["violated", "facet", "tiny"], cut, p=[0.75 - tiny, 0.25, tiny]).tolist()
    if pool != "float32" and draw(st.integers(0, 3)) == 0:
        kinds[0] = "subnormal"
    kinds += ["held"] * (held + max(0, STACKED_MIN_ROWS - cut - held) + 3)
    bodies = []
    for kind in kinds:
        a = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3)
        s = float(a.dot(x))
        wide = float(np.abs(a).sum() * np.abs(x).max()) + abs(s) + 1.0
        if kind == "tiny":
            a = np.zeros(dim)
            a[0] = 1e80
            b = -1e-170  # s = 1e-170, s / a.a = 1e-330 rounds to 0.0
        elif kind == "subnormal":
            a = np.full(dim, 1e-160)  # a.a <= 4e-319, no zero entry
            b = -1.0  # s near 1.0, s / a.a = inf
        elif kind == "facet":
            b = s
        else:
            b = s + rng.uniform(1.0, 3.0) * wide * (1.0 if kind == "held" else -0.1)
        bodies.append(Halfspace(a, b))
    order = rng.permutation(len(bodies)).tolist()
    bodies = [bodies[j] for j in order]
    if pool == "mixed":
        bodies.append(Sublevel(Affine(np.ones(dim), 1e9)))
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)])
    position = {j: n for n, j in enumerate(order)}
    active = [position[j] for j in range(cut + held)]  # the cut and the held rows
    rng.shuffle(active)
    return problem, pool, x, tuple(active), cut


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batched_steps(), st.sampled_from(sorted(WEIGHT_RULES)), st.booleans())
def test_batched_steps_match_the_lazy_pool(case, weight_kind, custom_phi):
    # Three steps from x, with the same active set each step, must be the
    # reference's steps from the same iterates: the same iterates, violated
    # sets, per_index bytes (NaNs too) and phi calls.  The first step cuts as
    # one batch exactly when its rows are float64 metric halfspaces, none
    # other in the pool, and CUT_MIN_ROWS or more of them are unsettled.
    problem, pool, x, active, cut = case
    rows = stacked_rows(problem, np.float32 if pool == "float32" else np.float64)
    assert (rows.aa is not None) == (pool == "float64")
    scalar = lazy_twin(problem)
    table = ExplicitTable({i: 1.0 + i % 3 for i in problem.indices()}, 1e-6)
    weights = {**WEIGHT_RULES, "table": table}[weight_kind]

    def config():  # a phi that varies by row and logs each call
        log = []
        phi = PhiCustom(lambda c, x: log.append((c.index, x.tobytes())) or 1.0 + 0.5 * (
            c.index % 3), 0.5, 2.0)
        return RunConfig(problem=problem, control=Explicit([active] * 3),
                         relaxation=ConstantRelaxation(1.5), overrelaxation=Harmonic(),
                         phi=phi if custom_phi else PhiOne(), weights=weights, x0=x), log

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (cfg, log), (ref_cfg, ref_log) = config(), config()
        x = np.array(x)
        x.flags.writeable = False
        count = 0
        for k in range(3):
            p = rows.at(x)
            assert p is not None
            with mock.patch.object(engine, "evaluate_cutter", wraps=evaluate_cutter) as spy:
                x_got, corrected, rec = step(cfg, x, k, count, stacked=p)
            x_want, corrected_want, rec_want = reference_step(ref_cfg, scalar, x, k, count)
            if k == 0:
                assert int((~p.settled[list(active)]).sum()) == cut
                batched = pool == "float64" and cut >= CUT_MIN_ROWS
                assert spy.call_count == (0 if batched else cut)
            assert (x_got.tobytes(), corrected, fields(rec, exact=True)) == \
                (x_want.tobytes(), corrected_want, fields(rec_want, exact=True))
            assert log == ref_log
            if not np.isfinite(x_got).all():  # a subnormal a.a's step: NaN
                break
            x = x_got
            x.flags.writeable = False
            count += corrected


# ---------------------------------------------------------------------------
# Quiet steps: solve emits the records of steps whose rows all leave x in place
# ---------------------------------------------------------------------------

QUIET_POOLS = ["float64", "float32", "lazy", "small", "a1_tail", "a1_tail_moving"]
QUIET_CONTROLS = ["cyclic", "intermittent", "explicit", "random_sets", "repetitive",
                  "remotest", "max_violation"]


def quiet_overrelaxation(kind, fault_at):
    """Harmonic r, or one that faults at count ``fault_at``: a FromFunction
    r that turns negative, or a merged schedule whose a-input there is NaN
    (the merge reads it where it fills the position of a_{fault_at})."""
    if kind == "harmonic":
        return Harmonic()
    if kind == "from_function":
        return FromFunction(lambda j: 1.0 / (j + 1) if j < fault_at else -1.0,
                            divergent_sum=True)
    return MergedDecreasing(lambda j: 1.0 / (j + 1) if j < fault_at else math.nan,
                            lambda j: 2.0 ** -(j + 20))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(QUIET_POOLS), st.sampled_from(QUIET_CONTROLS),
       st.sampled_from(["bracketed", "raw"]), st.sampled_from(["uniform", "table", "gap"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1), st.integers(0, 600),
       st.sampled_from(["harmonic", "from_function", "merged"]), st.integers(0, 300))
def test_quiet_steps_match_a_step_at_every_k(pool, kind, mode, weight_kind, blocks, seed,
                                             max_iter, r_kind, fault_at):
    # Runs of steps that leave x in place, under every control and on
    # stacked, lazy and scalar pools, end inside max_iter, an explicit
    # list's end, a table without the weight of one index ("gap") or at a
    # count where r faults, as often as between them.  A row is quiet where
    # the pass settles it or where an earlier step at x cut it without
    # moving x.  Each run gets fresh schedules and controls.
    problem, x0 = quiet_pool(pool)
    m = int(problem.m)
    rows = problem.affine_rows
    assert rows.A.dtype == pool if pool in ("float64", "float32") else rows is None
    rng = np.random.default_rng(seed)
    sets = [tuple(rng.choice(m, rng.integers(1, min(4, m + 1)), replace=False).tolist())
            if blocks and rng.random() < 0.2 else (int(i),) for i in rng.permutation(m)]
    order = rng.integers(len(sets), size=int(rng.integers(1, 50))).tolist()
    listed = sets[:int(rng.integers(1, 2 * m))] * 2
    control = {"cyclic": lambda: Cyclic([s[0] for s in sets]),
               "intermittent": lambda: Intermittent(sets),
               "explicit": lambda: Explicit(listed),
               "random_sets": lambda: RandomSets([(s, 1.0 / m) for s in sets], seed),
               "repetitive": lambda: Repetitive(lambda k: sets[order[k % len(order)]],
                                                max_card=max(map(len, sets))),
               "remotest": RemotestSet,
               "max_violation": MaxViolation}[kind]
    table = {i: 1.0 + (i % 3) for i in range(m)}
    if weight_kind == "gap":
        del table[int(rng.integers(m))]

    def cfg():
        weights = UniformOverActive() if weight_kind == "uniform" else ExplicitTable(table, 0.1)
        return RunConfig(problem=problem, control=control(),
                         relaxation=ConstantRelaxation(1.0),
                         overrelaxation=quiet_overrelaxation(r_kind, fault_at),
                         phi=PhiOne(), weights=weights,
                         x0=x0, counter_mode=mode, max_iter=max_iter)

    want, readings = observed(reference_solve, cfg()), []
    for run in (solve_observed, solve_spans, solve_kept):
        records = []
        got = observed(lambda c, emit: run(c, lambda r: records.append(r) or emit(r)), cfg())
        if run is solve_kept and want[1] is not None:  # a kept trace needs a return
            assert got[1] == want[1]
            continue
        assert got == want
        zero_entries(problem, records)
        readings.append([fields(r, exact=True) for r in records])
    assert readings.count(readings[0]) == len(readings)  # to the bit, NaNs too


def test_quiet_steps_skip_step_on_a_stacked_cyclic_run():
    problem, x0 = random_slater_polyhedron(3, dim=4, m=40, interior_radius=0.5,
                                           sublevel=False)
    cfg = RunConfig(problem=problem, control=Cyclic(range(40)),
                    relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                    phi=PhiOne(), weights=UniformOverActive(), x0=10 * x0)
    with mock.patch.object(engine, "step", wraps=step) as spy:
        got = observed(solve_observed, cfg)
    assert got == observed(reference_solve, cfg)
    records, error, result = got
    moved = sum(a[0][2] != b[0][2] for a, b in zip(records, records[1:]))
    assert error is None and result[0] == "feasible"
    assert 0 < moved <= spy.call_count < len(records) - 1


@pytest.mark.parametrize("mode", ["bracketed", "raw"])
@pytest.mark.parametrize("fault", ["weight", "r"] + [
    f"{fault}-{pool}" for fault in ("schedule", "index", "card", "r")
    for pool in ("float64", "lazy", "small")])
def test_a_fault_inside_a_quiet_stretch_comes_at_its_k(fault, mode):
    # A weight table without row g, which the pass settles at x0, met after
    # three other settled rows; and r turning negative at count 700 in the
    # A.1 tail, quiet from step 540 (bracketed, the count never gets there).
    # A Repetitive schedule, on each pool, faults at step `at` inside its
    # longest quiet stretch: it raises, emits a row outside the pool or a
    # 2-set above max_card 1; or r turns negative at that step's count, which
    # a bracketed run does not advance in a stretch: its fault comes earlier,
    # at the first step of that count.
    if fault == "weight":
        problem, x0 = quiet_pool("float64")
        settled = problem.affine_rows.at(np.asarray(x0)).settled.nonzero()[0].tolist()
        control, at = Cyclic(settled[:4] + [i for i in range(24) if i not in settled[:4]]), 3
        weights = ExplicitTable({i: 1.0 for i in range(24) if i != settled[3]}, 0.01)
        over, raises = Harmonic(), ConfigError
    elif fault == "r":
        problem, x0 = quiet_pool("a1_tail")
        control, weights, raises = Cyclic([0, 1]), UniformOverActive(), ConfigError
        at = 700 if mode == "raw" else None
        over = FromFunction(lambda j: 1.0 / (j + 1) if j < 700 else -1.0, True)
    else:
        fault, pool = fault.split("-")
        problem, x0 = quiet_pool(pool)
        period = [int(i) for i in np.random.default_rng(0).integers(problem.m, size=7)]
        control = Repetitive(lambda k: (period[k % 7],))
        weights, over = UniformOverActive(), Harmonic()
        trace = solve(RunConfig(problem=problem, control=control, x0=x0, max_iter=1000,
                                relaxation=ConstantRelaxation(1.0), overrelaxation=over,
                                phi=PhiOne(), weights=weights, counter_mode=mode)).trace
        longest = max((item for item in trace.items if isinstance(item, engine.QuietSpan)),
                      key=len)
        at = longest.k + 5
        assert len(longest) > 10
        raises = {"schedule": ZeroDivisionError, "index": feasik.errors.PoolIndexError,
                  "card": feasik.ControlError, "r": ConfigError}[fault]
        if fault == "r":
            c = trace[at].bracket_k
            at = next(rec.k for rec in trace if rec.bracket_k >= c)
            over = FromFunction(lambda j: 1.0 / (j + 1) if j < c else -1.0, True)
        else:
            bad = {"schedule": lambda: 1 // 0, "index": lambda: (problem.m,),
                   "card": lambda: (0, 1)}[fault]
            control = Repetitive(lambda k: bad() if k == at else (period[k % 7],))

    def cfg():
        return RunConfig(problem=problem, control=control, relaxation=ConstantRelaxation(1.0),
                         overrelaxation=over, phi=PhiOne(), weights=weights, x0=x0,
                         counter_mode=mode, max_iter=1000)

    want = observed(reference_solve, cfg())
    for run in (solve_observed, solve_spans):
        assert observed(run, cfg()) == want
    records, error, _ = want
    if at is None:
        assert len(records) == 1001 and error is None
    else:
        assert len(records) == at and error[0] is raises


@pytest.mark.parametrize("pool", ["float64", "lazy", "small"])
def test_solve_takes_one_emission_per_k(pool):
    # solve takes each step's set once and hands it to step: a Repetitive
    # schedule sees k = 0 ... steps - 1 once each over a run of quiet and
    # moving steps, and phi sees the calls the reference loop makes.
    problem, x0 = quiet_pool(pool)
    period = [int(i) for i in np.random.default_rng(0).integers(problem.m, size=7)]

    def cfg(calls, phis):
        return RunConfig(problem=problem, control=Repetitive(
            lambda k: calls.append(k) or (period[k % 7],)),
            relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
            phi=PhiCustom(lambda c, x: phis.append((c.index, x.tobytes()))
                          or 1.0 + c.index % 2, 1.0, 2.0),
            weights=UniformOverActive(), x0=x0, max_iter=400)

    calls, phis, ref_calls, ref_phis = [], [], [], []
    with mock.patch.object(engine, "step", wraps=step) as spy:
        got = observed(solve_observed, cfg(calls, phis))
    assert got == observed(reference_solve, cfg(ref_calls, ref_phis))
    records, error, _ = got
    steps = len(records) - 1
    moved = sum(a[0][2] != b[0][2] for a, b in zip(records, records[1:]))
    assert error is None and 0 < moved < spy.call_count < steps
    assert calls == ref_calls == list(range(steps))
    assert phis == ref_phis and len(phis) >= moved


@pytest.mark.parametrize("kind", ["cyclic", "intermittent", "explicit", "random_sets"])
@pytest.mark.parametrize("bad", [None, -1, 40])
def test_out_of_pool_indices_raise_where_each_step_would(kind, bad):
    # A fixed family in the pool skips step on its quiet steps.  The pass has
    # no flag for an index outside the pool (settled[-1] would wrap to the
    # last row): with one in the family, every step stays on step's path,
    # which raises at the step emitting it.
    problem, x0 = random_slater_polyhedron(3, dim=4, m=40, interior_radius=0.5,
                                           sublevel=False)
    order = list(range(39)) + [39 if bad is None else bad]
    control = {"cyclic": lambda: Cyclic(order),
               "intermittent": lambda: Intermittent([(i,) for i in order]),
               "explicit": lambda: Explicit([(i,) for i in order * 3]),
               "random_sets": lambda: RandomSets([((i,), 1 / 40) for i in order], 2)}[kind]

    def cfg():
        return RunConfig(problem=problem, control=control(),
                         relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                         phi=PhiOne(), weights=UniformOverActive(), x0=10 * x0)

    with mock.patch.object(engine, "step", wraps=step) as spy:
        got = observed(solve_observed, cfg())
    assert got == observed(reference_solve, cfg())
    records, error, _ = got
    if bad is not None:
        assert error == (feasik.PoolIndexError, f"index out of pool: {bad}")
    else:
        moved = sum(a[0][2] != b[0][2] for a, b in zip(records, records[1:]))
        assert error is None and records[-1][0][-1]  # feasible
        assert 0 < moved <= spy.call_count < len(records) - 1
