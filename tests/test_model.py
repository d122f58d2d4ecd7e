import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (AbsCoordMinusC, Affine, Ball, Box, ConfigError, Constraint,
                    ConstantOverrelaxation, ConstantRelaxation, DescentMonitor,
                    ExplicitTable, FeasikError, FromFunction, Geometric, Halfspace,
                    MaxAffine, MergedDecreasing, OuterSet, OverrelaxationList,
                    PhiCustom, PoolIndexError, Problem, QuadCoordMinusC,
                    RandomSets, RelaxationList, SquaredDistToBall, Sublevel,
                    as_vector, check_descent, feasible, solve, violated_indices)
from feasik.certificates import build_a1_config
from feasik.model import STACKED_MIN_ROWS

from conftest import random_metric_body


def a2_constraints():
    return [Constraint(0, Sublevel(AbsCoordMinusC(axis=1, c=1.0))),
            Constraint(1, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))]


def test_as_vector_rejects_bad_input():
    with pytest.raises(ConfigError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ConfigError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        as_vector([1.0, 2.0], dim=3)


def _function_samples(rng, dim):
    a = rng.standard_normal(dim)
    pieces = tuple((rng.standard_normal(dim), float(rng.uniform(-1, 1)))
                   for _ in range(3))
    return [
        Affine(a, float(rng.uniform(-1, 1))),
        AbsCoordMinusC(axis=int(rng.integers(0, dim)), c=float(rng.uniform(-0.5, 2))),
        QuadCoordMinusC(axis=int(rng.integers(0, dim)), c=float(rng.uniform(-0.5, 2))),
        MaxAffine(pieces),
        SquaredDistToBall(rng.uniform(-1, 1, dim), float(rng.uniform(0.3, 2))),
    ]


# Each constructor, or a schedule reading a user callable's result, given one
# non-finite number, a string or a boolean where a finite number belongs.
# float() took "1.0" and True from the callables.
NON_FINITE_SITES = {
    # Under a NaN R no step is applicable, and the certificate passes vacuously.
    "check_descent.R": lambda v: check_descent(
        solve(build_a1_config("bracketed")).trace, [-2.0, -2.0], v, 1.0),
    "DescentMonitor.R": lambda v: DescentMonitor([0.0, 0.0], v, 1.0),
    "DescentMonitor.lambda": lambda v: DescentMonitor([0.0, 0.0], 1.0, v),
    "Problem.interior_R": lambda v: Problem(
        2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))], interior=([-1.0, 0.0], v)),
    "Ball.radius": lambda v: Ball([0.0, 0.0], v),
    "SquaredDistToBall.radius": lambda v: SquaredDistToBall([0.0, 0.0], v),
    "Halfspace.b": lambda v: Halfspace([1.0, 0.0], v),
    "Affine.b": lambda v: Affine([1.0, 0.0], v),
    "MaxAffine.b": lambda v: MaxAffine((([1.0, 0.0], 0.0), ([0.0, 1.0], v))),
    "AbsCoordMinusC.c": lambda v: AbsCoordMinusC(axis=0, c=v),
    "QuadCoordMinusC.c": lambda v: QuadCoordMinusC(axis=0, c=v),
    "ConstantOverrelaxation.value": ConstantOverrelaxation,
    "Geometric.r0": lambda v: Geometric(v, 0.5),
    "OverrelaxationList.values": lambda v: OverrelaxationList([1.0, v]),
    "ExplicitTable.table": lambda v: ExplicitTable({0: 1.0, 1: v}, 0.1),
    "ExplicitTable.floor": lambda v: ExplicitTable({0: 1.0}, v),
    "RandomSets.atoms": lambda v: RandomSets([((0,), 1.0), ((1,), v)], 0),
    "RandomSets.lone_atom": lambda v: RandomSets([((0,), v)], 0),
    "ConstantRelaxation.alpha": ConstantRelaxation,
    "RelaxationList.values": lambda v: RelaxationList([1.0, v]),
    "PhiCustom.delta": lambda v: PhiCustom(lambda c, x: 1.0, v, 1.0),
    "PhiCustom.Delta": lambda v: PhiCustom(lambda c, x: 1.0, 0.5, v),
    "PhiCustom.value": lambda v: PhiCustom(lambda c, x: v, 0.5, 1.0).value(None, None),
    "FromFunction.r": lambda v: FromFunction(lambda k: v).r(0),
    "MergedDecreasing.a": lambda v: MergedDecreasing(lambda k: v, lambda k: 0.5).r(0),
    "MergedDecreasing.b": lambda v: MergedDecreasing(lambda k: 1.0, lambda k: v).r(0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1.0", True])
@pytest.mark.parametrize("site", sorted(NON_FINITE_SITES))
def test_constructors_reject_non_finite_numbers(site, value):
    with pytest.raises(FeasikError):
        NON_FINITE_SITES[site](value)


def test_subgradient_inequality_all_kinds():
    # f(y) >= f(x) + <g(x), y - x> on a thousand random pairs per kind
    rng = np.random.default_rng(7)
    dim = 3
    for f in _function_samples(rng, dim):
        for _ in range(1000):
            x = rng.uniform(-3, 3, dim)
            y = rng.uniform(-3, 3, dim)
            gap = f.value(y) - f.value(x) - float(f.subgradient(x) @ (y - x))
            assert gap >= -1e-12 * (1.0 + abs(f.value(y))), type(f).__name__


def test_max_affine_tie_breaks_to_lowest_piece():
    f = MaxAffine((([1.0, 0.0], 0.0), ([1.0, 0.0], 0.0), ([0.0, 1.0], 5.0)))
    # pieces 0 and 1 tie at value 2; the third sits at -5
    g = f.subgradient(np.array([2.0, 0.0]))
    assert np.array_equal(g, [1.0, 0.0])
    assert f.value(np.array([2.0, 0.0])) == 2.0


def test_violated_indices_examples(axis_halfspaces):
    p = axis_halfspaces
    assert violated_indices(p, np.array([1.0, -1.0]), (0, 1)) == (0,)
    assert violated_indices(p, np.array([-1.0, -1.0])) == ()
    a2 = Problem(2, a2_constraints())
    assert violated_indices(a2, np.array([2.0, 2.0])) == (0, 1)


def test_violated_indices_bad_index(axis_halfspaces):
    with pytest.raises(PoolIndexError, match="index out of pool"):
        violated_indices(axis_halfspaces, np.zeros(2), (0, 5))


def test_feasible_examples():
    a2 = Problem(2, a2_constraints())
    assert feasible(a2, np.array([0.0, 0.0]))
    assert not feasible(a2, np.array([2.0, 2.0]))
    # boundary point passes the exact sign test: f1 = f2 = 0 <= 0
    assert feasible(a2, np.array([1.0, 1.0]))


def test_feasible_is_false_outside_q_where_every_constraint_holds():
    outer = OuterSet(Box([-1.0, -1.0], [1.0, 1.0]))
    x = np.array([3.0, 0.0])
    for m in (2, STACKED_MIN_ROWS):  # the scalar loop, then the stacked pass
        pool = [Constraint(i, Halfspace([1.0, 0.0], 10.0 + i)) for i in range(m)]
        problem = Problem(2, pool, outer=outer)
        assert (problem.affine_rows is None) == (m < STACKED_MIN_ROWS)
        assert all(c.violation(x) <= 0.0 for c in pool) and not outer.member(x)
        assert not feasible(problem, x)
        assert feasible(problem, np.zeros(2))


def test_feasible_monotone_under_constraint_removal(axis_halfspaces):
    rng = np.random.default_rng(3)
    p = axis_halfspaces
    smaller = Problem(2, [p.constraint(0)])
    for _ in range(200):
        x = rng.uniform(-2, 2, 2)
        if feasible(p, x):
            assert feasible(smaller, x)


def test_metric_fixed_points_are_the_set():
    rng = np.random.default_rng(11)
    dim = 3
    for _ in range(60):
        body = random_metric_body(rng, dim)
        for _ in range(20):
            x = rng.uniform(-4, 4, dim)
            # projections land in the set up to last-ulp rounding
            assert body.violation(body.project(x)) <= 1e-12
        for _ in range(20):
            z = body.project(rng.uniform(-4, 4, dim))
            if isinstance(body, Box):
                assert np.array_equal(body.project(z), z)
            else:
                assert np.linalg.norm(body.project(z) - z) <= 1e-12


def test_outer_projection_idempotent():
    rng = np.random.default_rng(13)
    outers = [OuterSet.whole_space(),
              OuterSet(Halfspace([1.0, 2.0, -1.0], 0.5)),
              OuterSet(Ball([0.5, 0.0, 0.0], 1.25)),
              OuterSet(Box([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]))]
    for q in outers:
        for _ in range(200):
            x = rng.uniform(-5, 5, 3)
            p1 = q.project(x)
            p2 = q.project(p1)
            assert np.linalg.norm(p2 - p1) <= 1e-14 * (1.0 + np.linalg.norm(p1))


def test_interior_spot_check():
    good = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))],
                   interior=([-3.0, 0.0], 1.0))
    good.spot_check_interior(n_dirs=128)
    bad = Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))],
                  interior=([-1.0, 0.0], 1.0))  # B(z, 2) pokes out
    with pytest.raises(ConfigError):
        bad.spot_check_interior(n_dirs=128)
    with pytest.raises(ConfigError):
        Problem(2, [Constraint(0, Halfspace([1.0, 0.0], 0.0))],
                outer=OuterSet(Halfspace([0.0, 1.0], -5.0)),
                interior=([0.0, 0.0], 1.0))  # z outside Q


def test_lazy_pool():
    def pool(i):
        return Constraint(i, Halfspace([1.0, 0.0], float(i)))

    p = Problem(2, pool=pool, m=math.inf)
    assert not p.is_finite
    x = np.array([2.5, 0.0])
    assert violated_indices(p, x, range(6)) == (0, 1, 2)
    with pytest.raises(ConfigError):
        feasible(p, x)  # needs an explicit window
    assert not feasible(p, x, window=range(6))
    assert feasible(p, np.array([-1.0, 0.0]), window=range(6))


def test_problem_checks_its_integers():
    # dim and a finite lazy m were truncated with int(): 2.7 read as 2,
    # True as 1, m = 2.5 as 2.
    halfspace = [Constraint(0, Halfspace([1.0, 0.0], 0.0))]

    def pool(i):
        return Constraint(i, Halfspace([1.0, 0.0], float(i)))

    for make in (lambda: Problem(2.7, halfspace), lambda: Problem(True, halfspace),
                 lambda: Problem("2", halfspace),
                 lambda: Problem(2, pool=pool, m=2.5),
                 lambda: Problem(2, pool=pool, m=True),
                 lambda: Problem(2, pool=pool, m=math.nan)):
        with pytest.raises(ConfigError, match="must be an integer"):
            make()
    for dim in (0, -1):
        with pytest.raises(ConfigError, match="dim must be at least 1"):
            Problem(dim, pool=pool, m=3)
    for m in (0, -2, None):
        with pytest.raises(ConfigError, match="positive cardinality"):
            Problem(2, pool=pool, m=m)
    p = Problem(np.int64(2), pool=pool, m=3.0)
    assert (p.dim, p.m) == (2, 3) and type(p.dim) is type(p.m) is int
    assert Problem(2.0, halfspace).dim == 2
    assert Problem(2, pool=pool, m=math.inf).m == math.inf


def test_problem_takes_one_pool_whose_indices_are_positions():
    def pool(i):
        return Constraint(i, Halfspace([1.0], float(i)))

    listed = [Constraint(0, Halfspace([1.0], 0.0))]
    for make in (lambda: Problem(1), lambda: Problem(1, listed, pool=pool, m=1)):
        with pytest.raises(ConfigError, match="^supply exactly one of constraints= or pool=$"):
            make()
    with pytest.raises(ConfigError, match="^constraint at position 1 has index 0$"):
        Problem(1, listed * 2)


def test_constraint_cutter_validation():
    with pytest.raises(ConfigError):
        Constraint(0, Halfspace([1.0], 0.0), cutter="subgradient")
    c = Constraint(0, Sublevel(Affine([1.0], 0.0)), cutter="metric")
    assert c.cutter == "metric"
    with pytest.raises(ConfigError):
        Ball([0.0], 0.0)


# The closed forms Sublevel.distance and Sublevel.project dispatched to by
# function type before each function class gave its own, kept as the
# reference the methods must match bit for bit.

def reference_sublevel_distance(f, x):
    if isinstance(f, Affine):
        return Halfspace(f.a, f.b).distance(x)
    if isinstance(f, AbsCoordMinusC) and f.c >= 0.0:
        return max(0.0, abs(float(x[f.axis])) - f.c)
    if isinstance(f, QuadCoordMinusC) and f.c >= 0.0:
        return max(0.0, abs(float(x[f.axis])) - math.sqrt(f.c))
    if isinstance(f, SquaredDistToBall):
        return max(0.0, float(np.linalg.norm(x - f.center)) - f.radius)
    return None


def reference_sublevel_project(f, x):
    if isinstance(f, Affine):
        return Halfspace(f.a, f.b).project(x)
    if isinstance(f, AbsCoordMinusC) and f.c >= 0.0:
        y = np.array(x, dtype=np.float64)
        y[f.axis] = min(max(y[f.axis], -f.c), f.c)
        return y
    if isinstance(f, QuadCoordMinusC) and f.c >= 0.0:
        r = math.sqrt(f.c)
        y = np.array(x, dtype=np.float64)
        y[f.axis] = min(max(y[f.axis], -r), r)
        return y
    if isinstance(f, SquaredDistToBall):
        return Ball(f.center, f.radius).project(x)
    return None


COORD = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324]))
# A non-finite c is rejected at construction (see NON_FINITE_SITES).
OFFSET = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]))


@st.composite
def functions_and_points(draw):
    dim = draw(st.integers(1, 4))
    vec = st.lists(COORD, min_size=dim, max_size=dim).map(np.array)
    axis = st.integers(0, dim - 1)
    a = draw(vec.filter(lambda v: np.any(v)))
    f = draw(st.sampled_from([
        Affine(a, draw(st.floats(-1e3, 1e3))),
        AbsCoordMinusC(draw(axis), draw(OFFSET)),
        QuadCoordMinusC(draw(axis), draw(OFFSET)),
        MaxAffine(((a, 0.5), (-a, 0.5))),
        SquaredDistToBall(draw(vec), draw(st.floats(1e-3, 1e3))),
    ]))
    return f, draw(vec)


def outcome(fn, *args):
    """The bytes of a closed form's value, None, or the error it raised: a
    normal whose norm underflows divides by zero in either form."""
    try:
        v = fn(*args)
    except (ConfigError, ZeroDivisionError) as e:
        return type(e), str(e)
    return None if v is None else np.asarray(v, dtype=np.float64).tobytes()


@settings(max_examples=400, deadline=None)
@given(functions_and_points())
def test_sublevel_closed_forms_match_the_type_dispatch_bit_for_bit(case):
    f, x = case
    body = Sublevel(f)
    with np.errstate(all="ignore"):
        want_d = outcome(reference_sublevel_distance, f, x)
        want_p = outcome(reference_sublevel_project, f, x)
        for _ in range(2):  # the first call builds what the second reuses
            assert outcome(body.distance, x) == want_d
            if want_p is None:
                with pytest.raises(ConfigError, match="metric cutter unavailable"):
                    body.project(x)
            else:
                assert outcome(body.project, x) == want_p


def test_outer_set_rejects_sublevel():
    # Q needs an exact metric projection: a halfspace, ball or box.
    with pytest.raises(ConfigError, match="outer set must be"):
        OuterSet(Sublevel(Affine([1.0], 0.0)))


def test_zero_normal_affine_sublevel_fails_at_each_closed_form_use():
    body = Sublevel(Affine([0.0, 0.0], 1.0))  # constructing it is fine
    x = np.array([1.0, 2.0])
    assert body.violation(x) == -1.0
    for _ in range(2):
        with pytest.raises(ConfigError, match="normal must be nonzero"):
            body.distance(x)
        with pytest.raises(ConfigError, match="normal must be nonzero"):
            body.project(x)


def test_underflowing_halfspace_normal_is_rejected():
    # a . a underflows to 0.0: distance and projection would divide by it.
    for a in ([5e-324], [1e-300, 1e-300], [0.0, 0.0]):
        with pytest.raises(ConfigError, match="halfspace normal must be nonzero"):
            Halfspace(a, -1.0)
    body = Sublevel(Affine([5e-324], -1.0))  # fails at its first closed form
    x = np.array([1.0])
    assert body.violation(x) == 1.0
    with pytest.raises(ConfigError, match="halfspace normal must be nonzero"):
        body.distance(x)
    with pytest.raises(ConfigError, match="halfspace normal must be nonzero"):
        body.project(x)


def test_overflowing_halfspace_normal_is_rejected():
    # a . a overflowed to inf, with numpy's warning: the cut at (1, 0) was
    # then the identity with distance 0.0, and a cyclic run from there
    # ended max_iter with no correction.
    for a in ([1e200, 0.0], [1e155, 1e155], [-1e300]):
        with pytest.raises(ConfigError, match=r"halfspace normal is too long: a \. a overflows"):
            Halfspace(a, 1.0)
    assert math.isfinite(Halfspace([1e154, 1e153], 1.0).aa)


def test_overflowing_affine_normal_is_rejected():
    # Sublevel(Affine([1e200, 0], 1)) and a MaxAffine with that piece were
    # accepted: a cyclic run from (1, 0) warned "overflow encountered in
    # dot" at every step and ended max_iter with no correction.
    for make, message in [
            (lambda: Affine([1e200, 0.0], 1.0), "affine normal"),
            (lambda: Affine([1e155, 1e155], 1.0), "affine normal"),
            (lambda: Affine([1e154] * 4, 1.0), "affine normal"),
            (lambda: MaxAffine([([1.0, 0.0], 1.0), ([1e200, 0.0], 1.0)]),
             "MaxAffine piece 1 normal")]:
        with pytest.raises(ConfigError) as err:
            make()
        assert str(err.value) == f"{message} is too long: a . a overflows"
    assert Affine([1e154, 1e153], 1.0).a[0] == 1e154  # a . a is finite
    # A zero normal stays valid; only its closed forms refuse it.
    assert Sublevel(Affine([0.0, 0.0], 1.0)).violation(np.zeros(2)) == -1.0
    assert MaxAffine([([0.0, 0.0], 1.0), ([1e154, 1e153], 1.0)]).value(np.zeros(2)) == -1.0


def test_problem_refuses_sets_of_another_dimension():
    # In Problem(2, ...) a 1-vector ball was the disc around (1, 1), a
    # 1-vector box the unit square, a 3-vector halfspace raised numpy's
    # ValueError at its first sign test and axis 5 an IndexError.
    ok = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    bad = [Ball([1.0], 0.5), Box([0.0], [1.0]), Halfspace([1.0, 0.0, 0.0], 0.0),
           Sublevel(Affine([1.0], 0.0)), Sublevel(AbsCoordMinusC(axis=5, c=1.0)),
           Sublevel(QuadCoordMinusC(axis=-1, c=1.0)),
           Sublevel(MaxAffine([([1.0, 0.0], 0.0), ([1.0, 0.0, 0.0], 0.0)])),
           Sublevel(SquaredDistToBall([0.0, 0.0, 0.0], 1.0))]
    for body in bad:
        with pytest.raises(ConfigError) as err:
            Problem(2, [ok, Constraint(1, body)])
        assert str(err.value) == "constraint at position 1 is not a set in dimension 2"
        # A lazy pool refuses it where it materializes the constraint.
        lazy = Problem(2, pool=lambda i, b=body: Constraint(i, b if i else ok.body), m=3)
        assert lazy.constraint(0).body is ok.body
        with pytest.raises(ConfigError) as err:
            lazy.constraint(1)
        assert str(err.value) == "constraint at position 1 is not a set in dimension 2"
    for body in (Box([0.0], [1.0]), Ball([0.0, 0.0, 0.0], 1.0)):
        with pytest.raises(ConfigError) as err:
            Problem(2, [ok], outer=OuterSet(body))
        assert str(err.value) == "outer set is not a set in dimension 2"
    fits = Problem(2, [ok, Constraint(1, Sublevel(AbsCoordMinusC(axis=1.0, c=1.0)))],
                   outer=OuterSet(Box([-1.0, -1.0], [1.0, 1.0])))
    assert fits.constraint(1).body.f.axis == 1 and type(fits.constraint(1).body.f.axis) is int
    # An axis that is not an integer was compared, or indexed, only in use.
    for axis in ("a", True, 1.5):
        with pytest.raises(ConfigError, match="^axis must be an integer"):
            QuadCoordMinusC(axis=axis, c=1.0)


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 300), step=st.sampled_from([1, 2, 3, 7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ndarray_dot_is_matmul_bit_for_bit(d, step, seed):
    # The residuals use a.dot(x) in place of a @ x; mixed magnitudes make
    # the summation order visible in the last bits.  Only positive strides
    # agree: with a negative stride (x[::-1]) matmul sums in another order
    # and differs in the last bit in about 40% of cases.  Iterates are
    # fresh, contiguous arrays.
    rng = np.random.default_rng(seed)

    def vector():
        base = rng.standard_normal(d * abs(step)) \
            * 10.0 ** rng.integers(-30, 31, d * abs(step))
        return base[::step]

    a, x = vector(), vector()
    assert _bits(a.dot(x)) == _bits(a @ x)
    contiguous = np.ascontiguousarray(a)
    assert _bits(contiguous.dot(x)) == _bits(contiguous @ x)
    h = Halfspace(contiguous, 0.5)
    assert _bits(h.violation(x)) == _bits(float(contiguous @ x) - 0.5)
    assert _bits(Affine(contiguous, 0.5).value(x)) == _bits(float(contiguous @ x) - 0.5)
