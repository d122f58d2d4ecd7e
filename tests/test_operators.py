import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (AbsCoordMinusC, Affine, Ball, Box, ConfigError, Constraint,
                    Halfspace, InconsistentConstraintError, QuadCoordMinusC,
                    SquaredDistToBall, Sublevel, check_cutter_property,
                    check_single_operator, evaluate_cutter, project_subgradient,
                    random_slater_polyhedron)

from feasik.model import norm

from conftest import interior_point_with_margin, outside_point, random_metric_body


def test_metric_cutter_axis_halfspace():
    ce = evaluate_cutter(Constraint(0, Halfspace([1.0, 0.0], 0.0)),
                         np.array([2.0, 3.0]))
    assert np.array_equal(ce.image, [0.0, 3.0])
    assert np.array_equal(ce.displacement, [-2.0, 0.0])
    assert ce.displacement_norm == 2.0
    assert ce.residual == 2.0


def test_metric_cutter_identity_inside():
    body = Ball([0.0, 0.0], 2.0)
    x = np.array([0.5, -0.5])
    ce = evaluate_cutter(Constraint(0, body), x)
    assert np.array_equal(ce.image, x)
    assert ce.displacement_norm == 0.0


def test_metric_cutter_against_grid_search():
    # independent oracle: dense grid minimization of ||z - x|| over the set
    body = Halfspace([1.0, 1.0], 1.0)
    x = np.array([2.0, 2.0])
    ts = np.linspace(-1.0, 3.0, 801)
    gx, gy = np.meshgrid(ts, ts)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = pts[pts @ body.a <= body.b]
    best = inside[np.argmin(np.linalg.norm(inside - x, axis=1))]
    ce = evaluate_cutter(Constraint(0, body), x)
    spacing = ts[1] - ts[0]
    assert np.linalg.norm(ce.image - best) <= spacing * 2
    assert np.allclose(ce.image, [0.5, 0.5], atol=1e-15)


def test_project_subgradient_hand_values():
    quad = QuadCoordMinusC(axis=0, c=1.0)
    ce = project_subgradient(quad, np.array([2.0, 0.0]))
    assert np.array_equal(ce.image, [1.25, 0.0])
    assert ce.residual == 3.0

    absf = AbsCoordMinusC(axis=1, c=1.0)
    ce = project_subgradient(absf, np.array([0.0, 2.0]))
    assert np.array_equal(ce.image, [0.0, 1.0])

    ce = project_subgradient(absf, np.array([0.0, 0.5]))
    assert np.array_equal(ce.image, [0.0, 0.5])
    assert ce.displacement_norm == 0.0


def test_project_subgradient_inconsistent():
    empty = QuadCoordMinusC(axis=0, c=-1.0)  # x^2 + 1 <= 0 is empty
    with pytest.raises(InconsistentConstraintError, match="zero subgradient"):
        project_subgradient(empty, np.array([0.0, 0.0]))


def test_subgradient_image_inner_product_identity():
    # <g(x), image - x> == -f(x) by construction of the step
    rng = np.random.default_rng(5)
    for _ in range(500):
        f = QuadCoordMinusC(axis=0, c=float(rng.uniform(0.1, 2.0)))
        x = rng.uniform(-4.0, 4.0, 2)
        if f.value(x) <= 0.0:
            continue
        ce = project_subgradient(f, x)
        # The stored displacement is the image difference, bit for bit.
        assert np.array_equal(ce.displacement, ce.image - x)
        lhs = float(f.subgradient(x) @ (ce.image - x))
        assert abs(lhs + f.value(x)) <= 1e-12 * (1.0 + abs(f.value(x)))


def test_check_cutter_property_hand_values():
    c = Constraint(0, Halfspace([1.0, 0.0], 0.0))
    z = np.array([-1.0, 3.0])
    x = np.array([2.0, 3.0])
    lhs, rhs, ok = check_cutter_property(c, x, z)
    assert (lhs, rhs, ok) == (6.0, 4.0, True)
    # x already a fixed point: both sides vanish
    lhs, rhs, ok = check_cutter_property(c, z, z)
    assert (lhs, rhs, ok) == (0.0, 0.0, True)


def test_cutter_property_random_sweep():
    rng = np.random.default_rng(17)
    dim = 3
    checked = 0
    while checked < 1000:
        body = random_metric_body(rng, dim)
        c = Constraint(0, body)
        x = rng.uniform(-4, 4, dim)
        z = body.project(rng.uniform(-4, 4, dim))
        _, _, ok = check_cutter_property(c, x, z)
        assert ok
        checked += 1


def test_cutter_property_subgradient_sweep():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 1000:
        c = float(rng.uniform(0.2, 2.0))
        body = Sublevel(QuadCoordMinusC(axis=0, c=c))
        con = Constraint(0, body)
        x = rng.uniform(-4, 4, 2)
        z = rng.uniform(-np.sqrt(c), np.sqrt(c)) * np.array([1.0, 0.0]) \
            + np.array([0.0, rng.uniform(-3, 3)])
        assert body.member(z)
        _, _, ok = check_cutter_property(con, x, z)
        assert ok
        checked += 1


def test_metric_projections_firmly_nonexpansive():
    rng = np.random.default_rng(23)
    dim = 3
    for _ in range(400):
        body = random_metric_body(rng, dim)
        x = rng.uniform(-4, 4, dim)
        y = rng.uniform(-4, 4, dim)
        px, py = body.project(x), body.project(y)
        d = px - py
        assert float(d @ d) <= float(d @ (x - y)) + 1e-10


def test_sublevel_metric_override_matches_halfspace():
    sub = Constraint(0, Sublevel(Affine([2.0, 0.0], 1.0)), cutter="metric")
    half = Constraint(0, Halfspace([2.0, 0.0], 1.0))
    x = np.array([3.0, 1.0])
    assert np.allclose(evaluate_cutter(sub, x).image,
                       evaluate_cutter(half, x).image, atol=0, rtol=0)


def test_zero_displacement_iff_member():
    rng = np.random.default_rng(29)
    cons = [Constraint(0, Halfspace([1.0, -2.0], 0.5)),
            Constraint(0, Ball([0.5, 0.0], 1.0)),
            Constraint(0, Box([-1.0, -1.0], [1.0, 1.0])),
            Constraint(0, Sublevel(QuadCoordMinusC(axis=0, c=1.0)))]
    for con in cons:
        for _ in range(300):
            x = rng.uniform(-3, 3, 2)
            ce = evaluate_cutter(con, x)
            assert (ce.displacement_norm == 0.0) == con.member(x)


def float_bytes(*values):
    return struct.pack(f"{len(values)}d", *values)


@st.composite
def halfspaces_and_points(draw):
    """A halfspace and a point: on the facet exactly (integer data with
    b = a @ x), projected onto it (rounding noise either side), or at
    random scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["facet", "projected", "random"]))
    if kind == "facet":
        a = rng.integers(-5, 6, dim).astype(float)
        a[0] = a[0] or 1.0
        x = rng.integers(-9, 10, dim).astype(float)
        return Halfspace(a, float(a @ x)), x
    a = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
    x = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
    b = float(rng.standard_normal()) * 10.0 ** rng.integers(-3, 4)
    if kind == "projected":
        x = x - ((float(a @ x) - b) / float(a @ a)) * a
    return Halfspace(a, b), x


def halfspace_reference(body, x):
    """The halfspace's metric cutter as three separate evaluations with
    numpy's own norm, each taking its own violation: the projection, the
    displacement and the distance."""
    a, b = body.a, body.b
    v = float(a @ x) - b
    image = np.array(x, dtype=np.float64) if v <= 0.0 else x - (v / float(a @ a)) * a
    v = float(a @ x) - b
    distance = 0.0 if v <= 0.0 else v / float(np.linalg.norm(a))
    return image, float(np.linalg.norm(image - x)), distance


@settings(max_examples=300, deadline=None)
@given(halfspaces_and_points())
def test_halfspace_cutter_matches_separate_evaluations(case):
    body, x = case
    ce = evaluate_cutter(Constraint(0, body), x)
    image = body.project(x)
    separate = (image, float(np.linalg.norm(image - x)), body.distance(x))
    for want in (separate, halfspace_reference(body, x)):
        assert ce.image.tobytes() == want[0].tobytes()
        assert float_bytes(ce.displacement_norm, ce.residual) == float_bytes(*want[1:])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.integers(1, 3))
def test_norm_is_numpy_norm_bit_for_bit(seed, n, stride):
    # Strided views too: numpy ravels them to a contiguous copy first.
    rng = np.random.default_rng(seed)
    big = rng.standard_normal(n * stride) * 10.0 ** rng.integers(-300, 300)
    if seed % 2:
        big *= 10.0 ** rng.integers(-5, 6, n * stride)
    with np.errstate(all="ignore"):
        for v in (big, big[::stride], big[::-stride]):
            assert float_bytes(norm(v)) == float_bytes(float(np.linalg.norm(v)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_norm_sites_are_numpy_norm_bit_for_bit(seed, dim):
    # Each body that takes a vector norm, against its np.linalg.norm form,
    # kept here as the reference.  Magnitudes stay where squares are finite.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-100, 100)
    x, c, y = (rng.standard_normal(dim) * scale for _ in range(3))
    r = float(rng.uniform(0.1, 3.0)) * scale
    d = float(np.linalg.norm(x - c))
    ball, sq = Ball(c, r), SquaredDistToBall(c, r)
    assert float_bytes(ball.violation(x)) == float_bytes(d - r)
    want = np.array(x) if d <= r else c + (r / d) * (x - c)
    assert ball.project(x).tobytes() == want.tobytes()
    e = max(0.0, d - r)
    assert float_bytes(sq.value(x)) == float_bytes(e * e)
    want = np.zeros_like(x) if d <= r else (2.0 * (d - r) / d) * (x - c)
    assert sq.subgradient(x).tobytes() == want.tobytes()
    box = Box(np.minimum(c, y), np.maximum(c, y))
    want = float(np.linalg.norm(x - box.project(x)))
    assert float_bytes(box.distance(x)) == float_bytes(want)

    # The certificate squares its norms as d * d, which is correctly
    # rounded where pow(d, 2) need not be: its squares get many draws.
    for _ in range(50):
        t, y = (rng.standard_normal(dim) * scale for _ in range(2))
        alpha = float(rng.uniform(0.1, 2.0))
        dt = float(np.linalg.norm(t - x))
        u = x + (alpha * ((r + dt) / dt)) * (t - x)
        du = u - x
        n_uy, n_xy = float(np.linalg.norm(u - y)), float(np.linalg.norm(x - y))
        lhs = n_uy * n_uy
        rhs = n_xy * n_xy - ((2.0 - alpha) / alpha) * float(du @ du)
        got = check_single_operator(lambda v: t, x, y, r, alpha)
        assert float_bytes(*got[:2]) == float_bytes(lhs, rhs)

    problem, x0 = random_slater_polyhedron(seed, dim=dim, m=3, interior_radius=0.5,
                                           sublevel=False)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, size=dim)
    for i in range(3):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        b = float(a @ z) + 0.5 * rng.uniform(1.05, 3.0)
        body = problem.constraint(i).body
        assert (body.a.tobytes(), float_bytes(body.b)) == (a.tobytes(), float_bytes(b))
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    assert x0.tobytes() == (z + rng.uniform(3.0, 8.0) * u).tobytes()
