import struct

import numpy as np
import pytest

from feasik import (Affine, Ball, Box, Constraint, Halfspace, OuterSet,
                    Problem, Sublevel)


@pytest.fixture
def axis_halfspaces():
    """C_0 = {x <= 0}, C_1 = {y <= 0} in the plane, Q = R^2."""
    return Problem(2, [
        Constraint(0, Halfspace([1.0, 0.0], 0.0)),
        Constraint(1, Halfspace([0.0, 1.0], 0.0)),
    ], interior=([-3.0, -3.0], 1.0))


def packed_entries(record) -> list:
    """A record's ``per_index`` as (index, the entry's four floats as
    bytes) pairs, so that signed zeros and NaN payloads count."""
    return [(i, struct.pack("4d", *e)) for i, e in zip(record.active, record.per_index)]


def random_metric_body(rng, dim):
    """A random halfspace, ball or box."""
    kind = rng.integers(0, 3)
    if kind == 0:
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        return Halfspace(a, float(rng.uniform(-1.0, 1.0)))
    if kind == 1:
        return Ball(rng.uniform(-1.0, 1.0, dim), float(rng.uniform(0.5, 2.0)))
    lo = rng.uniform(-2.0, 0.0, dim)
    return Box(lo, lo + rng.uniform(0.5, 2.0, dim))


def interior_point_with_margin(rng, body, dim, margin):
    """A point y with B(y, margin) inside the body, or None if the draw failed."""
    if isinstance(body, Halfspace):
        base = rng.uniform(-2.0, 2.0, dim)
        y = body.project(base)
        depth = margin * float(rng.uniform(1.01, 3.0))
        return y - depth * body.a / np.linalg.norm(body.a)
    if isinstance(body, Ball):
        if body.radius <= margin:
            return None
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        return body.center + float(rng.uniform(0.0, body.radius - margin)) * u
    width = body.hi - body.lo
    if np.any(width <= 2.0 * margin):
        return None
    return rng.uniform(body.lo + margin, body.hi - margin)


def outside_point(rng, body, dim, tries=50):
    for _ in range(tries):
        x = rng.uniform(-4.0, 4.0, dim)
        if not body.violation(x) <= 0.0:
            return x
    return None
