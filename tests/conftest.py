import functools
import struct

import numpy as np
import pytest

from feasik import (AbsCoordMinusC, Affine, Ball, Box, Constraint, Halfspace,
                    Problem, QuadCoordMinusC, Sublevel, random_slater_polyhedron)
from feasik.certificates import a1_problem
from feasik.engine import ZERO_ENTRY
from feasik.model import FLOAT32_MIN_ENTRIES
from reference import lazy_twin


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


def affine_body(a, b, sublevel):
    return Sublevel(Affine(a, b)) if sublevel else Halfspace(a, b)


def slater_pool(seed, dim, m, sublevel_every=3):
    """A random polyhedron around z = 0 with a certified interior, mixing
    halfspaces and affine sublevel sets, and a start outside it."""
    rng = np.random.default_rng(seed)
    cons = []
    for i in range(m):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        b = float(rng.uniform(0.6, 2.0))
        cons.append(Constraint(i, affine_body(a, b, i % sublevel_every == 0)))
    problem = Problem(dim, cons, interior=(np.zeros(dim), 0.25))
    u = rng.standard_normal(dim)
    return problem, 6.0 * u / np.linalg.norm(u)


def large_pool(seed, dim=32, m=FLOAT32_MIN_ENTRIES // 32):
    """A random polyhedron of ``FLOAT32_MIN_ENTRIES`` entries around B(z, 2R),
    every third facet an affine sublevel set, with a ball (a zero row) at a
    middle position that contains B(z, 2R) and is not the remotest set."""
    pool, x0 = random_slater_polyhedron(seed, dim=dim, m=m - 1, interior_radius=0.5,
                                        sublevel=False)
    bodies = [pool.constraint(i).body for i in pool.indices()]
    bodies = [Sublevel(Affine(b.a, b.b)) if i % 3 == 0 else b
              for i, b in enumerate(bodies)]
    z, big_r = pool.interior
    u = np.random.default_rng(seed).standard_normal(dim)
    bodies.insert(m // 2, Ball(z + 0.1 * u / np.linalg.norm(u), 2.0 * big_r + 3.0))
    problem = Problem(dim, [Constraint(i, b) for i, b in enumerate(bodies)],
                      interior=pool.interior)
    return problem, x0


def small_pool(seed):
    """Ten scalar rows around one interior point: four halfspaces, a ball, a
    box, and sublevel rows of Affine, AbsCoordMinusC (metric and subgradient
    cutters) and QuadCoordMinusC."""
    pool, x0 = random_slater_polyhedron(seed, dim=3, m=4, interior_radius=0.5,
                                        sublevel=False)
    z, big_r = pool.interior
    a = np.random.default_rng(seed).standard_normal(3)
    slab = Sublevel(AbsCoordMinusC(axis=0, c=abs(float(z[0])) + 1.5))
    cons = [pool.constraint(i) for i in pool.indices()] + [
        Constraint(4, Ball(z, 2.0 * big_r + 1.0)),
        Constraint(5, Box(z - 3.0, z + 4.0)),
        Constraint(6, Sublevel(Affine(a, float(a @ z) + 1.0))),
        Constraint(7, slab, cutter="metric"),
        Constraint(8, slab),
        Constraint(9, Sublevel(QuadCoordMinusC(axis=1, c=(abs(float(z[1])) + 1.0) ** 2)))]
    return Problem(3, cons, interior=pool.interior), 3.0 * x0


@functools.cache
def quiet_pool(kind):
    """(problem, start): 24 float64 or 2,048 float32 stacked rows with a ball
    (a zero row) and sublevel rows, which the pass never settles; the 24
    behind a lazy ``pool=``; a scalar pool of every body kind; and the A.1
    geometry at y = 2^-538, whose violated row 1 the cut does not move
    (``model.norm``'s d.d underflows), from x on either side of row 0."""
    if kind in ("float64", "float32", "lazy"):
        problem, x0 = large_pool(1, dim=4, m=24) if kind != "float32" else large_pool(1)
        return lazy_twin(problem) if kind == "lazy" else problem, 3.0 * x0
    if kind == "small":
        return small_pool(1)
    return a1_problem(), [1.0 if kind == "a1_tail_moving" else 0.0, 2.0 ** -538]


def zero_entries(problem, records) -> int:
    """How many entries of ``solve``'s records are ``ZERO_ENTRY`` itself,
    checking that they are exactly those of the rows the pass settles."""
    rows, passes, shared = problem.affine_rows, {}, 0
    for r in records:
        if r.active and rows is not None:
            p = passes.get(id(r.x)) or passes.setdefault(id(r.x), rows.at(r.x))
            for i, e in zip(r.active, r.per_index):
                assert (e is ZERO_ENTRY) == bool(p is not None and p.settled[i])
                shared += e is ZERO_ENTRY
    return shared
