"""Seeded random test instances with a certified Slater interior."""

from __future__ import annotations

import numpy as np

from .model import (Affine, Box, Constraint, Halfspace, OuterSet, Problem,
                    Sublevel, norm)


def random_slater_polyhedron(seed: int, dim: int = None, m: int = None,
                             interior_radius: float = None,
                             sublevel: bool = True,
                             boxed_outer: bool = False):
    """A random polyhedral instance containing a ball B(z, 2R) in its
    interior, plus a starting point in Q.

    Each facet {<a_i, x> <= b_i} is placed at distance at least 1.05 * 2R
    from the center z, so the certified interior survives exact sign tests
    with margin.  With ``sublevel`` the facets are sublevel sets of affine
    functions (subgradient cutters, usable with the subgradient-norm phi);
    otherwise they are plain halfspaces with metric cutters.

    Returns (problem, x0).
    """
    rng = np.random.default_rng(seed)
    if dim is None:
        dim = int(rng.integers(2, 9))
    if m is None:
        m = int(rng.integers(3, 13))
    if interior_radius is None:
        interior_radius = float(rng.uniform(0.1, 1.0))
    z = rng.uniform(-2.0, 2.0, size=dim)
    constraints = []
    for i in range(m):
        a = rng.standard_normal(dim)
        a /= norm(a)
        margin = interior_radius * rng.uniform(1.05, 3.0)
        b = float(a @ z) + margin
        body = Sublevel(Affine(a, b)) if sublevel else Halfspace(a, b)
        constraints.append(Constraint(i, body))
    outer = OuterSet.whole_space()
    if boxed_outer:
        half = interior_radius * 2.0 + 8.0
        outer = OuterSet(Box(z - half, z + half))
    problem = Problem(dim, constraints, outer=outer,
                      interior=(z, interior_radius / 2.0))
    direction = rng.standard_normal(dim)
    direction /= norm(direction)
    x0 = outer.project(z + rng.uniform(3.0, 8.0) * direction)
    return problem, x0
