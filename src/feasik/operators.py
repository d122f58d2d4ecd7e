"""Cutter applications: metric projections, the subgradient projection, and
the cutter-property checker."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InconsistentConstraintError
from .model import Constraint, Vector, norm


class CutterEval(NamedTuple):
    """One cutter application T_i(x).

    ``residual`` is f_i(x) for sublevel bodies and the exact distance
    d(x, C_i) otherwise.  ``displacement`` is T(x) - x, None where a
    subgradient step leaves x, and ``displacement_norm`` its norm.
    ``subgrad_sq`` is g.g for a subgradient projection that moved x, else
    None.  An image that equals x may be x itself.
    """

    image: Vector
    displacement_norm: float
    residual: float
    subgrad_sq: Optional[float] = None
    displacement: Optional[Vector] = None


def project_subgradient(f, x: Vector) -> CutterEval:
    """One subgradient-projection step toward {f <= 0}.

    Returns x unchanged when f(x) <= 0.  A positive value with a zero
    subgradient means the sublevel set is empty and raises
    InconsistentConstraintError.
    """
    val = f.value(x)
    if val <= 0.0:
        return CutterEval(x, 0.0, val)
    g = f.subgradient(x)
    gg = float(g.dot(g))
    if gg == 0.0:
        raise InconsistentConstraintError(
            "inconsistent constraint: positive value with zero subgradient")
    image = x - (val / gg) * g
    d = image - x
    return CutterEval(image, norm(d), val, gg, d)


def evaluate_cutter(constraint: Constraint, x: Vector) -> CutterEval:
    """Apply the constraint's cutter (metric or subgradient) at x."""
    if constraint.cutter == "subgradient":
        return project_subgradient(constraint.body.f, x)
    image, residual = constraint.body.cut(x)
    d = image - x
    return CutterEval(image, norm(d), residual, None, d)


INEQUALITY_RTOL = 1e-10  # relative, of the cutter and single-operator checks


def check_cutter_property(T, x: Vector, z: Vector):
    """Check <T(x)-x, z-x> >= ||T(x)-x||^2 for z in fix T.

    ``T`` is a Constraint or a point map.  Returns (lhs, rhs, ok); the caller
    guarantees z is a fixed point.
    """
    image = evaluate_cutter(T, x).image if isinstance(T, Constraint) else T(x)
    d = image - x
    lhs = float(d @ (z - x))
    rhs = float(d @ d)
    return lhs, rhs, lhs >= rhs - INEQUALITY_RTOL * (1.0 + rhs)
