"""Problem data model: convex functions with subgradient oracles, constraint
bodies, outer sets and full problem instances.

Points are plain 1-D ``numpy.float64`` arrays.  Constraint indices are
0-based positions in the pool.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import reprlib
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, PoolIndexError

Vector = np.ndarray


def as_vector(coords, dim: Optional[int] = None) -> Vector:
    """Coerce to a finite 1-D float64 array, optionally checking the dimension.
    A string, a boolean or another non-real is not a coordinate: an array
    is checked by its dtype, anything else entry by entry."""
    if isinstance(coords, np.ndarray):
        if coords.dtype.kind not in "fiu":
            raise ConfigError(f"coordinates must be numbers, not dtype {coords.dtype}")
    elif isinstance(coords, (str, bytes)) or not hasattr(coords, "__iter__"):
        raise ConfigError(f"expected a 1-D vector, got {reprlib.repr(coords)}")
    else:
        for v in coords:  # an exact float skips the slower ABC check
            if type(v) is not float and (isinstance(v, bool)
                                         or not isinstance(v, numbers.Real)):
                raise ConfigError(f"coordinates must be numbers, not {reprlib.repr(v)}")
    x = np.asarray(coords, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("vector has non-finite coordinates")
    if dim is not None and x.shape[0] != dim:
        raise ConfigError(f"expected dimension {dim}, got {x.shape[0]}")
    return x


def as_integer(value, what: str = "index") -> int:
    """An integral number as an int: 2, numpy's 2 and 2.0 are 2; a boolean,
    2.5 or a string raises ConfigError naming ``what``."""
    if type(value) is int or (  # an exact int skips the slower ABC check
            isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{what} must be an integer, not {reprlib.repr(value)}")


def as_real(value, what: str) -> float:
    """A finite real number as a float; a boolean or a string is not a
    number, and NaN and the infinities are not finite.  Raises ConfigError
    naming ``what``."""
    if type(value) is float and math.isfinite(value):  # skips the ABC check
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value := float(value)):
                return value
        raise ConfigError(f"{what} must be a finite number, not {reprlib.repr(value)}")
    raise ConfigError(f"{what} must be a number, not {reprlib.repr(value)}")


def _refuse_long(a: Vector, what: str) -> None:
    """A ConfigError naming the vector ``what`` where ``float(a . a)``
    overflows.  Below 2^511 in norm it cannot, and for small d Python's
    overflow-safe ``hypot`` costs less than numpy's error state."""
    if math.hypot(*a.tolist()) >= 2.0 ** 511:
        with np.errstate(over="ignore"):  # refused, not warned
            if float(a.dot(a)) == math.inf:
                raise ConfigError(f"{what} is too long: a . a overflows")


def norm(v: Vector) -> float:
    """``float(np.linalg.norm(v))`` for a 1-D float64 array, without the
    dispatch: numpy's 2-norm of a vector is ``sqrt(v.dot(v))`` over
    ``v.ravel()``, and so is this, bit for bit."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# Convex functions with deterministic subgradient selection
# ---------------------------------------------------------------------------

class ConvexFunction:
    """A real-valued convex function with a chosen subgradient at every point.

    Subclasses implement ``value`` and ``subgradient``; the selection is
    deterministic (ties in piecewise definitions break toward the lowest
    piece index).  Where the sublevel set {f <= 0} has known geometry, they
    also give the exact distance to it and the projection onto it; None
    means no closed form.
    """

    def value(self, x: Vector) -> float:
        raise NotImplementedError

    def subgradient(self, x: Vector) -> Vector:
        raise NotImplementedError

    def sublevel_distance(self, x: Vector) -> Optional[float]:
        return None

    def sublevel_project(self, x: Vector) -> Optional[Vector]:
        return None

    def fits(self, dim: int) -> bool:
        """Whether f is a function on R^dim: every vector it holds has dim
        entries and every axis lies in [0, dim)."""
        return True


@dataclass(frozen=True)
class Affine(ConvexFunction):
    """f(x) = <a, x> - b, with sublevel set {x : <a, x> <= b}."""

    a: Vector
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", as_real(self.b, "b"))
        _refuse_long(self.a, "affine normal")

    def value(self, x):
        return float(self.a.dot(x)) - self.b

    def subgradient(self, x):
        return self.a

    def fits(self, dim):
        return len(self.a) == dim

    @functools.cached_property
    def _halfspace(self) -> "Halfspace":
        # Built at the first closed-form use, which a zero normal fails.
        return Halfspace(self.a, self.b)

    def sublevel_distance(self, x):
        return self._halfspace.distance(x)

    def sublevel_project(self, x):
        return self._halfspace.project(x)


class _CoordSlab(ConvexFunction):
    """A function of x[axis] whose sublevel set, for c >= 0, is the slab
    |x[axis]| <= h with h = ``_half_width()``; empty for c < 0."""

    def __post_init__(self):
        object.__setattr__(self, "axis", as_integer(self.axis, "axis"))
        object.__setattr__(self, "c", as_real(self.c, "c"))

    def sublevel_distance(self, x):
        if not self.c >= 0.0:
            return None
        return max(0.0, abs(float(x[self.axis])) - self._half_width())

    def sublevel_project(self, x):
        if not self.c >= 0.0:
            return None
        h = self._half_width()
        y = np.array(x, dtype=np.float64)
        y[self.axis] = min(max(y[self.axis], -h), h)
        return y

    def fits(self, dim):
        return 0 <= self.axis < dim


@dataclass(frozen=True)
class AbsCoordMinusC(_CoordSlab):
    """f(x) = |x[axis]| - c."""

    axis: int
    c: float

    def value(self, x):
        return abs(float(x[self.axis])) - self.c

    def subgradient(self, x):
        g = np.zeros_like(x)
        t = float(x[self.axis])
        # sign(0) = 0 is a valid subgradient of |.| at the origin
        g[self.axis] = math.copysign(1.0, t) if t != 0.0 else 0.0
        return g

    def _half_width(self):
        return self.c


@dataclass(frozen=True)
class QuadCoordMinusC(_CoordSlab):
    """f(x) = x[axis]^2 - c."""

    axis: int
    c: float

    def value(self, x):
        t = float(x[self.axis])
        return t * t - self.c

    def subgradient(self, x):
        g = np.zeros_like(x)
        g[self.axis] = 2.0 * float(x[self.axis])
        return g

    def _half_width(self):
        return math.sqrt(self.c)


@dataclass(frozen=True)
class MaxAffine(ConvexFunction):
    """f(x) = max_j (<a_j, x> - b_j); the active piece with the lowest index
    supplies the subgradient."""

    pieces: tuple  # of (a: Vector, b: float)

    def __post_init__(self):
        if not self.pieces:
            raise ConfigError("MaxAffine needs at least one piece")
        pieces = tuple((as_vector(a), as_real(b, "b")) for a, b in self.pieces)
        for j, (a, _) in enumerate(pieces):
            _refuse_long(a, f"MaxAffine piece {j} normal")
        object.__setattr__(self, "pieces", pieces)

    def fits(self, dim):
        return all(len(a) == dim for a, _ in self.pieces)

    def _active(self, x):
        vals = [float(a.dot(x)) - b for a, b in self.pieces]
        best = max(vals)
        return vals.index(best), best

    def value(self, x):
        return self._active(x)[1]

    def subgradient(self, x):
        j, _ = self._active(x)
        return self.pieces[j][0]


@dataclass(frozen=True)
class SquaredDistToBall(ConvexFunction):
    """f(x) = dist(x, B(center, radius))^2; differentiable everywhere."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", as_real(self.radius, "ball radius"))
        if self.radius <= 0.0:
            raise ConfigError("ball radius must be positive")

    def value(self, x):
        e = max(0.0, norm(x - self.center) - self.radius)
        return e * e

    def subgradient(self, x):
        diff = x - self.center
        d = norm(diff)
        if d <= self.radius:
            return np.zeros_like(x)
        return (2.0 * (d - self.radius) / d) * diff

    @functools.cached_property
    def _ball(self) -> "Ball":
        return Ball(self.center, self.radius)

    def sublevel_distance(self, x):
        return self._ball.distance(x)

    def sublevel_project(self, x):
        return self._ball.project(x)

    def fits(self, dim):
        return len(self.center) == dim


# ---------------------------------------------------------------------------
# Constraint bodies
# ---------------------------------------------------------------------------

class Body:
    """A closed convex set.  ``violation`` is a signed measure that is <= 0
    exactly on the set; ``distance`` is the exact Euclidean distance when a
    closed form exists (else None).  A constraint on the body uses
    ``default_cutter`` unless it names another."""

    default_cutter = "metric"

    def violation(self, x: Vector) -> float:
        """At a C-contiguous x, as ``solve``'s iterates are: a dot product
        over a strided view of the same values may round differently."""
        raise NotImplementedError

    def distance(self, x: Vector) -> Optional[float]:
        return None

    def project(self, x: Vector) -> Vector:
        raise ConfigError(f"{type(self).__name__} has no closed-form projection")

    def cut(self, x: Vector) -> tuple:
        """(project(x), distance(x)): the metric cutter's image and residual."""
        return self.project(x), self.distance(x)

    def fits(self, dim: int) -> bool:
        """Whether the body is a set in R^dim: every vector it holds has dim
        entries and every axis lies in [0, dim)."""
        return True


@dataclass(frozen=True)
class Halfspace(Body):
    """{x : <a, x> <= b} with 0 < a . a < inf, which an a that underflows
    or overflows fails.  ``aa`` is float(a . a) and ``a_norm`` its root,
    ``norm(a)`` bit for bit."""

    a: Vector
    b: float

    @np.errstate(over="ignore")  # an a . a past the float range is refused, not warned
    def __post_init__(self):
        a = np.ascontiguousarray(as_vector(self.a))
        aa = float(a.dot(a))
        if not aa > 0.0:
            raise ConfigError("halfspace normal must be nonzero")
        if aa == math.inf:
            raise ConfigError("halfspace normal is too long: a . a overflows")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_real(self.b, "b"))
        object.__setattr__(self, "aa", aa)
        object.__setattr__(self, "a_norm", math.sqrt(aa))

    def violation(self, x):
        # ndarray.dot skips matmul's dispatch; for 1-D float64 vectors with
        # positive strides both reach the same dot kernel, bit for bit.
        return float(self.a.dot(x)) - self.b

    def distance(self, x):
        return self._distance(self.violation(x))

    def project(self, x):
        return self._project(x, self.violation(x))

    def cut(self, x):
        # One violation serves the image and the distance.
        v = self.violation(x)
        return self._project(x, v), self._distance(v)

    def _distance(self, v):
        return 0.0 if v <= 0.0 else v / self.a_norm

    def _project(self, x, v):
        if v <= 0.0:
            return x
        return x - (v / self.aa) * self.a

    def fits(self, dim):
        return len(self.a) == dim


@dataclass(frozen=True)
class Ball(Body):
    """{x : ||x - center|| <= radius}."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", as_real(self.radius, "ball radius"))
        if self.radius <= 0.0:
            raise ConfigError("ball radius must be positive")

    def violation(self, x):
        return norm(x - self.center) - self.radius

    def distance(self, x):
        return max(0.0, self.violation(x))

    def project(self, x):
        diff = x - self.center
        d = norm(diff)
        if d <= self.radius:
            return np.array(x, dtype=np.float64)
        return self.center + (self.radius / d) * diff

    def fits(self, dim):
        return len(self.center) == dim


@dataclass(frozen=True)
class Box(Body):
    """{x : lo <= x <= hi} componentwise."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi, dim=lo.shape[0])
        if np.any(lo > hi):
            raise ConfigError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def violation(self, x):
        return float(np.max(np.maximum(self.lo - x, x - self.hi)))

    def distance(self, x):
        return norm(x - self.project(x))

    def project(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def fits(self, dim):
        return len(self.lo) == dim  # hi has lo's length


@dataclass(frozen=True)
class Sublevel(Body):
    """{x : f(x) <= 0} for a convex function f with a subgradient oracle."""

    default_cutter = "subgradient"
    f: ConvexFunction

    def violation(self, x):
        return self.f.value(x)

    def distance(self, x):
        return self.f.sublevel_distance(x)

    def project(self, x):
        y = self.f.sublevel_project(x)
        if y is None:
            raise ConfigError(
                f"metric cutter unavailable for sublevel of {type(self.f).__name__}")
        return y

    def cut(self, x):
        # The image of the metric cutter; its residual is f(x).
        return self.project(x), self.violation(x)

    def fits(self, dim):
        return self.f.fits(dim)


METRIC_BODIES = (Halfspace, Ball, Box)


# ---------------------------------------------------------------------------
# Constraints, outer set, problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """One constraint set C_i: a body plus the cutter used to approach it.

    ``cutter`` is "metric" for Halfspace/Ball/Box and "subgradient" for
    Sublevel bodies by default; Sublevel bodies with closed-form projections
    accept cutter="metric" as an override.
    """

    index: int
    body: Body
    cutter: str = ""

    def __post_init__(self):
        kind = self.cutter
        if not kind:
            kind = self.body.default_cutter
            object.__setattr__(self, "cutter", kind)
        if kind not in ("metric", "subgradient"):
            raise ConfigError(f"unknown cutter kind {kind!r}")
        if kind == "subgradient" and not isinstance(self.body, Sublevel):
            raise ConfigError("subgradient cutter requires a sublevel body")

    def violation(self, x) -> float:
        return self.body.violation(x)

    def distance(self, x) -> Optional[float]:
        return self.body.distance(x)


@dataclass(frozen=True)
class OuterSet:
    """The outer set Q with an exact metric projection; the whole space
    when ``body`` is None."""

    body: Optional[Body] = None

    def __post_init__(self):
        if self.body is not None and not isinstance(self.body, METRIC_BODIES):
            raise ConfigError("outer set must be whole space, halfspace, box or ball")

    @classmethod
    def whole_space(cls) -> "OuterSet":
        return cls(None)

    def member(self, x, tol: float = 0.0) -> bool:
        return self.body is None or self.body.violation(x) <= tol

    def project(self, x: Vector) -> Vector:
        return x if self.body is None else self.body.project(x)


class Problem:
    """A convex feasibility instance: find x in (inter C_i) inter Q.

    The constraint pool is either a finite list or a lazy ``index ->
    Constraint`` function with declared cardinality ``m`` (``math.inf``
    allowed).  Every constraint body and the outer set must fit ``dim``
    (``Body.fits``); a lazy pool's are checked as they are built.
    ``interior``, when given, is a pair ``(z, R)`` asserting
    B(z, 2R) lies inside every C_i with z in Q.  The caller asserts it:
    nothing checks it at construction, and only ``spot_check_interior``
    samples it.
    """

    def __init__(self, dim: int, constraints: Optional[Sequence[Constraint]] = None,
                 *, pool: Optional[Callable[[int], Constraint]] = None,
                 m: Optional[float] = None, outer: Optional[OuterSet] = None,
                 interior: Optional[tuple] = None):
        if (constraints is None) == (pool is None):
            raise ConfigError("supply exactly one of constraints= or pool=")
        self.dim = as_integer(dim, "dim")
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        self.outer = outer if outer is not None else OuterSet.whole_space()
        if self.outer.body is not None and not self.outer.body.fits(self.dim):
            raise ConfigError(f"outer set is not a set in dimension {self.dim}")
        self._cache: dict[int, Constraint] = {}
        if constraints is not None:
            self._constraints = list(constraints)
            self.m: float = len(self._constraints)
            for pos, c in enumerate(self._constraints):
                if c.index != pos:
                    raise ConfigError(
                        f"constraint at position {pos} has index {c.index}")
                self._check_dim(pos, c)
            self._pool = None
        else:
            if m is None or m != math.inf and as_integer(m, "m") <= 0:
                raise ConfigError("lazy pools need a positive cardinality m")
            self._constraints = None
            self._pool = pool
            self.m = math.inf if m == math.inf else as_integer(m, "m")
        if interior is not None:
            z, big_r = interior
            z = as_vector(z, dim=self.dim)
            big_r = as_real(big_r, "interior radius")
            if big_r <= 0.0:
                raise ConfigError("interior radius must be positive")
            if not self.outer.member(z):
                raise ConfigError("interior point z is not in the outer set Q")
            interior = (z, big_r)
        self.interior = interior
        # Plain attributes, as every emission and feasibility test reads them;
        # a lazy pool is an ``index -> Constraint`` function, not a list.
        self.is_finite = self.m != math.inf
        self.is_lazy = self._constraints is None

    @functools.cached_property
    def affine_rows(self) -> Optional["AffineRows"]:
        """The stacked affine rows of a finite listed pool, built on first
        use, in float32 from ``FLOAT32_MIN_ENTRIES`` entries on; None for
        lazy pools and for pools with fewer than ``STACKED_MIN_ROWS`` such
        rows, which keep the per-constraint loop."""
        if self.is_lazy:
            return None
        return AffineRows.build(self)

    def constraint(self, i: int) -> Constraint:
        if not 0 <= i < self.m:
            raise PoolIndexError(f"index out of pool: {i}")
        if self._constraints is not None:
            return self._constraints[i]
        c = self._cache.get(i)
        if c is None:
            c = self._pool(i)
            if c.index != i:
                raise ConfigError(f"pool returned constraint with index {c.index} for {i}")
            self._check_dim(i, c)
            self._cache[i] = c
        return c

    def _check_dim(self, pos: int, c: Constraint) -> None:
        if not c.body.fits(self.dim):
            raise ConfigError(
                f"constraint at position {pos} is not a set in dimension {self.dim}")

    def pool_indices(self, indices, where: str) -> tuple:
        """``indices`` as ints in [0, m); a fault names the field ``where[j]``."""
        if not hasattr(indices, "__iter__"):
            raise ConfigError(f"field '{where}' must be a list, not {type(indices).__name__}")
        out = []
        for j, i in enumerate(indices):
            path = f"field '{where}[{j}]'"
            if not 0 <= (i := as_integer(i, path)) < self.m:
                raise ConfigError(f"{path}: index {i} is outside the pool of "
                                  f"{self.m} constraints")
            out.append(i)
        return tuple(out)

    def indices(self) -> range:
        if not self.is_finite:
            raise ConfigError("infinite pool has no full index range")
        return range(int(self.m))

    def spot_check_interior(self, n_dirs: int = 64, seed: int = 0) -> None:
        """Probabilistic check that B(z, 2R) is inside every constraint set.

        Raises ConfigError on a witnessed violation; passing is not a proof.
        """
        if self.interior is None:
            raise ConfigError("no certified interior to check")
        if not self.is_finite:
            raise ConfigError("spot check needs a finite pool")
        z, big_r = self.interior
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((n_dirs, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for e in dirs:
            pt = z + (2.0 * big_r) * e
            for i in self.indices():
                if not self.constraint(i).violation(pt) <= 1e-12:
                    raise ConfigError(
                        f"interior ball violates constraint {i} at a sampled direction")


# ---------------------------------------------------------------------------
# Stacked affine rows: one residual pass per iterate
# ---------------------------------------------------------------------------

# Fewest affine rows for which a pool is evaluated as one stacked matvec,
# a measured crossover (CHANGES.md; README, "Stacked rows"): below it
# cyclic runs are faster with the per-constraint loop, since a pass costs a
# fixed few microseconds of numpy calls, a scalar sign test about 1.5 us
# per row, and a scan often stops at its first violated row.
STACKED_MIN_ROWS = 16

# Fewest matrix entries (rows times dim) for which the rows are stored in
# float32, a measured crossover on whole solves (CHANGES.md; README,
# "Float32 rows"): below it the float64 pass is about as fast, and its
# tighter margin leaves fewer rows to their scalar tests.
FLOAT32_MIN_ENTRIES = 2 ** 16

# Fewest unsettled float64 metric halfspace rows that ``AffineRows.cut_rows``
# cuts as one batch, a measured crossover of a stacked step (CHANGES.md;
# README, "Batched cuts"): below it Python's row loop is cheaper.
CUT_MIN_ROWS = 4

_U = 2.0 ** -53             # unit roundoff of binary64
_SUBNORMAL = 2.0 ** -1074   # smallest positive binary64
# Above this bound on sum |a_j x_j| + |b| a dot product could overflow.
_SAFE = 2.0 ** 1000
_U32 = 2.0 ** -24           # unit roundoff of binary32
_TINY32 = 2.0 ** -150       # half the smallest positive binary32
_SAFE32 = 2.0 ** 120        # as _SAFE, for float32 products and sums


class AffineRows:
    """One row per position of a finite pool, stacked as (A, b, ||a_i||):
    the row of a body whose violation is ``float(a @ x) - b`` (halfspaces
    and affine sublevel sets whose a.a is not 0), or a zero row with an
    infinite margin, which the pass never settles and the maximal controls
    always score.

    ``at(x)`` evaluates every row with one matvec.  BLAS may sum ``A @ x``
    in another order than the scalar ``a @ x``, and ``A`` may hold the
    normals rounded to float32, so the stacked residual only filters: it
    settles a row's sign where a proven error bound allows, and every other
    row is decided by its own scalar test.  The constraints must not change
    once stacked.
    """

    def __init__(self, A, b, metric, norms, aa):
        """A (float64 or float32; the margins follow its dtype), b, metric,
        norms and each halfspace's ``Halfspace.aa`` as the pool's rows; a
        row with ||a||_1 below 2^-900, whose margin scale could underflow,
        or norm 0 becomes a zero row in place."""
        l1 = np.abs(A).sum(axis=1, dtype=np.float64)
        out = ~((l1 >= 2.0 ** -900) & (norms > 0.0))
        A[out], l1[out], b[out], norms[out] = 0.0, 0.0, 0.0, 1.0
        self.stacked = len(l1) - int(np.count_nonzero(out))  # not zero rows
        self.A = A
        self.b = b
        # Rows whose cutter is the metric projection onto a halfspace: the
        # identity, with zero distance, wherever the row holds.
        self.metric = metric & ~out
        # ||a_i||, as the scalar distance divides by it; 1.0 for a zero row.
        self.norms = norms
        # Each row's a.a, for ``cut_rows``; None for float32 rows and pools
        # with another row.
        self.aa = aa if A.dtype == np.float64 and self.metric.all() else None
        # margin_i = scale_i ||x||_inf + offset_i bounds |scalar - stacked|
        # (see ``at``), with gamma_n(u) = n u / (1 - n u).  The factor
        # 1 + 2^-20 absorbs the rounding of the margin itself and of l1, a
        # float64 sum within gamma_d(u64) of it, below 2^-21 for d < 2^31.
        d = A.shape[1]
        gamma = (d + 1) * _U / (1.0 - (d + 1) * _U)  # the scalar's own bound
        abs_b = np.abs(b)
        if A.dtype == np.float64:
            # Both sums are within gamma_{d+1}(u64); the floor absorbs the
            # gradual underflow of products.
            two_gamma = 2.0 * gamma * (1.0 + 2.0 ** -20)
            scale = two_gamma * l1
            offset = two_gamma * abs_b + (2 * d + 8) * _SUBNORMAL
            self.safe, self.l1_max = _SAFE, float(l1.max())
        else:
            # v = float64(A32 @ float32(x)) - b.  Rounding a_ij and x_j to
            # float32 errs by u32 relative, or _TINY32 absolute below its
            # normal range; the float32 sum by gamma_d(u32) of sum |a_j x_j|
            # plus _TINY32 per underflowing product; the float64
            # subtraction by u64 |v|.  The _TINY32 terms, times 3 to cover
            # their own propagation, bound all absolute errors, and
            # ||a||_1 <= (l1 + d _TINY32) / (1 - u32).
            g32 = d * _U32 / (1.0 - d * _U32)
            rel = (gamma + 2.0 * _U32 + _U32 * _U32
                   + (g32 + _U * (1.0 + g32)) * (1.0 + _U32) ** 2)
            scale = (rel * (1.0 + 2.0 ** -20) / (1.0 - _U32)) * l1 + 3 * d * _TINY32
            offset = ((gamma + _U) * (1.0 + 2.0 ** -20)) * abs_b + 3 * _TINY32 * l1 \
                + 3 * d * _TINY32
            # l1_max >= 1 keeps x itself in float32's range too.
            self.safe, self.l1_max = _SAFE32, max(float(l1.max()), 1.0)
        self.scale = scale
        # A zero row, with l1 = 0, has an infinite margin.
        self.offset = np.where(l1 > 0.0, offset, math.inf)
        self.b_max = float(abs_b.max())

    def cut_rows(self, todo: list, x) -> Optional[Iterator]:
        """None below ``CUT_MIN_ROWS`` (position, index) pairs ``todo`` or
        unless every row is a float64 metric halfspace; else ``Halfspace.cut``
        at x of their rows as one batch, yielded row by row in the field
        order of ``CutterEval``: (None, norm, residual, None, T(x) - x as a
        row of one array), bit for bit as ``evaluate_cutter`` gives them, as
        ``np.vecdot`` rounds as ``ndarray.dot`` bar a zero's sign at d = 1."""
        if len(todo) < CUT_MIN_ROWS or self.aa is None:
            return None
        idx = np.array([i for _, i in todo], np.intp)
        N = self.A[idx]
        s = np.vecdot(N, x)
        s -= self.b[idx]
        v = np.maximum(s, 0.0, out=s)  # else the image is x, the distance 0.0
        v += 0.0  # -0.0 to +0.0, as the scalar cut's 0.0 for any v <= 0
        with np.errstate(over="ignore"):  # a subnormal a.a: inf, as on floats
            coef, residual = v / self.aa[idx], v / self.norms[idx]
        D = x - coef[:, None] * N
        D -= x
        return zip(repeat(None), np.sqrt(np.vecdot(D, D)).tolist(),
                   residual.tolist(), repeat(None), D)

    @classmethod
    def build(cls, problem: Problem) -> Optional["AffineRows"]:
        """None when the pool has fewer than ``STACKED_MIN_ROWS`` affine
        rows.  Pools of at least ``FLOAT32_MIN_ENTRIES`` entries are stored
        in float32 when their entries fit it."""
        dim = problem.dim
        zero = np.zeros(dim)
        normals, rhs, metric, norms, aas = [], [], [], [], []
        zeros = 0
        for c in problem._constraints:
            body = c.body
            f = body.f if isinstance(body, Sublevel) else body
            halfspace = isinstance(body, Halfspace)
            if halfspace or isinstance(f, Affine):
                a, b = f.a, f.b
                n, aa = (body.a_norm, body.aa) if halfspace else (norm(a), 0.0)
            else:
                a, b, n, aa = zero, 0.0, 1.0, 0.0
                zeros += 1
            normals.append(a)
            rhs.append(b)
            metric.append(halfspace)
            norms.append(n)
            aas.append(aa)
        if len(normals) - zeros < STACKED_MIN_ROWS:
            return None  # counted before any array is built

        # dim < 2^22 keeps gamma_d(u32) below 1/3, as the margin assumes.
        large = len(normals) * dim >= FLOAT32_MIN_ENTRIES and dim < 2 ** 22
        for dtype in [np.float32, np.float64] if large else [np.float64]:
            with np.errstate(over="ignore"):  # an entry past float32's range
                A = np.concatenate(normals, dtype=dtype).reshape(len(normals), dim)
            rows = cls(A, np.array(rhs), np.array(metric), np.array(norms), np.array(aas))
            if dtype is np.float64 or rows.l1_max + rows.b_max < _SAFE32:
                break  # else float32 rows would be past their range: take float64
        return rows if rows.stacked >= STACKED_MIN_ROWS else None

    def at(self, x: Vector) -> Optional["RowPass"]:
        """The residual pass at x, or None when x is not finite or so large
        that a dot product could overflow, in float64 or in float32 as
        ``A`` is stored; the scalar tests then decide.

        The scalar violation s_i and the stacked v_i both sum the d + 1
        terms a_ij x_j and -b_i in some order, each within
        gamma_{d+1} * (sum_j |a_ij x_j| + |b_i|) of the exact value for any
        order, with or without FMA (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., section 3.1); float32 rows add the
        errors of their conversions and of the float32 sum (see
        ``__init__``).  Hoelder's sum_j |a_ij x_j| <= ||a_i||_1 ||x||_inf
        gives |s_i - v_i| <= margin_i.
        """
        xinf = float(np.abs(x).max())
        if not xinf * self.l1_max + self.b_max < self.safe:
            return None
        v = (self.A @ x.astype(self.A.dtype, copy=False)).astype(np.float64, copy=False)
        v -= self.b
        margin = self.scale * xinf
        margin += self.offset
        return RowPass(self, v, margin)


class RowPass:
    """One residual pass v = A @ x - b at an iterate x, with the certified
    bound |v_i - s_i| <= margin_i on the scalar violations s_i."""

    def __init__(self, rows: AffineRows, v, margin):
        self.rows = rows
        self.v = v
        self.margin = margin
        # The rows whose violation is certainly at most 0, and of them the
        # metric halfspaces, whose cutter there is the identity, with
        # residual, displacement, beta and rho all 0.0.
        self.satisfied = v < -margin
        self.settled = self.satisfied & rows.metric

    def unsettled(self, active: tuple) -> list:
        """(position, index) of the active rows that are not settled, in
        order, from one gather of the flags at the active indices."""
        if len(active) == 1:  # a singleton control's step skips the gather
            return [] if self.settled[active[0]] else [(0, active[0])]
        pos = (~self.settled[np.fromiter(active, np.intp, len(active))]).nonzero()[0]
        return [(p, active[p]) for p in pos.tolist()]

    def candidates(self, score, spread) -> Optional[list]:
        """Pool positions, ascending, whose scalar score may be the largest,
        given stacked scores with |scalar - stacked| <= spread per row up to
        one rounding each, and a scalar score of exactly 0.0 on every row
        the pass certainly satisfies.  None when the scores are not finite."""
        # 16u (score + spread) covers the roundings of score, lo and hi,
        # 2^-1060 their underflow.
        band = spread + 16.0 * _U * (score + spread) + 2.0 ** -1060
        lo = score - band
        top = float(lo.max())
        if not math.isfinite(top):
            return None
        keep = score + band >= top
        if top > 0.0:  # some score is positive: a satisfied row's 0.0 loses
            keep &= ~self.satisfied
        return keep.nonzero()[0].tolist()


def violated_indices(problem: Problem, x: Vector, window=None) -> tuple:
    """I_+(x) restricted to a finite window, the whole pool by default:
    indices whose set x is outside of.  x is read C-contiguous."""
    x = np.ascontiguousarray(x)
    if window is None:
        window = problem.indices()
    return tuple(i for i in window if not problem.constraint(i).violation(x) <= 0.0)


def feasible(problem: Problem, x: Vector, window=None, tol: float = 0.0,
             stacked: Optional[RowPass] = None) -> bool:
    """True iff x satisfies every constraint in the window and x is in Q.

    Membership is the sign test violation(x) <= tol with tol = 0 by default.
    For infinite pools the caller must supply a finite witness window.
    Over the whole pool at tol = 0 the stacked affine rows settle what they
    can; ``stacked`` is a residual pass already taken at x.  x is read
    C-contiguous.
    """
    x = np.ascontiguousarray(x)
    if window is None:
        if not problem.is_finite:
            raise ConfigError("feasibility over an infinite pool needs a finite window")
        if stacked is None and not tol and problem.affine_rows is not None:
            stacked = problem.affine_rows.at(x)
        # With a pass, the rows x does not certainly satisfy, in pool order.
        window = (problem.indices() if stacked is None or tol
                  else (~stacked.satisfied).nonzero()[0].tolist())
    if not problem.outer.member(x, tol):
        return False
    for i in window:
        if not problem.constraint(i).violation(x) <= tol:
            return False
    return True
