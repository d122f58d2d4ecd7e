"""Problem data model: convex functions with subgradient oracles, constraint
bodies, outer sets and full problem instances.

Points are plain 1-D ``numpy.float64`` arrays.  Constraint indices are
0-based positions in the pool.
"""

from __future__ import annotations

import functools
import math
import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, PoolIndexError

Vector = np.ndarray


def as_vector(coords, dim: Optional[int] = None) -> Vector:
    """Coerce to a finite 1-D float64 array, optionally checking the dimension."""
    x = np.asarray(coords, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
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

    def affine_row(self) -> Optional[tuple]:
        """(a, b) when f(x) is float(a @ x) - b, else None."""
        return None


@dataclass(frozen=True)
class Affine(ConvexFunction):
    """f(x) = <a, x> - b, with sublevel set {x : <a, x> <= b}."""

    a: Vector
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", float(self.b))

    def value(self, x):
        return float(self.a.dot(x)) - self.b

    def subgradient(self, x):
        return self.a

    @functools.cached_property
    def _halfspace(self) -> "Halfspace":
        # Built at the first closed-form use, which a zero normal fails.
        return Halfspace(self.a, self.b)

    def sublevel_distance(self, x):
        return self._halfspace.distance(x)

    def sublevel_project(self, x):
        return self._halfspace.project(x)

    def affine_row(self):
        return self.a, self.b


class _CoordSlab(ConvexFunction):
    """A function of x[axis] whose sublevel set, for c >= 0, is the slab
    |x[axis]| <= h with h = ``_half_width()``; empty for c < 0."""

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
        norm = tuple((as_vector(a), float(b)) for a, b in self.pieces)
        object.__setattr__(self, "pieces", norm)

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
        if self.radius <= 0:
            raise ConfigError("ball radius must be positive")

    def value(self, x):
        d = float(np.linalg.norm(x - self.center))
        e = max(0.0, d - self.radius)
        return e * e

    def subgradient(self, x):
        diff = x - self.center
        d = float(np.linalg.norm(diff))
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

    def member(self, x: Vector, tol: float = 0.0) -> bool:
        return self.violation(x) <= tol

    def distance(self, x: Vector) -> Optional[float]:
        return None

    def project(self, x: Vector) -> Vector:
        raise ConfigError(f"{type(self).__name__} has no closed-form projection")

    def cut(self, x: Vector) -> tuple:
        """(project(x), distance(x)): the metric cutter's image and residual."""
        return self.project(x), self.distance(x)

    def affine_row(self) -> Optional[tuple]:
        """(a, b) when the violation is float(a @ x) - b, else None."""
        return None


@dataclass(frozen=True)
class Halfspace(Body):
    """{x : <a, x> <= b} with a . a > 0, which an underflowing a fails.
    ``aa`` is float(a . a) and ``a_norm`` its root, ``norm(a)`` bit for bit."""

    a: Vector
    b: float

    def __post_init__(self):
        a = np.ascontiguousarray(as_vector(self.a))
        aa = float(a.dot(a))
        if not aa > 0.0:
            raise ConfigError("halfspace normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
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

    def affine_row(self):
        return self.a, self.b


@dataclass(frozen=True)
class Ball(Body):
    """{x : ||x - center|| <= radius}."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise ConfigError("ball radius must be positive")

    def violation(self, x):
        return float(np.linalg.norm(x - self.center)) - self.radius

    def distance(self, x):
        return max(0.0, self.violation(x))

    def project(self, x):
        diff = x - self.center
        d = float(np.linalg.norm(diff))
        if d <= self.radius:
            return np.array(x, dtype=np.float64)
        return self.center + (self.radius / d) * diff


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
        return float(np.linalg.norm(x - self.project(x)))

    def project(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)


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

    def affine_row(self):
        return self.f.affine_row()


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

    def member(self, x, tol: float = 0.0) -> bool:
        return self.body.member(x, tol)

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
        return True if self.body is None else self.body.member(x, tol)

    def project(self, x: Vector) -> Vector:
        return x if self.body is None else self.body.project(x)


class Problem:
    """A convex feasibility instance: find x in (inter C_i) inter Q.

    The constraint pool is either a finite list or a lazy ``index ->
    Constraint`` function with declared cardinality ``m`` (``math.inf``
    allowed).  ``interior``, when given, is a pair ``(z, R)`` asserting
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
        self._cache: dict[int, Constraint] = {}
        if constraints is not None:
            self._constraints = list(constraints)
            self.m: float = len(self._constraints)
            for pos, c in enumerate(self._constraints):
                if c.index != pos:
                    raise ConfigError(
                        f"constraint at position {pos} has index {c.index}")
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
            big_r = float(big_r)
            if big_r <= 0.0:
                raise ConfigError("interior radius must be positive")
            if not self.outer.member(z):
                raise ConfigError("interior point z is not in the outer set Q")
            interior = (z, big_r)
        self.interior = interior

    @property
    def is_finite(self) -> bool:
        return self.m != math.inf

    @property
    def is_lazy(self) -> bool:
        """The pool is an ``index -> Constraint`` function, not a list."""
        return self._constraints is None

    @functools.cached_property
    def affine_rows(self) -> Optional["AffineRows"]:
        """The stacked affine rows of a finite listed pool, built on first
        use; None for lazy pools and for pools with fewer than
        ``STACKED_MIN_ROWS`` such rows, which keep the per-constraint loop."""
        if self.is_lazy:
            return None
        return AffineRows.build(self)

    def residual_pass(self, x: Vector) -> Optional["RowPass"]:
        """The stacked residual pass at x; None without stacked rows, or
        where ``AffineRows.at`` leaves x to the scalar tests."""
        rows = self.affine_rows
        return rows.at(x) if rows is not None else None

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
            self._cache[i] = c
        return c

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
                if not self.constraint(i).member(pt, tol=1e-12):
                    raise ConfigError(
                        f"interior ball violates constraint {i} at a sampled direction")


# ---------------------------------------------------------------------------
# Stacked affine rows: one residual pass per iterate
# ---------------------------------------------------------------------------

# Fewest affine rows for which a pool is evaluated as one stacked matvec,
# a measured crossover (README, "Performance"): below it cyclic runs are
# faster with the per-constraint loop, since a pass costs a fixed few
# microseconds of numpy calls, a scalar sign test about 1.5 us per row, and
# a scan often stops at its first violated row.
STACKED_MIN_ROWS = 16

_U = 2.0 ** -53             # unit roundoff of binary64
_SUBNORMAL = 2.0 ** -1074   # smallest positive binary64
# Above this bound on sum |a_j x_j| + |b| a dot product could overflow.
_SAFE = 2.0 ** 1000


class AffineRows:
    """One row per position of a finite pool, stacked as (A, b, ||a_i||):
    the row of a body whose violation is ``float(a @ x) - b`` (halfspaces
    and affine sublevel sets), or a zero row with an infinite margin for
    any other body, which the pass never settles and the maximal controls
    always score.

    ``at(x)`` evaluates every row with one matvec.  BLAS may sum ``A @ x``
    in another order than the scalar ``a @ x``, so the stacked residual
    only filters: it settles a row's sign where a proven error bound
    allows, and every other row is decided by its own scalar test.  The
    constraints must not change once stacked.
    """

    def __init__(self, A, l1, b, metric, norms):
        self.A = A
        self.b = b
        # Rows whose cutter is the metric projection onto a halfspace: the
        # identity, with zero distance, wherever the row holds.
        self.metric = metric
        # ||a_i||, as the scalar distance divides by it; 1.0 for a zero row.
        self.norms = norms
        # margin_i = 2 gamma_{d+1} (||a_i||_1 ||x||_inf + |b_i|) bounds
        # |scalar - stacked| (see ``at``), with gamma_n = n u / (1 - n u).
        # The factor 1 + 2^-20 absorbs the rounding of the margin itself
        # (the sum for ||a_i||_1 is within gamma_d of it, below 2^-21 for
        # d < 2^31) and the floor the gradual underflow of products.
        d = A.shape[1]
        two_gamma = 2.0 * (d + 1) * _U / (1.0 - (d + 1) * _U) * (1.0 + 2.0 ** -20)
        self.scale = two_gamma * l1
        # A zero row, with l1 = 0, has an infinite margin.
        self.offset = np.where(l1 > 0.0, two_gamma * np.abs(b) + (2 * d + 8) * _SUBNORMAL,
                               math.inf)
        self.l1_max = float(l1.max())
        self.b_max = float(np.abs(b).max())

    @functools.cached_property
    def zero_entries(self) -> list:
        """Per pool position, the trace entry (i, 0.0, 0.0, 0.0, 0.0) of a
        settled metric halfspace: one tuple, shared by every step."""
        return [(i, 0.0, 0.0, 0.0, 0.0) for i in range(len(self.b))]

    @classmethod
    def build(cls, problem: Problem) -> Optional["AffineRows"]:
        """None when the pool has fewer than ``STACKED_MIN_ROWS`` affine
        rows.  A row with ||a||_1 below 2^-900, whose margin scale could
        underflow, is a zero row too."""
        dim = problem.dim
        zero = np.zeros(dim)
        gathered = []
        for c in problem._constraints:
            body, row = c.body, c.body.affine_row()
            if row is None or row[0].shape != (dim,):
                gathered.append((zero, 0.0, False, 1.0))
            else:
                halfspace = isinstance(body, Halfspace)
                gathered.append((*row, halfspace,
                                 body.a_norm if halfspace else norm(row[0])))
        normals, rhs, metric, norms = zip(*gathered)
        if sum(a is not zero for a in normals) < STACKED_MIN_ROWS:
            return None  # counted before any array is built
        A = np.array(normals)
        l1 = np.abs(A).sum(axis=1)
        stacked = l1 >= 2.0 ** -900
        if np.count_nonzero(stacked) < STACKED_MIN_ROWS:
            return None
        b, norms = np.array(rhs), np.array(norms)
        out = ~stacked
        A[out], l1[out], b[out], norms[out] = 0.0, 0.0, 0.0, 1.0
        return cls(A, l1, b, stacked & np.array(metric), norms)

    def at(self, x: Vector) -> Optional["RowPass"]:
        """The residual pass at x, or None when x is not finite or so large
        that a dot product could overflow; the scalar tests then decide.

        The scalar violation s_i and the stacked v_i both sum the d + 1
        terms a_ij x_j and -b_i in some order, each within
        gamma_{d+1} * (sum_j |a_ij x_j| + |b_i|) of the exact value for any
        order, with or without FMA (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., section 3.1).  Hoelder's
        sum_j |a_ij x_j| <= ||a_i||_1 ||x||_inf gives |s_i - v_i| <= margin_i.
        """
        xinf = float(np.abs(x).max())
        if not xinf * self.l1_max + self.b_max < _SAFE:
            return None
        v = self.A @ x
        v -= self.b
        margin = self.scale * xinf
        margin += self.offset
        return RowPass(self, x, v, margin)


class RowPass:
    """One residual pass v = A @ x - b at an iterate x, with the certified
    bound |v_i - s_i| <= margin_i on the scalar violations s_i."""

    def __init__(self, rows: AffineRows, x: Vector, v, margin):
        self.rows = rows
        self.x = x
        self.v = v
        self.margin = margin
        self._split = {}

    def split(self, tol: float):
        """Boolean masks over the pool: the violation certainly exceeds tol,
        and it is certainly at most tol.  A row in neither is undecided."""
        got = self._split.get(tol)
        if got is None:
            margin = self.margin
            if tol:
                # tol +- margin rounds; 2u|tol| more keeps the bound proven.
                margin = margin + 2.0 * _U * abs(tol)
                got = (self.v > tol + margin, self.v < tol - margin)
            else:
                got = (self.v > margin, self.v < -margin)
            self._split[tol] = got
        return got

    def violations(self, problem: Problem, tol: float = 0.0):
        """The pool positions, ascending, whose constraint x violates beyond
        tol, generated lazily in the scalar loop's order: a certainly
        violated row needs no test, and any other position that x does not
        certainly satisfy is decided, and may raise, in its member test."""
        violated, satisfied = self.split(tol)
        for i in (~satisfied).nonzero()[0].tolist():
            if violated[i] or not problem.constraint(i).member(self.x, tol):
                yield i

    @functools.cached_property
    def settled(self):
        """Mask over the pool: the metric halfspaces that x certainly
        satisfies.  There the cutter is the identity, with
        residual, displacement, beta and rho all 0.0."""
        return self.split(0.0)[1] & self.rows.metric

    def unsettled(self, active: tuple) -> list:
        """(position, index) of the active rows that are not settled, in
        order, from one gather of the flags at the active indices."""
        pos = (~self.settled[np.fromiter(active, np.intp, len(active))]).nonzero()[0]
        return [(p, active[p]) for p in pos.tolist()]

    def candidates(self, score, spread) -> Optional[list]:
        """Pool positions, ascending, whose scalar score may be the largest,
        given stacked scores with |scalar - stacked| <= spread per row up to
        one rounding each.  None when the scores are not finite."""
        # 16u (score + spread) covers the roundings of score, lo and hi,
        # 2^-1060 their underflow.
        band = spread + 16.0 * _U * (score + spread) + 2.0 ** -1060
        lo = score - band
        top = float(lo.max())
        if not math.isfinite(top):
            return None
        return (score + band >= top).nonzero()[0].tolist()


def violated_indices(problem: Problem, x: Vector, window=None,
                     stacked: Optional[RowPass] = None) -> tuple:
    """I_+(x) restricted to a finite window: indices whose set x is outside of.

    Over the whole pool the stacked affine rows settle what they can;
    ``stacked`` is a residual pass already taken at x.  x is read C-contiguous.
    """
    x = np.ascontiguousarray(x)
    if window is None:
        if stacked is None:
            stacked = problem.residual_pass(x)
        if stacked is not None:
            return tuple(stacked.violations(problem))
        window = problem.indices()
    return tuple(i for i in window if not problem.constraint(i).member(x))


def feasible(problem: Problem, x: Vector, window=None, tol: float = 0.0,
             stacked: Optional[RowPass] = None) -> bool:
    """True iff x satisfies every constraint in the window and x is in Q.

    Membership is the sign test violation(x) <= tol with tol = 0 by default.
    For infinite pools the caller must supply a finite witness window.
    Over the whole pool the stacked affine rows settle what they can;
    ``stacked`` is a residual pass already taken at x.  x is read C-contiguous.
    """
    x = np.ascontiguousarray(x)
    if window is None:
        if not problem.is_finite:
            raise ConfigError("feasibility over an infinite pool needs a finite window")
        if stacked is None:
            stacked = problem.residual_pass(x)
        if stacked is None:
            window = problem.indices()
    else:
        stacked = None
    if not problem.outer.member(x, tol):
        return False
    if stacked is not None:
        return next(stacked.violations(problem, tol), None) is None
    for i in window:
        if not problem.constraint(i).member(x, tol):
            return False
    return True
