"""Relaxation and overrelaxation schedules, phi functionals, weight rules
and the overshoot factor beta."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import Callable, Optional, Sequence

from .errors import ConfigError
from .model import Constraint, Sublevel, Vector, as_integer, as_real
from .operators import project_subgradient


def beta(r: float, phi_val: float, displacement: float) -> float:
    """Overshoot factor (r/phi + d)/d for displacement d > 0, else 0.

    The zero-displacement branch absorbs the singularity; for d > 0 the
    value is always >= 1, so the step never undershoots the cutter image.
    """
    if displacement == 0.0:
        return 0.0
    return (r / phi_val + displacement) / displacement


# ---------------------------------------------------------------------------
# Relaxation alpha_k in (0, 2]
# ---------------------------------------------------------------------------

def _check_alpha(a: float) -> float:
    a = as_real(a, "relaxation")
    if not (0.0 < a <= 2.0):
        raise ConfigError("relaxation outside (0,2]")
    return a


class ConstantRelaxation:
    def __init__(self, alpha: float):
        self.value = _check_alpha(alpha)

    def alpha(self, j: int) -> float:
        return self.value


class RelaxationList:
    def __init__(self, values: Sequence[float]):
        self.values = [_check_alpha(a) for a in values]
        if not self.values:
            raise ConfigError("relaxation list is empty")

    def alpha(self, j: int) -> float:
        if j >= len(self.values):
            raise ConfigError(f"relaxation list exhausted at index {j}")
        return self.values[j]


# ---------------------------------------------------------------------------
# Overrelaxation r_k > 0
# ---------------------------------------------------------------------------

class Overrelaxation:
    """Base: subclasses provide r(j) and declare whether sum(alpha_k r_k)
    is known to diverge (not runtime-checkable)."""

    divergent_sum = False

    def r(self, j: int) -> float:
        raise NotImplementedError


class ConstantOverrelaxation(Overrelaxation):
    divergent_sum = True

    def __init__(self, value: float):
        self.value = as_real(value, "overrelaxation")
        if self.value <= 0.0:
            raise ConfigError("overrelaxation must be positive")

    def r(self, j):
        return self.value


class Harmonic(Overrelaxation):
    """r_j = 1/(j+1)."""

    divergent_sum = True

    def r(self, j):
        return 1.0 / (j + 1)


class Geometric(Overrelaxation):
    """r_j = r0 * ratio**j with ratio in (0, 1); the sum converges."""

    divergent_sum = False

    def __init__(self, r0: float, ratio: float):
        self.r0 = as_real(r0, "r0")
        self.ratio = as_real(ratio, "ratio")
        if self.r0 <= 0.0 or not (0.0 < self.ratio < 1.0):
            raise ConfigError("geometric schedule needs r0 > 0 and ratio in (0,1)")

    def r(self, j):
        return self.r0 * self.ratio ** j


class OverrelaxationList(Overrelaxation):
    def __init__(self, values: Sequence[float], divergent_sum: bool = False):
        vals = [as_real(v, "overrelaxation value") for v in values]
        if not vals or any(v <= 0.0 for v in vals):
            raise ConfigError("overrelaxation values must be positive")
        self.values = vals
        self.divergent_sum = divergent_sum

    def r(self, j):
        if j >= len(self.values):
            raise ConfigError(f"overrelaxation list exhausted at index {j}")
        return self.values[j]


class FromFunction(Overrelaxation):
    """r_j = fn(j) for a positive formula.

    Values are checked to be finite and nonnegative only: a mathematically
    positive formula such as 2**-j underflows to 0.0 for large j, which is
    tolerated and acts as a plain unrelaxed step.
    """

    def __init__(self, fn: Callable[[int], float], divergent_sum: bool = False):
        self.fn = fn
        self.divergent_sum = divergent_sum

    def r(self, j):
        v = float(self.fn(j))
        if not (v >= 0.0) or math.isinf(v):
            raise ConfigError(f"overrelaxation value {v} at index {j}")
        return v


class MergedDecreasing(Overrelaxation):
    """All elements of two nonincreasing positive sequences, merged in
    decreasing order; on ties the a-element precedes the b-element.

    ``source(j)`` reports which sequence supplied position j, so callers can
    derive controls from the merge layout.  The values sit in an array and
    only the b-positions in a list, so the a-positions keep no Python object.
    """

    def __init__(self, a_fn: Callable[[int], float], b_fn: Callable[[int], float],
                 divergent_sum: bool = True):
        self.a_fn = a_fn
        self.b_fn = b_fn
        self.divergent_sum = divergent_sum
        self._values = array("d")
        self._b_positions: list[int] = []  # sorted
        self._ai = 0
        self._bi = 0
        self._a = self._b = None  # a_fn(_ai) and b_fn(_bi), once evaluated

    def _extend(self, upto: int) -> None:
        while len(self._values) <= upto:
            if self._a is None:
                self._a = float(self.a_fn(self._ai))
            if self._b is None:
                self._b = float(self.b_fn(self._bi))
            if not (math.isfinite(self._a) and math.isfinite(self._b)):
                raise ConfigError(f"merged schedule input not finite: {self._a}, {self._b}")
            if self._a >= self._b:
                v, self._a = self._a, None
                self._ai += 1
            else:
                v, self._b = self._b, None
                self._bi += 1
            if v <= 0.0:
                raise ConfigError("merged schedule produced a nonpositive value")
            if self._values and v > self._values[-1]:
                raise ConfigError("merged schedule inputs are not nonincreasing")
            if self._b is None:  # v came from b
                self._b_positions.append(len(self._values))
            self._values.append(v)

    def r(self, j):
        if j >= len(self._values):
            self._extend(j)
        return self._values[j]

    def source(self, j) -> tuple:
        if j >= len(self._values):
            self._extend(j)
        n = bisect_left(self._b_positions, j)  # b-elements before position j
        return ("b", n) if j in self._b_positions[n:n + 1] else ("a", j - n)

    def position_of(self, which: str, k: int, limit: int = 10 ** 7) -> int:
        """Merge position of a_k or b_k; scans at most ``limit`` entries."""
        j = 0
        while j < limit:
            if self.source(j) == (which, k):
                return j
            j += 1
        raise ConfigError(f"{which}_{k} not found within {limit} positions")


# ---------------------------------------------------------------------------
# Phi functionals
# ---------------------------------------------------------------------------

class PhiOne:
    """phi_i(x) = 1.  Every phi's ``value`` may be handed ``subgrad_sq``,
    the g.g of a subgradient projection at x that moved it."""

    kind = "one"

    def value(self, constraint: Constraint, x: Vector,
              subgrad_sq: Optional[float] = None) -> float:
        return 1.0


class PhiSubgradNorm:
    """phi_i(x) = ||g_i(x)|| when f_i(x) > 0, else 1 (sublevel bodies only).
    Without a given ``subgrad_sq`` it takes g.g from the subgradient
    projection at x, which raises on a zero subgradient; the square root
    is ``np.linalg.norm(g)`` bit for bit (see ``model.norm``)."""

    kind = "subgrad_norm"

    def value(self, constraint, x, subgrad_sq=None):
        body = constraint.body
        if not isinstance(body, Sublevel):
            raise ConfigError("subgradient-norm phi needs sublevel constraints")
        if subgrad_sq is None:
            subgrad_sq = project_subgradient(body.f, x).subgrad_sq
        return 1.0 if subgrad_sq is None else math.sqrt(subgrad_sq)


class PhiCustom:
    """User-supplied phi with declared bounds delta <= phi <= Delta on
    bounded sets (declared, not verified)."""

    kind = "custom"

    def __init__(self, fn: Callable[[Constraint, Vector], float],
                 delta: float, big_delta: float):
        self.delta = as_real(delta, "phi delta")
        self.big_delta = as_real(big_delta, "phi Delta")
        if not (0.0 < self.delta <= self.big_delta):
            raise ConfigError("phi bounds need 0 < delta <= Delta < inf")
        self.fn = fn

    def value(self, constraint, x, subgrad_sq=None):
        v = float(self.fn(constraint, x))
        if not (v > 0.0) or math.isinf(v):
            raise ConfigError(f"phi value {v} outside (0, inf)")
        return v


# ---------------------------------------------------------------------------
# Weight rules
# ---------------------------------------------------------------------------

class WeightRule:
    """Convex weights over the active set: ``weights(active, violated)``
    lists those of ``violated``, in order, the only ones a step reads.
    ``floor(max_card)`` is a guaranteed lower bound on each of them."""

    def weights(self, active: tuple, violated: tuple) -> list:
        raise NotImplementedError

    def floor(self, max_card: int) -> float:
        raise NotImplementedError


class UniformOverActive(WeightRule):
    kind = "uniform_active"

    def weights(self, active, violated):
        return [1.0 / len(active)] * len(violated)

    def floor(self, max_card):
        return 1.0 / max_card


class UniformOverViolated(WeightRule):
    """All weight on the violated active indices, uniformly."""

    kind = "uniform_violated"

    def weights(self, active, violated):
        return [1.0 / len(violated)] * len(violated) if violated else []

    def floor(self, max_card):
        return 1.0 / max_card


class ExplicitTable(WeightRule):
    """Per-index positive weights, normalized over each active set; each
    emitted weight must be positive and at least the declared floor."""

    kind = "table"

    def __init__(self, table: dict, floor_value: float):
        if not (0.0 < as_real(floor_value, "weight floor") <= 1.0):
            raise ConfigError("weight floor must be in (0,1]")
        self.table = {as_integer(i): as_real(w, "table weight") for i, w in table.items()}
        if any(w <= 0.0 for w in self.table.values()):
            raise ConfigError("table weights must be positive")
        self._floor = floor_value

    def weights(self, active, violated):
        try:
            total = sum([self.table[i] for i in active])
        except KeyError as e:
            raise ConfigError(f"no table weight for index {e.args[0]}") from None
        out = [self.table[i] / total for i in violated]
        for i, w in zip(violated, out):
            if w <= 0.0 or w < self._floor - 1e-12:
                raise ConfigError(
                    f"weight {w} for violated index {i} below declared floor")
        return out

    def floor(self, max_card):
        return self._floor
