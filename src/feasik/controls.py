"""Control sequences I_k: deterministic, adaptive and seeded-random index
selection, plus well-matchedness and positivity diagnostics."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ControlError
from .model import Problem, RowPass, Vector, as_integer, as_real, violated_indices
from .operators import evaluate_cutter


def _index_tuple(indices, where: str = "") -> tuple:
    """A nonempty tuple of distinct ints.  A fault is a ConfigError naming
    the set ``where`` at construction, or a ControlError in an emission."""
    # A tuple of exact ints is kept, so a schedule's constant sets are shared.
    out = (indices if type(indices) is tuple and all(type(i) is int for i in indices)
           else tuple(map(as_integer, indices)))
    if not out or len(out) > 1 and len(set(out)) != len(out):
        if where:
            raise ConfigError(f"{where} has duplicate indices {out}" if out
                              else f"{where} is empty")
        raise ControlError(f"control emitted duplicate indices {out}" if out
                           else "control emitted an empty index set")
    return out


class Control:
    """Base class.  ``indices(k, x, problem)`` returns the index set I_k;
    every emission is a nonempty tuple with cardinality <= the attribute
    ``max_card``."""

    max_card: int

    def _select(self, k: int, x: Vector, problem: Problem,
                stacked: Optional[RowPass] = None) -> tuple:
        raise NotImplementedError

    def _emit(self, k: int, x: Vector, problem: Problem,
              stacked: Optional[RowPass]) -> tuple:
        """(I_k, lo, hi) with lo <= min I_k and max I_k <= hi, and I_k
        checked against max_card."""
        out = _index_tuple(self._select(k, x, problem, stacked))
        if len(out) > self.max_card:
            raise ControlError(
                f"control emitted {len(out)} indices, above max_card {self.max_card}")
        return out, min(out), max(out)

    def _family(self) -> list:
        """(field path, index set) pairs: the index sets the control lists,
        which together hold every index it emits; empty for a control that
        lists none."""
        return []

    def indices(self, k: int, x: Vector, problem: Problem,
                stacked: Optional[RowPass] = None) -> tuple:
        """``stacked`` is a residual pass already taken at x, which
        adaptive controls use to score the stacked rows at once."""
        out, lo, hi = self._emit(k, x, problem, stacked)
        if problem.is_lazy or lo < 0 or hi >= problem.m:
            # Materializes a lazy pool's constraints, and raises "index out
            # of pool" at the first emitted index outside the pool, if any.
            for i in out:
                problem.constraint(i)
        return out


class _FixedSets(Control):
    """A control whose index sets come from a fixed family, validated at
    construction.  The smallest and the largest index of the whole family
    are taken once, at the first emission: a pool that holds that range
    holds every emission."""

    @functools.cached_property
    def _range(self) -> tuple:
        family = [s for _, s in self._family()]
        return min(map(min, family)), max(map(max, family))

    def _emit(self, k, x, problem, stacked):
        lo, hi = self._range
        return self._select(k, x, problem, stacked), lo, hi


class Intermittent(_FixedSets):
    """Cycles through the given blocks; with s blocks, every window of s
    consecutive steps emits every block once."""

    kind = "intermittent"

    def __init__(self, blocks: Sequence[Sequence[int]]):
        self.blocks = [_index_tuple(b, f"blocks[{n}]") for n, b in enumerate(blocks)]
        if not self.blocks:
            raise ConfigError("intermittent control needs at least one block")
        self.max_card = max(map(len, self.blocks))

    def _family(self):
        return [(f"blocks[{n}]", b) for n, b in enumerate(self.blocks)]

    def _select(self, k, x, problem, stacked=None):
        return self.blocks[k % len(self.blocks)]


class Cyclic(Intermittent):
    """Singleton control order[k mod s]: the intermittent control of the
    blocks (order[0],), ..., (order[s-1],)."""

    kind = "cyclic"
    max_card = 1

    def __init__(self, order: Sequence[int]):
        self.order = [as_integer(i) for i in order]
        if not self.order:
            raise ConfigError("cyclic order is empty")

    def _family(self):
        return [("order", self.order)]

    @functools.cached_property
    def blocks(self) -> list:
        return [(i,) for i in self.order]  # at the first emission; shared


class Repetitive(Control):
    """Wraps an arbitrary k -> index-set schedule.  The caller is responsible
    for actual repetitiveness (every relevant index appearing infinitely
    often); diagnostics below can only spot-check it."""

    kind = "repetitive"

    def __init__(self, schedule: Callable[[int], Sequence[int]], max_card: int = 1):
        self.schedule = schedule
        self.max_card = as_integer(max_card, "max_card")
        if self.max_card < 1:
            raise ConfigError("max_card must be >= 1")

    def _select(self, k, x, problem, stacked=None):
        return self.schedule(k)


class Explicit(_FixedSets):
    """A finite, explicitly listed sequence of index sets."""

    kind = "explicit"

    def __init__(self, sets: Sequence[Sequence[int]]):
        self.sets = [_index_tuple(s, f"sets[{n}]") for n, s in enumerate(sets)]
        if not self.sets:
            raise ConfigError("explicit control has no sets")
        self.max_card = max(map(len, self.sets))

    def _family(self):
        return [(f"sets[{n}]", s) for n, s in enumerate(self.sets)]

    def _select(self, k, x, problem, stacked=None):
        if k >= len(self.sets):
            raise ControlError(f"explicit control exhausted at step {k}")
        return self.sets[k]


class _Maximal(Control):
    max_card = 1

    def _score(self, constraint, x) -> float:
        raise NotImplementedError

    def _stacked_score(self, stacked: RowPass):
        """(score, spread): the stacked rows' scores and a bound on how far
        each scalar score lies from its stacked one; None where the scalar
        score has no stacked form."""
        return None

    def _select(self, k, x, problem, stacked=None):
        if not problem.is_finite:
            raise ControlError("maximal control requires finite pool")
        indices = None
        if stacked is not None:
            score = self._stacked_score(stacked)
            if score is not None:
                # Only rows that may attain the maximum are scored again.
                indices = stacked.candidates(*score)
        best_i, best = 0, -math.inf
        for i in problem.indices() if indices is None else indices:
            s = self._score(problem.constraint(i), x)
            if s > best:  # ties break to the lowest index
                best_i, best = i, s
        return (best_i,)


class RemotestSet(_Maximal):
    """argmax_i d(x, C_i); needs exact distances."""

    kind = "remotest"

    def _score(self, constraint, x):
        d = constraint.distance(x)
        if d is None:
            raise ControlError(
                f"remotest control needs an exact distance for constraint {constraint.index}")
        return d

    def _stacked_score(self, stacked):
        norms = stacked.rows.norms
        return np.maximum(stacked.v, 0.0) / norms, stacked.margin / norms


class MaxDisplacement(_Maximal):
    """argmax_i ||T_i(x) - x||."""

    kind = "max_displacement"

    def _score(self, constraint, x):
        return evaluate_cutter(constraint, x).displacement_norm


class MaxViolation(_Maximal):
    """argmax_i of the positive part of the constraint violation."""

    kind = "max_violation"

    def _score(self, constraint, x):
        return max(0.0, constraint.violation(x))

    def _stacked_score(self, stacked):
        return np.maximum(stacked.v, 0.0), stacked.margin


class RandomSets(_FixedSets):
    """I.i.d. draws from a finite distribution over index sets.

    The draw at iteration k uses a counter-based generator keyed by
    (seed, k), so step k's realization is reproducible independently of
    how the run is replayed.  ``Generator(Philox(key=seed, counter=k))
    .random()`` is (w >> 11) * 2^-53 for w the first word of Philox's block
    at counter k + 1, so one ``random_raw`` call yields the draws of
    ``DRAW_BLOCK`` consecutive k; the last such block is kept.
    """

    DRAW_BLOCK = 64

    kind = "random_sets"

    def __init__(self, atoms: Sequence[tuple], seed: int):
        if not atoms:
            raise ConfigError("random control needs at least one atom")
        self.atoms = [(_index_tuple(s, f"atoms[{n}].indices"),
                       as_real(p, "atom probability")) for n, (s, p) in enumerate(atoms)]
        if any(not p >= 0.0 for _, p in self.atoms):
            raise ConfigError("atom probabilities must be nonnegative")
        total = sum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"atom probabilities sum to {total}, not 1")
        self.seed = as_integer(seed, "seed") & (2 ** 64 - 1)
        self.max_card = max(len(s) for s, _ in self.atoms)
        self._cum = np.cumsum([p for _, p in self.atoms])
        self._block_start, self._block = None, None

    def _family(self):
        return [(f"atoms[{n}].indices", s)
                for n, (s, _) in enumerate(self.atoms)]

    def draw_uniform(self, k: int) -> float:
        start = k - k % self.DRAW_BLOCK
        if start != self._block_start:
            words = np.random.Philox(key=self.seed, counter=start).random_raw(
                4 * self.DRAW_BLOCK)[::4]
            self._block = (words >> 11) * 2.0 ** -53
            self._block_start = start
        return float(self._block[k - start])

    def _select(self, k, x, problem, stacked=None):
        u = self.draw_uniform(k)
        j = int(np.searchsorted(self._cum, u, side="right"))
        j = min(j, len(self.atoms) - 1)
        return self.atoms[j][0]

    @classmethod
    def uniform_singletons(cls, m: int, seed: int) -> "RandomSets":
        return cls([((i,), 1.0 / m) for i in range(m)], seed)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    probe: Vector
    violated: tuple
    hits: int
    first_hit: Optional[int]

    @property
    def flagged(self) -> bool:
        return self.hits == 0


@dataclass
class WellMatchedReport:
    horizon: int
    probes: list

    @property
    def ok(self) -> bool:
        return not any(p.flagged for p in self.probes)

    def summary(self) -> str:
        # A finite horizon can only refute, never verify, well-matchedness.
        if self.ok:
            return (f"no violation found within horizon {self.horizon} "
                    f"({len(self.probes)} probes)")
        bad = [i for i, p in enumerate(self.probes) if p.flagged]
        return (f"necessary condition failed for probes {bad}: the control never "
                f"met a violated constraint within {self.horizon} steps")


def empirical_well_matched(control: Control, problem: Problem,
                           probes: Sequence[Vector], horizon: int) -> WellMatchedReport:
    """Count, for each infeasible probe x, the steps k < horizon with
    I_k(x) intersecting I_+(x).  Zero hits refute well-matchedness; positive
    hits only fail to refute it."""
    horizon = as_integer(horizon, "horizon")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    reports = []
    for x in probes:
        viol = frozenset(violated_indices(problem, x))
        if not viol:
            raise ConfigError("well-matchedness probes must be infeasible points")
        hits, first = 0, None
        for k in range(horizon):
            if viol.intersection(control.indices(k, x, problem)):
                hits += 1
                if first is None:
                    first = k
        reports.append(ProbeReport(x, tuple(sorted(viol)), hits, first))
    return WellMatchedReport(horizon, reports)


@dataclass
class PositivityReport:
    probes: list  # of (violated indices, probability)

    @property
    def ok(self) -> bool:
        return all(p > 0.0 for _, p in self.probes)


def positivity_diagnostic(control: RandomSets, problem: Problem,
                          probes: Sequence[Vector]) -> PositivityReport:
    """Exact per-probe probability that a drawn index set meets I_+(x),
    by summing the probabilities of the intersecting atoms."""
    if not isinstance(control, RandomSets):
        raise ConfigError("positivity diagnostic applies to random controls")
    out = []
    for x in probes:
        viol = frozenset(violated_indices(problem, x))
        if not viol:
            raise ConfigError("positivity probes must be infeasible points")
        p = sum(prob for s, prob in control.atoms if viol.intersection(s))
        out.append((tuple(sorted(viol)), p))
    return PositivityReport(out)
