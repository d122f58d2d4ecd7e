"""The main iteration: overrelaxed, weighted cutter steps projected onto Q,
with the correction counter indexing the schedules.

One step computes, for the active indices I_k(x),

    x_{k+1} = P_Q( x_k + alpha_j * sum_i lambda_i * beta_i * (T_i(x_k) - x_k) )

where beta_i = (r_j/phi_i(x_k) + ||T_i(x_k)-x_k||) / ||T_i(x_k)-x_k|| on
moved indices and 0 otherwise, and j is the correction count in bracketed
mode or k itself in raw mode.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controls import _FixedSets
from .errors import ConfigError, FeasikError
from .model import (Problem, RowPass, Vector, as_integer, as_real, as_vector,
                    feasible, norm)
from .operators import evaluate_cutter
from .schedules import beta

# The per_index entry of an active row that the residual pass settles: one
# tuple, shared by every settled row of every pool and step.
ZERO_ENTRY = (0.0, 0.0, 0.0, 0.0)


def compensated_sum(vectors) -> Vector:
    """Neumaier-compensated sum of one or more vectors; keeps certificate
    slacks meaningful when many small terms combine.

    Term by term, from s = c = 0: t = s + v, c += (big - t) + small, where
    big and small are s and v ordered by magnitude (s first on ties), and
    s = t; the result is s + c.  The first term gives s = v + 0.0 and
    c = v - v exactly, signed zeros, infinities and NaN included; as no
    partial sum of s is -0.0, adding v + 0.0 for a later v changes no bit.
    The later partial sums of s and of c are left folds, which
    ``np.add.accumulate`` computes in place in the same order
    (``np.add.reduce`` may not), so the stacked terms take a fixed number of
    numpy calls and the result is bit-identical, bar the sign of a NaN.
    """
    if len(vectors) == 1:
        v = np.asarray(vectors[0], dtype=np.float64)
        return (v + 0.0) + (v - v)
    v = np.asarray(vectors, dtype=np.float64)  # read, never written
    s = np.add(v, 0.0)
    np.add.accumulate(s, axis=0, out=s)
    prev, t, w = s[:-1], s[1:], v[1:]
    swap = np.abs(prev) >= np.abs(w)
    c = np.empty_like(v)
    np.subtract(v[0], v[0], out=c[0])
    np.subtract(np.where(swap, prev, w), t, out=c[1:])
    c[1:] += np.where(swap, w, prev)
    np.add.accumulate(c, axis=0, out=c)
    return s[-1] + c[-1]


@dataclass
class RunConfig:
    """Everything one solver run needs.  x0 must lie in Q.  The
    feasibility test checks the indices in ``feas_window``, or the whole
    pool when it is None, which only a finite pool allows."""

    problem: Problem
    control: object
    relaxation: object
    overrelaxation: object
    phi: object
    weights: object
    x0: Vector
    counter_mode: str = "bracketed"
    max_iter: int = 1_000_000
    feas_window: Optional[tuple] = None
    feas_tol: float = 0.0

    def __post_init__(self):
        try:
            self.x0 = as_vector(self.x0, dim=self.problem.dim)
        except ConfigError as e:
            raise ConfigError(f"field 'x0': {e}") from None
        if self.counter_mode not in ("bracketed", "raw"):
            raise ConfigError("field 'counter_mode': unknown counter mode "
                              f"{reprlib.repr(self.counter_mode)}")
        if not self.problem.outer.member(self.x0):
            raise ConfigError("field 'x0': not in the outer set Q")
        if self.feas_window is not None:
            self.feas_window = self.problem.pool_indices(self.feas_window, "feas_window")
            if not self.feas_window:
                raise ConfigError("field 'feas_window' is empty")
        elif not self.problem.is_finite:
            raise ConfigError("field 'feas_window': infinite pools need one")
        self.max_iter = as_integer(self.max_iter, "field 'max_iter'")
        if self.max_iter < 0:
            raise ConfigError("field 'max_iter': must be nonnegative")
        self.feas_tol = as_real(self.feas_tol, "field 'feas_tol'")
        if not getattr(self.overrelaxation, "divergent_sum", False):
            warnings.warn(
                "overrelaxation schedule is not declared divergent; "
                "finite convergence is not guaranteed", stacklevel=2)


@dataclass(slots=True)
class TraceRecord:
    """Snapshot of iteration k.  ``per_index[p]`` is the (residual,
    displacement, beta, rho) tuple of ``active[p]``, with rho = r/phi, and
    ``ZERO_ENTRY`` itself where the residual pass settled the row.  The
    terminal record of a run has an empty active set, and only it can have
    ``feasible_flag`` set: ``solve`` steps only from an iterate that failed
    the feasibility test.  ``x`` is the iterate itself, which ``solve``
    makes read-only.  ``step`` and ``solve`` pass the fields by position.
    As an item of a ``Trace``, a record holds one step, itself."""

    k: int
    bracket_k: int
    x: Vector
    active: tuple
    violated: tuple
    per_index: tuple
    alpha_used: Optional[float]
    r_used: Optional[float]
    step_norm: float
    corrected: bool
    feasible_flag: bool

    def __len__(self) -> int:
        return 1

    def __iter__(self):
        yield self

    def record(self, j: int) -> "TraceRecord":
        return self


class QuietSpan:
    """Steps k ... k + n - 1 of a run, none of which moves x, as one item of
    a ``Trace``.  Their records share x, violate and move nothing, read
    alpha and r at their count (``bracket_k``, + j in raw mode) and take
    each row's entry from ``quiet``, else ``ZERO_ENTRY``; ``sets`` lists
    their sets, or is None where the control's fixed family has them."""

    __slots__ = ("cfg", "k", "n", "bracket_k", "x", "sets", "quiet")

    def __init__(self, cfg, k, n, bracket_k, x, sets, quiet):
        self.cfg, self.k, self.n, self.bracket_k = cfg, k, n, bracket_k
        self.x, self.sets, self.quiet = x, sets, quiet

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return map(self.record, range(self.n))

    def record(self, j: int) -> TraceRecord:
        cfg, k = self.cfg, self.k + j
        count = self.bracket_k + (j if cfg.counter_mode == "raw" else 0)
        active = self.sets[j] if self.sets else cfg.control.sets[cfg.control._position(k)]
        return TraceRecord(k, count, self.x, active, (),
                           tuple([self.quiet.get(i, ZERO_ENTRY) for i in active]),
                           cfg.relaxation.alpha(count), cfg.overrelaxation.r(count),
                           0.0, False, False)


class Trace:
    """The records of a run, ``trace[k]`` that of step k, over the records
    and spans ``items`` as ``solve`` emitted them, which indexing, slicing
    and iteration expand."""

    __slots__ = ("items",)

    def __init__(self, items: list):
        self.items = items

    def __len__(self) -> int:
        return self.items[-1].k + len(self.items[-1]) if self.items else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        item = self.items[bisect_right(self.items, i, key=lambda item: item.k) - 1]
        return item.record(i - item.k)

    def __iter__(self):
        for item in self.items:
            yield from item


@dataclass
class RunResult:
    status: str  # "feasible" | "max_iter" | "nonfinite"
    k_feasible: Optional[int]
    final: Vector
    items: Optional[list]  # None when the records went to observers
    corrections: int
    steps: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def trace(self) -> Optional[Trace]:
        return None if self.items is None else Trace(self.items)


def step(cfg: RunConfig, x: Vector, k: int, count: int,
         stacked: Optional[RowPass] = None, active: Optional[tuple] = None):
    """One iteration of the main method at step k, with the schedules
    indexed by ``count``: [k], the corrections so far, in bracketed mode
    and k itself in raw mode.

    Returns (x_next, corrected, record).  ``corrected`` is true when some
    active constraint was violated and the combined step vector is nonzero;
    that is the event the bracketed counter counts.  ``active`` and
    ``stacked`` are I_k and the residual pass at x when the caller has
    taken them; the control scores with the pass, active metric halfspaces
    it settles skip their cutter, and ``AffineRows.cut_rows`` cuts the
    others as one batch where it can.  One loop takes each row's cut, from
    the batch or ``evaluate_cutter``, then its phi (only where the cut
    moves), beta and rho.  x is never written; the record holds it, and a
    step that does not move returns it.  No feasibility test.
    """
    problem = cfg.problem
    active = active or cfg.control.indices(k, x, problem, stacked)
    alpha = cfg.relaxation.alpha(count)
    r = cfg.overrelaxation.r(count)
    violated, diffs, betas = [], [], []
    per_index = [ZERO_ENTRY] * len(active)  # kept by the rows the pass settles
    todo = enumerate(active) if stacked is None else stacked.unsettled(active)
    cuts = stacked.rows.cut_rows(todo, x) if stacked is not None and todo else None
    for p, i in todo:
        constraint = problem.constraint(i)
        _, n, res, gg, d = evaluate_cutter(constraint, x) if cuts is None else next(cuts)
        if n > 0.0:
            phi_val = cfg.phi.value(constraint, x, gg)
            b, rho = beta(r, phi_val, n), r / phi_val
            violated.append(i)
            diffs.append(d)
            betas.append(b)
        else:
            b = rho = 0.0
        per_index[p] = (res, n, b, rho)

    violated = tuple(violated)
    weights = cfg.weights.weights(active, violated)
    # The overshoot terms (w_i beta_i)(T_i(x) - x) of nonzero weight, summed.
    if len(diffs) > 1:
        terms = np.asarray(diffs)  # a copy: scaling it writes no cut
        coef = np.multiply(weights, betas)
        if 0.0 in weights:
            keep = np.array(weights) != 0.0
            terms, coef = terms[keep], coef[keep]
        terms *= coef[:, None]
    elif betas and weights[0] != 0.0:
        terms = [(weights[0] * betas[0]) * diffs[0]]
    else:
        terms = ()
    if len(terms):
        step_vec = alpha * compensated_sum(terms)
        x_next = problem.outer.project(x + step_vec)
        corrected = bool(step_vec.any())
    else:
        x_next, corrected = x, False

    # Positional, in field order: keywords cost every step about 0.5 us.
    record = TraceRecord(k, count, x, active, violated, tuple(per_index), alpha, r,
                         0.0 if x_next is x else norm(x_next - x), corrected, False)
    return x_next, corrected, record


def solve(cfg: RunConfig, observers=None) -> RunResult:
    """Iterate until the window feasibility test passes, max_iter steps ran
    or a step produced a non-finite iterate.

    The run never claims divergence; exceeding the budget reports
    ``max_iter``, and an iterate with a NaN or infinite coordinate stops the
    run as ``nonfinite``.  Each step that ``step`` takes makes a record,
    each stretch of quiet steps between them a ``QuietSpan``, and the final
    iterate a terminal record: they form ``RunResult.items``, which
    ``RunResult.trace`` reads as a list of records, or, when
    ``observers`` are given, each of these callables receives them in order
    (a span whole where it sets ``takes_spans``, else its records) and the
    run keeps none.  Iterates are read-only arrays, shared by the records
    and ``RunResult.final``.

    Each iterate is tested once.  For a pool with stacked affine rows it
    gets one residual pass, shared by the feasibility test, the control and
    the cutters.  A step that leaves x in place returns x itself, and the
    next step reuses its pass and its failed verdict.  A step is quiet when
    each active row is settled by the pass or was cut at x without moving
    it, and its weight rule, alpha and r raise nothing; any other step is
    ``step``'s, which raises what it raises at its k
    (README, "Quiet spans").  One loop takes a stretch of quiet steps: a
    fixed family finds its end by position, another control is asked at
    each k and its first set that is not quiet goes to ``step``.  The
    weight rule runs once per quiet set.
    """
    problem, control = cfg.problem, cfg.control
    rows = problem.affine_rows
    x = np.array(cfg.x0, dtype=np.float64)
    x.flags.writeable = False
    raw = cfg.counter_mode == "raw"
    alpha, r = cfg.relaxation.alpha, cfg.overrelaxation.r
    if observers is None:
        items = []
        emit = items.append
    else:
        items, observers = None, tuple(observers)

        def emit(item):
            for observe in observers:
                for one in (item,) if getattr(observe, "takes_spans", False) else item:
                    observe(one)

    # A fixed family inside the pool: solve reads its sets by position.
    fixed = (isinstance(control, _FixedSets) and 0 <= control._range[0]
             and control._range[1] < problem.m)
    count = corrections = k = 0
    nonfinite = False
    tested = None  # the iterate whose pass and failed test are at hand
    weighed = set()  # the sets whose weights, quiet, raised nothing

    def is_quiet(s) -> bool:  # at the iterate's pass and quiet rows
        return _is_quiet(s, quiet, stacked, known, cfg, weighed)

    while True:
        if x is not tested:  # by identity: an equal copy is tested again
            stacked = rows.at(x) if rows is not None else None
            # With no pass at x the pool's scalar tests decide; given the
            # window, feasible does not try the pass again.
            window = cfg.feas_window or (problem.indices() if stacked is None else None)
            feas = not nonfinite and feasible(problem, x, window, cfg.feas_tol,
                                              stacked=stacked)
            # Row -> entry of the rows a step cut without moving x, None
            # until one does (but singletons look for settled rows), and
            # set -> whether it is quiet.
            tested = x
            quiet, known = ({}, {}) if stacked is not None and control.max_card == 1 \
                else (None, None)
        if feas or nonfinite or k >= cfg.max_iter:
            break
        active = (control.sets[control._position(k)] if fixed and quiet is not None
                  else control.indices(k, x, problem, stacked))
        if quiet is not None and is_quiet(active):
            # Steps k, k + 1, ... are quiet up to the first that is not or
            # max_iter: a fixed family finds it by position, another
            # control is asked at each k; alpha and r read at each count.
            end = (control._quiet_until(k + 1, cfg.max_iter, is_quiet) if fixed
                   else cfg.max_iter)
            k0, count0, sets = k, count, None if fixed else []
            try:
                while True:  # the set of step k is quiet
                    if raw or k == k0:
                        try:
                            alpha(count), r(count)
                        except Exception:  # step raises it, at its k
                            break
                    if sets is not None:
                        sets.append(active)
                    # A fixed family in bracketed mode reads once and jumps to end.
                    k, count = k + 1 if raw or not fixed else end, count + raw
                    # known answers a set seen at this x without a call.
                    if k >= end or not fixed and not (known.get(active := control.indices(
                            k, x, problem, stacked)) or is_quiet(active)):
                        break
            finally:  # the observers get the span, also when the control raised
                if k > k0:
                    emit(QuietSpan(cfg, k0, k - k0, count0, x, sets, quiet))
            if k >= cfg.max_iter:
                break
            if fixed:
                active = control.sets[control._position(k)]
        x_next, corrected, record = step(cfg, x, k, count, stacked, active)
        if x_next is not x:  # a step that does not move returns x, read-only
            x = x_next
            x.flags.writeable = False
            # A finite step norm implies a finite iterate; the norm of a finite
            # but huge step can overflow, so only then are the coordinates read.
            if not math.isfinite(record.step_norm):
                nonfinite = not np.isfinite(x).all()
        else:  # the rows it cut without moving x are quiet at x
            quiet, known = {} if quiet is None else quiet, {}
            for i, e in zip(record.active, record.per_index):
                if e[1] == 0.0 and e is not ZERO_ENTRY:
                    quiet[i] = e
        emit(record)
        corrections += corrected
        count += raw or corrected
        k += 1
    emit(TraceRecord(k, count, x, (), (), (), None, None, 0.0, False, feas))
    status = "feasible" if feas else "nonfinite" if nonfinite else "max_iter"
    return RunResult(status, k if feas else None, x, items, corrections, k)


# A fault of the weight rule, alpha or r makes a step loud: step raises it at
# its k.
def _is_quiet(active: tuple, quiet: dict, stacked: Optional[RowPass], known: dict,
              cfg: RunConfig, weighed: set) -> bool:
    """Whether every row of ``active`` is settled by the pass at x or was cut
    at x without moving it (``quiet``), and the weight rule takes the set;
    ``known`` keeps the answer per set and state of ``quiet``, and
    ``weighed`` the sets the rule took (it reads only the set)."""
    if (ok := known.get(active)) is None:
        if len(active) == 1:
            ok = (i := active[0]) in quiet or bool(stacked and stacked.settled[i])
        else:
            todo = enumerate(active) if stacked is None else stacked.unsettled(active)
            ok = all(i in quiet for _, i in todo)
        if ok and active not in weighed:
            try:
                cfg.weights.weights(active, ())
                weighed.add(active)
            except Exception:
                ok = False
        known[active] = ok
    return ok


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


class CsvStream:
    """An observer that writes the header at once, then a row per record
    (each of a span's): shortest round-trip floats, index sets joined by
    semicolons."""

    def __init__(self, fh, dim: int):
        self._row = csv.writer(fh, lineterminator="\n").writerow
        self._row(["k", "bracket_k", "alpha", "r", "active", "violated",
                   "step_norm", "feasible"] + [f"x_{i}" for i in range(dim)])

    takes_spans = True

    def __call__(self, item) -> None:
        xs = [repr(float(v)) for v in item.x]  # once for a whole span
        for rec in item:
            self._row([rec.k, rec.bracket_k, _fmt(rec.alpha_used), _fmt(rec.r_used),
                       ";".join(str(i) for i in rec.active),
                       ";".join(str(i) for i in rec.violated),
                       repr(float(rec.step_norm)),
                       "true" if rec.feasible_flag else "false"] + xs)


def trace_items(trace, error=FeasikError) -> list:
    """The items of a ``RunResult``, of a ``Trace``, or a list of records."""
    if (items := trace.items if isinstance(trace, (RunResult, Trace)) else trace) is None:
        raise error("the run kept no trace: its records went to observers")
    return items


def write_trace_csv(trace, dim: int, fh) -> None:
    """Write a trace (``trace_items``) as ``CsvStream`` would stream it."""
    items, stream = trace_items(trace), CsvStream(fh, dim)  # no header for no trace
    for item in items:
        stream(item)


def trace_csv_text(trace, dim: int) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, dim, buf)
    return buf.getvalue()
