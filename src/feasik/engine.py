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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
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
    makes read-only.  ``step`` and ``solve`` pass the fields by position."""

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


@dataclass
class RunResult:
    status: str  # "feasible" | "max_iter" | "nonfinite"
    k_feasible: Optional[int]
    final: Vector
    trace: Optional[list]  # None when the records went to observers
    corrections: int
    steps: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def step(cfg: RunConfig, x: Vector, k: int, count: int,
         stacked: Optional[RowPass] = None):
    """One iteration of the main method at step k, with the schedules
    indexed by ``count``: [k], the corrections so far, in bracketed mode
    and k itself in raw mode.

    Returns (x_next, corrected, record).  ``corrected`` is true when some
    active constraint was violated and the combined step vector is nonzero;
    that is the event the bracketed counter counts.  ``stacked`` is the
    residual pass at x when the caller has taken it; the control scores
    with it, active metric halfspaces it settles skip their cutter, and
    ``AffineRows.cut_rows`` cuts the others as one batch where it can.  One
    loop takes each row's cut, from the batch or ``evaluate_cutter``, then
    its phi, beta and rho.  x is never written; the record holds it, and a
    step that does not move returns it.  No feasibility test:
    ``feasible_flag`` is False.
    """
    problem = cfg.problem
    active = cfg.control.indices(k, x, problem, stacked)
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
    run as ``nonfinite``.  Each executed step makes one record and the final
    iterate a terminal one: they form ``RunResult.trace``, or, when
    ``observers`` are given, each of these callables receives them in order
    and the run keeps none.  Iterates are read-only arrays, shared by the
    records and ``RunResult.final``.

    Each iterate is tested once.  For a pool with stacked affine rows it
    gets one residual pass, shared by the feasibility test, the control and
    the cutters.  A step that leaves x in place returns x itself, and the
    next step reuses its pass and its failed verdict.
    """
    problem = cfg.problem
    rows = problem.affine_rows
    x = np.array(cfg.x0, dtype=np.float64)
    x.flags.writeable = False
    count = 0
    raw = cfg.counter_mode == "raw"
    trace = [] if observers is None else None
    observers = (trace.append,) if observers is None else tuple(observers)
    if len(observers) == 1:
        emit, = observers
    else:
        def emit(record):
            for observe in observers:
                observe(record)
    corrections = 0

    k = 0
    nonfinite = False
    tested = None  # the iterate whose pass and failed test are at hand
    while True:
        if x is not tested:  # by identity: an equal copy is tested again
            stacked = rows.at(x) if rows is not None else None
            # With no pass at x the pool's scalar tests decide; given the
            # window, feasible does not try the pass again.
            window = cfg.feas_window or (problem.indices() if stacked is None else None)
            feas = not nonfinite and feasible(problem, x, window, cfg.feas_tol,
                                              stacked=stacked)
            tested = x
        if feas or nonfinite or k >= cfg.max_iter:
            emit(TraceRecord(k, count, x, (), (), (), None, None, 0.0, False, feas))
            status = ("feasible" if feas else
                      "nonfinite" if nonfinite else "max_iter")
            return RunResult(status, k if feas else None, x, trace,
                             corrections, k)
        x_next, corrected, record = step(cfg, x, k, count, stacked=stacked)
        if x_next is not x:  # a step that does not move returns x, read-only
            x = x_next
            x.flags.writeable = False
            # A finite step norm implies a finite iterate; the norm of a finite
            # but huge step can overflow, so only then are the coordinates read.
            if not math.isfinite(record.step_norm):
                nonfinite = not np.isfinite(x).all()
        emit(record)
        corrections += corrected
        count += raw or corrected
        k += 1


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else repr(float(v))


class CsvStream:
    """An observer that writes the header at once, then a row per record:
    shortest round-trip floats, index sets joined by semicolons."""

    def __init__(self, fh, dim: int):
        self._row = csv.writer(fh, lineterminator="\n").writerow
        self._row(["k", "bracket_k", "alpha", "r", "active", "violated",
                   "step_norm", "feasible"] + [f"x_{i}" for i in range(dim)])

    def __call__(self, rec: TraceRecord) -> None:
        self._row([rec.k, rec.bracket_k, _fmt(rec.alpha_used), _fmt(rec.r_used),
                   ";".join(str(i) for i in rec.active),
                   ";".join(str(i) for i in rec.violated),
                   repr(float(rec.step_norm)),
                   "true" if rec.feasible_flag else "false"]
                  + [repr(float(v)) for v in rec.x])


def write_trace_csv(trace, dim: int, fh) -> None:
    """Write recorded records as ``CsvStream`` would have streamed them."""
    stream = CsvStream(fh, dim)
    for rec in trace:
        stream(rec)


def trace_csv_text(trace, dim: int) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, dim, buf)
    return buf.getvalue()
