"""The paper's iteration, transcribed: the one reference that every fast path
of ``engine.solve`` is compared with (``tests/test_reference.py``).

``reference_solve`` runs, at every k and on the lazy twin of the pool,

    x_{k+1} = P_Q( x_k + alpha_j * sum_i lambda_i * beta_i * (T_i(x_k) - x_k) )

as ``engine``'s docstring states it: the scalar sign test of Q and of every
window row, the control's emission, alpha and r read at the count j,
``evaluate_cutter`` on each active row (and phi, beta and rho where the cut
moves x), the weight rule, the term-by-term Neumaier loop over the terms of
nonzero weight, and P_Q.  It has none of the engine's mechanisms: no
stacked residual pass, settled rows, batched cuts, candidate rescoring,
quiet spans or accumulate-form sum.  Its window verdict is kept by the
bytes of x, which is all it reads.  ``reference_step`` is one step of it,
which tests also compare with ``engine.step`` from the same iterate.
``observed`` reads the records of the reference and of ``solve`` alike.
"""

import numpy as np

from feasik import (CsvStream, Problem, RunResult, TraceRecord, evaluate_cutter,
                    solve, write_trace_csv)
from feasik.model import norm
from feasik.schedules import beta


def lazy_twin(problem):
    """The same constraints behind a lazy pool, which takes the scalar path."""
    return Problem(problem.dim, pool=problem.constraint, m=problem.m,
                   outer=problem.outer, interior=problem.interior)


def neumaier_loop(vectors, dim):
    """Neumaier's compensated sum, term by term: t = s + v, c += (big - t) +
    small, with big and small s and v ordered by magnitude, s first on
    ties; the sum is s + c."""
    s, c = np.zeros(dim), np.zeros(dim)
    for v in vectors:
        t = s + v
        swap = np.abs(s) >= np.abs(v)
        big = np.where(swap, s, v)
        small = np.where(swap, v, s)
        c += (big - t) + small
        s = t
    return s + c


def reference_solve(cfg, emit):
    """Run ``cfg`` as the paper's iteration: each record, the terminal one
    included, goes to ``emit``, and a fault of the control, a schedule, a
    cutter, phi or the weight rule is raised at the k where the iteration
    calls it.  Returns the run's ``RunResult``, which keeps no items."""
    problem = lazy_twin(cfg.problem)
    window = cfg.feas_window or problem.indices()
    x = np.array(cfg.x0, dtype=np.float64)
    x.flags.writeable = False
    k = count = corrections = 0
    verdicts = {}  # the window test reads x alone
    while True:
        finite = bool(np.isfinite(x).all())
        if (key := x.tobytes()) not in verdicts:
            verdicts[key] = finite and problem.outer.member(x, cfg.feas_tol) and all(
                problem.constraint(i).violation(x) <= cfg.feas_tol for i in window)
        if (feas := verdicts[key]) or not finite or k >= cfg.max_iter:
            emit(TraceRecord(k, count, x, (), (), (), None, None, 0.0, False, feas))
            status = "feasible" if feas else "max_iter" if finite else "nonfinite"
            return RunResult(status, k if feas else None, x, None, corrections, k)
        x, corrected, record = reference_step(cfg, problem, x, k, count)
        emit(record)
        corrections += corrected
        count += cfg.counter_mode == "raw" or corrected
        k += 1


def reference_step(cfg, problem, x, k, count):
    """Step k of the iteration from x on ``problem``: (x_{k+1}, whether the
    step corrected x, the step's record)."""
    active = cfg.control.indices(k, x, problem)
    alpha = cfg.relaxation.alpha(count)
    r = cfg.overrelaxation.r(count)
    violated, diffs, betas, per_index = [], [], [], []
    for i in active:
        constraint = problem.constraint(i)
        _, n, res, gg, d = evaluate_cutter(constraint, x)
        b = rho = 0.0
        if n > 0.0:
            phi = cfg.phi.value(constraint, x, gg)
            b, rho = beta(r, phi, n), r / phi
            violated.append(i)
            diffs.append(d)
            betas.append(b)
        per_index.append((res, n, b, rho))
    violated = tuple(violated)
    weights = cfg.weights.weights(active, violated)
    terms = [(w * b) * d for w, b, d in zip(weights, betas, diffs) if w != 0.0]
    x_next, corrected = x, False
    if terms:
        step = alpha * neumaier_loop(terms, problem.dim)
        x_next = problem.outer.project(x + step)
        x_next.flags.writeable = False
        corrected = bool(step.any())
    return x_next, corrected, TraceRecord(
        k, count, x, active, violated, tuple(per_index), alpha, r,
        0.0 if x_next is x else norm(x_next - x), corrected, False)


def bits(values, exact=False) -> bytes:
    """The bytes of float64 ``values``, every NaN as one NaN unless ``exact``:
    the reference sums in another order than ``solve``, and numpy's kernels
    differ in which operand's NaN sign an add keeps."""
    a = np.array(values, dtype=np.float64)
    if not exact:
        a[np.isnan(a)] = np.nan
    return a.tobytes()


def fields(r, exact=False) -> tuple:
    """A record's fields, floats and iterates as ``bits``; ``exact`` keeps
    every NaN's sign and payload, for ``solve`` compared with itself."""
    return (r.k, r.bracket_k, bits(r.x, exact), r.active, r.violated,
            bits(r.per_index, exact), repr(r.alpha_used), repr(r.r_used),
            float(r.step_norm).hex(), r.corrected, r.feasible_flag)


def observed(run, cfg, csv=None):
    """The ``fields`` of the records ``run(cfg, emit)`` emits, and whether x is
    the previous record's array, also written to a ``csv`` buffer if given;
    the error raised as (type, message), or the returned ``RunResult`` as
    (status, k_feasible, corrections, steps, final bits)."""
    records, xs = [], []
    stream = csv and CsvStream(csv, len(cfg.x0))

    def emit(r):
        records.append((fields(r), bool(xs) and r.x is xs[-1]))
        xs.append(r.x)
        stream and stream(r)

    try:
        res = run(cfg, emit)
    except Exception as e:  # compared with the reference's, type and message
        return records, (type(e), str(e)), None
    return records, None, (res.status, res.k_feasible, res.corrections, res.steps,
                           bits(res.final))


def solve_observed(cfg, emit):
    return solve(cfg, observers=[emit])


def solve_kept(cfg, emit, csv=None):
    """The records of ``solve``'s kept trace, spans expanded by iteration,
    and its CSV written from the ``RunResult`` to a ``csv`` buffer if given."""
    result = solve(cfg)
    for r in result.trace:
        emit(r)
    csv and write_trace_csv(result, len(cfg.x0), csv)
    return result


class Items(list):
    """An observer that keeps what it gets, spans whole."""

    takes_spans = True
    __call__ = list.append


def solve_spans(cfg, emit, csv=None):
    """The records of the items a span-aware observer got from ``solve``,
    expanded once the run returned or raised (an item that raises on
    expansion fails).  A plain observer beside it must get those records,
    and a ``CsvStream`` writes to a ``csv`` buffer if given."""
    items, plain = Items(), []
    try:
        return solve(cfg, observers=[items, plain.append]
                     + ([CsvStream(csv, len(cfg.x0))] if csv else []))
    finally:
        try:
            records = [r for item in items for r in item]
        except Exception as e:
            raise AssertionError(f"an item raised on expansion: {e!r}") from None
        assert [fields(r, exact=True) for r in plain] == \
            [fields(r, exact=True) for r in records]
        for r in records:
            emit(r)
