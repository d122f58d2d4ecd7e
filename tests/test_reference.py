"""``solve`` against the paper's iteration (``tests/reference.py``), and the
reference itself against the closed form of A.1 and the golden digests.

One Hypothesis property reads ``solve`` as a plain observer, as a
span-aware observer with a ``CsvStream`` and as the kept trace, on pools
that reach every mechanism: the stacked pass (float64 and float32 rows,
iterates on facets and within their margins), batched cuts, candidate
rescoring, quiet spans (faults mid-span too) and the accumulate-form sum.
"""

import contextlib
import functools
import hashlib
import io
import math
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from conftest import quiet_pool, slater_pool, zero_entries
from feasik import (Box, ConstantRelaxation, Constraint, Cyclic, Explicit, ExplicitTable,
                    FromFunction, Halfspace, Harmonic, Intermittent, MaxViolation,
                    MergedDecreasing, OuterSet, PhiCustom, PhiOne, PhiSubgradNorm, Problem,
                    QuietSpan, RandomSets, RemotestSet, Repetitive, RunConfig, Trace,
                    UniformOverActive, UniformOverViolated, engine, model, oracle_a1,
                    trace_csv_text)
from feasik.certificates import build_a1_config
from feasik.model import FLOAT32_MIN_ENTRIES, STACKED_MIN_ROWS, AffineRows, RowPass
from reference import (fields, lazy_twin, observed, reference_solve, solve_kept,
                       solve_observed, solve_spans)
from test_golden import (GOLDEN, per_index_bytes, per_index_runs, random_sets_run,
                         remotest_2000_run)


def halfspaces(A, b) -> Problem:
    return Problem(A.shape[1], [Constraint(i, Halfspace(a, v))
                                for i, (a, v) in enumerate(zip(A, b))])


def halfspace_pool(seed):
    """Float64 halfspaces in 1 to 6 dimensions, which batch, and an x0 on some
    facets (b = a . x0 as the scalar test rounds it), within a few margins of
    or far inside others, violating half by 1e-8 to 1e2 in cancelling
    directions.  Rows 0 and m - 1, of equal weight in every rule, are one
    facet both ways, violated by 2^60: a block step's sum opens with a term
    that swamps the others and closes with its negative."""
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([1, 1, 1, 2, 3, 6]))
    m = STACKED_MIN_ROWS + 3 * int(rng.integers(0, 9))
    x0 = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3)
    A = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-2, 3, (m, 1))
    A[-1] = -A[0]
    s = np.array([a.dot(x0) for a in A])
    wide = np.abs(A).sum(axis=1) * np.abs(x0).max() + np.abs(s) + 1.0
    kind = rng.choice(4, m, p=[0.5, 0.15, 0.15, 0.2])
    b = np.select([kind == 0, kind == 1, kind == 2],
                  [s - 10.0 ** rng.uniform(-8, 2, m), s,
                   s + rng.integers(-3, 4, m) * 2.0 ** -50 * wide], s + wide)
    b[[0, -1]] = s[[0, -1]] - 2.0 ** 60
    return halfspaces(A, b), x0


@functools.cache
def facet_pool32():
    """2,048 float32 halfspace rows in 32 dimensions and a start x0 that
    satisfies them by a wide margin but for 64 facets through x0.  Where the
    float32 pass reads a facet's residual below 0, b moves by half that
    error: the scalar test finds the row violated and the pass, within its
    margin, satisfied.  These are the only violated rows at x0."""
    rng = np.random.default_rng(9)
    dim, m = 32, FLOAT32_MIN_ENTRIES // 32
    A, x0 = rng.standard_normal((m, dim)), rng.standard_normal(dim)
    s = np.array([a.dot(x0) for a in A])
    b = s + rng.uniform(1.0, 3.0, m)
    near = rng.choice(m, 64, replace=False)
    b[near] = s[near]
    err = halfspaces(A, b).affine_rows.at(x0).v
    under = near[err[near] < 0.0]
    b[under] += err[under] / 2.0
    problem = halfspaces(A, b)
    assert problem.affine_rows.A.dtype == np.float32 and len(under) >= 8
    assert (problem.affine_rows.at(x0).v[under] < 0.0).all()
    assert [i for i in range(m) if problem.constraint(i).violation(x0) > 0.0] == sorted(under)
    return problem, x0


def slater_run_pool(seed):
    """A random polyhedron of 6 to 32 halfspace and affine sublevel rows,
    stacked or lazy, in the whole space or in a box Q that may clip the
    steps."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    problem, x0 = slater_pool(seed, dim, int(rng.choice([6, 16, 32])))
    if box := rng.choice([0.0, 1.0, 3.0]):
        problem = Problem(dim, [problem.constraint(i) for i in problem.indices()],
                          outer=OuterSet(Box(-box * np.ones(dim), box * np.ones(dim))),
                          interior=problem.interior)
        x0 = np.clip(x0, -box, box)
    return lazy_twin(problem) if rng.random() < 0.5 else problem, x0


POOLS = ["slater", "halfspaces", "halfspaces", "halfspaces", "halfspaces", "facets32",
         "facets32", "float64", "float32", "lazy", "small", "a1_tail", "a1_tail_moving"]
CONTROLS = ["cyclic", "intermittent", "block", "explicit", "random_sets", "repetitive",
            "remotest", "max_violation"]


@st.composite
def cases(draw):
    """A factory of fresh, equal run configurations, each with its log of phi
    and ``Repetitive`` calls: a drawn pool, control (a ``Repetitive`` one may
    raise, or emit a row outside the pool or too many rows, at a drawn k),
    weight rule (``gap`` lacks one row's weight), phi, r (harmonic, or
    turning negative or NaN at a drawn count), alpha, counter mode, max_iter,
    window and tol."""
    pool, seed = draw(st.sampled_from(POOLS)), draw(st.integers(0, 2 ** 32 - 1))
    problem, x0 = {"slater": slater_run_pool, "halfspaces": halfspace_pool,
                   "facets32": lambda seed: facet_pool32()}.get(
        pool, lambda seed: quiet_pool(pool))(seed)
    m = int(problem.m)
    # The block controls are the ones that batch and sum many terms, and the
    # maximal ones rescore the facets' near-ties; a subgradient-norm phi
    # faults at the first halfspace a step moves.
    kind = draw(st.sampled_from(CONTROLS + ["block"] * 8 * (pool == "halfspaces")
                                + ["remotest"] * 8 * (pool == "facets32")))
    weight_kind = draw(st.sampled_from(["uniform_active", "uniform_violated", "table", "gap"]))
    phi_kind = draw(st.sampled_from(["one", "custom"] + (
        [] if pool in ("halfspaces", "facets32") else ["one", "subgrad_norm"])))
    r_kind = draw(st.sampled_from(["harmonic", "harmonic", "from_function", "merged"]))
    mode, alpha = draw(st.sampled_from(["bracketed", "raw"])), draw(st.sampled_from([1.0, 1.5, 0.5]))
    # A reference step of a block control cuts every row one by one, and one
    # of a maximal control scores every row: the pools of facets may never
    # become feasible under them, and 2,048 float32 rows never batch.
    cap = 8 if pool == "facets32" or kind == "block" and m > 1000 else \
        40 if pool == "halfspaces" else 600
    max_iter = min(draw(st.integers(0, 600)), cap)
    fault_at = draw(st.integers(0, max_iter))
    bad = draw(st.sampled_from([None, None, "raise", "index", "card"])) \
        if kind == "repetitive" else None
    window, tol = None, 0.0
    if m <= 40 and draw(st.booleans()):
        window = tuple(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m,
                                     unique=True)))
        tol = draw(st.sampled_from([0.0, 1e-9, 0.05]))
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, min(m, 12) + 1)) if m > 1 else 1
    sets = [tuple(rng.choice(m, width, replace=False).tolist()) if rng.random() < 0.3
            else (int(i),) for i in rng.permutation(m)]
    order = rng.integers(len(sets), size=int(rng.integers(1, 50))).tolist()
    listed = sets[:int(rng.integers(1, 2 * m))] * 2
    gap = int(rng.integers(m)) if weight_kind == "gap" else None
    table = {i: 1.0 + (i % 3) for i in range(m) if i != gap}
    faults = {"raise": lambda: 1 // 0, "index": lambda: (m,),
              "card": lambda: tuple(range(width + 1))}

    def make():
        log = []
        control = {"cyclic": lambda: Cyclic([s[0] for s in sets]),
                   "intermittent": lambda: Intermittent(sets),
                   "block": lambda: Intermittent([range(m)]),
                   "explicit": lambda: Explicit(listed),
                   "random_sets": lambda: RandomSets([(s, 1.0 / m) for s in sets], seed),
                   "repetitive": lambda: Repetitive(lambda k: log.append(k) or (
                       faults[bad]() if bad and k == fault_at else sets[order[k % len(order)]]),
                       max_card=width),
                   "remotest": RemotestSet, "max_violation": MaxViolation}[kind]
        weights = {"uniform_active": UniformOverActive,
                   "uniform_violated": UniformOverViolated}.get(
            weight_kind, lambda: ExplicitTable(table, 0.01))
        over = {"harmonic": Harmonic,
                "from_function": lambda: FromFunction(
                    lambda j: 1.0 / (j + 1) if j < fault_at else -1.0, divergent_sum=True),
                "merged": lambda: MergedDecreasing(
                    lambda j: 1.0 / (j + 1) if j < fault_at else math.nan,
                    lambda j: 2.0 ** -(j + 20))}[r_kind]
        phi = {"one": PhiOne, "subgrad_norm": PhiSubgradNorm, "custom": lambda: PhiCustom(
            lambda c, x: log.append((c.index, x.tobytes())) or 1.0 + 0.5 * (c.index % 3),
            0.5, 2.0)}[phi_kind]
        return RunConfig(problem=problem, control=control(),
                         relaxation=ConstantRelaxation(alpha), overrelaxation=over(),
                         phi=phi(), weights=weights(), x0=x0, counter_mode=mode,
                         max_iter=max_iter, feas_window=window, feas_tol=tol), log

    return make


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_solve_is_the_papers_iteration(make):
    # Records, iterate bytes, errors and their k, the trace CSV bytes and the
    # call logs are the reference's; ZERO_ENTRY is exactly the settled rows'.
    # The readings of solve agree to the bit, NaNs too.
    cfg, want_log = make()
    want = observed(reference_solve, cfg, want_csv := io.StringIO())
    spans_csv, kept_csv, readings = io.StringIO(), io.StringIO(), []
    for run, csv in ((solve_observed, None), (partial(solve_spans, csv=spans_csv), spans_csv),
                     (partial(solve_kept, csv=kept_csv), kept_csv)):
        (cfg, log), records = make(), []
        got = observed(lambda c, emit: run(c, lambda r: records.append(r) or emit(r)), cfg)
        if csv is kept_csv and want[1] is not None:  # a kept trace needs a return
            assert got[1] == want[1]
            continue
        assert got == want and log == want_log
        assert csv is None or csv.getvalue() == want_csv.getvalue()
        zero_entries(cfg.problem, records)
        readings.append([fields(r, exact=True) for r in records])
    assert readings.count(readings[0]) == len(readings)


def test_the_reference_runs_none_of_the_engines_mechanisms():
    # Each mechanism of solve raises if it runs; the reference, on a stacked
    # block run whose cuts solve batches, must not meet one.
    cfg = per_index_runs()["block.per_index"]
    assert cfg.problem.affine_rows.aa is not None
    fail = mock.Mock(side_effect=AssertionError("a mechanism ran"))
    with contextlib.ExitStack() as patches:
        for owner, name, new in [
                (engine, "step", fail), (engine, "solve", fail), (reference, "solve", fail),
                (engine, "compensated_sum", fail), (engine, "feasible", fail),
                (model, "feasible", fail), (AffineRows, "at", fail),
                (AffineRows, "cut_rows", fail), (RowPass, "__init__", fail),
                (QuietSpan, "__init__", fail), (Trace, "__init__", fail),
                (Problem, "affine_rows", property(fail))]:
            patches.enter_context(mock.patch.object(owner, name, new))
        assert reference_solve(cfg, lambda r: None).status == "feasible"
    fail.assert_not_called()
    assert "ZERO_ENTRY" not in vars(reference)


def records_of(cfg) -> list:
    reference_solve(cfg, (records := []).append)
    return records


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_the_reference_reproduces_the_golden_runs():
    # Raw A.1 is the closed form to the bit up to 538, where model.norm's d.d
    # underflows and y stays; the other runs are feasible, long enough, and
    # stacked (in float32 at 2000 rows).
    records = records_of(build_a1_config("raw", 10_000))
    assert len(records) == 10_001 and not records[-1].feasible_flag
    for pos in range(0, 539, 2):
        assert tuple(records[pos].x.tolist()) == oracle_a1(pos), pos
    assert sha(trace_csv_text(records, 2)) == GOLDEN["a1.csv"]
    records = records_of(random_sets_run())
    assert records[-1].feasible_flag and len(records) > 200
    assert sha(trace_csv_text(records, 5)) == GOLDEN["random_sets.csv"]
    for name, cfg in per_index_runs().items():
        records = records_of(cfg)
        assert cfg.problem.affine_rows is not None and records[-1].feasible_flag
        assert len(records) > 5 and sha(per_index_bytes(records)) == GOLDEN[name], name
    records = records_of(cfg := remotest_2000_run())
    assert cfg.problem.affine_rows.A.dtype == np.float32
    assert records[-1].feasible_flag and len(records) > 20
    assert sha(trace_csv_text(records, 200)) == GOLDEN["remotest_2000.csv"]
    assert sha(per_index_bytes(records)) == GOLDEN["remotest_2000.per_index"]
