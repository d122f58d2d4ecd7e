"""Run observers: a run that streams its records to observers sees exactly
the records a recorded run keeps, the streamed CSV and descent certificate
equal their replays over a kept trace, span-aware observers take a span as
its records, ``solve --output`` leaves no file behind a failed run, and a
streamed run's memory stays flat (``tests/test_reference.py`` checks both
readings against the paper's iteration)."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feasik import (CertificateError, ConstantRelaxation, CsvStream, Cyclic, DescentMonitor,
                    FeasikError, Harmonic, Intermittent, MergedDecreasing, PhiOne, QuietSpan,
                    RandomSets, RemotestSet, Repetitive, RunConfig, TraceRecord,
                    UniformOverActive, UniformOverViolated, check_descent, cli,
                    random_slater_polyhedron, solve, write_trace_csv)
from feasik.cli import _sweep_one
from feasik.certificates import _RunFacts, build_a1_config, build_a2_config
from reference import fields


def record_bytes(rec) -> tuple:
    """Every field of a record, x and the per_index floats as their bytes,
    so that signed zeros and NaN payloads count."""
    return fields(rec, exact=True)


def config(control, weights=None, m=24, dim=4, seed=7, max_iter=3000):
    problem, x0 = random_slater_polyhedron(seed, dim=dim, m=m,
                                           interior_radius=0.2, sublevel=False)
    return RunConfig(problem=problem, control=control,
                     relaxation=ConstantRelaxation(1.0),
                     overrelaxation=Harmonic(), phi=PhiOne(),
                     weights=weights or UniformOverActive(), x0=x0,
                     max_iter=max_iter)


# Cyclic on a small (unstacked) pool, the stacked full block and the remotest
# set, seeded random singletons, and the raw A.2 run with the
# subgradient-norm phi (cut at 2,000 steps); each solve gets a fresh config.
CONFIGS = {
    "cyclic": lambda: config(Cyclic(range(6)), m=6, dim=3),
    "block": lambda: config(Intermittent([range(24)]), UniformOverViolated()),
    "remotest": lambda: config(RemotestSet()),
    "random_sets": lambda: config(RandomSets.uniform_singletons(24, 11)),
    "a2": lambda: build_a2_config("raw", 2000),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_streamed_records_equal_the_recorded_trace(name):
    recorded = solve(CONFIGS[name]())
    seen, again = [], []
    streamed = solve(CONFIGS[name](), observers=[seen.append, again.append])
    assert recorded.trace is not None and streamed.trace is None
    assert [record_bytes(r) for r in seen] == [record_bytes(r) for r in recorded.trace]
    assert [record_bytes(r) for r in again] == [record_bytes(r) for r in seen]
    for result in (recorded, streamed):
        assert result.steps == len(recorded.trace) - 1
    assert (streamed.status, streamed.k_feasible, streamed.corrections,
            streamed.final.tobytes()) == \
        (recorded.status, recorded.k_feasible, recorded.corrections,
         recorded.final.tobytes())
    single = []
    assert solve(CONFIGS[name](), observers=[single.append]).trace is None
    assert [record_bytes(r) for r in single] == [record_bytes(r) for r in seen]


def test_no_observers_keeps_nothing():
    result = solve(build_a1_config("raw", 50), observers=())
    assert result.trace is None and result.steps == 50
    assert result.status == "max_iter"


def test_a_streamed_result_is_not_a_trace():
    # An empty trace would certify vacuously; None fails loudly instead.
    # write_trace_csv raised a TypeError on it.
    cfg = CONFIGS["cyclic"]()
    result = solve(cfg, observers=())
    z, big_r = cfg.problem.interior
    with pytest.raises(CertificateError, match="^the run kept no trace"):
        check_descent(result, z, big_r, 1.0)
    with pytest.raises(FeasikError, match="^the run kept no trace"):
        write_trace_csv(result, 3, buf := io.StringIO())
    assert buf.getvalue() == ""  # not even the header


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_stream_and_descent_monitor_equal_their_replays(name):
    cfg = CONFIGS[name]()
    z, big_r = cfg.problem.interior
    lam = cfg.weights.floor(cfg.control.max_card)
    buf = io.StringIO()
    stream = CsvStream(buf, cfg.problem.dim)
    monitor = DescentMonitor(z, big_r, lam, outer=cfg.problem.outer)
    streamed = solve(cfg, observers=[stream, monitor])

    recorded = solve(CONFIGS[name]())
    replay = io.StringIO()
    write_trace_csv(recorded.trace, cfg.problem.dim, replay)
    assert buf.getvalue() == replay.getvalue()
    cert = check_descent(recorded, z, big_r, lam, outer=cfg.problem.outer)
    assert len(cert.entries) == streamed.steps
    assert repr(monitor.certificate.entries) == repr(cert.entries)
    assert monitor.certificate.to_dict() == cert.to_dict()


# Runs with long spans (raw A.1 and A.2), short ones (stacked singletons and
# pairs, a repetitive period) and none (the rest).
SPAN_CONFIGS = dict(
    CONFIGS, a1=lambda: build_a1_config("raw", 1500),
    stacked_cyclic=lambda: config(Cyclic(range(24))),
    pairs=lambda: config(Intermittent([(i, (i + 5) % 24) for i in range(24)])),
    repetitive=lambda: config(Repetitive(lambda k: ((k * 7) % 24,))))
WITH_SPANS = ["a1", "a2", "pairs", "random_sets", "repetitive", "stacked_cyclic"]


def hiding_spans(observe):
    """The observer as one that does not know spans: it gets their records."""
    return lambda record: observe(record)


@pytest.mark.parametrize("name", sorted(SPAN_CONFIGS))
def test_span_aware_observers_take_a_span_as_its_records(name):
    cfg = SPAN_CONFIGS[name]()
    z, big_r = cfg.problem.interior
    lam = cfg.weights.floor(cfg.control.max_card)
    outs = []
    for wrap in (lambda observe: observe, hiding_spans):
        buf = io.StringIO()
        monitor = DescentMonitor(z, big_r, lam, outer=cfg.problem.outer)
        facts = _RunFacts()  # the reproductions' observer, of 2-D runs
        solve(SPAN_CONFIGS[name](), observers=[
            wrap(CsvStream(buf, cfg.problem.dim)), wrap(monitor)]
            + [wrap(facts)] * (cfg.problem.dim == 2))
        outs.append((buf.getvalue(), repr(monitor.certificate.entries),
                     monitor.certificate.to_dict(), facts.count, facts.any_feasible,
                     facts.y_moved, facts.x_low,
                     [facts.x_at(pos).tobytes() for pos in range(facts.count)]))
    assert outs[0] == outs[1]
    trace = solve(SPAN_CONFIGS[name]()).trace
    spans = [item for item in trace.items if type(item) is QuietSpan]
    assert bool(spans) == (name in WITH_SPANS)
    assert sum(map(len, trace.items)) == len(trace) == len(outs[0][0].splitlines()) - 1


@pytest.mark.parametrize("name", WITH_SPANS)
def test_a_kept_trace_is_a_sequence_of_its_records(name):
    trace = solve(SPAN_CONFIGS[name]()).trace
    records = [record_bytes(r) for r in trace]
    n = len(records)
    assert len(trace) == n and n > 2
    assert [record_bytes(trace[i]) for i in range(n)] == records
    assert [record_bytes(trace[i]) for i in range(-n, 0)] == records
    for part in (slice(None), slice(1, -1), slice(-3, None), slice(None, None, 7),
                 slice(n - 2, 3, -5), slice(n, None)):
        assert [record_bytes(r) for r in trace[part]] == records[part]
    assert [r.k for r in trace] == list(range(n))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[i]


def test_solve_output_leaves_no_file_when_the_run_fails(tmp_path, capsys):
    # A two-value relaxation list is exhausted at the third step.
    doc = tmp_path / "run.json"
    doc.write_text(cli.cfgmod.emit_document({
        "problem": {"dim": 1, "constraints": [
            {"type": "halfspace", "a": [1.0], "b": 0.0}]},
        "control": {"kind": "cyclic", "order": [0]},
        "relaxation": {"kind": "list", "values": [0.1, 0.1]},
        "overrelaxation": {"kind": "constant", "r": 1e-9},
        "phi": "one", "weights": {"kind": "uniform_active"},
        "x0": [100.0], "max_iter": 100}))
    out = tmp_path / "t.csv"
    assert cli.main(["solve", "--config", str(doc), "--output", str(out)]) == 1
    assert "relaxation list exhausted" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_solve_output_renames_the_finished_file(tmp_path):
    demo = cli.cfgmod.emit_document({
        "problem": {"dim": 1, "constraints": [
            {"type": "halfspace", "a": [1.0], "b": 0.0}]},
        "control": {"kind": "cyclic", "order": [0]},
        "relaxation": {"kind": "constant", "alpha": 1.0},
        "overrelaxation": {"kind": "harmonic"},
        "phi": "one", "weights": {"kind": "uniform_active"}, "x0": [3.0]})
    (tmp_path / "run.json").write_text(demo)
    out = tmp_path / "t.csv"
    out.write_text("old")
    assert cli.main(["solve", "--config", str(tmp_path / "run.json"),
                     "--output", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "t.csv"]
    assert out.read_text().startswith("k,bracket_k,")
    assert len(out.read_text().splitlines()) == 3  # header, a step, the end


# ---------------------------------------------------------------------------
# MergedDecreasing against a list merge
# ---------------------------------------------------------------------------

def reference_merge(a, b):
    """(value, source) of the merge of two finite nonincreasing lists; on
    ties the a-element first."""
    out, i, j = [], 0, 0
    while i < len(a) or j < len(b):
        if j == len(b) or (i < len(a) and a[i] >= b[j]):
            out.append((a[i], ("a", i)))
            i += 1
        else:
            out.append((b[j], ("b", j)))
            j += 1
    return out


# Powers of two give many ties inside and across the two sequences.
NONINCREASING = st.lists(st.integers(0, 12), min_size=1, max_size=60).map(
    lambda es: [2.0 ** -e for e in sorted(es)])


@settings(max_examples=200, deadline=None)
@given(NONINCREASING, NONINCREASING, st.randoms(use_true_random=False))
def test_merged_decreasing_matches_a_list_merge(a, b, rnd):
    # Past the lists, each sequence continues below every listed value, so
    # the merge of the lists is a prefix of the infinite merge.
    na, nb = len(a), len(b)
    sched = MergedDecreasing(
        lambda k: a[k] if k < na else 2.0 ** -(20 + k),
        lambda k: b[k] if k < nb else 2.0 ** -(20 + k) / 3.0)
    want = reference_merge(a, b)
    order = list(range(len(want)))
    rnd.shuffle(order)  # lazy extension in any query order
    for j in order:
        assert sched.source(j) == want[j][1]
        assert sched.r(j) == want[j][0]
    assert [sched.source(j) for j in range(len(want))] == [w[1] for w in want]


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def peak_bytes(max_iter: int, observers) -> int:
    """The tracemalloc peak of a raw A.1 run, whose schedule (FromFunction)
    and control keep nothing per step."""
    cfg = build_a1_config("raw", max_iter)
    tracemalloc.start()
    try:
        result = solve(cfg, observers=observers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps == max_iter
    return peak


def test_a_streamed_run_keeps_memory_flat():
    short = peak_bytes(2_000, [lambda rec: None])
    long = peak_bytes(20_000, [lambda rec: None])
    assert long <= 1.5 * short + 64 * 1024, (short, long)
    # The same measure sees a list of every record grow with the run.
    recorded_short = peak_bytes(2_000, [[].append])
    recorded_long = peak_bytes(20_000, [[].append])
    assert recorded_long > 5 * recorded_short, (recorded_short, recorded_long)


def test_a_kept_trace_of_raw_a1_keeps_memory_flat():
    # From step 538 on no step of raw A.1 moves x (ROADMAP item 11); once
    # steps 538 and 539 have cut both rows there, the kept trace holds the
    # rest of the run as one span, whatever its length.
    short, long = peak_bytes(2_000, None), peak_bytes(20_000, None)
    assert long <= 1.5 * short + 64 * 1024, (short, long)
    trace = solve(build_a1_config("raw", 20_000)).trace
    *_, span, end = trace.items
    assert (span.k, span.k + len(span), end.k) == (540, 20_000, 20_000)
    assert all(type(item) is TraceRecord for item in trace.items[:-2])
    assert len(trace) == 20_001 and trace[-2] == span.record(len(span) - 1)


def sweep_row_peak(max_iter: int):
    """One ``sweep`` row on an infeasible pair, x_0 <= -1 and x_0 >= 1, and
    its tracemalloc peak."""
    doc = {"problem": {"dim": 2, "constraints": [
               {"type": "halfspace", "a": [1.0, 0.0], "b": -1.0},
               {"type": "halfspace", "a": [-1.0, 0.0], "b": -1.0}]},
           "relaxation": {"kind": "constant", "alpha": 1.0},
           "overrelaxation": {"kind": "harmonic"},
           "x0": [0.0, 0.0], "max_iter": max_iter}
    job = ("pair", doc, {"kind": "cyclic", "order": [0, 1]}, "one", False)
    tracemalloc.start()
    try:
        row = _sweep_one(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return row, peak


def test_a_sweep_row_keeps_memory_flat():
    (short_row, short), (long_row, long) = map(sweep_row_peak, (2_000, 20_000))
    assert short_row[:5] == long_row[:5] == ["pair", "cyclic", "one", "harmonic", "MAX"]
    assert int(long_row[5]) == 20_000
    assert long <= 1.5 * short + 64 * 1024, (short, long)
