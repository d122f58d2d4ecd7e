"""The benchmark's tracer (``bench/tracer.py``) patches feasik's layer
functions by name; a refactor that moves one of them would make
``bench/run.py --trace 1`` crash.  These tests solve under the tracer and
the benchmark's solve log and check that the hooks they rely on still see
the work."""

import contextlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

from feasik import (certificates, cli, config, controls, engine, instances,
                    operators)
from feasik import schedules as sch

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_hooks_see_a_full_block_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    originals = (engine.solve, engine.compensated_sum, operators.evaluate_cutter,
                 controls.Control.indices)
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        problem, x0 = instances.random_slater_polyhedron(
            7, dim=4, m=24, interior_radius=0.5, sublevel=False)
        assert problem.affine_rows is not None
        cfg = engine.RunConfig(
            problem=problem, control=controls.Intermittent([range(24)]),
            relaxation=sch.ConstantRelaxation(1.0), overrelaxation=sch.Harmonic(),
            phi=sch.PhiOne(), weights=sch.UniformOverViolated(), x0=x0)
        result = engine.solve(cfg)
    finally:
        patches.undo()
    assert result.status == "feasible"
    assert tr.calls["operators.evaluate_cutter"] >= 1
    assert tr.calls["engine.compensated_sum"] >= 1
    assert tr.calls["controls.indices.intermittent"] == result.k_feasible
    # Every full-block step moves x, and each iterate is tested once.
    assert tr.calls["model.feasible"] == result.k_feasible + 1
    assert (engine.solve, engine.compensated_sum, operators.evaluate_cutter,
            controls.Control.indices) == originals
    subclasses = [cls for cls in vars(controls).values() if inspect.isclass(cls)
                  and issubclass(cls, controls.Control) and cls is not controls.Control]
    assert subclasses
    assert all("indices" not in cls.__dict__ for cls in subclasses)


def test_tracer_counts_one_feasibility_test_per_iterate(monkeypatch):
    # A cyclic step that meets a satisfied constraint leaves x in place,
    # and solve does not test that same iterate again.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        problem, x0 = instances.random_slater_polyhedron(
            3, dim=4, m=40, interior_radius=0.5, sublevel=False)
        assert problem.affine_rows is not None
        cfg = engine.RunConfig(
            problem=problem, control=controls.Cyclic(range(40)),
            relaxation=sch.ConstantRelaxation(1.0), overrelaxation=sch.Harmonic(),
            phi=sch.PhiOne(), weights=sch.UniformOverActive(), x0=x0)
        result = engine.solve(cfg)
    finally:
        patches.undo()
    assert result.status == "feasible"
    trace = result.trace
    moved = sum(b.x is not a.x for a, b in zip(trace, trace[1:]))
    assert 0 < moved < result.steps
    assert tr.calls["model.feasible"] == 1 + moved


def test_solve_log_times_a_streamed_reproduction_as_one_solve(monkeypatch):
    # The reproductions stream their records, but still call solve through
    # certificates.solve, which the benchmark times and counts steps by.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    out = workloads.PassResult()
    with workloads.solve_log(out):
        report = certificates.reproduce_a2(2_000, 5)
    assert report.ok and report.status == "max_iter"
    assert len(out.solves) == 1
    t0, t1, steps, corrections = out.solves[0]
    assert t1 > t0 and steps == 2_000 and corrections > 0
    assert certificates.solve is engine.solve


def test_tracer_counts_the_replays_beside_the_streaming_cli(monkeypatch, tmp_path):
    """Under the tracer, ``certify`` and ``solve --output`` stream their
    records (the tracer's counters, which read ``fh.getvalue()``, must not
    see a real file), while ``check_descent`` and ``write_trace_csv``
    replays are still wrapped and counted, with the streamed outputs' sizes."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    demo = str(BENCH.parent / "demos" / "configs" / "two_halfspaces.json")
    csv_path, cert_path = tmp_path / "t.csv", tmp_path / "cert.json"
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["solve", "--config", demo, "--output",
                             str(csv_path)]) == 0
            assert cli.main(["certify", "--config", demo, "--output",
                             str(cert_path)]) == 0
        run = config.build_run_config(config.parse_document(Path(demo).read_text()))
        result = engine.solve(run)
        z, big_r = run.problem.interior
        cert = certificates.check_descent(result, z, big_r, 1.0)
        buf = io.StringIO()
        engine.write_trace_csv(result.trace, run.problem.dim, buf)
    finally:
        patches.undo()
    assert tr.calls["engine.solve"] == 3
    assert tr.calls["certificates.check_descent"] == 1
    assert tr.calls["engine.write_trace_csv"] == 1
    assert tr.counts["certificates.check_descent.entries"] == len(cert.entries) \
        == len(json.loads(cert_path.read_text())["certificate"]["slacks"])
    assert f"steps={len(cert.entries)} " in stdout.getvalue()
    assert tr.counts["engine.write_trace_csv.bytes"] == len(csv_path.read_bytes()) \
        == len(buf.getvalue().encode())


def test_trace_report_runs_on_ladder_scan():
    """``bench/run.py --trace 1`` divides by the count of
    ``operators.evaluate_cutter`` calls.  Full-block steps on float64
    halfspace rows cut their rows as one batch inside ``engine.step``, so
    on ``ladder_scan`` that function now sees the remotest runs' singleton
    cuts and the few block steps below the crossover; the report must still
    come out whole and correct."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ladder_scan",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    metrics = report["metrics"]
    cuts = metrics["operators.evaluate_cutter.calls"]["value"]
    terms = metrics["engine.compensated_sum.terms"]["value"]
    assert 0 < cuts < terms


def steps_not_quiet(trace) -> int:
    """The steps of a run of singleton steps that ``solve`` cannot emit
    itself: the first at each iterate to meet its row.  A later step on that
    row at the same iterate (by identity) replays the first one's entry."""
    seen = set()
    for rec in trace[:-1]:
        seen.add((id(rec.x), rec.active))
    return len(seen)


def test_tracer_counts_one_emission_per_k_and_a_step_per_unquiet_one(monkeypatch):
    # Raw A.2 emits under a Repetitive control, which solve calls once per
    # k; all but a few of its steps meet a satisfied constraint 0 at an
    # iterate where an earlier step already cut it, and skip engine.step.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    trace = engine.solve(certificates.build_a2_config("raw", 5_000)).trace
    expected = steps_not_quiet(trace)
    assert 0 < expected < 10
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        report = certificates.reproduce_a2(5_000, 5)
    finally:
        patches.undo()
    assert report.ok and report.status == "max_iter"
    assert tr.calls["engine.solve"] == 1
    assert tr.calls["controls.indices.repetitive"] == 5_000
    # The fast-forward past the run steps a Cyclic([1]) config, b_2 ... b_5.
    forward = tr.calls["controls.indices.cyclic"]
    assert forward == 4
    assert tr.calls["engine.step"] == expected + forward


def test_tracer_sees_each_emission_of_a_repetitive_run_on_a_scalar_pool(monkeypatch):
    # On a suite-sized scalar pool, a Repetitive run moves x and stands in
    # quiet stretches; solve asks the control through Control.indices at
    # every k, inside a stretch too, and calls engine.step only for the
    # steps that are not quiet.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    problem, x0 = instances.random_slater_polyhedron(4, dim=3, m=8, interior_radius=0.5)
    period = [5, 7, 7, 4, 7, 7, 7, 0, 3, 4, 2]

    def cfg():
        return engine.RunConfig(
            problem=problem, control=controls.Repetitive(lambda k: (period[k % 11],)),
            relaxation=sch.ConstantRelaxation(1.0), overrelaxation=sch.Harmonic(),
            phi=sch.PhiOne(), weights=sch.UniformOverActive(), x0=3.0 * x0)

    trace = engine.solve(cfg()).trace
    spans = [len(item) for item in trace.items if isinstance(item, engine.QuietSpan)]
    moved = sum(b.x is not a.x for a, b in zip(trace, trace[1:]))
    assert problem.affine_rows is None and max(spans) > 1 and moved > 1
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        result = engine.solve(cfg())
    finally:
        patches.undo()
    assert result.status == "feasible" and result.steps == len(trace) - 1
    assert tr.calls["controls.indices.repetitive"] == result.steps
    assert tr.calls["engine.step"] == steps_not_quiet(trace) < result.steps


def test_trace_report_runs_on_counterexamples():
    """``bench/run.py --trace 1`` on the reproductions, whose controls
    ``solve`` now calls itself and whose quiet steps never reach
    ``engine.step`` or ``evaluate_cutter``."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "counterexamples",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    metrics = report["metrics"]
    # Of a pass's 120,134 steps, raw A.2 emits 100,000 through Repetitive,
    # and all but about a thousand leave x in place at a known row.
    assert 100_000 <= metrics["controls.indices.calls"]["value"] < 120_134
    assert 0 < metrics["operators.evaluate_cutter.calls"]["value"] < 2_000
