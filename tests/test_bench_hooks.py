"""The benchmark's tracer (``bench/tracer.py``) patches feasik's layer
functions by name; a refactor that moves one of them would make
``bench/run.py --trace 1`` crash.  This solves one stacked full-block run
under the tracer and checks that the hooks it relies on are still there."""

import inspect
from pathlib import Path

from feasik import controls, engine, instances, operators
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
    assert (engine.solve, engine.compensated_sum, operators.evaluate_cutter,
            controls.Control.indices) == originals
    subclasses = [cls for cls in vars(controls).values() if inspect.isclass(cls)
                  and issubclass(cls, controls.Control) and cls is not controls.Control]
    assert subclasses
    assert all("indices" not in cls.__dict__ for cls in subclasses)
