import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import feasik
from feasik import cli, config, solve
from feasik.config import (build_problem, build_run_config, emit_document,
                           parse_document)
from feasik.errors import ConfigError


def two_halfspace_doc(**overrides):
    doc = {
        "problem": {
            "dim": 2,
            "outer": {"type": "whole_space"},
            "constraints": [
                {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                {"type": "halfspace", "a": [0.0, 1.0], "b": 0.0},
            ],
            "interior": {"z": [-3.0, -3.0], "R": 1.0},
        },
        "control": {"kind": "cyclic", "order": [0, 1]},
        "relaxation": {"kind": "constant", "alpha": 1.0},
        "overrelaxation": {"kind": "harmonic"},
        "phi": "one",
        "weights": {"kind": "uniform_active"},
        "counter_mode": "bracketed",
        "x0": [1.0, 1.0],
        "max_iter": 1000,
    }
    doc.update(overrides)
    return doc


def a1_doc(n=400):
    """The alternating counterexample expressed as a finite explicit schedule."""
    values = [1.0 / (k + 1) if k % 2 == 0 else 2.0 ** -k for k in range(n)]
    return two_halfspace_doc(
        overrelaxation={"kind": "list", "values": values, "divergent_sum": True},
        relaxation={"kind": "constant", "alpha": 0.5},
        counter_mode="raw",
        max_iter=n,
    )


def test_round_trip_parse_emit():
    docs = [
        two_halfspace_doc(),
        a1_doc(50),
        two_halfspace_doc(control={"kind": "random_sets", "seed": 7,
                                   "atoms": [{"indices": [0], "p": 0.25},
                                             {"indices": [0, 1], "p": 0.75}]}),
        two_halfspace_doc(phi="subgrad_norm", problem={
            "dim": 1,
            "outer": {"type": "box", "lo": [-5.0], "hi": [5.0]},
            "constraints": [
                {"type": "sublevel", "f": {"kind": "quad_coord", "axis": 0, "c": 1.0}},
                {"type": "sublevel", "f": {"kind": "affine", "a": [1.0], "b": 0.1},
                 "cutter": "metric"},
                {"type": "ball", "center": [0.0], "radius": 2.0},
            ]}, x0=[3.0]),
    ]
    for doc in docs:
        assert parse_document(emit_document(doc)) == doc


def assert_built_from(obj, doc):
    """``obj`` has the class its body or function document names, and each
    member of the document equals the attribute of the same name."""
    kinds = config.BODIES if "type" in doc else config.FUNCTIONS
    assert type(obj) is kinds.table[doc[kinds.key]][0]
    for key, want in doc.items():
        if key in (kinds.key, "cutter"):  # a constraint keeps the cutter
            continue
        got = getattr(obj, key)
        if key == "f":
            assert_built_from(got, want)
        elif key == "pieces":
            assert [(a.tolist(), b) for a, b in got] == [(p["a"], p["b"]) for p in want]
        else:
            assert np.asarray(got).tolist() == want, key


def assert_problem_built_from(problem, doc):
    assert problem.dim == doc["dim"] and problem.m == len(doc["constraints"])
    if doc["outer"]["type"] == "whole_space":
        assert problem.outer.body is None
    else:
        assert_built_from(problem.outer.body, doc["outer"])
    for i, cdoc in enumerate(doc["constraints"]):
        c = problem.constraint(i)
        assert c.cutter == cdoc.get("cutter", c.body.default_cutter)
        assert_built_from(c.body, cdoc)
    z, big_r = problem.interior
    assert (z.tolist(), big_r) == (doc["interior"]["z"], doc["interior"]["R"])


def test_problem_keeps_its_document():
    doc = two_halfspace_doc()["problem"]
    assert_problem_built_from(build_problem(doc), doc)


def test_build_and_solve_from_document(tmp_path):
    cfg = build_run_config(two_halfspace_doc())
    result = solve(cfg)
    assert result.feasible


def test_malformed_json_diagnostic():
    with pytest.raises(ConfigError, match="line"):
        parse_document("{ nope }")
    with pytest.raises(ConfigError, match="missing"):
        build_run_config({"problem": {"dim": 1, "constraints": []}})
    no_r = two_halfspace_doc()
    no_r["problem"]["interior"] = {"z": [-3.0, -3.0]}
    no_p = two_halfspace_doc(control={"kind": "random_sets", "seed": 1,
                                      "atoms": [{"indices": [0, 1]}]})
    no_b = two_halfspace_doc(problem={"dim": 1, "constraints": [
        {"type": "sublevel", "f": {"kind": "max_affine", "pieces": [{"a": [1.0]}]}}]},
        x0=[1.0])
    for doc, field in [(no_r, "problem.interior.R"), (no_p, "control.atoms[0].p"),
                       (no_b, "problem.constraints[0].f.pieces[0].b")]:
        with pytest.raises(ConfigError, match=re.escape(f"'{field}' is missing")):
            build_run_config(doc)
    # A member of the wrong type names its field, not a field inside it.
    int_constraint = two_halfspace_doc()
    int_constraint["problem"]["constraints"] = [1]
    list_interior = two_halfspace_doc()
    list_interior["problem"]["interior"] = [[-3.0, -3.0], 1.0]
    for doc, field in [(int_constraint, "problem.constraints[0]"),
                       (list_interior, "problem.interior")]:
        with pytest.raises(ConfigError,
                           match=re.escape(f"'{field}' must be an object")):
            build_run_config(doc)


def test_a_member_that_no_object_reads_is_refused(tmp_path):
    # Each of these used to be dropped: max_iters ran with max_iter 1000.
    def run_doc(control=None):  # a constraint with a cutter and pieces
        doc = two_halfspace_doc(phi={"kind": "one"}, control=control or {
            "kind": "cyclic", "order": [0, 1]})
        doc["problem"]["constraints"].append({"type": "sublevel", "cutter": "metric", "f": {
            "kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 1.0}]}})
        return doc

    def random_sets():
        return {"kind": "random_sets", "seed": 1, "atoms": [{"indices": [0], "p": 1.0}]}

    for doc in (run_doc(), run_doc(random_sets())):
        build_run_config(doc)
    for path, control in [
            ("run.max_iters", None), ("problem.dims", None), ("problem.outer.lo", None),
            ("problem.interior.Z", None), ("problem.constraints[0].b_typo", None),
            ("problem.constraints[2].cuter", None), ("problem.constraints[2].f.piece", None),
            ("problem.constraints[2].f.pieces[0].c", None), ("control.oder", None),
            ("control.seed", None), ("control.atoms[0].q", random_sets()),
            ("relaxation.r", None), ("phi.c", None), ("weights.floor", None)]:
        *keys, member = [int(k) if k.isdigit() else k
                         for k in re.findall(r"\w+", path.removeprefix("run."))]
        doc = parent = run_doc(control)
        for key in keys:
            parent = parent[key]
        parent[member] = 0
        with pytest.raises(ConfigError, match=re.escape(f"field '{path}' is unknown")):
            build_run_config(doc)
    # --seed and FEASIK_SEED give a seed only to a kind that reads one.
    assert build_run_config(run_doc(), seed_override=7).control.kind == "cyclic"
    assert build_run_config(run_doc(random_sets()), seed_override=7).control.seed == 7
    grid = sweep_doc()
    grid["instance"] = grid.pop("instances")
    with pytest.raises(ConfigError, match=re.escape("field 'grid.instance' is unknown")):
        cli.cmd_sweep(cli.build_parser().parse_args(
            ["sweep", "--config", write_doc(tmp_path, grid, "grid.json")]))


# One document per kind of every kind table.
FUNCTION_DOCS = {
    "affine": {"kind": "affine", "a": [1.0, 2.0], "b": 0.5},
    "abs_coord": {"kind": "abs_coord", "axis": 1, "c": 1.0},
    "quad_coord": {"kind": "quad_coord", "axis": 0, "c": 1.5},
    "max_affine": {"kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 1.0},
                                                    {"a": [0.0, -1.0], "b": 2.0}]},
    "sqdist_ball": {"kind": "sqdist_ball", "center": [0.1, 0.2], "radius": 3.0},
}
BODY_DOCS = {
    "halfspace": {"type": "halfspace", "a": [1.0, -1.0], "b": 0.25},
    "ball": {"type": "ball", "center": [0.5, 0.25], "radius": 2.0},
    "box": {"type": "box", "lo": [-1.0, -2.0], "hi": [1.0, 3.0]},
    "sublevel": {"type": "sublevel", "f": FUNCTION_DOCS["affine"],
                 "cutter": "metric"},
}
RUN_DOCS = {
    config.CONTROLS: ("control", [
        {"kind": "cyclic", "order": [1, 0]},
        {"kind": "intermittent", "blocks": [[0], [0, 1]]},
        {"kind": "explicit", "sets": [[1], [0, 1]]},
        {"kind": "remotest"}, {"kind": "max_displacement"},
        {"kind": "max_violation"},
        {"kind": "random_sets", "seed": 3,
         "atoms": [{"indices": [0], "p": 0.5}, {"indices": [0, 1], "p": 0.5}]}]),
    config.RELAXATIONS: ("relaxation", [
        {"kind": "constant", "alpha": 1.5}, {"kind": "list", "values": [1.0, 0.5]}]),
    config.OVERRELAXATIONS: ("overrelaxation", [
        {"kind": "constant", "r": 0.5}, {"kind": "harmonic"},
        {"kind": "geometric", "r0": 1.0, "ratio": 0.5},
        {"kind": "list", "values": [1.0, 0.5], "divergent_sum": True}]),
    config.PHIS: ("phi", ["one", {"kind": "subgrad_norm"}]),
    config.WEIGHTS: ("weights", [
        {"kind": "uniform_active"}, {"kind": "uniform_violated"},
        {"kind": "table", "table": {"0": 0.5, "1": 0.5}, "floor": 0.5}]),
}


def test_every_kind_builds_from_a_document():
    for kinds, (member, docs) in RUN_DOCS.items():
        names = [d if isinstance(d, str) else d["kind"] for d in docs]
        assert sorted(names) == sorted(kinds.table), member
        for name, doc in zip(names, docs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # geometric is not divergent
                run = build_run_config(two_halfspace_doc(**{member: doc}))
            assert type(getattr(run, member)) is kinds.table[name][0]
    assert sorted(FUNCTION_DOCS) == sorted(config.FUNCTIONS.table)
    assert sorted(BODY_DOCS) == sorted(config.BODIES.table)


def test_every_function_and_body_kind_keeps_its_document():
    constraints = list(BODY_DOCS.values()) + [
        {"type": "sublevel", "f": f} for f in FUNCTION_DOCS.values()]
    doc = {"dim": 2, "outer": BODY_DOCS["box"], "constraints": constraints,
           "interior": {"z": [0.0, -0.5], "R": 0.1}}
    problem = build_problem(doc)
    assert [type(problem.constraint(i).body).__name__ for i in range(4)] == \
        ["Halfspace", "Ball", "Box", "Sublevel"]
    assert [type(problem.constraint(i).body.f) for i in range(4, 9)] == \
        [cls for cls, _ in config.FUNCTIONS.table.values()]
    assert_problem_built_from(problem, doc)


def test_unknown_kind_names_its_field():
    bad_function = two_halfspace_doc()
    bad_function["problem"]["constraints"][0] = {
        "type": "sublevel", "f": {"kind": "cubic"}}
    bad_body = two_halfspace_doc()
    bad_body["problem"]["constraints"][0] = {"type": "simplex"}
    bad_outer = two_halfspace_doc()
    bad_outer["problem"]["outer"] = {"type": "cone"}
    cases = [
        (bad_function, "problem.constraints[0].f.kind", "function kind"),
        (bad_body, "problem.constraints[0].type", "body type"),
        (bad_outer, "problem.outer.type", "body type"),
        (two_halfspace_doc(control={"kind": "spiral"}), "control.kind", "control kind"),
        (two_halfspace_doc(relaxation={"kind": "spiral"}), "relaxation.kind",
         "relaxation kind"),
        (two_halfspace_doc(overrelaxation={"kind": "spiral"}), "overrelaxation.kind",
         "overrelaxation kind"),
        (two_halfspace_doc(phi="spiral"), "phi", "phi kind"),
        (two_halfspace_doc(phi={"kind": "spiral"}), "phi.kind", "phi kind"),
        (two_halfspace_doc(weights={"kind": "spiral"}), "weights.kind", "weight kind"),
        (two_halfspace_doc(control={"kind": ["cyclic"]}), "control.kind", "control kind"),
    ]
    for doc, field, noun in cases:
        with pytest.raises(ConfigError, match=re.escape(f"'{field}': unknown {noun}")):
            build_run_config(doc)


def wrong_dimension_docs():
    """(document, field path) pairs whose vector or axis does not fit dim 2."""
    def with_constraint(c):
        doc = two_halfspace_doc()
        doc["problem"]["constraints"][0] = c
        return doc
    cases = [
        (with_constraint({"type": "halfspace", "a": [1.0, 0.0, 0.0], "b": 0.0}),
         "problem.constraints[0].a"),
        (with_constraint({"type": "sublevel", "f": {"kind": "abs_coord", "axis": 5,
                                                     "c": 1.0}}),
         "problem.constraints[0].f.axis"),
        (with_constraint({"type": "ball", "center": [0.0], "radius": 1.0}),
         "problem.constraints[0].center"),
        (with_constraint({"type": "box", "lo": [0.0, 0.0], "hi": 1.0}),
         "problem.constraints[0].hi"),
        (with_constraint({"type": "sublevel", "f": {"kind": "quad_coord", "axis": -1,
                                                     "c": 1.0}}),
         "problem.constraints[0].f.axis"),
        (with_constraint({"type": "sublevel", "f": {
            "kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": 0.0},
                                             {"a": [1.0], "b": 0.0}]}}),
         "problem.constraints[0].f.pieces[1].a"),
        (with_constraint({"type": "sublevel", "f": {"kind": "sqdist_ball",
                                                     "center": [], "radius": 1.0}}),
         "problem.constraints[0].f.center"),
        (two_halfspace_doc(x0=[1.0]), "x0"),
    ]
    outer = two_halfspace_doc()
    outer["problem"]["outer"] = {"type": "box", "lo": [-9.0], "hi": [9.0]}
    interior = two_halfspace_doc()
    interior["problem"]["interior"]["z"] = [-3.0, -3.0, -3.0]
    return cases + [(outer, "problem.outer.lo"), (interior, "problem.interior.z")]


def test_vectors_and_axes_must_fit_the_dimension():
    for doc, field in wrong_dimension_docs():
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
            build_run_config(doc)


def test_cli_validate_rejects_vectors_and_axes_of_another_dimension(tmp_path):
    # A wrong length used to validate OK and then fail, or answer wrongly,
    # in solve: a raw matmul ValueError, a raw IndexError, or a ball center
    # broadcast to "feasible".
    for doc, field in wrong_dimension_docs()[:3]:
        path = write_doc(tmp_path, doc)
        out = run_cli(["validate", "--config", path], tmp_path)
        assert out.returncode == 1, (field, out.stdout)
        assert out.stderr.startswith("error:") and f"'{field}'" in out.stderr


def non_numeric_docs():
    """(document, field path) pairs: a number that does not convert."""
    def with_problem(key, value):
        doc = two_halfspace_doc()
        doc["problem"][key] = value
        return doc

    def with_constraint(c):
        return with_problem("constraints", [c, {"type": "halfspace",
                                                "a": [0.0, 1.0], "b": 0.0}])
    return [
        (with_constraint({"type": "halfspace", "a": ["x", 0.0], "b": 0.0}),
         "problem.constraints[0].a"),
        (with_constraint({"type": "halfspace", "a": [1.0, 0.0], "b": "x"}),
         "problem.constraints[0].b"),
        (with_constraint({"type": "sublevel", "f": {"kind": "abs_coord",
                                                     "axis": "x", "c": 1.0}}),
         "problem.constraints[0].f.axis"),
        (with_constraint({"type": "ball", "center": [0.0, 0.0], "radius": [1]}),
         "problem.constraints[0].radius"),
        (with_constraint({"type": "sublevel", "f": {
            "kind": "max_affine", "pieces": [{"a": [1.0, 0.0], "b": None}]}}),
         "problem.constraints[0].f.pieces[0].b"),
        (two_halfspace_doc(x0=[1.0, {}]), "x0"),
        (two_halfspace_doc(max_iter="x"), "max_iter"),
        (two_halfspace_doc(feas_tol="x"), "feas_tol"),
        (two_halfspace_doc(relaxation={"kind": "constant", "alpha": "x"}),
         "relaxation.alpha"),
        (two_halfspace_doc(overrelaxation={"kind": "geometric", "r0": 1.0,
                                           "ratio": "x"}), "overrelaxation.ratio"),
        (two_halfspace_doc(control={"kind": "random_sets", "seed": "x", "atoms": [
            {"indices": [0], "p": 1.0}]}), "control.seed"),
        (two_halfspace_doc(control={"kind": "random_sets", "seed": 1, "atoms": [
            {"indices": [0], "p": "x"}]}), "control.atoms[0].p"),
        (with_problem("interior", {"z": [-3.0, -3.0], "R": "x"}), "problem.interior.R"),
        (with_problem("dim", "x"), "problem.dim"),
    ]


def test_non_numeric_numbers_are_config_errors_with_the_field_path():
    for doc, field in non_numeric_docs():
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}")):
            build_run_config(doc)


def test_cli_validate_rejects_non_numeric_numbers(tmp_path):
    # These used to escape as a ValueError traceback.
    for doc, field in non_numeric_docs()[:3]:
        path = write_doc(tmp_path, doc)
        out = run_cli(["validate", "--config", path], tmp_path)
        assert out.returncode == 1, (field, out.stdout)
        assert out.stderr.startswith("error:") and f"'{field}" in out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("value", [5, "rawx", None, []])
def test_counter_mode_and_cutter_are_read_with_their_paths(value):
    # Both raised without a field path, and a null or [] cutter silently
    # took the body's default.
    doc = two_halfspace_doc(counter_mode=value)
    with pytest.raises(ConfigError, match=re.escape("field 'counter_mode': unknown")):
        build_run_config(doc)
    doc = two_halfspace_doc()
    doc["problem"]["constraints"][1]["cutter"] = value
    path = "problem.constraints[1].cutter"
    with pytest.raises(ConfigError, match=re.escape(f"field '{path}': unknown")):
        build_run_config(doc)
    doc["problem"]["constraints"][1]["cutter"] = "metric"
    assert build_run_config(doc).problem.constraint(1).cutter == "metric"


def test_constructor_errors_name_their_document_field():
    # A constructor's own error used to arrive without its field, and the
    # index set checks as a ControlError that said "emitted" at parse time.
    def with_constraint(c):
        doc = two_halfspace_doc()
        doc["problem"]["constraints"][1] = c
        return doc
    no_radius = two_halfspace_doc()
    no_radius["problem"]["interior"]["R"] = 0.0
    sublevel_outer = two_halfspace_doc()
    sublevel_outer["problem"]["outer"] = {"type": "sublevel", "f": FUNCTION_DOCS["affine"]}
    atoms = [{"indices": [0], "p": 0.25}, {"indices": [1], "p": 0.25}]
    cases = [
        (with_constraint({"type": "ball", "center": [0.0, 0.0], "radius": -1.0}),
         "problem.constraints[1]", "ball radius must be positive"),
        (with_constraint({"type": "box", "lo": [1.0, 1.0], "hi": [0.0, 2.0]}),
         "problem.constraints[1]", "box has lo > hi"),
        (with_constraint({"type": "halfspace", "a": [0.0, 0.0], "b": 1.0}),
         "problem.constraints[1]", "halfspace normal must be nonzero"),
        (with_constraint({"type": "sublevel", "f": {"kind": "max_affine", "pieces": []}}),
         "problem.constraints[1].f", "MaxAffine needs at least one piece"),
        (with_constraint({"type": "halfspace", "a": [0.0, 1.0], "b": 0.0,
                          "cutter": "subgradient"}),
         "problem.constraints[1]", "subgradient cutter requires a sublevel body"),
        (sublevel_outer, "problem.outer",
         "outer set must be whole space, halfspace, box or ball"),
        (no_radius, "problem", "interior radius must be positive"),
        (two_halfspace_doc(relaxation={"kind": "constant", "alpha": 3}),
         "relaxation", "relaxation outside (0,2]"),
        (two_halfspace_doc(overrelaxation={"kind": "geometric", "r0": 1.0, "ratio": 2}),
         "overrelaxation", "geometric schedule needs r0 > 0 and ratio in (0,1)"),
        (two_halfspace_doc(control={"kind": "cyclic", "order": []}),
         "control", "cyclic order is empty"),
        (two_halfspace_doc(control={"kind": "intermittent", "blocks": [[0, 0]]}),
         "control", "blocks[0] has duplicate indices (0, 0)"),
        (two_halfspace_doc(control={"kind": "random_sets", "seed": 1,
                                    "atoms": [{"indices": [], "p": 1.0}]}),
         "control", "atoms[0].indices is empty"),
        (two_halfspace_doc(control={"kind": "random_sets", "seed": 1, "atoms": atoms}),
         "control", "atom probabilities sum to 0.5, not 1"),
        (two_halfspace_doc(weights={"kind": "table", "table": {"0": 1.0}, "floor": 2}),
         "weights", "weight floor must be in (0,1]"),
        (two_halfspace_doc(control={"kind": "cyclic", "order": [1, 5]}),
         "control.order[1]", "index 5 is outside the pool of 2 constraints"),
    ]
    for doc, field, message in cases:
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}': {message}")
                           + "$"):
            build_run_config(doc)


def unchecked_number_docs():
    """(document, field path) pairs: list members that do not convert,
    fractions an integer field would truncate, booleans as numbers, the
    NaN and Infinity that json reads, and a string as a flag."""
    def control(**spec):
        return two_halfspace_doc(control=spec)

    def table(weights, floor=0.5):
        return two_halfspace_doc(weights={"kind": "table", "table": weights,
                                          "floor": floor})

    dim, b, nan, inf = (two_halfspace_doc() for _ in range(4))
    dim["problem"]["dim"] = 2.5
    b["problem"]["constraints"][0]["b"] = True
    # b = NaN ran to max_iter; b = Infinity dropped the constraint.
    nan["problem"]["constraints"][0]["b"] = math.nan
    inf["problem"]["constraints"][0]["b"] = math.inf
    return [
        (control(kind="cyclic", order=["x"]), "control.order[0]"),
        (control(kind="intermittent", blocks=[["x"]]), "control.blocks[0][0]"),
        (control(kind="explicit", sets=[[0, "y"]]), "control.sets[0][1]"),
        (control(kind="random_sets", seed=1, atoms=[{"indices": ["x"], "p": 1.0}]),
         "control.atoms[0].indices[0]"),
        (two_halfspace_doc(relaxation={"kind": "list", "values": ["x"]}),
         "relaxation.values[0]"),
        (two_halfspace_doc(overrelaxation={"kind": "list", "values": ["x"]}),
         "overrelaxation.values[0]"),
        (table({"0": 1.0, "a": 1.0}), "weights.table.a"),
        (table({"0": 1.0, "1": "x"}), "weights.table.1"),
        (table({"0": 1.0, "1": 1.0}, floor="x"), "weights.floor"),
        (dim, "problem.dim"),
        (two_halfspace_doc(max_iter=10.7), "max_iter"),
        (control(kind="cyclic", order=[0.5, 1]), "control.order[0]"),
        (control(kind="random_sets", seed=1.9, atoms=[{"indices": [0], "p": 1.0}]),
         "control.seed"),
        (two_halfspace_doc(max_iter=True), "max_iter"),
        (b, "problem.constraints[0].b"),
        (two_halfspace_doc(feas_window=[0, "x"]), "feas_window[1]"),
        (nan, "problem.constraints[0].b"),
        (inf, "problem.constraints[0].b"),
        (two_halfspace_doc(feas_tol=math.nan), "feas_tol"),
        # bool("false") is True: a divergent sum, and no warning.
        (two_halfspace_doc(overrelaxation={"kind": "list", "values": [1.0],
                                           "divergent_sum": "false"}),
         "overrelaxation.divergent_sum"),
    ]


def test_document_numbers_are_checked_not_coerced():
    for doc, field in unchecked_number_docs():
        with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")):
            build_run_config(doc)
    # Integral floats still read as integers, and the floor as given.
    run = build_run_config(two_halfspace_doc(
        max_iter=10.0, control={"kind": "cyclic", "order": [0.0, 1.0]},
        weights={"kind": "table", "table": {"0": 1.0, "1": 1}, "floor": 1}))
    assert run.max_iter == 10 and run.control.order == [0, 1]
    assert type(run.max_iter) is int and run.weights.floor(1) == 1
    assert type(run.weights.floor(1)) is int
    run = build_run_config(two_halfspace_doc(overrelaxation={
        "kind": "list", "values": [1.0], "divergent_sum": True}))
    assert run.overrelaxation.divergent_sum is True


def test_python_constructors_check_indices_as_documents_do():
    # The constructors used to truncate these with int().
    from feasik import (Cyclic, ExplicitTable, Intermittent, RandomSets,
                        Repetitive, RunConfig)
    run = build_run_config(two_halfspace_doc())
    base = dict(problem=run.problem, control=run.control,
                relaxation=run.relaxation, overrelaxation=run.overrelaxation,
                phi=run.phi, weights=run.weights, x0=run.x0)
    bad = [
        lambda: Cyclic([0.5, 1]),
        lambda: Cyclic([True, 0]),
        lambda: Intermittent([[1.7, 0]]),
        lambda: Intermittent([["1", 0]]),
        lambda: ExplicitTable({1.5: 1.0}, 0.5),
        lambda: RunConfig(**base, feas_window=(1.9, 0)),
        lambda: RunConfig(**base, feas_window=(0, False)),
        lambda: RunConfig(**base, max_iter=True),
        lambda: RunConfig(**base, max_iter=10.5),
        lambda: Repetitive(lambda k: (0,), max_card=2.7),
        lambda: RandomSets([((0,), 1.0)], seed=1.5),
        lambda: RandomSets([((0,), 1.0)], seed=True),
    ]
    for make in bad:
        with pytest.raises(ConfigError, match="must be an integer"):
            make()
    # ints, numpy integers and integral floats are kept as ints.
    assert Cyclic([np.int64(1), 0.0]).order == [1, 0]
    assert Intermittent([(np.int32(1), 0)]).sets == [(1, 0)]
    assert ExplicitTable({np.int64(1): 1.0}, 0.5).table == {1: 1.0}
    cfg = RunConfig(**base, feas_window=(np.int64(1), 0.0), max_iter=np.int64(7))
    assert cfg.feas_window == (1, 0) and type(cfg.feas_window[0]) is int
    assert cfg.max_iter == 7 and type(cfg.max_iter) is int


def test_python_constructor_checks_feas_tol_as_documents_do():
    # feas_tol="x" used to raise a TypeError in the first feasibility test,
    # and an infinite feas_tol reported any x0 feasible at k = 0.
    from feasik import RunConfig
    run = build_run_config(two_halfspace_doc(x0=[5.0, 5.0]))
    base = dict(problem=run.problem, control=run.control,
                relaxation=run.relaxation, overrelaxation=run.overrelaxation,
                phi=run.phi, weights=run.weights, x0=run.x0)
    for tol in ("x", None, True, [0.0], math.inf, -math.inf, math.nan, 10 ** 400):
        with pytest.raises(ConfigError, match="^field 'feas_tol' must be a"):
            RunConfig(**base, feas_tol=tol)
        with pytest.raises(ConfigError, match="^field 'feas_tol' must be a"):
            build_run_config(two_halfspace_doc(x0=[5.0, 5.0], feas_tol=tol))
    for tol in (0, np.float32(0.5), 1e300):
        cfg = RunConfig(**base, feas_tol=tol)
        assert cfg.feas_tol == tol and type(cfg.feas_tol) is float
    assert solve(RunConfig(**base, feas_tol=1e300)).k_feasible == 0
    assert solve(RunConfig(**base, feas_tol=1.0)).k_feasible >= 1


def test_run_config_faults_read_the_same_from_python_and_documents():
    # RunConfig's own messages had no field path; documents read these
    # members themselves and said "field '<member>'".
    from feasik import RunConfig
    run = build_run_config(two_halfspace_doc())
    base = dict(problem=run.problem, control=run.control,
                relaxation=run.relaxation, overrelaxation=run.overrelaxation,
                phi=run.phi, weights=run.weights, x0=run.x0)
    members = ("counter_mode", "max_iter", "feas_tol", "feas_window")
    cases = [(doc, field) for doc, field in non_numeric_docs() + unchecked_number_docs()
             if field.split("[")[0] in members]
    cases += [(two_halfspace_doc(counter_mode=v), "counter_mode") for v in (5, "rawx", None)]
    cases += [(two_halfspace_doc(max_iter=-1), "max_iter"),
              (two_halfspace_doc(feas_window=[]), "feas_window"),
              (two_halfspace_doc(feas_window=[0, 5]), "feas_window[1]"),
              (two_halfspace_doc(feas_window=3), "feas_window")]
    assert len(cases) == 13
    for doc, field in cases:
        member = field.split("[")[0]
        with pytest.raises(ConfigError) as from_doc:
            build_run_config(doc)
        with pytest.raises(ConfigError) as from_python:
            RunConfig(**base, **{member: doc[member]})
        assert str(from_doc.value).startswith(f"field '{field}'"), from_doc.value
        assert str(from_python.value) == str(from_doc.value)
    boxed = two_halfspace_doc()
    boxed["problem"]["outer"] = {"type": "box", "lo": [-4.0, -4.0], "hi": [2.0, 2.0]}
    with pytest.raises(ConfigError, match=re.escape("field 'x0': not in the outer set Q")
                       + "$"):
        build_run_config({**boxed, "x0": [5.0, 5.0]})
    with pytest.raises(ConfigError, match=re.escape("field 'x0': expected dimension 2, got 3")):
        RunConfig(**{**base, "x0": [0.0, 0.0, 0.0]})


def test_coordinates_must_be_numbers():
    # numpy read "2" and True as 2.0 and 1.0, and raised its own TypeError
    # or ValueError for {} and "ab".  Arrays are checked by their dtype.
    run = build_run_config(two_halfspace_doc())
    base = dict(problem=run.problem, control=run.control,
                relaxation=run.relaxation, overrelaxation=run.overrelaxation,
                phi=run.phi, weights=run.weights)
    for bad in ([1.0, "2"], [True, 2.0], [1.0, np.True_], [1.0, {}], [1.0, None],
                "ab", b"ab", 2.0, np.array(["1", "2"]), np.array([True, False]),
                np.array([1.0, 2.0], dtype=object), np.array([1.0, 2.0j])):
        with pytest.raises(ConfigError, match="^field 'x0': (coordinates must be "
                           "numbers|expected a 1-D vector)"):
            feasik.RunConfig(**base, x0=bad)
        with pytest.raises(ConfigError, match="^(coordinates must be numbers|"
                           "expected a 1-D vector)"):
            feasik.Halfspace(bad, 1.0)
    for good in ([1, 2.0], (np.int64(1), np.float32(2.0)), np.array([1, 2]),
                 np.array([1, 2], dtype=np.uint8), np.array([1.0, 2.0], np.float32)):
        assert feasik.Halfspace(good, 1.0).a.tolist() == [1.0, 2.0]
        assert feasik.RunConfig(**base, x0=good).x0.tolist() == [1.0, 2.0]


def test_cli_validate_rejects_unchecked_numbers(tmp_path, capsys):
    # These raised a raw ValueError or TypeError, or validated with the
    # number truncated.
    for n, (doc, field) in enumerate(unchecked_number_docs()):
        path = write_doc(tmp_path, doc, f"run{n}.json")
        assert cli.main(["validate", "--config", path]) == 1, field
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{field}'" in err, err


def test_cli_validate_checks_the_feasibility_window(tmp_path, capsys):
    # [] made solve report feasible at k = 0 from a point outside both
    # sets; [0, 5] validated and failed only in solve.
    for n, (window, expected) in enumerate([
            ([], "field 'feas_window' is empty"),
            ([5], "field 'feas_window[0]': index 5 is outside the pool of 2"),
            ([0, 5], "field 'feas_window[1]': index 5 is outside the pool of 2"),
            ([0, -1], "field 'feas_window[1]': index -1 is outside the pool of 2")]):
        path = write_doc(tmp_path, two_halfspace_doc(feas_window=window), f"w{n}.json")
        for command in ("validate", "solve"):
            assert cli.main([command, "--config", path]) == 1, window
            err = capsys.readouterr().err
            assert err.startswith("error:") and expected in err, err
    path = write_doc(tmp_path, two_halfspace_doc(feas_window=[1, 0]), "ok.json")
    assert cli.main(["validate", "--config", path]) == 0


def test_cli_main_does_not_mask_key_errors(monkeypatch):
    # Exit 1 means a configuration error; a KeyError inside feasik is a bug.
    def broken(args):
        raise KeyError("bug")
    monkeypatch.setattr(cli, "cmd_validate", broken)
    with pytest.raises(KeyError):
        cli.main(["validate", "--config", "run.json"])


# The directory holding the feasik package this process imported (src/ in a
# checkout, site-packages in an install). A relative PYTHONPATH entry such as
# "src" no longer resolves once the child starts in tmp_path, so this goes
# first on the child's path and the child runs the code under test.
FEASIK_ROOT = str(Path(feasik.__file__).resolve().parents[1])


def run_cli(args, tmp_path, env_extra=None):
    env = dict(os.environ)
    env.pop("FEASIK_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [FEASIK_ROOT,
                                                      env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "feasik.cli", *args],
                          capture_output=True, text=True, cwd=tmp_path, env=env)


def write_doc(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(emit_document(doc))
    return str(path)


def test_cli_solve_feasible(tmp_path):
    path = write_doc(tmp_path, two_halfspace_doc())
    out = run_cli(["solve", "--config", path, "--output", "trace.csv"], tmp_path)
    assert out.returncode == 0
    assert "status=feasible" in out.stdout and "corrections=" in out.stdout
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("k,bracket_k,alpha,r,active,violated,step_norm,feasible")


def test_cli_solve_verbose_prints_the_final_iterate(tmp_path, capsys):
    # Each coordinate is printed as its shortest round-trip repr, which
    # keeps every bit of the raw A.1 run's y = 3.87...e-121.
    doc = a1_doc()
    path = write_doc(tmp_path, doc)
    assert cli.main(["solve", "--config", path]) == 2
    quiet = capsys.readouterr().out
    assert cli.main(["solve", "--config", path, "--verbose"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == quiet.splitlines() and "final" not in quiet
    final = solve(build_run_config(doc)).final
    assert lines[-1] == "final=[" + ", ".join(repr(float(v)) for v in final) + "]"
    printed = lines[-1].removeprefix("final=[").removesuffix("]").split(", ")
    assert [float(t).hex() for t in printed] == [float(v).hex() for v in final]


def test_cli_solve_a1_raw_hits_budget(tmp_path):
    path = write_doc(tmp_path, a1_doc())
    out = run_cli(["solve", "--config", path], tmp_path)
    assert out.returncode == 2
    assert "status=max_iter" in out.stdout


def test_cli_solve_nonfinite_exits_three(tmp_path):
    # alpha = 2 doubles an overshoot of 1e308 past the largest double.
    doc = two_halfspace_doc(
        problem={"dim": 1, "constraints": [{"type": "halfspace", "a": [1.0], "b": 0.0}]},
        control={"kind": "cyclic", "order": [0]},
        relaxation={"kind": "constant", "alpha": 2.0},
        overrelaxation={"kind": "constant", "r": 1e308}, x0=[1e300])
    path = write_doc(tmp_path, doc)
    out = run_cli(["solve", "--config", path, "--output", "t.csv"], tmp_path)
    assert out.returncode == 3
    assert "status=nonfinite k_feasible=None" in out.stdout
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 3


def test_cli_bad_relaxation_exits_one(tmp_path):
    doc = two_halfspace_doc(relaxation={"kind": "constant", "alpha": 2.5})
    path = write_doc(tmp_path, doc)
    out = run_cli(["solve", "--config", path], tmp_path)
    assert out.returncode == 1
    assert "relaxation outside (0,2]" in out.stderr


def test_cli_validate(tmp_path):
    path = write_doc(tmp_path, two_halfspace_doc())
    out = run_cli(["validate", "--config", path], tmp_path)
    assert out.returncode == 0 and out.stdout.startswith("OK dim=2 m=2")
    bad = write_doc(tmp_path, {"problem": {}}, "bad.json")
    out = run_cli(["validate", "--config", bad], tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "'problem.dim'" in out.stderr
    doc = two_halfspace_doc()
    doc["problem"]["interior"] = {"R": 1.0}
    no_z = write_doc(tmp_path, doc, "no_z.json")
    out = run_cli(["validate", "--config", no_z], tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "'problem.interior.z'" in out.stderr
    # An index outside the pool fails validation, as it would fail solve.
    for control, field in [({"kind": "cyclic", "order": [5]}, "control.order[0]"),
                           ({"kind": "intermittent", "blocks": [[0], [1, 2]]},
                            "control.blocks[1][1]"),
                           ({"kind": "explicit", "sets": [[0, -1]]}, "control.sets[0][1]"),
                           ({"kind": "random_sets", "seed": 1,
                             "atoms": [{"indices": [0], "p": 0.5},
                                       {"indices": [2], "p": 0.5}]},
                            "control.atoms[1].indices[0]")]:
        path = write_doc(tmp_path, two_halfspace_doc(control=control), "out.json")
        out = run_cli(["validate", "--config", path], tmp_path)
        assert out.returncode == 1
        assert out.stderr.startswith("error:") and f"'{field}'" in out.stderr


def test_cli_certify(tmp_path):
    path = write_doc(tmp_path, two_halfspace_doc())
    out = run_cli(["certify", "--config", path, "--output", "cert.json"], tmp_path)
    assert out.returncode == 0
    assert "violations=0" in out.stdout
    report = json.loads((tmp_path / "cert.json").read_text())
    assert report["certificate"]["violations"] == []


def test_cli_certify_needs_an_interior(tmp_path, capsys):
    doc = two_halfspace_doc()
    del doc["problem"]["interior"]
    path = write_doc(tmp_path, doc)
    assert cli.main(["certify", "--config", path]) == 1
    assert capsys.readouterr().err == "error: certify needs problem.interior = {z, R}\n"


def test_cli_reproduce_a1(tmp_path):
    out = run_cli(["reproduce", "a1-bracketed"], tmp_path)
    assert out.returncode == 0 and "PASS" in out.stdout


def test_cli_seed_overrides(tmp_path):
    doc = two_halfspace_doc(control={"kind": "random_sets", "seed": 1,
                                     "atoms": [{"indices": [0], "p": 0.5},
                                               {"indices": [1], "p": 0.5}]},
                            x0=[2.0, 1.5])
    path = write_doc(tmp_path, doc)
    base = run_cli(["solve", "--config", path, "--output", "t1.csv"], tmp_path)
    flag = run_cli(["solve", "--config", path, "--output", "t2.csv", "--seed", "1"],
                   tmp_path)
    env = run_cli(["solve", "--config", path, "--output", "t3.csv"], tmp_path,
                  env_extra={"FEASIK_SEED": "1"})
    assert base.returncode == flag.returncode == env.returncode == 0
    t1 = (tmp_path / "t1.csv").read_text()
    assert t1 == (tmp_path / "t2.csv").read_text() == (tmp_path / "t3.csv").read_text()
    other = run_cli(["solve", "--config", path, "--output", "t4.csv",
                     "--seed", "999"], tmp_path)
    assert other.returncode in (0, 2)  # different draws may differ in length


def test_cli_rejects_a_non_integer_seed_variable(tmp_path):
    # int("abc") used to escape as a ValueError traceback.
    path = write_doc(tmp_path, two_halfspace_doc())
    for value in ("abc", "1.5", "0x10"):
        out = run_cli(["validate", "--config", path], tmp_path,
                      env_extra={"FEASIK_SEED": value})
        assert out.returncode == 1, out.stderr
        assert out.stderr == (f"error: FEASIK_SEED must be an integer, "
                              f"not {value!r}\n")
    ok = run_cli(["validate", "--config", path], tmp_path,
                 env_extra={"FEASIK_SEED": " 7 "})  # what --seed's int() reads
    assert ok.returncode == 0 and ok.stdout.startswith("OK ")


def sweep_doc():
    return {
        "base": {
            "problem": two_halfspace_doc()["problem"],
            "relaxation": {"kind": "constant", "alpha": 1.0},
            "overrelaxation": {"kind": "harmonic"},
            "weights": {"kind": "uniform_active"},
            "counter_mode": "bracketed",
            "max_iter": 1000,
        },
        "instances": [{"x0": [1.0, 1.0]}, {"x0": [3.0, -1.0]}],
        "controls": [{"kind": "cyclic", "order": [0, 1]},
                     {"kind": "remotest"},
                     {"kind": "random_sets", "seed": 5,
                      "atoms": [{"indices": [0], "p": 0.5},
                                {"indices": [1], "p": 0.5}]}],
        "phis": ["one"],
    }


def test_cli_sweep_deterministic(tmp_path):
    path = write_doc(tmp_path, sweep_doc(), "grid.json")
    out1 = run_cli(["sweep", "--config", path, "--output", "s1.csv"], tmp_path)
    out2 = run_cli(["sweep", "--config", path, "--output", "s2.csv"], tmp_path)
    assert out1.returncode == 0 and out2.returncode == 0
    s1 = (tmp_path / "s1.csv").read_text()
    assert s1 == (tmp_path / "s2.csv").read_text()
    lines = s1.strip().splitlines()
    assert lines[0] == "instance,control,phi,overrelaxation,k_feasible,corrections,wall_time"
    assert len(lines) == 1 + 2 * 3
    assert all(line.split(",")[4] != "MAX" for line in lines[1:])


def test_cli_sweep_timing_fills_the_wall_time_column(tmp_path, capsys):
    path = write_doc(tmp_path, sweep_doc(), "grid.json")
    assert cli.main(["sweep", "--config", path]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert cli.main(["sweep", "--config", path, "--timing"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert timed[0] == plain[0] and len(timed) == len(plain) == 1 + 2 * 3
    for row, untimed in zip(timed[1:], plain[1:]):
        *fields, wall_time = row.split(",")
        assert fields == untimed.split(",")[:-1] and untimed.endswith(",")
        assert re.fullmatch(r"\d+\.\d{6}", wall_time) and float(wall_time) < 60.0


def test_cli_sweep_parallel_matches_serial(tmp_path):
    path = write_doc(tmp_path, sweep_doc(), "grid.json")
    a = run_cli(["sweep", "--config", path, "--output", "a.csv"], tmp_path)
    b = run_cli(["sweep", "--config", path, "--output", "b.csv", "--jobs", "2"],
                tmp_path)
    assert a.returncode == b.returncode == 0
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_cli_sweep_reports_nonfinite_runs(tmp_path):
    # The run of test_cli_solve_nonfinite_exits_three: it stops nonfinite
    # and does not read like one that ran out of budget ("MAX").
    doc = {
        "base": {"problem": {"dim": 1, "constraints": [
                     {"type": "halfspace", "a": [1.0], "b": 0.0}]},
                 "relaxation": {"kind": "constant", "alpha": 2.0},
                 "overrelaxation": {"kind": "constant", "r": 1e308},
                 "weights": {"kind": "uniform_active"}, "max_iter": 1000},
        "instances": [{"x0": [1e300]}],
        "controls": [{"kind": "cyclic", "order": [0]}],
        "phis": ["one"],
    }
    path = write_doc(tmp_path, doc, "grid.json")
    out = run_cli(["sweep", "--config", path], tmp_path)
    assert out.returncode == 0
    assert out.stdout.splitlines()[1:] == ["instance0,cyclic,one,constant,NONFINITE,1,"]


def test_cli_sweep_empty_grid(tmp_path):
    doc = sweep_doc()
    doc["instances"] = []
    path = write_doc(tmp_path, doc, "grid.json")
    out = run_cli(["sweep", "--config", path], tmp_path)
    assert out.returncode == 1
    assert "empty sweep grid" in out.stderr


def test_cli_sweep_checks_the_shape_of_the_grid(tmp_path, capsys):
    # These escaped as a ValueError or TypeError traceback, or iterated the
    # letters of a string.
    cases = [("instances", "x", "field 'instances' must be a list"),
             ("instances", [1], "field 'instances[0]' must be an object"),
             ("base", [1], "field 'base' must be an object"),
             ("controls", {"kind": "remotest"}, "field 'controls' must be a list"),
             ("phis", "one", "field 'phis' must be a list")]
    for n, (key, value, expected) in enumerate(cases):
        doc = sweep_doc()
        doc[key] = value
        path = write_doc(tmp_path, doc, f"g{n}.json")
        assert cli.main(["sweep", "--config", path]) == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error:") and expected in err, err
    # A phi given as a document is listed by its kind.
    doc = sweep_doc()
    doc["phis"] = [{"kind": "one"}]
    assert cli.main(["sweep", "--config", write_doc(tmp_path, doc, "phi.json")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["one"] * 6


def test_cli_missing_file(tmp_path):
    out = run_cli(["solve", "--config", "missing.json"], tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error:") and "missing.json" in out.stderr
