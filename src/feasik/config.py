"""JSON-compatible problem and run documents.

A run document looks like::

    {
      "problem": {
        "dim": 2,
        "outer": {"type": "whole_space"},
        "constraints": [
          {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
          {"type": "sublevel", "f": {"kind": "affine", "a": [0.0, 1.0], "b": 0.0}}
        ],
        "interior": {"z": [-2.0, -2.0], "R": 1.0}
      },
      "control": {"kind": "cyclic", "order": [0, 1]},
      "relaxation": {"kind": "constant", "alpha": 1.0},
      "overrelaxation": {"kind": "harmonic"},
      "phi": "one",
      "weights": {"kind": "uniform_active"},
      "counter_mode": "bracketed",
      "x0": [1.0, 1.0],
      "max_iter": 100000
    }

Numbers pass through the standard decimal -> binary64 rounding of the json
module, and are emitted with shortest round-trip rendering, so
parse(emit(doc)) == doc bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from . import controls as ctl
from . import schedules as sch
from .engine import RunConfig
from .errors import ConfigError
from .model import (AbsCoordMinusC, Affine, Ball, Box, Constraint, Halfspace,
                    MaxAffine, OuterSet, Problem, QuadCoordMinusC,
                    SquaredDistToBall, Sublevel)


def parse_document(text: str) -> dict:
    """Parse JSON with a line/column diagnostic on failure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config at line {e.lineno}, column {e.colno}: "
                          f"{e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    return doc


def emit_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{where}' must be an object, "
                          f"not {type(doc).__name__}")
    return doc


def _need(doc: dict, key: str, where: str):
    if key not in _object(doc, where):
        raise ConfigError(f"field '{where}.{key}' is missing")
    return doc[key]


def _need_list(doc: dict, key: str, where: str) -> list:
    items = _need(doc, key, where)
    if not isinstance(items, list):
        raise ConfigError(f"field '{where}.{key}' must be a list, "
                          f"not {type(items).__name__}")
    return items


# ---------------------------------------------------------------------------
# Functions and bodies
# ---------------------------------------------------------------------------

def build_function(doc: dict, where: str):
    kind = _need(doc, "kind", where)
    if kind == "affine":
        return Affine(_need(doc, "a", where), _need(doc, "b", where))
    if kind == "abs_coord":
        return AbsCoordMinusC(int(_need(doc, "axis", where)), float(_need(doc, "c", where)))
    if kind == "quad_coord":
        return QuadCoordMinusC(int(_need(doc, "axis", where)), float(_need(doc, "c", where)))
    if kind == "max_affine":
        pieces = _need_list(doc, "pieces", where)
        return MaxAffine(tuple((_need(p, "a", f"{where}.pieces[{n}]"),
                                _need(p, "b", f"{where}.pieces[{n}]"))
                               for n, p in enumerate(pieces)))
    if kind == "sqdist_ball":
        return SquaredDistToBall(_need(doc, "center", where), float(_need(doc, "radius", where)))
    raise ConfigError(f"field '{where}.kind': unknown function kind {kind!r}")


def function_doc(f) -> dict:
    if isinstance(f, Affine):
        return {"kind": "affine", "a": [float(v) for v in f.a], "b": f.b}
    if isinstance(f, AbsCoordMinusC):
        return {"kind": "abs_coord", "axis": f.axis, "c": f.c}
    if isinstance(f, QuadCoordMinusC):
        return {"kind": "quad_coord", "axis": f.axis, "c": f.c}
    if isinstance(f, MaxAffine):
        return {"kind": "max_affine",
                "pieces": [{"a": [float(v) for v in a], "b": b} for a, b in f.pieces]}
    if isinstance(f, SquaredDistToBall):
        return {"kind": "sqdist_ball", "center": [float(v) for v in f.center],
                "radius": f.radius}
    raise ConfigError(f"cannot serialize function {type(f).__name__}")


def build_body(doc: dict, where: str):
    t = _need(doc, "type", where)
    if t == "halfspace":
        return Halfspace(_need(doc, "a", where), _need(doc, "b", where))
    if t == "ball":
        return Ball(_need(doc, "center", where), _need(doc, "radius", where))
    if t == "box":
        return Box(_need(doc, "lo", where), _need(doc, "hi", where))
    if t == "sublevel":
        return Sublevel(build_function(_need(doc, "f", where), where + ".f"))
    raise ConfigError(f"field '{where}.type': unknown body type {t!r}")


def body_doc(body) -> dict:
    if isinstance(body, Halfspace):
        return {"type": "halfspace", "a": [float(v) for v in body.a], "b": body.b}
    if isinstance(body, Ball):
        return {"type": "ball", "center": [float(v) for v in body.center],
                "radius": body.radius}
    if isinstance(body, Box):
        return {"type": "box", "lo": [float(v) for v in body.lo],
                "hi": [float(v) for v in body.hi]}
    if isinstance(body, Sublevel):
        return {"type": "sublevel", "f": function_doc(body.f)}
    raise ConfigError(f"cannot serialize body {type(body).__name__}")


def build_problem(doc: dict, where: str = "problem") -> Problem:
    dim = int(_need(doc, "dim", where))
    outer_doc = _object(doc.get("outer", {"type": "whole_space"}), where + ".outer")
    if outer_doc.get("type") == "whole_space":
        outer = OuterSet.whole_space()
    else:
        outer = OuterSet(build_body(outer_doc, where + ".outer"))
    constraints = []
    for pos, cdoc in enumerate(_need_list(doc, "constraints", where)):
        body = build_body(cdoc, f"{where}.constraints[{pos}]")
        constraints.append(Constraint(pos, body, cdoc.get("cutter", "")))
    interior = None
    if "interior" in doc:
        interior = (_need(doc["interior"], "z", where + ".interior"),
                    _need(doc["interior"], "R", where + ".interior"))
    return Problem(dim, constraints, outer=outer, interior=interior)


def problem_doc(problem: Problem) -> dict:
    if not problem.is_finite:
        raise ConfigError("cannot serialize an infinite pool")
    out: dict = {"dim": problem.dim}
    out["outer"] = ({"type": "whole_space"} if problem.outer.is_whole_space
                    else body_doc(problem.outer.body))
    cons = []
    for i in problem.indices():
        c = problem.constraint(i)
        d = body_doc(c.body)
        default = "subgradient" if isinstance(c.body, Sublevel) else "metric"
        if c.cutter != default:
            d["cutter"] = c.cutter
        cons.append(d)
    out["constraints"] = cons
    if problem.interior is not None:
        z, big_r = problem.interior
        out["interior"] = {"z": [float(v) for v in z], "R": big_r}
    return out


# ---------------------------------------------------------------------------
# Controls, schedules, weights, phi
# ---------------------------------------------------------------------------

def build_control(doc: dict, where: str = "control", seed_override: Optional[int] = None):
    kind = _need(doc, "kind", where)
    if kind == "cyclic":
        return ctl.Cyclic(_need(doc, "order", where))
    if kind == "intermittent":
        return ctl.Intermittent(_need(doc, "blocks", where))
    if kind == "explicit":
        return ctl.Explicit(_need(doc, "sets", where))
    if kind == "remotest":
        return ctl.RemotestSet()
    if kind == "max_displacement":
        return ctl.MaxDisplacement()
    if kind == "max_violation":
        return ctl.MaxViolation()
    if kind == "random_sets":
        atoms = [(_need(a, "indices", f"{where}.atoms[{n}]"),
                  _need(a, "p", f"{where}.atoms[{n}]"))
                 for n, a in enumerate(_need_list(doc, "atoms", where))]
        seed = seed_override if seed_override is not None else _need(doc, "seed", where)
        return ctl.RandomSets(atoms, int(seed))
    raise ConfigError(f"field '{where}.kind': unknown control kind {kind!r}")


def _listed_indices(control, where: str) -> list:
    """(field path, index) for every pool index a listed control names."""
    if isinstance(control, ctl.Cyclic):
        return [(f"{where}.order[{n}]", i) for n, i in enumerate(control.order)]
    if isinstance(control, ctl.Intermittent):
        groups = [(f"{where}.blocks[{n}]", b) for n, b in enumerate(control.blocks)]
    elif isinstance(control, ctl.Explicit):
        groups = [(f"{where}.sets[{n}]", s) for n, s in enumerate(control.sets)]
    elif isinstance(control, ctl.RandomSets):
        groups = [(f"{where}.atoms[{n}].indices", s)
                  for n, (s, _) in enumerate(control.atoms)]
    else:
        return []
    return [(f"{path}[{j}]", i) for path, group in groups
            for j, i in enumerate(group)]


def control_doc(control) -> dict:
    if isinstance(control, ctl.Cyclic):
        return {"kind": "cyclic", "order": list(control.order)}
    if isinstance(control, ctl.Intermittent):
        return {"kind": "intermittent", "blocks": [list(b) for b in control.blocks]}
    if isinstance(control, ctl.Explicit):
        return {"kind": "explicit", "sets": [list(s) for s in control.sets]}
    if isinstance(control, ctl.RemotestSet):
        return {"kind": "remotest"}
    if isinstance(control, ctl.MaxDisplacement):
        return {"kind": "max_displacement"}
    if isinstance(control, ctl.MaxViolation):
        return {"kind": "max_violation"}
    if isinstance(control, ctl.RandomSets):
        return {"kind": "random_sets", "seed": control.seed,
                "atoms": [{"indices": list(s), "p": p} for s, p in control.atoms]}
    raise ConfigError(f"cannot serialize control {type(control).__name__}")


def build_relaxation(doc: dict, where: str = "relaxation"):
    kind = _need(doc, "kind", where)
    if kind == "constant":
        return sch.ConstantRelaxation(_need(doc, "alpha", where))
    if kind == "list":
        return sch.RelaxationList(_need(doc, "values", where))
    raise ConfigError(f"field '{where}.kind': unknown relaxation kind {kind!r}")


def build_overrelaxation(doc: dict, where: str = "overrelaxation"):
    kind = _need(doc, "kind", where)
    if kind == "constant":
        return sch.ConstantOverrelaxation(_need(doc, "r", where))
    if kind == "harmonic":
        return sch.Harmonic()
    if kind == "geometric":
        return sch.Geometric(_need(doc, "r0", where), _need(doc, "ratio", where))
    if kind == "list":
        return sch.OverrelaxationList(_need(doc, "values", where),
                                      bool(doc.get("divergent_sum", False)))
    raise ConfigError(f"field '{where}.kind': unknown overrelaxation kind {kind!r}")


def build_phi(doc, where: str = "phi"):
    kind = doc if isinstance(doc, str) else _need(doc, "kind", where)
    if kind == "one":
        return sch.PhiOne()
    if kind == "subgrad_norm":
        return sch.PhiSubgradNorm()
    raise ConfigError(f"field '{where}': unknown phi kind {kind!r}")


def build_weights(doc: dict, where: str = "weights"):
    kind = _need(doc, "kind", where)
    if kind == "uniform_active":
        return sch.UniformOverActive()
    if kind == "uniform_violated":
        return sch.UniformOverViolated()
    if kind == "table":
        table = {int(k): v for k, v in _need(doc, "table", where).items()}
        return sch.ExplicitTable(table, _need(doc, "floor", where))
    raise ConfigError(f"field '{where}.kind': unknown weight kind {kind!r}")


def build_run_config(doc: dict, seed_override: Optional[int] = None) -> RunConfig:
    """Validate and build a full run from a parsed document."""
    problem = build_problem(_need(doc, "problem", "run"))
    control = build_control(_need(doc, "control", "run"), "control", seed_override)
    for path, i in _listed_indices(control, "control"):
        if not 0 <= i < problem.m:
            raise ConfigError(f"field '{path}': index {i} is outside the pool "
                              f"of {problem.m} constraints")
    return RunConfig(
        problem=problem,
        control=control,
        relaxation=build_relaxation(_need(doc, "relaxation", "run")),
        overrelaxation=build_overrelaxation(_need(doc, "overrelaxation", "run")),
        phi=build_phi(doc.get("phi", "one")),
        weights=build_weights(doc.get("weights", {"kind": "uniform_active"})),
        x0=_need(doc, "x0", "run"),
        counter_mode=doc.get("counter_mode", "bracketed"),
        max_iter=int(doc.get("max_iter", 1_000_000)),
        feas_window=doc.get("feas_window"),
        feas_tol=float(doc.get("feas_tol", 0.0)),
    )
