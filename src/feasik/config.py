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
import reprlib
from typing import Callable, NamedTuple, Optional

from . import controls as ctl
from . import schedules as sch
from .engine import RunConfig
from .errors import ConfigError, FeasikError
from .model import (AbsCoordMinusC, Affine, Ball, Box, Constraint, Halfspace,
                    MaxAffine, OuterSet, Problem, QuadCoordMinusC,
                    SquaredDistToBall, Sublevel, as_integer, as_real)


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


def _list(items, where: str) -> list:
    if not isinstance(items, list):
        raise ConfigError(f"field '{where}' must be a list, "
                          f"not {type(items).__name__}")
    return items


def _built(where: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, with an error of the constructor's own
    raised as a ConfigError under the field path ``where``."""
    try:
        return cls(*args, **kwargs)
    except FeasikError as e:
        raise ConfigError(f"field '{where}': {e}") from None


def _need(doc: dict, key: str, where: str):
    if key not in _object(doc, where):
        raise ConfigError(f"field '{where}.{key}' is missing")
    return doc[key]


# ---------------------------------------------------------------------------
# Kind tables
# ---------------------------------------------------------------------------

_REQUIRED = object()


class Field(NamedTuple):
    """How one document member maps to a constructor argument:
    ``read(value, where, dim)`` checks and converts it.  A member with a
    ``default`` may be left out."""

    read: Callable
    default: object = _REQUIRED


def _read(doc, key: str, where: str, ftype: Field, dim: int):
    value = (_need(doc, key, where) if ftype.default is _REQUIRED
             else _object(doc, where).get(key, ftype.default))
    return ftype.read(value, f"{where}.{key}", dim)


def _number(value, where: str, dim: int = 0) -> float:
    """A finite real number as a float (``as_real``)."""
    return as_real(value, f"field '{where}'")


def _flag(value, where: str, dim: int = 0) -> bool:
    """A JSON boolean; "false", 0 or 0.5 is not a flag."""
    if not isinstance(value, bool):
        raise ConfigError(f"field '{where}' must be true or false, "
                          f"not {reprlib.repr(value)}")
    return value


def _integer(value, where: str, dim: int = 0) -> int:
    """An integral number as an int: 2.0 is 2, and 2.5 is an error."""
    return as_integer(value, f"field '{where}'")


def listed(read) -> Field:
    """A list whose members ``read`` checks, each under its own index."""
    return Field(lambda items, where, dim: [
        read(v, f"{where}[{n}]", dim) for n, v in enumerate(_list(items, where))])


def choice(noun: str, *names: str) -> Field:
    """One of the strings ``names``, the first when the member is left out."""
    def read(value, where, dim):
        if value not in names:
            raise ConfigError(f"field '{where}': unknown {noun} {reprlib.repr(value)}")
        return value
    return Field(read, names[0])


def _vector(value, where: str, dim: int) -> list:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"field '{where}' must be a list of length {dim}")
    return NUMBERS.read(value, where, dim)


def _axis(value, where: str, dim: int) -> int:
    axis = _integer(value, where)
    if not 0 <= axis < dim:
        raise ConfigError(f"field '{where}': axis {axis} is outside [0, {dim})")
    return axis


def records(*fields) -> Field:
    """A list of objects with the members ``fields`` name, read into a
    tuple of tuples."""
    def read(items, where, dim):
        return tuple(tuple(_read(item, key, f"{where}[{n}]", ftype, dim)
                           for key, ftype in fields)
                     for n, item in enumerate(_list(items, where)))
    return Field(read)


def _weight_table(value, where: str, dim: int) -> dict:
    """Weights by index; the keys of a JSON object are strings."""
    return {_integer(int(k) if str(k).removeprefix("-").isdecimal() else k, f"{where}.{k}"):
            _number(w, f"{where}.{k}") for k, w in _object(value, where).items()}


NUMBER = Field(_number)
INTEGER = Field(_integer)
NUMBERS = listed(_number)
INDICES = listed(_integer)
INDEX_SETS = listed(INDICES.read)
FLAG = Field(_flag, default=False)
VECTOR = Field(_vector)
AXIS = Field(_axis)
WEIGHT_TABLE = Field(_weight_table)
# A number kept as the document gives it: a weight floor, which ``certify`` prints.
GIVEN_NUMBER = Field(lambda value, where, dim: (_number(value, where), value)[1])


class Kinds:
    """One family's table ``kind -> (class, fields)``.  ``fields`` are
    (document key, field type) pairs in the order of the class's
    constructor arguments.  A document names its kind under ``key``, or,
    where ``bare`` is set, may be the kind's name alone."""

    def __init__(self, noun: str, key: str, table: dict, bare: bool = False):
        self.noun, self.key, self.table, self.bare = noun, key, table, bare

    def build(self, doc, where: str, dim: int):
        if self.bare and isinstance(doc, str):
            kind, path = doc, where
        else:
            kind, path = _need(doc, self.key, where), f"{where}.{self.key}"
        try:
            cls, fields = self.table[kind]
        except (KeyError, TypeError):
            raise ConfigError(f"field '{path}': unknown {self.noun} {kind!r}") from None
        return _built(where, cls, *[_read(doc, key, where, ftype, dim)
                                    for key, ftype in fields])


FUNCTIONS = Kinds("function kind", "kind", {
    "affine": (Affine, (("a", VECTOR), ("b", NUMBER))),
    "abs_coord": (AbsCoordMinusC, (("axis", AXIS), ("c", NUMBER))),
    "quad_coord": (QuadCoordMinusC, (("axis", AXIS), ("c", NUMBER))),
    "max_affine": (MaxAffine, (("pieces", records(("a", VECTOR), ("b", NUMBER))),)),
    "sqdist_ball": (SquaredDistToBall, (("center", VECTOR), ("radius", NUMBER))),
})
FUNCTION = Field(FUNCTIONS.build)

BODIES = Kinds("body type", "type", {
    "halfspace": (Halfspace, (("a", VECTOR), ("b", NUMBER))),
    "ball": (Ball, (("center", VECTOR), ("radius", NUMBER))),
    "box": (Box, (("lo", VECTOR), ("hi", VECTOR))),
    "sublevel": (Sublevel, (("f", FUNCTION),)),
})

CONTROLS = Kinds("control kind", "kind", {
    "cyclic": (ctl.Cyclic, (("order", INDICES),)),
    "intermittent": (ctl.Intermittent, (("blocks", INDEX_SETS),)),
    "explicit": (ctl.Explicit, (("sets", INDEX_SETS),)),
    "remotest": (ctl.RemotestSet, ()),
    "max_displacement": (ctl.MaxDisplacement, ()),
    "max_violation": (ctl.MaxViolation, ()),
    "random_sets": (ctl.RandomSets, (("atoms", records(("indices", INDICES),
                                                       ("p", NUMBER))),
                                     ("seed", INTEGER))),
})

RELAXATIONS = Kinds("relaxation kind", "kind", {
    "constant": (sch.ConstantRelaxation, (("alpha", NUMBER),)),
    "list": (sch.RelaxationList, (("values", NUMBERS),)),
})

OVERRELAXATIONS = Kinds("overrelaxation kind", "kind", {
    "constant": (sch.ConstantOverrelaxation, (("r", NUMBER),)),
    "harmonic": (sch.Harmonic, ()),
    "geometric": (sch.Geometric, (("r0", NUMBER), ("ratio", NUMBER))),
    "list": (sch.OverrelaxationList, (("values", NUMBERS), ("divergent_sum", FLAG))),
})

PHIS = Kinds("phi kind", "kind", {
    "one": (sch.PhiOne, ()),
    "subgrad_norm": (sch.PhiSubgradNorm, ()),
}, bare=True)

WEIGHTS = Kinds("weight kind", "kind", {
    "uniform_active": (sch.UniformOverActive, ()),
    "uniform_violated": (sch.UniformOverViolated, ()),
    "table": (sch.ExplicitTable, (("table", WEIGHT_TABLE), ("floor", GIVEN_NUMBER))),
})


# ---------------------------------------------------------------------------
# Problems and runs
# ---------------------------------------------------------------------------

def build_problem(doc: dict, where: str = "problem") -> Problem:
    dim = _read(doc, "dim", where, INTEGER, 0)
    outer_doc = _object(doc.get("outer", {"type": "whole_space"}), where + ".outer")
    if outer_doc.get("type") == "whole_space":
        outer = OuterSet.whole_space()
    else:
        outer = _built(where + ".outer", OuterSet,
                       BODIES.build(outer_doc, where + ".outer", dim))
    constraints, cutter = [], choice("cutter kind", "", "metric", "subgradient")
    for pos, cdoc in enumerate(_list(_need(doc, "constraints", where),
                                     where + ".constraints")):
        path = f"{where}.constraints[{pos}]"
        body = BODIES.build(cdoc, path, dim)
        constraints.append(_built(path, Constraint, pos, body,
                                  _read(cdoc, "cutter", path, cutter, dim)))
    interior = None
    if "interior" in doc:
        interior = (_read(doc["interior"], "z", where + ".interior", VECTOR, dim),
                    _read(doc["interior"], "R", where + ".interior", NUMBER, dim))
    return _built(where, Problem, dim, constraints, outer=outer, interior=interior)


def build_run_config(doc: dict, seed_override: Optional[int] = None) -> RunConfig:
    """Validate and build a full run from a parsed document."""
    problem = build_problem(_need(doc, "problem", "run"))
    dim = problem.dim
    spec = _object(_need(doc, "control", "run"), "control")
    if seed_override is not None:
        spec = {**spec, "seed": seed_override}
    control = CONTROLS.build(spec, "control", dim)
    for path, group in control._family():
        for j, i in enumerate(group):
            if not 0 <= i < problem.m:
                raise ConfigError(f"field 'control.{path}[{j}]': index {i} is "
                                  f"outside the pool of {problem.m} constraints")
    return RunConfig(
        problem=problem,
        control=control,
        relaxation=RELAXATIONS.build(_need(doc, "relaxation", "run"), "relaxation", dim),
        overrelaxation=OVERRELAXATIONS.build(_need(doc, "overrelaxation", "run"),
                                             "overrelaxation", dim),
        phi=PHIS.build(doc.get("phi", "one"), "phi", dim),
        weights=WEIGHTS.build(doc.get("weights", {"kind": "uniform_active"}),
                              "weights", dim),
        x0=VECTOR.read(_need(doc, "x0", "run"), "x0", dim),
        counter_mode=choice("counter mode", "bracketed", "raw").read(
            doc.get("counter_mode", "bracketed"), "counter_mode", dim),
        max_iter=INTEGER.read(doc.get("max_iter", 1_000_000), "max_iter", dim),
        feas_window=(None if doc.get("feas_window") is None
                     else INDICES.read(doc["feas_window"], "feas_window", dim)),
        feas_tol=NUMBER.read(doc.get("feas_tol", 0.0), "feas_tol", dim),
    )
