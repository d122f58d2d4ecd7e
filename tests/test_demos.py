"""Every demo script, and each Python block of README.md, runs to
completion against the feasik under test; every feasik name and test name
that README.md puts in backticks exists, and README.md stays short."""

import builtins
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import feasik

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# As in test_config_cli.run_cli: the child imports the package this process
# imported, whatever directory it starts in.
FEASIK_ROOT = str(Path(feasik.__file__).resolve().parents[1])
FEASIK_MODULES = [feasik] + [importlib.import_module(f"feasik.{m.name}")
                             for m in pkgutil.iter_modules(feasik.__path__)]
# Bare capitalised names that README.md uses for what is not feasik's:
# environment variables, CSV and JSON values and a pytest message.
NOT_FEASIK = {"FEASIK_SEED", "OPENBLAS_CORETYPE", "PYTHONPATH", "MAX",
              "NONFINITE", "NaN", "Infinity", "INTERNALERROR"}


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop("FEASIK_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [FEASIK_ROOT,
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # The blocks share one namespace, as a reader pasting them in order would.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for n, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {n}", "exec"), namespace)
    assert out.getvalue() == "feasible 2\nTrue 2\nNone 2 True\n"


def _feasik_object(head: str):
    """The feasik module or the object defined in feasik that ``head``
    names, or None for anything else (numpy, math, a plain variable)."""
    if head == "feasik":
        return feasik
    with contextlib.suppress(ImportError):
        return importlib.import_module(f"feasik.{head}")
    for module in FEASIK_MODULES:
        obj = vars(module).get(head)
        if getattr(obj, "__module__", "").startswith("feasik"):
            return obj
    return None


def _has_member(obj, attr: str) -> bool:
    """An attribute, a dataclass field, a submodule, or an instance
    attribute that the class's own code assigns."""
    if hasattr(obj, attr):
        return True
    if inspect.ismodule(obj):
        return importlib.util.find_spec(f"{obj.__name__}.{attr}") is not None
    if not isinstance(obj, type):
        return False
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return True
    assigned = re.compile(rf"self\.{attr}\b\s*(:[^=\n]*)?=[^=]|setattr_*\(self, \"{attr}\"")
    return any(klass.__module__.startswith("feasik")
               and assigned.search(inspect.getsource(klass)) for klass in obj.__mro__)


def _backticked(text: str) -> list:
    """The backticked spans of ``text`` outside fenced blocks."""
    return re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))


def unresolved_names(text: str) -> list:
    """The backticked ``Class.attr``, ``module.attr`` and ``feasik.module``
    names of ``text`` that start at a feasik object but do not resolve."""
    missing, checked = [], 0
    for span in _backticked(text):
        name = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if name is None:
            continue
        head, *attrs = name.group().split(".")
        obj = _feasik_object(head)
        if obj is None:
            continue
        checked += 1
        for attr in attrs:
            if not _has_member(obj, attr):
                missing.append(name.group())
                break
            obj = getattr(obj, attr, None)
    return missing if checked else ["(no feasik name found)"]


def test_readme_names_only_what_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unresolved_names(text) == []
    # A deleted attribute, and names that are not feasik objects.
    assert unresolved_names("`AffineRows.zero_entries` and `model.AffineRows.aa`") == \
        ["AffineRows.zero_entries"]
    assert unresolved_names("`np.vecdot`, `rows.at` and `rec.x`") == ["(no feasik name found)"]
    assert unresolved_names("`feasik.modle` and `Problem.is_lazy`") == ["feasik.modle"]


def unknown_bare_names(text: str) -> list:
    """The backticked bare constants and classes of ``text`` (``CUT_MIN_ROWS``,
    ``AffineRows``; not symbols such as ``Q``) that no feasik module
    defines, bar Python's builtins and ``NOT_FEASIK``."""
    names = {span for span in _backticked(text)
             if re.fullmatch(r"[A-Z][A-Z0-9_]+|[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*", span)}
    return sorted(name for name in names - NOT_FEASIK
                  if not hasattr(builtins, name)
                  and not any(name in vars(module) for module in FEASIK_MODULES))


def test_readme_names_only_constants_and_classes_that_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unknown_bare_names(text) == []
    assert unknown_bare_names("`GATHER_MIN_ROWS`, `CUT_MIN_ROWS`, `Halfspaces`, "
                              "`AffineRows`, `ValueError`, `Q` and `I_k`") == \
        ["GATHER_MIN_ROWS", "Halfspaces"]


def test_readme_names_only_tests_that_exist():
    defined = {name for path in (ROOT / "tests").glob("test_*.py") for name in
               re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M)}
    named = {span for span in _backticked((ROOT / "README.md").read_text(encoding="utf-8"))
             if re.fullmatch(r"test_\w+", span)}
    assert named and named - defined == set()


def test_readme_stays_short():
    # One paragraph per mechanism; measurements and history go to CHANGES.md.
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Performance")
    end = next((n for n in range(start + 1, len(lines)) if lines[n].startswith("## ")),
               len(lines))
    assert len(lines) <= 450 and end - start <= 150


def test_source_cites_readme_paragraphs_that_exist():
    # The crossover constants in feasik.model cite their README paragraph.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = {name for path in Path(feasik.__file__).parent.glob("*.py") for name in
             re.findall(r'README,\s*#?\s*"([^"]+)"', path.read_text(encoding="utf-8"))}
    assert cited and all(f"**{name}.**" in text for name in cited), cited
