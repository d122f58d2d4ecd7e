"""Every demo script, and each Python block of README.md, runs to
completion against the feasik under test, and every feasik name that
README.md puts in backticks exists."""

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
    for module in [feasik] + [importlib.import_module(f"feasik.{m.name}")
                              for m in pkgutil.iter_modules(feasik.__path__)]:
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


def unresolved_names(text: str) -> list:
    """The backticked ``Class.attr``, ``module.attr`` and ``feasik.module``
    names of ``text`` that start at a feasik object but do not resolve."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    missing, checked = [], 0
    for span in re.findall(r"`([^`]+)`", text):
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
