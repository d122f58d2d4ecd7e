"""Every demo script, and each Python block of README.md, runs to
completion against the feasik under test."""

import contextlib
import io
import os
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
