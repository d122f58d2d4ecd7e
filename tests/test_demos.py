"""Every demo script runs to completion against the feasik under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import feasik

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
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
