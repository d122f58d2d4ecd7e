"""Byte-identity guard: sha256 digests of the reproduction reports, the
A.1 trace CSV, the CLI outputs on the demo configs, one seeded random
run's trace CSV and the ``per_index`` entries of four stacked runs, which
no CSV holds.  The digests were recorded before the per-step fast paths
went in (the first two ``per_index`` ones before the stacked pass was
indexed by pool position, the two other block runs before the weight rules
returned only the violated indices' weights, ``validate``'s stdout
before the step layers kept one path per check, and the 2000-row
remotest-set run before large pools were stacked in float32); a speed-up
must keep every one of these outputs byte for byte.

To re-derive them on another revision, run this file as a script with that
revision's ``src`` first on ``PYTHONPATH``; it prints one line per output.
"""

import contextlib
import hashlib
import io
import struct
from pathlib import Path

import numpy as np
import pytest

from feasik import (ConstantRelaxation, ExplicitTable, Harmonic, Intermittent,
                    PhiOne, RandomSets, RemotestSet, RunConfig, UniformOverActive,
                    UniformOverViolated, cli, random_slater_polyhedron, solve,
                    trace_csv_text)
from feasik.certificates import build_a1_config

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

GOLDEN = {
    "reproduce.a1": "d2f8364363cac033072429683549e1a8bd09b8511d65d64c426ec98a4a50bf20",
    "reproduce.a2": "5df82033bc57ebb05d242b39a43b15713b74f0dbe9f05fd631b7168fe59a0468",
    "reproduce.a1-bracketed": "f4baefff2878b9a4cddd701c21321b5af46efb06b604e9dc352353ef756d79f6",
    "reproduce.a2-bracketed": "28a959a2b182c1492ec3727efb838b447e7e16f653e51bce4b9130709b96d6cd",
    "a1.csv": "098b0ff6877adbdcd06cef32fe98b4366a56deaa2397fb8907af629cc73b463e",
    "solve.stdout": "d301bfa9b054bb7558861a8e09e90c9106df3d8aa7a4ee0efdaaced199e397ff",
    "solve.output": "dacced7dcc71d917657a2685e5f3dc459512de6ba7c699264d5275adcae18a04",
    "certify.stdout": "7db7c541d612f45aefb9a0fe22e8b9294f6db8ba236b327a95c624fe884a02f9",
    "certify.output": "aea9fcd8c22b121f524cd58aecb5deb4fbf784979786b4dc9eefa15574f810ed",
    "validate.stdout": "6bce35af7db8e69649866a5840902ee261609acd401c791612bc8498746544c7",
    "sweep": "b33a466b8da58b3ca55975156e20d713762c86ce3e23682ac3f48fc72085765c",
    "random_sets.csv": "4ac3929ccb1de82841ee88849f3a1cc5e8cfb345a642a9b73f4f07e3fefec196",
    "block.per_index": "a801d29a575ecc305105b332bb884fb59616e1d335635a1f69d1a61099eda126",
    "remotest.per_index": "a2f8d2f0d26b56cf74c7afc5bd64775ba410af0d891d71b90e974ee885d5fbed",
    "block_active.per_index": "312313e092fe5696ceccff0422e534f91ab9d0d3a8241b38147ad2351b58fde9",
    "block_table.per_index": "ba327fe62b62638e8d101b2bd88332bfd3068b41bf66e1dc681ca530ccdf83f9",
    "remotest_2000.result": "1e234b351a4cc2b7dbc9c5411f20c8f711f50a84d29df1bfdf8da77d7bdcaff5",
    "remotest_2000.csv": "014c9a4dec449618799257783a2ed3f9a7fa7818aff00bb146671cd25cab8f2b",
    "remotest_2000.per_index": "12e684f1438ecc1090fdb48e00ef191f4cd11035ac1217dc3d33f58750efd593",
}


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit={code}\n".encode() + out.getvalue().encode()


def random_sets_run():
    """Seeded uniform random singletons on a 30-row stacked polyhedron in
    5-D: 1,163 steps, across many blocks of draws, with a seed near 2^64."""
    problem, x0 = random_slater_polyhedron(
        7, dim=5, m=30, interior_radius=0.1, sublevel=False)
    return RunConfig(
        problem=problem, control=RandomSets.uniform_singletons(30, 2 ** 64 - 8),
        relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
        phi=PhiOne(), weights=UniformOverActive(), x0=x0, max_iter=2000)


def per_index_runs() -> dict:
    """Three full-block runs, one per weight rule, and a remotest-set run
    on one seeded 48-row halfspace pool in 6-D, which the stacked pass
    evaluates."""
    problem, x0 = random_slater_polyhedron(
        3, dim=6, m=48, interior_radius=0.1, sublevel=False)
    common = dict(problem=problem, relaxation=ConstantRelaxation(1.0),
                  overrelaxation=Harmonic(), phi=PhiOne(), x0=x0, max_iter=5000)
    return {
        "block.per_index": RunConfig(control=Intermittent([range(48)]),
                                     weights=UniformOverViolated(), **common),
        "remotest.per_index": RunConfig(control=RemotestSet(),
                                        weights=UniformOverActive(), **common),
        "block_active.per_index": RunConfig(control=Intermittent([range(48)]),
                                            weights=UniformOverActive(), **common),
        "block_table.per_index": RunConfig(
            control=Intermittent([range(48)]),
            weights=ExplicitTable({i: 1.0 + i % 4 for i in range(48)}, 0.005),
            **common),
    }


def remotest_2000_run():
    """A seeded remotest-set run on a 2000-row halfspace polyhedron in
    200-D, the shape of the benchmark's largest pools: 36 steps."""
    problem, x0 = random_slater_polyhedron(
        5, dim=200, m=2000, interior_radius=0.5, sublevel=False)
    return RunConfig(problem=problem, control=RemotestSet(),
                     relaxation=ConstantRelaxation(1.0), overrelaxation=Harmonic(),
                     phi=PhiOne(), weights=UniformOverActive(), x0=x0,
                     max_iter=5000)


def per_index_bytes(trace) -> bytes:
    """Every record's entries, each packed as (index, the four floats'
    bytes), so signed zeros and NaN payloads count."""
    return repr([[(e[0], struct.pack("4d", *e[1:])) for e in rec.per_index]
                 for rec in trace]).encode()


def outputs(tmp: Path) -> dict:
    """Every guarded output, by name."""
    out = {}
    for which in ("a1", "a2", "a1-bracketed", "a2-bracketed"):
        out[f"reproduce.{which}"] = _cli(["reproduce", which])
    out["a1.csv"] = trace_csv_text(solve(build_a1_config("raw", 10_000)).trace,
                                   2).encode()
    demo = str(CONFIGS / "two_halfspaces.json")
    for command in ("solve", "certify"):
        path = tmp / f"{command}.out"
        stdout = _cli([command, "--config", demo, "--output", str(path)])
        out[f"{command}.stdout"] = stdout
        out[f"{command}.output"] = path.read_bytes()
    out["validate.stdout"] = _cli(["validate", "--config", demo])
    out["sweep"] = _cli(["sweep", "--config", str(CONFIGS / "sweep_grid.json")])
    result = solve(random_sets_run())
    out["random_sets.csv"] = trace_csv_text(result.trace, 5).encode()
    for name, cfg in per_index_runs().items():
        out[name] = per_index_bytes(solve(cfg).trace)
    result = solve(remotest_2000_run())
    out["remotest_2000.result"] = (f"{result.status} {result.steps}\n".encode()
                                   + result.final.tobytes())
    out["remotest_2000.csv"] = trace_csv_text(result.trace, 200).encode()
    out["remotest_2000.per_index"] = per_index_bytes(result.trace)
    return out


def digests(tmp: Path) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs(tmp).items()}


def test_random_sets_run_is_long_enough():
    result = solve(random_sets_run())
    assert result.status == "feasible" and result.k_feasible >= 200


@pytest.mark.parametrize("name", ["block.per_index", "remotest.per_index",
                                  "block_active.per_index",
                                  "block_table.per_index"])
def test_per_index_runs_stack_and_converge(name):
    cfg = per_index_runs()[name]
    assert cfg.problem.affine_rows is not None
    result = solve(cfg)
    assert result.status == "feasible" and result.k_feasible >= 5


def test_remotest_2000_run_takes_the_float32_pass():
    cfg = remotest_2000_run()
    assert cfg.problem.affine_rows.A.dtype == np.float32
    result = solve(cfg)
    assert result.status == "feasible" and result.k_feasible >= 20


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(got, name):
    assert got[name] == GOLDEN[name]


def test_every_output_is_pinned(got):
    assert sorted(got) == sorted(GOLDEN)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
