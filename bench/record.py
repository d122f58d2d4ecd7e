#!/usr/bin/env python3
"""Run every workload over several seeds and write a baseline file.

    python3 bench/record.py --seeds 1-10 --seconds 10 --output bench/baseline.json

Each (workload, seed) is one ``bench/run.py`` process with ``--trace 0``;
the file keeps every run's metrics and, per metric, the median, the
quartiles and the spread (interquartile range over median).  One further
``--trace 1`` run per workload, on the first seed, supplies the per-layer
metrics and the layer shares.  The environment is recorded alongside.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(seeds, seconds):
    import numpy
    cache = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if kind != "Instruction":
            cache[f"L{level}"] = _read(index / "size").strip()
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cache": cache,
        "blas_threads": 1,
        "commit": commit or "unknown",
        "seeds": seeds,
        "seconds": seconds,
        "load_model": "closed loop, one caller, no threads",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--output", default=str(ROOT / "bench" / "baseline.json"))
    args = ap.parse_args()
    seeds = seed_list(args.seeds)

    doc = {"environment": environment(seeds, args.seconds), "workloads": {}}
    for w in BENCH["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']}",
                  file=sys.stderr)
        traced = run(name, seeds[0], args.seconds, 1)
        layers = json.loads((ROOT / "bench" / "out" /
                             f"layers-{name}-seed{seeds[0]}.json").read_text())
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                       for r in runs])
                   for m in BENCH["end_to_end"]}
        doc["workloads"][name] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": metrics,
            "runs": [{"seed": s, **{k: v["value"] for k, v in r["metrics"].items()}}
                     for s, r in zip(seeds, runs)],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "layer_shares": {layer: {"pass": v["pass_share"],
                                     "solve": v["solve_share"]}
                             for layer, v in layers["layers"].items()},
        }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    for name, w in doc["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:<16} {metric:<14} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
