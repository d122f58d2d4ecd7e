"""Command-line front end.

Exit codes: 0 success / feasible, 1 configuration error, 2 solver hit the
iteration budget, 3 solver reached a non-finite iterate (``solve``) or
reproduction mismatch (``reproduce``), 4 certificate violations.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import config as cfgmod
from .certificates import REPRODUCTIONS, DescentMonitor
from .engine import CsvStream, solve
from .errors import ConfigError, FeasikError

SEED_ENV = "FEASIK_SEED"
SOLVE_EXIT = {"feasible": 0, "max_iter": 2, "nonfinite": 3}


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return cfgmod.parse_document(fh.read())


def _run_config(args):
    """The run that ``--config`` describes; ``--seed``, else the
    environment's FEASIK_SEED, overrides a random control's seed."""
    seed, env = args.seed, os.environ.get(SEED_ENV)
    if seed is None and env:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, not {env!r}") from None
    return cfgmod.build_run_config(_load(args.config), seed_override=seed)


def cmd_solve(args) -> int:
    run = _run_config(args)
    if not args.output:
        result = solve(run, observers=())
    else:  # streamed to a side file, renamed only once the run returns
        part = args.output + ".part"
        try:
            with open(part, "w", encoding="utf-8") as fh:
                result = solve(run, observers=[CsvStream(fh, run.problem.dim)])
            os.replace(part, args.output)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(part)
            raise
    k = {"feasible": result.k_feasible, "max_iter": "MAX"}.get(result.status)
    print(f"status={result.status} k_feasible={k} corrections={result.corrections}")
    if args.verbose:
        x = ", ".join(repr(float(v)) for v in result.final)
        print(f"final=[{x}]")
    return SOLVE_EXIT[result.status]


def cmd_certify(args) -> int:
    run = _run_config(args)
    if run.problem.interior is None:
        raise FeasikError("certify needs problem.interior = {z, R}")
    z, big_r = run.problem.interior
    lam = run.weights.floor(run.control.max_card)
    monitor = DescentMonitor(z, big_r, lam, outer=run.problem.outer)
    result = solve(run, observers=[monitor])
    cert = monitor.certificate
    report = {"status": result.status, "k_feasible": result.k_feasible,
              "certificate": cert.to_dict()}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(cfgmod.emit_document(report))
    print(f"status={result.status} steps={result.steps} "
          f"applicable={cert.applicable_count} "
          f"min_slack={cert.min_slack if cert.min_slack is not None else 'n/a'} "
          f"violations={len(cert.violations)}")
    shown = [e for e in cert.entries if e.applicable][:10]
    if shown:
        print(f"{'k':>6} {'rho':>12} {'slack':>14} ok")
        for e in shown:
            print(f"{e.k:>6} {e.rho:>12.6g} {e.slack:>14.6g} {e.ok}")
    return 0 if cert.ok else 4


def cmd_reproduce(args) -> int:
    fn = REPRODUCTIONS[args.which]
    report = fn()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 3


def _sweep_one(payload):
    row_id, doc, control, phi_kind, timing = payload
    run_doc = dict(doc)
    run_doc["control"] = control
    run_doc["phi"] = phi_kind
    run = cfgmod.build_run_config(run_doc)
    t0 = time.perf_counter()
    result = solve(run, observers=())  # the row reads no record
    dt = time.perf_counter() - t0
    over = run_doc["overrelaxation"]["kind"]
    k_feasible = {"feasible": str(result.k_feasible), "max_iter": "MAX",
                  "nonfinite": "NONFINITE"}[result.status]
    row = [row_id, control["kind"], run.phi.kind, over, k_feasible,
           str(result.corrections)]
    row.append(f"{dt:.6f}" if timing else "")
    return row


def cmd_sweep(args) -> int:
    grid = _load(args.config)
    cfgmod._fields(grid, "grid", (), 0, "instances", "controls", "phis", "base")
    instances = cfgmod._list(grid.get("instances", []), "instances")
    controls = cfgmod._list(grid.get("controls", []), "controls")
    phis = cfgmod._list(grid.get("phis", ["one"]), "phis")
    base = cfgmod._object(grid.get("base", {}), "base")
    jobs = []
    for n, inst in enumerate(instances):
        cfgmod._object(inst, f"instances[{n}]")
        for c in controls:
            for p in phis:
                doc = dict(base)
                doc.update(inst)
                jobs.append((f"instance{n}", doc, c, p, args.timing))
    if not jobs:
        raise FeasikError("empty sweep grid")
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
    header = "instance,control,phi,overrelaxation,k_feasible,corrections,wall_time"
    lines = [header] + [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"{len(rows)} runs", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    run = _run_config(args)
    print(f"OK dim={run.problem.dim} m={run.problem.m} "
          f"control={run.control.kind} counter={run.counter_mode}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="feasik",
        description="Finitely convergent projection methods for convex feasibility")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a config and write the trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="trace CSV path")
    p.add_argument("--seed", type=int, help="override the random-control seed")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("certify", help="solve, then check the descent inequality")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="JSON report path")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("reproduce", help="rerun a counterexample against its oracle")
    p.add_argument("which", choices=sorted(REPRODUCTIONS))
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("sweep", help="run a controls x phis x instances grid")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="results CSV path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="include wall time (output then varies across reruns)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="parse and validate a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FeasikError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
