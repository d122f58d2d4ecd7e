#!/usr/bin/env python3
"""Run one feasik benchmark workload and print its metrics.

    python3 bench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; feasik is imported from ``src/``
there and nowhere else.  One closed-loop caller, no threads: each operation
starts when the previous one returns, and BLAS is pinned to one thread.

``--trace 0`` sets the inputs up afresh before every pass (``setup_s`` is
the median), repeats untraced passes for ``--seconds`` seconds of pass time
and makes one more pass, half-way, under ``tracemalloc`` for ``peak_mib``.
Its times are nominal seconds: scaled by the host's speed, which a
reference kernel samples through set-ups and passes (``refclock.py``).
``--trace 1`` makes one pass with a span around every layer function and
untraced passes for the rest of the time; it prints per-layer metrics and
writes the spans to ``bench/out/``.
Every pass checks its outputs, and every pass must reproduce the first
one's outputs exactly.  The last line of standard output is one JSON
object; the exit code is 1 when a check failed, 2 when the run could not
start.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
CONTROL_KINDS = ("cyclic", "intermittent", "repetitive", "explicit",
                 "remotest", "random_sets")
# Each set-up is repeated until it has taken this long, so that one of
# microseconds is timed many times and one of seconds once.
SETUP_SLOT_SECONDS = 0.05
MIN_PASSES = 2


def _import_feasik():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import feasik
    except ImportError as e:
        print(f"error: feasik is not importable from {src}: {e}", file=sys.stderr)
        sys.exit(2)
    if Path(feasik.__file__).resolve().parent != (src / "feasik").resolve():
        print(f"error: feasik was imported from {feasik.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def set_up(workload, seed, spans):
    """Build the inputs; the (start, end) of each build go to ``spans``."""
    t_slot = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        if t1 - t_slot >= SETUP_SLOT_SECONDS:
            return inputs


def run_pass(workload, inputs, tr=None):
    """One pass over the inputs; under the tracer ``tr`` every layer
    boundary records a span."""
    gc.collect()
    out = workloads.PassResult()
    with workloads.solve_log(out), contextlib.ExitStack() as stack:
        if tr is not None:
            stack.callback(tracer.install(tr).undo)
            stack.enter_context(tr.span("bench.pass"))
        t0 = time.perf_counter()
        workload.run(inputs, out)
        out.wall_s = time.perf_counter() - t0
    return out


def compare(passes):
    """(pass, operation, what) for every failed check of every pass, and for
    every operation whose output differs from the first pass's."""
    failures = []
    ref = passes[0].digests
    for n, p in enumerate(passes):
        failures += [(n, label, what) for label, what in p.failures]
        if len(p.digests) != len(ref):
            failures.append((n, "pass", f"{len(p.digests)} operations, "
                                        f"pass 0 had {len(ref)}"))
        failures += [(n, a[0], "output differs from pass 0")
                     for a, b in zip(p.digests, ref) if a != b]
    return failures


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_medians(rows):
    """Per operation, the median of its seconds over the passes.  The
    machine's speed drifts by tens of percent over seconds; a median per
    operation discards a slow stretch that covered part of one pass."""
    return [statistics.median(col) for col in zip(*rows)]


def memory_pass(workload, inputs):
    gc.collect()
    tracemalloc.start()
    try:
        out = run_pass(workload, inputs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def end_to_end(workload, args):
    """Fresh inputs before every pass, untraced passes until their time
    adds up to ``--seconds``, and the ``tracemalloc`` pass half-way: each
    figure samples the whole run, not one stretch of it, and every pass
    also checks that set-up is deterministic."""
    clock = refclock.RefClock()
    setup_spans, passes, memory = [], [], None
    timed = 0.0
    # Start another pass only while it is expected to end in time.
    while len(passes) < MIN_PASSES or timed + passes[-1].wall_s < args.seconds:
        with clock.sampling():
            inputs = set_up(workload, args.seed, setup_spans)
            passes.append(run_pass(workload, inputs))
        timed += passes[-1].wall_s
        if memory is None and timed >= args.seconds / 2:
            memory, peak = memory_pass(workload, inputs)
    if memory is None:
        memory, peak = memory_pass(workload, inputs)
    first = passes[0]
    setup_times = [clock.nominal(*span) for span in setup_spans]
    solve_s = op_medians([[clock.nominal(*s[:2]) for s in p.solves]
                          for p in passes])
    steps = sum(s[2] for s in first.solves)
    wall_raw = sum(op_medians([[t1 - t0 for t0, t1 in p.segments]
                               for p in passes]))
    metrics = {
        "wall_s": (sum(op_medians([[clock.nominal(*seg) for seg in p.segments]
                                   for p in passes])), "s"),
        "us_per_step": (1e6 * sum(solve_s) / steps, "us"),
        "steps": (steps, "count"),
        "corrections": (sum(s[3] for s in first.solves), "count"),
        "peak_mib": (peak / 2 ** 20, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    nominal = [sum(clock.nominal(*seg) for seg in p.segments) for p in passes]
    notes = [f"passes={len(passes)} pass_walls={[round(p.wall_s, 3) for p in passes]} "
             f"nominal={[round(v, 3) for v in nominal]} "
             f"setups={len(setup_times)} memory_pass_s={memory.wall_s:.2f}",
             f"host speed: kernel median {statistics.median(clock.kernel) * 1e3:.4f} ms "
             f"(nominal {refclock.NOMINAL_S * 1e3:.4f} ms) over {len(clock.kernel)} "
             f"samples taking {clock.busy_s:.2f} s; "
             f"wall_s unscaled {wall_raw!r} s"]
    # Latency of single solves, with the sample count behind each figure.
    n = len(solve_s)
    for q in (50, 90, 99):
        if n - n * q // 100 >= 10:
            notes.append(f"solve_ms.p{q} {1e3 * quantile(solve_s, q)!r} ms "
                         f"({n} solves)")
    return passes + [memory], metrics, notes


def per_layer(workload, args):
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        with tr.span("bench.setup"):
            inputs = workload.setup(args.seed)
    finally:
        patches.undo()
    plain = [run_pass(workload, inputs)]
    traced = run_pass(workload, inputs, tr)
    t_end = time.perf_counter() + args.seconds - traced.wall_s - plain[0].wall_s
    while time.perf_counter() + plain[-1].wall_s < t_end:
        plain.append(run_pass(workload, inputs))

    def self_s(label):
        return tr.self_ns.get(label, 0) / 1e9

    def share(label):
        return tr.self_ns.get(label, 0) / tr.total_ns["bench.pass"]

    setup_ns = tr.total_ns["bench.setup"]
    evals = tr.calls["operators.evaluate_cutter"]
    steps = sum(s[2] for s in traced.solves)
    control_labels = [label for label in tr.calls
                      if label.startswith("controls.indices.")]
    # Layers that only some workloads reach are given as shares of the
    # traced pass (or of set-up), so that each time in seconds is nonzero.
    metrics = {
        "model.feasible.calls": (tr.calls["model.feasible"], "count"),
        "model.feasible.self_s": (self_s("model.feasible"), "s"),
        "controls.indices.calls": (
            sum(tr.calls[label] for label in control_labels), "count"),
        "controls.indices.self_s": (
            sum(self_s(label) for label in control_labels), "s"),
        **{f"controls.indices.share.{k}": (share(f"controls.indices.{k}"),
                                            "ratio")
           for k in CONTROL_KINDS},
        "operators.evaluate_cutter.calls": (evals, "count"),
        "operators.evaluate_cutter.self_s": (
            self_s("operators.evaluate_cutter"), "s"),
        "operators.evaluate_cutter.moved_ratio": (
            tr.counts["operators.evaluate_cutter.moved"] / evals, "ratio"),
        "engine.compensated_sum.calls": (
            tr.calls["engine.compensated_sum"], "count"),
        "engine.compensated_sum.terms": (
            tr.counts["engine.compensated_sum.terms"], "count"),
        "engine.compensated_sum.self_s": (self_s("engine.compensated_sum"), "s"),
        "engine.step.self_s": (self_s("engine.step"), "s"),
        "engine.solve.self_s": (self_s("engine.solve"), "s"),
        "schedules.alpha.self_s": (self_s("schedules.alpha"), "s"),
        "schedules.r.self_s": (self_s("schedules.r"), "s"),
        "schedules.phi.self_s": (self_s("schedules.phi"), "s"),
        "schedules.weights.self_s": (self_s("schedules.weights"), "s"),
        # one record per step plus the terminal record
        "engine.trace.records": (steps + len(traced.solves), "count"),
        "engine.write_trace_csv.self_s": (self_s("engine.write_trace_csv"), "s"),
        "engine.write_trace_csv.bytes": (
            tr.counts["engine.write_trace_csv.bytes"], "bytes"),
        "engine.corrected_ratio": (
            sum(s[3] for s in traced.solves) / steps, "ratio"),
        "model.outer_project.self_s": (self_s("model.outer_project"), "s"),
        "certificates.check_descent.self_s": (
            self_s("certificates.check_descent"), "s"),
        "certificates.check_descent.entries": (
            tr.counts["certificates.check_descent.entries"], "count"),
        "certificates.reproduce.share": (share("certificates.reproduce"),
                                         "ratio"),
        "cli.sweep.share": (share("cli.sweep"), "ratio"),
        "config.build_run_config.share": (share("config.build_run_config"),
                                          "ratio"),
        "engine.run_config.self_s": (self_s("engine.run_config"), "s"),
        "instances.random_slater_polyhedron.setup_share": (
            tr.self_ns.get("instances.random_slater_polyhedron", 0) / setup_ns,
            "ratio"),
        "trace.overhead_ratio": (
            traced.wall_s / statistics.median(p.wall_s for p in plain), "ratio"),
    }
    layers = layer_report(tr, traced)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    tr.write(OUT_DIR / f"spans-{stem}.csv")
    (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(layers, indent=1) + "\n")
    notes = [f"spans={len(tr.spans)} written to bench/out/spans-{stem}.csv"]
    notes += [f"self  {name:<44} {v['self_s']:10.4f} s {v['calls']:>9} calls"
              for name, v in layers["labels"].items()]
    notes += [f"layer {name:<14} pass {v['pass_share']:6.1%}  "
              f"solve {v['solve_share']:6.1%}"
              for name, v in layers["layers"].items()]
    return [plain[0], traced] + plain[1:], metrics, notes


def layer_report(tr, traced):
    """Self time per span name over the whole run, and per layer (the name's
    first part) as a share of the traced pass and of the time inside
    ``solve``.  A span's id is smaller than its children's."""
    n = len(tr.spans)
    child_ns, in_pass, in_solve = [0] * n, [False] * n, [False] * n
    for sid, parent, label, t0, t1 in tr.spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
        in_pass[sid] = label == "bench.pass" or (parent >= 0 and in_pass[parent])
        in_solve[sid] = label == "engine.solve" or (
            parent >= 0 and in_solve[parent])
    pass_ns, solve_ns = {}, {}
    for sid, parent, label, t0, t1 in tr.spans:
        if in_pass[sid]:
            layer = label.split(".")[0]
            own = t1 - t0 - child_ns[sid]
            pass_ns[layer] = pass_ns.get(layer, 0) + own
            if in_solve[sid]:
                solve_ns[layer] = solve_ns.get(layer, 0) + own
    total_pass, total_solve = tr.total_ns["bench.pass"], tr.total_ns["engine.solve"]
    return {
        "traced_pass_s": total_pass / 1e9,
        "solve_s": total_solve / 1e9,
        "labels": {label: {"calls": tr.calls[label], "self_s": ns / 1e9}
                   for label, ns in sorted(tr.self_ns.items(),
                                           key=lambda kv: -kv[1])},
        "layers": {layer: {"self_s": ns / 1e9,
                           "pass_share": ns / total_pass,
                           "solve_share": (solve_ns.get(layer, 0) / total_solve
                                           if total_solve else 0.0)}
                   for layer, ns in sorted(pass_ns.items(),
                                           key=lambda kv: -kv[1])},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    measure = per_layer if args.trace else end_to_end
    passes, metrics, notes = measure(workload, args)
    failures = compare(passes)
    attempted = sum(p.attempted for p in passes)
    failed = len({(n, label) for n, label, _ in failures})
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value!r} {unit}")
    print(f"fail_ratio {failed}/{attempted}")
    for n, label, what in failures[:20]:
        print(f"FAILED pass {n}: {label}: {what}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    _import_feasik()
    import refclock  # noqa: E402
    import tracer  # noqa: E402  (both import feasik)
    import workloads  # noqa: E402
    sys.exit(main())
