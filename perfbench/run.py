#!/usr/bin/env python3
"""Host-throughput benchmark of the FineReg simulator.

Run from the repository root:

    python3 perfbench/run.py --workload suite-finereg --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

It builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
passes of the workload, one process per pass, until --seconds is used up.
Every cell's simulated numbers are checked exactly against
perfbench/reference.json. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. Host times
are scaled to a reference host speed with the probe readings each pass
takes (host_probe.hh). Progress and diagnostics go to stderr. See
perfbench/README.md.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
# Metric names and units are declared once, in BENCHMARK.json.
DECLARATION = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("suite-baseline", "suite-finereg", "sweep-all")

# A run must finish within this many seconds, build excluded.
RUN_BUDGET_S = 170.0
# Simulation seeds in reference.json; --seed n selects entry n mod this.
NUM_SEEDS = 16
# Least number of untraced passes in a run, even past --seconds; medians
# need a few. A traced run needs at least one pass of each kind.
MIN_PASSES = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def workers():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once and build perfbench_cells; return its path."""
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, workers()))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench_cells")


def run_pass(exe, workload, sim_seed, mode, deadline, extra=()):
    """Run one pass in its own process and return its parsed output."""
    build_dir = os.path.dirname(exe)
    cmd = [exe, "--workload", workload, "--sim-seed", str(sim_seed),
           "--mode", mode, "--jobs", str(workers()),
           "--journal", os.path.join(build_dir, "pass.sweep.jsonl"),
           *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: a {mode} pass of {workload} ran past the "
                 f"{RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {mode} pass of {workload} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout)


def check_stamps(ref_workload, out):
    """Stop with one error when the reference was not recorded for this
    build's kernels, configs, grid scale or policy set."""
    want, got = ref_workload["stamps"], out["stamps"]
    diffs = [key for key in want if want[key] != got.get(key)]
    if diffs:
        sys.exit(f"perfbench: reference.json does not describe this build "
                 f"of {out['workload']} (stamps differ: {', '.join(diffs)}). "
                 f"Simulated results are expected to stay bit-identical; if "
                 f"this change alters them on purpose, rerun "
                 f"'python3 perfbench/run.py --record' and say so.")


def check_cells(ref_workload, out, shown):
    """Compare every cell exactly; return the number of failed cells."""
    want = ref_workload["cells"].get(str(out["sim_seed"]))
    if want is None:
        sys.exit(f"perfbench: no reference for simulation seed "
                 f"{out['sim_seed']}")
    got = out["cells"]
    failed = abs(len(want) - len(got))
    for expected, cell in zip(want, got):
        if cell[7] or cell[:7] != expected:
            failed += 1
            if shown[0] < 5:
                shown[0] += 1
                log(f"perfbench: cell {cell[0]}/{cell[1]} seed "
                    f"{out['sim_seed']} ({out['mode']}): got {cell[2:7]} "
                    f"want {expected[2:7]} {cell[7]}")
    return failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args):
    exe = build()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    with open(REFERENCE) as f:
        reference = json.load(f)
    with open(DECLARATION) as f:
        declaration = json.load(f)
    ref_workload = reference["workloads"][args.workload]
    seeds = reference["seeds"]
    sim_seed = seeds[args.seed % len(seeds)]
    trace_dir = os.path.join(os.path.dirname(exe), "traces")
    os.makedirs(trace_dir, exist_ok=True)

    # --trace 0: untraced passes only. --trace 1: untraced and traced
    # passes alternate, so both see the same machine conditions.
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    outs = {kind: [] for kind in kinds}
    attempted = failed = 0
    shown = [0]
    longest = 0.0
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        enough = (len(outs["plain"]) >= MIN_PASSES
                  if not args.trace else all(outs.values()))
        if enough and time.monotonic() - start + longest > args.seconds:
            break
        extra = ()
        if kind == "traced":
            extra = ("--trace-out", os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}-"
                f"{len(outs[kind])}.json"))
        t0 = time.monotonic()
        out = run_pass(exe, args.workload, sim_seed, kind, deadline, extra)
        longest = max(longest, time.monotonic() - t0)
        check_stamps(ref_workload, out)
        attempted += len(out["cells"])
        failed += check_cells(ref_workload, out, shown)
        outs[kind].append(out)
        turn += 1

    if args.trace:
        values = layer_values(outs["plain"], outs["traced"])
        declared = declaration["per_layer"]
    else:
        values = e2e_values(outs["plain"])
        declared = declaration["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.exit("perfbench: measured metrics do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    log(f"perfbench: {args.workload} sim seed {sim_seed}: "
        f"{len(outs['plain'])} untraced"
        + (f" + {len(outs['traced'])} traced" if args.trace else "")
        + f" passes in {time.monotonic() - start:.1f} s, "
        f"{failed}/{attempted} cells failed (failed_frac "
        f"{failed / attempted:.4f})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def e2e_values(outs):
    """Median over the untraced passes; quartiles go to stderr."""
    values = {}
    for name in outs[0]["e2e"]:
        samples = [o["e2e"][name] for o in outs]
        q1, q3 = quartiles(samples)
        values[name] = statistics.median(samples)
        log(f"  {name:18s} median {values[name]:.6g} (q1 {q1:.6g}, "
            f"q3 {q3:.6g}, n={len(samples)})")
    probes = [o["probe_ns"] for o in outs]
    log(f"  host probe         median {statistics.median(probes):.4g} ns "
        f"per step (min {min(probes):.4g}, max {max(probes):.4g}); times "
        f"above are scaled to the reference host speed (host_probe.hh)")
    return values


def layer_values(plain, traced):
    """Per-layer figures: medians over the traced passes, except the pool
    figures, which come from the untraced passes as a user sees them."""
    med = statistics.median
    values = {name: med([o["layers"][name] for o in traced])
              for name in traced[0]["layers"]}
    pool = {key: med([o["pool"][key] for o in plain])
            for key in plain[0]["pool"]}
    values["runner.parallel_efficiency"] = pool["parallel_efficiency"]
    values["runner.longest_cell_ms"] = pool["longest_cell_ms"]
    values["journal.appends"] = pool["journal_appends"]
    values["journal.bytes"] = pool["journal_bytes"]
    values["trace.overhead"] = (med([o["sim_s"] for o in traced]) /
                                med([o["sim_s"] for o in plain]) - 1.0)
    values["host.probe_ns"] = med([o["probe_ns"] for o in plain + traced])
    return values


def record():
    """Run every cell of every workload through Simulator::run for each
    seed of the table and rewrite reference.json."""
    exe = build()
    seeds = [(0x5eedf00d + k * 0x9e3779b97f4a7c15) % 2**64
             for k in range(NUM_SEEDS)]
    deadline = time.monotonic() + 3600
    tasks = [(w, s) for w in WORKLOADS for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(workers()) as pool:
        outs = list(pool.map(
            lambda t: run_pass(exe, t[0], t[1], "record", deadline), tasks))
    reference = {"schema": "perfbench-reference/1", "seeds": seeds,
                 "workloads": {}}
    for (workload, seed), out in zip(tasks, outs):
        bad = [c for c in out["cells"] if c[7]]
        if bad:
            sys.exit(f"perfbench: {workload} seed {seed} failed while "
                     f"recording: {bad[0]}")
        entry = reference["workloads"].setdefault(
            workload, {"stamps": out["stamps"], "cells": {}})
        entry["cells"][str(seed)] = [c[:7] for c in out["cells"]]
    with open(REFERENCE, "w") as f:
        f.write(dump_reference(reference))
    log(f"perfbench: wrote {REFERENCE} ({len(seeds)} seeds)")


def dump_reference(reference):
    """JSON with one cell per line, so a diff shows which cells moved."""
    lines = ["{", f'"schema": {json.dumps(reference["schema"])},',
             f'"seeds": {json.dumps(reference["seeds"])},',
             '"workloads": {']
    for wi, (name, entry) in enumerate(reference["workloads"].items()):
        lines.append(f'{json.dumps(name)}: {{"stamps": '
                     f'{json.dumps(entry["stamps"])}, "cells": {{')
        for si, (seed, cells) in enumerate(entry["cells"].items()):
            lines.append(f'{json.dumps(seed)}: [')
            lines += [json.dumps(c) + ("," if ci + 1 < len(cells) else "")
                      for ci, c in enumerate(cells)]
            lines.append("]" + ("," if si + 1 < len(entry["cells"]) else ""))
        lines.append("}}" + ("," if wi + 1 < len(reference["workloads"])
                              else ""))
    lines += ["}", "}"]
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json instead of measuring")
    args = parser.parse_args()
    if args.record:
        record()
    elif args.workload:
        run_workload(args)
    else:
        parser.error("--workload or --record is required")


if __name__ == "__main__":
    main()
