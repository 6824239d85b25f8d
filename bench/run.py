"""nlskdv benchmark: one workload, every result checked, metrics as JSON.

    python3 bench/run.py --workload {ensemble,family,cli} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --baseline      # writes bench/baseline.json

Run from the root of a source checkout; the package is imported from
its `src/` directory.  Each workload runs in fresh interpreters
(child.py), so `setup_s` covers interpreter start, `import nlskdv` and
the workload's reference set-up.  With --trace 0 one child measures
untraced passes for S seconds and further children only set up, giving
SETUP_SAMPLES set-up times; the end-to-end metrics are medians.  Every
timing is scaled to a nominal machine speed by reference-kernel runs
around it (workloads.SpeedClock); the raw times are in the info line.
With
--trace 1 a single child alternates untraced and traced passes and
reports the per-layer metrics.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the environment record, sample counts and any failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")

SETUP_SAMPLES = 5
TIME_LIMIT = 170.0      # seconds for the whole run, children included


class ChildFailed(Exception):
    pass


def spawn(mode: str, args, deadline: float):
    """Run one child to completion; returns its JSON result."""
    t_spawn = time.perf_counter()
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--size", args.size, "--t-spawn", repr(t_spawn)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        # the child leads a new process group holding its sweep workers too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child exceeded the time limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} child printed no result")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    docs = [spawn(mode, args, deadline)
            for mode in ["measure"] + ["setup"] * (SETUP_SAMPLES - 1)]
    doc = docs[0]
    setups = [d["setup_s"] for d in docs]
    solves = [ms for d in docs for ms in d["solve_ms"]]
    wsolves = [ms for d in docs for ms in d["wsolve_ms"]]
    if len(solves) < 2 or not wsolves:
        raise ChildFailed(f"{args.workload} made {len(solves)} solves and "
                          f"{len(wsolves)} W-solves; latencies need more")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(doc["scaled_walls"]), "s"),
        "peak_rss_mb": _metric(doc["peak_rss_mb"], "MB"),
        "solve_p50_ms": _metric(statistics.median(solves), "ms"),
        "solve_p90_ms": _metric(
            statistics.quantiles(solves, n=10, method="inclusive")[8], "ms"),
        "wsolve_p50_ms": _metric(statistics.median(wsolves), "ms"),
    }
    samples = {"setup": len(setups), "passes": len(doc["walls"]),
               "solves": len(solves), "wsolves": len(wsolves),
               "raw_pass_walls_s": doc["walls"],
               "raw_setups_s": [d["raw_setup_s"] for d in docs]}
    return doc, metrics, samples


def traced(args, deadline):
    doc = spawn("trace", args, deadline)
    samples = {"untraced_passes": len(doc["walls"]),
               "traced_passes": len(doc["traced_walls"])}
    return doc, doc["layers"], samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="nlskdv benchmark (see module docstring)")
    ap.add_argument("--workload", choices=("ensemble", "family", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids, for the benchmark's own tests")
    ap.add_argument("--baseline", action="store_true",
                    help="measure the ROADMAP baseline layer figures")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT
    try:
        if args.baseline:
            args.workload = "family"
            doc = spawn("baseline", args, deadline)
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            with open(os.path.join(BENCH, "baseline.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            sys.stdout.write(text)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        run = traced if args.trace else end_to_end
        doc, metrics, samples = run(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    info = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "samples": samples, "env": doc["env"],
            "failures": doc["failures"]}
    result = {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"result-{args.workload}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=2)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
