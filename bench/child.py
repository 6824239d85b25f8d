"""One benchmark process: import, set up a workload, run timed passes.

Started by run.py in a fresh interpreter; prints one JSON object as its
last stdout line.  Modes:

- setup:    import and reference set-up only (a `setup_s` sample).
- measure:  set-up, then untraced passes for --seconds, each operation
            bracketed by the speed-reference kernel (workloads.py).
- trace:    traced set-up, then untraced and traced passes in turn for
            --seconds; reports the per-layer metrics and writes the spans.
- baseline: the ROADMAP baseline layer figures, traced.

Set-up time runs from --t-spawn, the parent's `time.perf_counter()`
(CLOCK_MONOTONIC, so comparable across processes) just before it started
this interpreter, to the end of the workload's set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time

T_START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import nlskdv as nk  # noqa: E402

if not os.path.abspath(nk.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"nlskdv imported from {nk.__file__}, not from {ROOT}/src")

from tracing import (LAYERS, Installed, Tracer, summarize,  # noqa: E402
                     write_spans)
from workloads import (WORKLOADS, SpeedClock, Tally,  # noqa: E402
                       kernel_seconds, params, run_ops)


# --- environment record ---------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import platform
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(os.path.join(idx, "type"))
        name = "L" + _read(os.path.join(idx, "level")) + {
            "Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = _read(os.path.join(idx, "size"))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu, "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "git_commit": _git_commit(), "seed": seed,
    }


# --- per-layer metrics from a traced run -------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def _outer_time(tracer: Tracer, prefix: str) -> float:
    """Time covered by spans named prefix* that have no such ancestor."""
    total = 0.0
    for s in tracer.spans:
        if not s[0].startswith(prefix):
            continue
        p = s[3]
        while p >= 0 and not tracer.spans[p][0].startswith(prefix):
            p = tracer.spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def layer_metrics(tr: Tracer, setup_tr: Tracer, untraced: list) -> dict:
    """Per-layer metrics, per traced pass, from the traced passes' spans."""
    sm = summarize(tr)
    passes = len(tr.pass_walls)
    calls, busy, self_s = sm["calls"], sm["busy"], sm["self"]
    c, mx = tr.counts, tr.maxima
    fft_recs = tr.fft.values()
    fft = [sum(rec[i] for rec in fft_recs) for i in range(4)]
    attributed = sum(self_s.values()) + sm["unattributed"]
    if abs(attributed - sm["wall"]) > 1e-6 * sm["wall"]:
        raise RuntimeError(f"self times {attributed} do not add up to the "
                           f"traced wall {sm['wall']}")

    def per(x):
        return x / passes

    def ratio(num, den, scale=1e6):
        return num / den * scale if den else 0.0

    m = {
        "fft.calls": _metric(per(fft[0]), "count"),
        "fft.busy_s": _metric(per(fft[1]), "s"),
        "fft.us_per_call": _metric(ratio(fft[1], fft[0]), "us"),
        "fft.flops_computed": _metric(per(fft[2]), "flop"),
        "fft.bytes_computed": _metric(per(fft[3]), "B"),
        "evolve.calls": _metric(per(calls.get("evolve", 0)), "count"),
        "evolve.steps": _metric(per(c["evolve.steps"]), "count"),
        "evolve.busy_s": _metric(per(busy.get("evolve", 0.0)), "s"),
        "evolve.step_us": _metric(
            ratio(sm["evolve_net"], c["evolve.steps"]), "us"),
        "evolve.orbital_distance.calls": _metric(
            per(calls.get("evolve.orbital_distance", 0)), "count"),
        "evolve.orbital_distance.busy_s": _metric(
            per(busy.get("evolve.orbital_distance", 0.0)), "s"),
        "evolve.energy_rel_drift": _metric(
            mx["evolve.energy_rel_drift"], "1"),
        "evolve.mass_rel_drift": _metric(mx["evolve.mass_rel_drift"], "1"),
        "evolve.blowups": _metric(per(c["evolve.blowups"]), "count"),
        "functionals.conserved_triple.calls": _metric(
            per(calls.get("functionals.conserved_triple", 0)), "count"),
        "functionals.conserved_triple.busy_s": _metric(
            per(busy.get("functionals.conserved_triple", 0.0)), "s"),
        "minimize.minimize_I.calls": _metric(
            per(calls.get("minimize.minimize_I", 0)), "count"),
        "minimize.minimize_I.busy_s": _metric(
            per(busy.get("minimize.minimize_I", 0.0)), "s"),
        "minimize.iterations": _metric(per(c["minimize.iterations"]),
                                       "count"),
        "minimize.stages": _metric(per(c["minimize.stages"]), "count"),
        "minimize.us_per_iter": _metric(
            ratio(busy.get("minimize.minimize_I", 0.0),
                  c["minimize.iterations"]), "us"),
        "minimize.minimize_W.calls": _metric(
            per(calls.get("minimize.minimize_W", 0)), "count"),
        "minimize.minimize_W.busy_s": _metric(
            per(busy.get("minimize.minimize_W", 0.0)), "s"),
        "minimize.w_inner_solves": _metric(
            per(c["minimize.w_inner_solves"]), "count"),
        "minimize.w_unavailable": _metric(per(c["minimize.w_unavailable"]),
                                          "count"),
        "minimize.residual_max": _metric(mx["minimize.residual_max"], "1"),
        "minimize.failures": _metric(per(c["minimize.failures"]), "count"),
        "rearrange.rearrange_values.calls": _metric(
            per(calls.get("rearrange.rearrange_values", 0)), "count"),
        "rearrange.rearrange_values.busy_s": _metric(
            per(busy.get("rearrange.rearrange_values", 0.0)), "s"),
        "artifacts.writes": _metric(per(c["artifacts.writes"]), "count"),
        "artifacts.bytes_written": _metric(per(c["artifacts.bytes_written"]),
                                           "B"),
        "artifacts.busy_s": _metric(per(busy.get("artifacts", 0.0)), "s"),
    }
    for cmd in ("solve", "evolve", "w_solve", "sweep"):
        m[f"cli.{cmd}_s"] = _metric(per(sum(tr.durations(f"cli.{cmd}"))),
                                    "s")
    m["cli.nonzero_exits"] = _metric(per(c["cli.nonzero_exits"]), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(per(self_s.get(layer, 0.0)), "s")
    m["trace.wall_s"] = _metric(per(sm["wall"]), "s")
    m["trace.unattributed_s"] = _metric(per(sm["unattributed"]), "s")
    m["trace.overhead_s"] = _metric(
        statistics.median(tr.pass_walls.values())
        - statistics.median(untraced), "s")
    m["setup.minimize_s"] = _metric(_outer_time(setup_tr, "minimize."), "s")
    return m


# --- modes ------------------------------------------------------------------

def _timed_pass(wl, tally) -> float:
    t0 = time.perf_counter()
    run_ops(wl.ops(), tally)
    return time.perf_counter() - t0


def measure(wl, tally, clock, seconds, setup_end) -> dict:
    """Passes for `seconds`: raw and speed-scaled time of each."""
    walls, scaled = [], []
    while True:
        t0, first = time.perf_counter(), len(tally.ops)
        run_ops(wl.ops(), tally, clock)
        ops = tally.ops[first:]
        walls.append(sum(clock.raw(a, b) for a, b in ops))
        scaled.append(sum(clock.scaled(a, b) for a, b in ops))
        now = time.perf_counter()
        if now + (now - t0) > setup_end + seconds:
            break
    return {"walls": walls, "scaled_walls": scaled}


def trace(wl, setup_tr, tally, seconds, setup_end, spans_path) -> dict:
    traced = Tracer()
    untraced = []
    while True:
        t_pair = time.perf_counter()
        untraced.append(_timed_pass(wl, tally))
        traced.run = f"pass-{len(untraced)}"
        with Installed(traced, "trace"):
            traced.pass_walls[traced.run] = _timed_pass(wl, tally)
        pair = time.perf_counter() - t_pair
        if time.perf_counter() + pair > setup_end + seconds:
            break
    write_spans([setup_tr, traced], spans_path)
    return {"walls": untraced,
            "traced_walls": list(traced.pass_walls.values()),
            "layers": layer_metrics(traced, setup_tr, untraced)}


def baseline() -> dict:
    """ROADMAP baseline figures: step and FFT at n=1024, the two solvers."""
    prm = params()
    g40, g30 = nk.make_grid(40.0, 1024), nk.make_grid(30.0, 768)
    pair, _ = nk.minimize_I(1.0, 1.0, prm, g40)          # warm-up
    state, _, _ = nk.perturbed_solitary_initial(pair, 0.02, seed=42, prm=prm)
    solve_tr, w_tr, step_tr = Tracer(), Tracer(), Tracer()
    with Installed(solve_tr):
        for _ in range(5):
            nk.minimize_I(1.0, 1.0, prm, g40)
    with Installed(w_tr):
        for _ in range(3):
            nk.minimize_W(1.0, 0.5, prm, g30)
    # 200-step runs, untraced and traced in turn, so both see the same
    # machine speed
    untraced_steps = []
    for rep in range(5):
        t0 = time.perf_counter()
        nk.evolve(state, 0.2, 1e-3, sample_every=200)
        untraced_steps.append((time.perf_counter() - t0) / 200)
        step_tr.run = f"evolve-{rep}"
        with Installed(step_tr):
            t0 = time.perf_counter()
            nk.evolve(state, 0.2, 1e-3, sample_every=200)
            step_tr.pass_walls[step_tr.run] = time.perf_counter() - t0
    untraced_step = statistics.fmean(untraced_steps)
    sm = summarize(step_tr)
    fft_1024 = {entry: rec[1] / rec[0] * 1e6
                for (entry, n), rec in step_tr.fft.items() if n == 1024}
    return {
        "step_us_n1024": sm["evolve_net"] / step_tr.counts["evolve.steps"]
        * 1e6,
        "step_us_n1024_untraced": untraced_step * 1e6,
        "ffts_per_step": sum(r[0] for r in step_tr.fft.values())
        / step_tr.counts["evolve.steps"],
        "fft_us_per_call_n1024": fft_1024,
        "minimize_I_1_1_s": statistics.median(
            solve_tr.durations("minimize.minimize_I")),
        "minimize_I_1_1_iterations": solve_tr.counts["minimize.iterations"]
        / 5,
        "minimize_I_1_1_stages": solve_tr.counts["minimize.stages"] / 5,
        "minimize_W_1_05_s": statistics.median(
            w_tr.durations("minimize.minimize_W")),
        "minimize_W_1_05_inner_solves":
            w_tr.counts["minimize.w_inner_solves"] / 3,
        "minimize_W_1_05_fft_share": sum(r[1] for r in w_tr.fft.values())
        / sum(w_tr.durations("minimize.minimize_W")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "baseline"))
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t-spawn", type=float, default=None,
                    help="parent's time.perf_counter() just before spawning")
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.mode == "baseline":
        doc = baseline()
        doc["kernel_s"] = statistics.median(
            kernel_seconds() for _ in range(5))
        doc["env"] = environment(args.seed)
        print(json.dumps(doc))
        return 0

    cls = WORKLOADS[args.workload]
    kwargs = {"workdir": OUT} if args.workload == "cli" else {}
    if args.mode == "trace":
        setup_tr = Tracer()
        setup_tr.run = "setup"
        with Installed(setup_tr, "trace"):
            wl = cls(args.seed, args.size, **kwargs)
        setup_end = time.perf_counter()
        tally = Tally()
        try:
            doc = trace(wl, setup_tr, tally, args.seconds, setup_end,
                        os.path.join(OUT, f"spans-{args.workload}.csv"))
        finally:
            wl.close()
    else:
        clock, probe, tally = SpeedClock(), Tracer(), Tally()
        clock.mark()
        probe.after_call = clock.mark_if_due
        with Installed(probe, "probe"):
            wl = cls(args.seed, args.size, **kwargs)
            setup_end = time.perf_counter()
            clock.mark()
            t_spawn = T_START if args.t_spawn is None else args.t_spawn
            doc = {"setup_s": clock.scaled(t_spawn, setup_end),
                   "raw_setup_s": clock.raw(t_spawn, setup_end)}
            try:
                if args.mode == "measure":
                    doc.update(measure(wl, tally, clock, args.seconds,
                                       setup_end))
            finally:
                wl.close()

        def latencies_ms(name, top_only=False):
            return [clock.scaled(sp[1], sp[2]) * 1e3 for sp in probe.spans
                    if sp[0] == name and (not top_only or sp[3] == -1)]
        doc["solve_ms"] = latencies_ms("minimize.minimize_I",
                                       cls.cold_solves_only)
        doc["wsolve_ms"] = latencies_ms("minimize.minimize_W")
    doc.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if args.mode != "setup":
        doc["env"] = environment(args.seed)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
