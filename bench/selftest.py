"""The benchmark's own tests, on the tiny size of each workload.

    python3 -m pytest -q bench/selftest.py

Kept out of the repository's test run by its file name.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import nlskdv as nk  # noqa: E402
import tracing  # noqa: E402
from workloads import (NOMINAL_KERNEL_S, Ensemble, Family,  # noqa: E402
                       SpeedClock, Tally, run_ops)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_shape():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == ["ensemble", "family",
                                                      "cli"]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ensemble", "family", "cli"])
def test_emitted_metrics_match_spec(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_injected_failures_are_counted_and_the_run_goes_on():
    wl = Family(5, "tiny")

    def forced_miss():
        return ["forced gate miss"]

    ops = wl.ops()
    ops[1:1] = [("injected invalid point", lambda: wl._solve(-1.0, 1.0)),
                ("injected gate miss", forced_miss)]
    tally = Tally()
    run_ops(ops, tally)
    assert tally.attempted == len(ops) == len(tally.ops)
    assert tally.failed == 2
    assert tally.reasons[0].startswith("injected invalid point: "
                                       "ValidationError")
    assert tally.reasons[1] == "injected gate miss: forced gate miss"


def test_speed_clock_scales_between_marks_and_skips_kernel_runs():
    clock = SpeedClock()
    k = NOMINAL_KERNEL_S
    clock.marks = [(1.0, 2.0, k), (5.0, 6.0, 2.0 * k)]
    assert clock.raw(0.0, 7.0) == pytest.approx(5.0)
    # 1 s at nominal speed, 3 s at 1/1.5 of it, 1 s at half of it
    assert clock.scaled(0.0, 7.0) == pytest.approx(1.0 + 2.0 + 0.5)
    assert clock.scaled(3.0, 5.5) == pytest.approx(2.0 / 1.5)


def test_untyped_errors_are_not_swallowed():
    def broken():
        raise ZeroDivisionError("bench bug")

    with pytest.raises(ZeroDivisionError):
        run_ops([("broken", broken)], Tally())


def test_wrappers_are_gone_after_the_traced_pass():
    fft_before = np.fft.fft
    evolve_before = nk.evolve
    wl = Ensemble(2, "tiny")
    tr = tracing.Tracer()
    tr.run = "pass-1"
    with tracing.Installed(tr, "trace"):
        assert hasattr(np.fft.fft, tracing.MARK)
        assert hasattr(nk.evolve, tracing.MARK)
        assert ("nlskdv.evolve", "orbital_distance") in \
            tracing.wrapped_bindings()
        tally = Tally()
        t0 = time.perf_counter()
        run_ops(wl.ops(), tally)
        tr.pass_walls[tr.run] = time.perf_counter() - t0
    assert tracing.wrapped_bindings() == []
    assert np.fft.fft is fft_before and nk.evolve is evolve_before
    assert tally.failed == 0

    sm = tracing.summarize(tr)
    assert sm["calls"]["evolve"] == len(wl.cases)
    assert sm["calls"]["fft"] > 0
    parents = {s[0]: tr.spans[s[3]][0] for s in tr.spans if s[3] >= 0}
    assert parents["evolve.orbital_distance"] == "evolve"
    accounted = sum(sm["self"].values()) + sm["unattributed"]
    assert accounted == pytest.approx(sm["wall"], rel=1e-9)


def test_wrappers_are_gone_after_a_raising_pass():
    with pytest.raises(nk.ValidationError):
        with tracing.Installed(tracing.Tracer(), "trace"):
            nk.minimize_I(-1.0, 1.0, nk.PhysParams(1.0, 1.0, 1.0, 1, 1.0),
                          nk.make_grid(40.0, 256))
    assert tracing.wrapped_bindings() == []


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "family", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert '"metrics"' not in line
