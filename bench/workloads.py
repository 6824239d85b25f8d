"""The benchmark's workloads: set-up, one pass of operations, and gates.

Each workload builds its inputs from the seed in `__init__` (the
reference set-up that `setup_s` covers) and returns a fresh list of
operations per pass.  An operation is a (name, callable) pair; the
callable returns a list of missed gates, empty when the result is
correct.  `run_ops` counts an operation as failed when it raises a
typed `NlskdvError` or misses a gate, and carries on with the next one.

Why these three workloads:
- ensemble: eight equal-size trajectories at n=768, where per-call
  overhead dominates the stepper; the target of batched stepping.  The
  solver runs only in set-up.
- family: cold solves over an (s, t) lattice and mass-momentum solves;
  nothing is time-stepped, so evolve-side changes must show no change.
- cli: a command-line run, with the one large (n=4096, FFT-bound)
  trajectory, config parsing, artifact writes and the sweep pool.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import itertools
import math
import os
import shutil
import tempfile
import time

import numpy as np

import nlskdv as nk
from nlskdv import artifacts as nk_artifacts
from nlskdv import cli as nk_cli

# criterion 08 conservation bounds and criterion 07/03 certificates
REL_DRIFT_HG = 1e-6
REL_DRIFT_E = 1e-5
RESIDUAL_MAX = 1e-8
W_CHARGE_GAP = 1e-10
W_MOMENTUM_GAP = 1e-8
W_ENERGY_GAP = 1e-8
DISTANCE_FACTOR = 10.0      # sup orbital distance <= 10 * eps_abs

PRM = dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)

SIZES = {
    "full": {
        "ensemble": dict(L=30.0, n=768, trajectories=8, T=1.0, dt=2e-3,
                         sample_every=50),
        "family": dict(L=40.0, n=1024, side=10, wL=30.0, wn=768,
                       w_points=((1.0, 0.5), (1.0, 1.0), (1.5, 0.75),
                                 (2.0, 1.0))),
        "cli": dict(L=40.0, n=4096, T=1.0, dt=1e-3, sample_every=100,
                    wL=30.0, wn=768, sweep_n=1024, sweep_side=4),
    },
    "tiny": {
        "ensemble": dict(L=30.0, n=256, trajectories=2, T=0.1, dt=2e-3,
                         sample_every=25),
        "family": dict(L=40.0, n=512, side=2, wL=30.0, wn=256,
                       w_points=((1.0, 0.5),)),
        "cli": dict(L=40.0, n=512, T=0.05, dt=1e-3, sample_every=25,
                    wL=30.0, wn=256, sweep_n=512, sweep_side=2),
    },
}

LATTICE = (0.5, 2.5)        # (s, t) range of the lattices
EPSILONS = (0.01, 0.02, 0.04)


def params() -> nk.PhysParams:
    return nk.PhysParams(**PRM)


def _jittered(rng, side: int, shape) -> np.ndarray:
    lo, hi = LATTICE
    cell = (hi - lo) / (side - 1)
    return rng.uniform(-0.2 * cell, 0.2 * cell, size=shape)


def jittered_axis(rng, side: int) -> list:
    """side values spread over LATTICE, each moved by up to 20% of a cell."""
    vals = np.linspace(*LATTICE, side) + _jittered(rng, side, side)
    return [float(v) for v in np.clip(vals, *LATTICE)]


def jittered_lattice(rng, side: int) -> list:
    """side x side points over LATTICE, each moved by up to 20% of a cell."""
    base = np.linspace(*LATTICE, side)
    jit = _jittered(rng, side, (side, side, 2))
    pts = np.stack(np.meshgrid(base, base, indexing="ij"), axis=-1) + jit
    return [(float(s), float(t))
            for s, t in np.clip(pts, *LATTICE).reshape(-1, 2)]


def pair_gates(pair) -> list:
    missed = []
    for name, res in (("residual_phi", pair.el_residual_phi),
                      ("residual_psi", pair.el_residual_psi)):
        if not res <= RESIDUAL_MAX:
            missed.append(f"{name}={res:.3e} > {RESIDUAL_MAX:g}")
    return missed


def w_gates(Phi, psi, s, t, i_value, b, prm) -> list:
    """Criterion 07: the twisted profile carries the constraint values."""
    missed = []
    h_gap = abs(nk.charge(Phi) - s)
    g_gap = abs(nk.momentum(Phi, psi) - t)
    e_gap = abs(nk.energy(Phi, psi, prm) - (i_value + b * b * s))
    if not h_gap <= W_CHARGE_GAP:
        missed.append(f"|H-s|={h_gap:.3e}")
    if not g_gap <= W_MOMENTUM_GAP:
        missed.append(f"|G-t|={g_gap:.3e}")
    if not e_gap <= W_ENERGY_GAP:
        missed.append(f"|E-(I+b^2 s)|={e_gap:.3e}")
    return missed


def drift_gates(rel_h, rel_g, rel_e) -> list:
    missed = []
    if not rel_h <= REL_DRIFT_HG:
        missed.append(f"rel H drift {rel_h:.3e}")
    if not rel_g <= REL_DRIFT_HG:
        missed.append(f"rel G drift {rel_g:.3e}")
    if not rel_e <= REL_DRIFT_E:
        missed.append(f"rel E drift {rel_e:.3e}")
    return missed


# A shared 2-core Xeon VM changes speed by up to 4x within seconds
# (other tenants' load), so time is measured against a fixed numpy/Python
# reference kernel run every ~MARK_GAP_S: see SpeedClock.  The kernel
# calls nothing in nlskdv, so a change to the program cannot move it.
# NOMINAL_KERNEL_S is a typical time of the kernel on a 2-core Xeon.
NOMINAL_KERNEL_S = 0.007
MARK_GAP_S = 0.05
_KERNEL_INPUT = np.exp(1j * np.linspace(0.0, 50.0, 1024))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed speed-reference kernel."""
    t0 = time.perf_counter()
    x = _KERNEL_INPUT
    for _ in range(150):
        y = np.fft.ifft(np.fft.fft(x) * 0.5)
        x = _KERNEL_INPUT + np.abs(y) * y
    return time.perf_counter() - t0


class SpeedClock:
    """Wall time scaled to a nominal machine speed.

    `mark` runs the reference kernel and records when and how long.  The
    time between two marks is scaled by NOMINAL_KERNEL_S over the mean of
    their kernel times (before the first mark and after the last, by that
    mark's alone); the marks' own run time counts as no time at all.
    Marks are taken only in the process that made the clock, so forked
    pool workers run no kernel.
    """

    def __init__(self):
        self.marks = []                 # (start, end, kernel seconds)
        self._pid = os.getpid()

    def mark(self) -> None:
        t0 = time.perf_counter()
        if not self.marks:
            kernel_seconds()            # first run in a process plans FFTs
        k = kernel_seconds()
        self.marks.append((t0, time.perf_counter(), k))

    def mark_if_due(self) -> None:
        if os.getpid() == self._pid and (
                not self.marks
                or time.perf_counter() - self.marks[-1][1] >= MARK_GAP_S):
            self.mark()

    def _segments(self):
        m = self.marks
        yield -math.inf, m[0][0], m[0][2]
        for (_, end, k0), (start, _, k1) in zip(m, m[1:]):
            yield end, start, 0.5 * (k0 + k1)
        yield m[-1][1], math.inf, m[-1][2]

    def raw(self, a: float, b: float) -> float:
        """Wall seconds in [a, b] outside the kernel runs."""
        return sum(max(0.0, min(b, hi) - max(a, lo))
                   for lo, hi, _ in self._segments())

    def scaled(self, a: float, b: float) -> float:
        """Seconds in [a, b] outside the kernel runs, at nominal speed."""
        i = max(bisect.bisect_right([m[1] for m in self.marks], a) - 1, 0)
        total = 0.0
        for lo, hi, k in itertools.islice(self._segments(), i, None):
            if lo >= b:
                break
            total += max(0.0, min(b, hi) - max(a, lo)) * NOMINAL_KERNEL_S / k
        return total


class Tally:
    """Operations attempted and failed, with the first few reasons, and
    the (start, end) of each operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.ops = []


def run_ops(ops, tally: Tally, clock: SpeedClock = None) -> None:
    for name, op in ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            missed = op()
        except nk.NlskdvError as exc:
            missed = [f"{type(exc).__name__}: {exc}"]
        tally.ops.append((t0, time.perf_counter()))
        if clock is not None:
            clock.mark_if_due()
        if missed:
            tally.failed += 1
            if len(tally.reasons) < 20:
                tally.reasons.append(f"{name}: {'; '.join(missed)}")


class Ensemble:
    """Orbital-stability ensemble around the reference W-minimizer."""

    cold_solves_only = False

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]["ensemble"]
        self.cfg = cfg
        self.prm = params()
        grid = nk.make_grid(cfg["L"], cfg["n"])
        self.sol = nk.minimize_W(1.0, 0.5, self.prm, grid)
        rng = np.random.default_rng(seed)
        self.cases = []
        for _ in range(cfg["trajectories"]):
            rel = float(rng.choice(EPSILONS))
            pseed = int(rng.integers(2 ** 31))
            state, eps_abs, _ = nk.perturbed_solitary_initial(
                self.sol.pair, rel, seed=pseed, prm=self.prm,
                wavespeed=self.sol.c)
            self.cases.append((rel, pseed, state, eps_abs))

    def ops(self) -> list:
        return [(f"trajectory eps={rel} seed={pseed}",
                 lambda st=state, ea=eps_abs: self._trajectory(st, ea))
                for rel, pseed, state, eps_abs in self.cases]

    def _trajectory(self, state, eps_abs) -> list:
        cfg = self.cfg
        tr = nk.evolve(state, cfg["T"], cfg["dt"],
                       sample_every=cfg["sample_every"],
                       reference=self.sol.pair, wavespeed=self.sol.c)
        missed = drift_gates(tr.rel_drift("H"), tr.rel_drift("G"),
                             tr.rel_drift("E"))
        sup = float(np.max(tr.distance))
        if not sup <= DISTANCE_FACTOR * eps_abs:
            missed.append(f"sup distance {sup:.3e} > 10 eps={eps_abs:.3e}")
        return missed

    def close(self) -> None:
        pass


class Family:
    """Cold lattice solves plus mass-momentum solves; no time stepping."""

    cold_solves_only = True

    def __init__(self, seed: int, size: str = "full"):
        cfg = SIZES[size]["family"]
        self.prm = params()
        self.grid = nk.make_grid(cfg["L"], cfg["n"])
        self.wgrid = nk.make_grid(cfg["wL"], cfg["wn"])
        self.points = jittered_lattice(np.random.default_rng(seed),
                                       cfg["side"])
        self.w_points = cfg["w_points"]

    def ops(self) -> list:
        ops = [(f"minimize_I s={s:.4f} t={t:.4f}",
                lambda s=s, t=t: self._solve(s, t)) for s, t in self.points]
        ops += [(f"minimize_W s={s} t={t}",
                 lambda s=s, t=t: self._wsolve(s, t))
                for s, t in self.w_points]
        return ops

    def _solve(self, s, t) -> list:
        pair, _ = nk.minimize_I(s, t, self.prm, self.grid)
        return pair_gates(pair)

    def _wsolve(self, s, t) -> list:
        sol = nk.minimize_W(s, t, self.prm, self.wgrid)
        return w_gates(sol.Phi, sol.psi, s, t, sol.i_value, sol.b, self.prm)

    def close(self) -> None:
        pass


class Cli:
    """In-process command sequence: solve, evolve --init, w-solve, sweep."""

    cold_solves_only = False

    def __init__(self, seed: int, size: str = "full", workdir: str = "."):
        cfg = SIZES[size]["cli"]
        self.cfg = cfg
        self.prm = params()
        rng = np.random.default_rng(seed)
        self.s, self.t = (float(v) for v in rng.uniform(0.9, 1.1, size=2))
        self.sweep_s = jittered_axis(rng, cfg["sweep_side"])
        self.sweep_t = jittered_axis(rng, cfg["sweep_side"])
        self.evolve_seed = int(rng.integers(2 ** 31))
        self.root = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        os.environ[nk_cli.OUTPUT_ROOT_ENV] = self.root
        self.config = os.path.join(self.root, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self._config_text())
        self.runs = os.path.join(self.root, "runs")
        self.outputs = []        # captured stdout of each command

    def _config_text(self) -> str:
        cfg = self.cfg
        join = " ".join
        return (
            "[physics]\n" + "".join(f"{k} = {v}\n" for k, v in PRM.items())
            + f"[grid]\nhalf_length = {cfg['L']}\npoints = {cfg['n']}\n"
            f"[problem]\ns = {self.s!r}\nt = {self.t!r}\n"
            f"[evolve]\ndt = {cfg['dt']}\nduration = {cfg['T']}\n"
            f"sample_every = {cfg['sample_every']}\n"
            f"seed = {self.evolve_seed}\nepsilon = 0.02\n"
            f"[sweep]\ns_values = {join(repr(v) for v in self.sweep_s)}\n"
            f"t_values = {join(repr(v) for v in self.sweep_t)}\n"
            "workers = 2\n"
            "[output]\ndirectory = runs\n")

    def main(self, argv) -> int:
        """One `nlskdv` invocation with its stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nk_cli.main(argv)
        self.outputs.append(buf.getvalue())
        return code

    def _run(self, argv) -> list:
        code = self.main(argv)
        if code != 0:
            return [f"exit {code}: {self.outputs[-1].strip()[-300:]}"]
        return []

    def ops(self) -> list:
        return [("cli solve", self._solve), ("cli evolve", self._evolve),
                ("cli w-solve", self._wsolve), ("cli sweep", self._sweep)]

    def _solve(self) -> list:
        missed = self._run(["solve", "--config", self.config])
        if missed:
            return missed
        pair = nk_artifacts.load_pair(os.path.join(self.runs, "solve"))
        if pair.grid.n != self.cfg["n"]:
            missed.append(f"reloaded pair has n={pair.grid.n}")
        return missed + pair_gates(pair)

    def _evolve(self) -> list:
        missed = self._run(["evolve", "--config", self.config,
                            "--init", os.path.join(self.runs, "solve")])
        if missed:
            return missed
        path = os.path.join(self.runs, "evolve", "trace.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = 1 + math.ceil(round(self.cfg["T"] / self.cfg["dt"])
                                 / self.cfg["sample_every"])
        if len(rows) != expected:
            missed.append(f"trace has {len(rows)} rows, want {expected}")

        def rel(col):
            vals = [float(r[col]) for r in rows]
            return max(abs(v - vals[0]) for v in vals) / abs(vals[0])
        return missed + drift_gates(rel("H"), rel("G"), rel("E"))

    def _wsolve(self) -> list:
        cfg = self.cfg
        missed = self._run([
            "w-solve", "--config", self.config,
            "--set", f"grid.half_length={cfg['wL']}",
            "--set", f"grid.points={cfg['wn']}",
            "--set", "problem.s=1.0", "--set", "problem.t=0.5"])
        if missed:
            return missed
        out = os.path.join(self.runs, "wsolve")
        doc = nk_artifacts.read_json(os.path.join(out, "wsolution.json"))
        pair = nk_artifacts.load_pair(os.path.join(out, "pair"))
        Phi = nk.load_field(os.path.join(out, "Phi"))
        psi = nk.load_field(os.path.join(out, "psi"))
        return w_gates(Phi, psi, 1.0, 0.5, doc["i_value"], doc["b"],
                       self.prm) + pair_gates(pair)

    def _sweep(self) -> list:
        missed = self._run(["sweep", "--config", self.config,
                            "--set", f"grid.points={self.cfg['sweep_n']}"])
        if missed:
            return missed
        path = os.path.join(self.runs, "sweep", "sweep.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        want = len(self.sweep_s) * len(self.sweep_t)
        if len(rows) != want:
            missed.append(f"sweep.csv has {len(rows)} rows, want {want}")
        for row in rows:
            worst = max(float(row["residual_phi"]), float(row["residual_psi"]))
            if not worst <= RESIDUAL_MAX:
                missed.append(f"sweep ({row['s']}, {row['t']}) residual "
                              f"{worst:.3e}")
        return missed

    def close(self) -> None:
        os.environ.pop(nk_cli.OUTPUT_ROOT_ENV, None)
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {"ensemble": Ensemble, "family": Family, "cli": Cli}
