"""Time the solver of two source trees against each other in one process.

Run from the repository root, with the two trees' package parents as
arguments (for example the `src` directories of two checkouts):

    python tests/data/time_solver_ab.py OLD_SRC NEW_SRC [--reps 12]
        [--solves 50] [--seed 3201] [--w-calls 1] [--points 1024]

Each tree's `nlskdv` package is copied into a temporary directory under
its own name (`nlskdv_old`, `nlskdv_new`) and imported beside the other.
This works because the package imports its own modules relatively.

One rep makes `--solves` cold `minimize_I` at random (s, t) in
[0.5, 2.5]^2 (L=40, n=`--points`, default physics; drawn anew per rep)
and `--w-calls` rounds of `minimize_W` over the four `family` W points,
(s, t) = (1, 0.5), (1, 1), (1.5, 0.75) and (2, 1), at L=30, n=768.
Every call runs on both trees back to back, and the tree that goes
first alternates from call to call, so a drift of the machine's speed
falls on both sides of each ratio.  Both sides are warmed up first.
The script prints, per rep, the median per-call ratio new / old of the
cold solves and of the W-solves (with the median times of each side),
then the median of all per-call ratios, and for each W point the median
of its own per-call ratios.  A ratio below 1 means the new tree is
faster.  It checks that both sides make the same descent iterations on
every cold solve and reports the largest relative difference of I.
"""

import argparse
import importlib
import itertools
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

LATTICE = (0.5, 2.5)
W_POINTS = ((1.0, 0.5), (1.0, 1.0), (1.5, 0.75), (2.0, 1.0))
DEFAULT = dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)


def _load(src, name, tmp):
    """Import the nlskdv package under src as the package `name`."""
    shutil.copytree(Path(src) / "nlskdv", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


class _Side:
    """One tree's package with its grids and parameters."""

    def __init__(self, label, pkg, points):
        self.label = label
        self.pkg = pkg
        self.prm = pkg.PhysParams(**DEFAULT)
        self.grid = pkg.make_grid(40.0, points)
        self.wgrid = pkg.make_grid(30.0, 768)

    def cold(self, s, t):
        """(seconds, iterations, I) of one cold solve."""
        start = time.perf_counter()
        pair, rep = self.pkg.minimize_I(s, t, self.prm, self.grid)
        return time.perf_counter() - start, rep.iterations, pair.energy_value

    def wsolve(self, s, t):
        """Seconds of one W-solve."""
        start = time.perf_counter()
        self.pkg.minimize_W(s, t, self.prm, self.wgrid)
        return time.perf_counter() - start


class _Interleaved:
    """Runs each call on both sides, alternating which goes first."""

    def __init__(self, sides):
        self.sides = sides
        self.calls = itertools.count()

    def __call__(self, method, *args):
        """{label: result} of method(*args) on both sides."""
        order = self.sides if next(self.calls) % 2 == 0 else self.sides[::-1]
        return {side.label: getattr(side, method)(*args) for side in order}


def _summary(ratios):
    return (f"{statistics.median(ratios):.3f} "
            f"({sum(r < 1.0 for r in ratios)} of {len(ratios)} below 1)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Interleaved in-process timing of two source trees.")
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--reps", type=int, default=12)
    parser.add_argument("--solves", type=int, default=50)
    parser.add_argument("--seed", type=int, default=3201)
    parser.add_argument("--w-calls", type=int, default=1)
    parser.add_argument("--points", type=int, default=1024,
                        help="grid points of the cold solves (L=40)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        run = _Interleaved([
            _Side(name, _load(src, f"nlskdv_{name}", tmp), args.points)
            for name, src in (("old", args.old_src), ("new", args.new_src))])
        run("cold", 1.0, 1.0)                   # warm-up: grids, imports
        if args.w_calls:
            run("wsolve", *W_POINTS[0])
        rng = np.random.default_rng(args.seed)
        cold_ratios, w_ratios = [], []
        point_ratios = {point: [] for point in W_POINTS}
        iter_mismatch, worst_rel = 0, 0.0
        for rep in range(args.reps):
            times = {"old": [], "new": []}
            rep_ratios = []
            for _ in range(args.solves):
                s, t = (float(v) for v in rng.uniform(*LATTICE, 2))
                out = run("cold", s, t)
                (t_old, it_old, i_old), (t_new, it_new, i_new) = (
                    out["old"], out["new"])
                times["old"].append(t_old)
                times["new"].append(t_new)
                rep_ratios.append(t_new / t_old)
                iter_mismatch += it_old != it_new
                worst_rel = max(worst_rel, abs(i_old - i_new) / abs(i_old))
            cold_ratios += rep_ratios
            med = {k: statistics.median(v) * 1e3 for k, v in times.items()}
            line = (f"rep {rep:2d}: cold {med['old']:.3f} -> "
                    f"{med['new']:.3f} ms, per-call ratio "
                    f"{statistics.median(rep_ratios):.3f}")
            wtimes = {"old": [], "new": []}
            rep_ratios = []
            for _ in range(args.w_calls):
                for point in W_POINTS:
                    out = run("wsolve", *point)
                    for k, v in out.items():
                        wtimes[k].append(v)
                    rep_ratios.append(out["new"] / out["old"])
                    point_ratios[point].append(rep_ratios[-1])
            if rep_ratios:
                w_ratios += rep_ratios
                wmed = {k: statistics.median(v) * 1e3
                        for k, v in wtimes.items()}
                line += (f"; W-solve {wmed['old']:.1f} -> {wmed['new']:.1f}"
                         f" ms, per-call ratio "
                         f"{statistics.median(rep_ratios):.3f}")
            print(line, flush=True)
        sys.path.remove(tmp)
    print(f"median per-call cold ratio {_summary(cold_ratios)}")
    if w_ratios:
        print(f"median per-call W-solve ratio {_summary(w_ratios)}")
        for (s, t), ratios in point_ratios.items():
            print(f"  W point ({s:g}, {t:g}): median ratio "
                  f"{_summary(ratios)}")
    print(f"cold solves with different iterations: {iter_mismatch} of "
          f"{len(cold_ratios)}; largest relative I difference "
          f"{worst_rel:.2e}")
    return 0 if math.isfinite(worst_rel) else 1


if __name__ == "__main__":
    sys.exit(main())
