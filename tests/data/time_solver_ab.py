"""Time the solver of two source trees against each other in one process.

Run from the repository root, with the two trees' package parents as
arguments (for example the `src` directories of two checkouts):

    python tests/data/time_solver_ab.py OLD_SRC NEW_SRC [--reps 12]
        [--solves 50] [--seed 3201] [--w-calls 1]

Each tree's `nlskdv` package is copied into a temporary directory under
its own name (`nlskdv_old`, `nlskdv_new`) and imported beside the other.
This works because the package imports its own modules relatively.

One rep times, for each side, `--solves` cold `minimize_I` at random
(s, t) in [0.5, 2.5]^2 (L=40, n=1024, default physics; the same points
on both sides, drawn anew per rep) and `--w-calls` rounds of
`minimize_W` over the four `family` W points, (s, t) = (1, 0.5),
(1, 1), (1.5, 0.75) and (2, 1), at L=30, n=768.  The side that goes
first alternates from rep to rep, so a drift of the machine's speed
falls on both.  Every call is preceded by a warm-up of both sides.  The
script prints, per rep, the median cold solve and the median W-solve of
each side and their ratios new / old, then the median of the per-rep
ratios, and for each W point the median over reps of its own ratio (a
point's solves of one rep are summed over its --w-calls).  A ratio
below 1 means the new tree is faster.  It checks that both sides make the same
descent iterations on every cold solve and reports the largest relative
difference of I.
"""

import argparse
import importlib
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
    """One tree's package with its grids, parameters and timings."""

    def __init__(self, label, pkg):
        self.label = label
        self.pkg = pkg
        self.prm = pkg.PhysParams(**DEFAULT)
        self.grid = pkg.make_grid(40.0, 1024)
        self.wgrid = pkg.make_grid(30.0, 768)

    def cold(self, points):
        times, iters, values = [], [], []
        for s, t in points:
            start = time.perf_counter()
            pair, rep = self.pkg.minimize_I(s, t, self.prm, self.grid)
            times.append(time.perf_counter() - start)
            iters.append(rep.iterations)
            values.append(pair.energy_value)
        return times, iters, values

    def wsolve(self, calls):
        # one list of times per W point
        times = [[] for _ in W_POINTS]
        for _ in range(calls):
            for point, (s, t) in zip(times, W_POINTS):
                start = time.perf_counter()
                self.pkg.minimize_W(s, t, self.prm, self.wgrid)
                point.append(time.perf_counter() - start)
        return times


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Interleaved in-process timing of two source trees.")
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--reps", type=int, default=12)
    parser.add_argument("--solves", type=int, default=50)
    parser.add_argument("--seed", type=int, default=3201)
    parser.add_argument("--w-calls", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [_Side("old", _load(args.old_src, "nlskdv_old", tmp)),
                 _Side("new", _load(args.new_src, "nlskdv_new", tmp))]
        rng = np.random.default_rng(args.seed)
        for side in sides:                      # warm-up: grids, imports
            side.cold([(1.0, 1.0)])
            side.wsolve(min(args.w_calls, 1))
        cold_ratios, w_ratios = [], []
        point_ratios = [[] for _ in W_POINTS]
        iter_mismatch, worst_rel = 0, 0.0
        for rep in range(args.reps):
            points = [tuple(float(v) for v in rng.uniform(*LATTICE, 2))
                      for _ in range(args.solves)]
            order = sides if rep % 2 == 0 else sides[::-1]
            cold, wtimes = {}, {}
            for side in order:
                cold[side.label] = side.cold(points)
                wtimes[side.label] = side.wsolve(args.w_calls)
            (t_old, it_old, i_old), (t_new, it_new, i_new) = (
                cold["old"], cold["new"])
            iter_mismatch += sum(a != b for a, b in zip(it_old, it_new))
            worst_rel = max(worst_rel, max(
                abs(a - b) / abs(a) for a, b in zip(i_old, i_new)))
            med = {k: statistics.median(v[0]) * 1e3 for k, v in cold.items()}
            cold_ratios.append(med["new"] / med["old"])
            line = (f"rep {rep:2d} ({order[0].label} first): cold median "
                    f"{med['old']:.3f} -> {med['new']:.3f} ms, ratio "
                    f"{cold_ratios[-1]:.3f}")
            if args.w_calls:
                wmed = {k: statistics.median(sum(v, [])) * 1e3
                        for k, v in wtimes.items()}
                w_ratios.append(wmed["new"] / wmed["old"])
                for ratios, old, new in zip(point_ratios, wtimes["old"],
                                            wtimes["new"]):
                    ratios.append(sum(new) / sum(old))
                line += (f"; W-solve {wmed['old']:.1f} -> {wmed['new']:.1f}"
                         f" ms, ratio {w_ratios[-1]:.3f}")
            print(line, flush=True)
        sys.path.remove(tmp)
    print(f"median cold ratio {statistics.median(cold_ratios):.3f} over "
          f"{args.reps} reps ({sum(r < 1.0 for r in cold_ratios)} below 1)")
    if w_ratios:
        print(f"median W-solve ratio {statistics.median(w_ratios):.3f} "
              f"({sum(r < 1.0 for r in w_ratios)} below 1)")
        for (s, t), ratios in zip(W_POINTS, point_ratios):
            print(f"  W point ({s:g}, {t:g}): median ratio "
                  f"{statistics.median(ratios):.3f} "
                  f"({sum(r < 1.0 for r in ratios)} below 1)")
    print(f"cold solves with different iterations: {iter_mismatch} of "
          f"{args.reps * args.solves}; largest relative I difference "
          f"{worst_rel:.2e}")
    return 0 if math.isfinite(worst_rel) else 1


if __name__ == "__main__":
    sys.exit(main())
