"""Record the solver's answers on two fixed case sets, or compare two records.

Run from the repository root:

    PYTHONPATH=src python tests/data/compare_solver_answers.py --record OUT
    python tests/data/compare_solver_answers.py --compare OLD NEW

--record solves both sets with the package on the path and writes one
JSON record per case:

- the W set, 155 `minimize_W` cases: 11 fixed ones (the four `family`
  W points and t = -0.3, -1.5 and -0.8 at s = 1, all at L=30, n=768;
  the default `w-solve`; (1, -2) at tau2 = 6; two alpha = 0 cases at
  tau2 = 6, one of which doubles the scan range) and 144 random ones,
  12 from each of four batches per seed 11, 12 and 13 (coupled;
  alpha = 0; tau1 in {0, 1} with p in {1, 9/7}; coupled in a box
  L in [22, 32]), at L=40, n=512 unless stated;
- the cold set, 96 `minimize_I` cases from seeds 7 and 8 at L=40,
  n=512 (alpha in [0, 3], tau1 in {0, 1}, tau2 in [0.5, 6], q in
  [1, 3.5], p in {1, 7/5}, s and t in [0.3, 2.5]).

Each record holds the status ("solved" or the error type) and message,
and for a solved case W, a*, twist_gap and n_solves (W set) or I, sigma
and c (cold set), with the descent iterations and `_evaluate` calls it
made, counted at `_descend` and `_evaluate` in two parts: those of the
descent on F that `minimize_W` runs itself (`f_iterations`,
`f_evaluations`; 0 in the cold set) and those of every other descent,
the inner `minimize_I` solves (`iterations`, `evaluations`).  `grids`
lists the point count of every descent's grid, in call order, so a
coarse stage of a cold solve shows as a count below the case's n, and a
W-solve whose scan ran on a coarser grid has most of its counts below
it.  `grid_masses` counts the case's `exact._grid_mass` quadratures, the
cold starts' width searches and reachability checks; the cases run in
one process, in order, so a check cached by an earlier case of the same
grid and physics is not counted again.  Both sets take a few minutes.

--compare prints, per set, the status counts, the error messages that
differ (old -> new), the largest difference of every value (relative
for W and I, absolute for the rest), the summed counts and how many
cases ran on a coarser grid in each record (none where a record has no
`grids`): for the cold set the solves that took a coarse stage, for the
W set the W-solves that ran most of their descents, the scan's, there.
It also prints the summed `grid_masses` of all cases ("n/a" for a
record without them).  It exits 1 when any case's status or error type differs between the
two records.
"""

import argparse
import json
import math
import sys

import numpy as np

DEFAULT = dict(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)


def _case(name, s, t, L=40.0, n=512, **params):
    return dict(name=name, s=s, t=t, L=L, n=n,
                params={**DEFAULT, **params})


def w_cases():
    """The 155 cases of the W set."""
    cases = [_case(f"family-{s}-{t}", s, t, 30.0, 768)
             for s, t in ((1.0, 0.5), (1.0, 1.0), (1.5, 0.75), (2.0, 1.0))]
    cases += [_case(f"s1-t{t}", 1.0, t, 30.0, 768) for t in (-0.3, -1.5,
                                                            -0.8)]
    cases += [_case("w-solve-default", 1.0, 1.0, 40.0, 1024),
              _case("tau2_6-t-2", 1.0, -2.0, tau2=6.0),
              _case("alpha0-doubling", 4.0, 0.0, alpha=0.0, tau2=6.0),
              _case("alpha0-s0.8-t0", 0.8, 0.0, alpha=0.0, tau2=6.0)]
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        for batch in ("coupled", "alpha0", "powers", "box"):
            for i in range(12):
                s, t = rng.uniform(0.3, 2.5), rng.uniform(-1.5, 2.0)
                prm = dict(alpha=rng.uniform(0.2, 2.0),
                           tau2=rng.uniform(0.5, 6.0),
                           q=rng.uniform(1.0, 3.5))
                L = 40.0
                if batch == "alpha0":
                    prm["alpha"] = 0.0
                elif batch == "powers":
                    prm["tau1"] = float(rng.integers(2))
                    prm["p"] = "9/7" if rng.integers(2) else 1
                elif batch == "box":
                    L = rng.uniform(22.0, 32.0)
                cases.append(_case(f"{batch}-{seed}-{i}", s, t, L, **prm))
    return cases


def cold_cases():
    """The 96 cases of the cold set."""
    cases = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        for i in range(48):
            cases.append(_case(
                f"cold-{seed}-{i}", float(rng.uniform(0.3, 2.5)),
                float(rng.uniform(0.3, 2.5)),
                alpha=float(rng.uniform(0.0, 3.0)),
                tau1=float(rng.integers(2)),
                tau2=float(rng.uniform(0.5, 6.0)),
                q=float(rng.uniform(1.0, 3.5)),
                p="7/5" if rng.integers(2) else 1))
    return cases


class _Counts:
    """Counts descent iterations and _evaluate calls, split in two.

    Counting at _descend sees every descent, whoever runs it.  The
    descent on F (the _descend call with a twist, which minimize_W runs
    itself) is counted apart from the rest, the inner minimize_I solves.
    Every descent's grid size is kept, in call order, and the grid
    masses that exact_mod computes are counted.
    """

    def __init__(self, mod, exact_mod):
        self.evaluations = self.iterations = 0
        self.f_evaluations = self.f_iterations = 0
        self.grid_masses = 0
        self.grids = []
        evaluate, descend = mod._evaluate, mod._descend
        grid_mass = exact_mod._grid_mass

        def counted_evaluate(*args, **kwargs):
            self.evaluations += 1
            return evaluate(*args, **kwargs)

        def counted_descend(*args, **kwargs):
            before = self.evaluations
            self.grids.append(args[3].n)    # (Xh, masses, prm, grid, ...)
            out = descend(*args, **kwargs)
            if kwargs.get("twist", args[7] if len(args) > 7 else None) is None:
                self.iterations += out[2]   # (Xh, last, iterations, ...)
            else:
                self.f_iterations += out[2]
                self.f_evaluations += self.evaluations - before
            return out

        def counted_grid_mass(*args):
            self.grid_masses += 1
            return grid_mass(*args)

        mod._evaluate = counted_evaluate
        mod._descend = counted_descend
        exact_mod._grid_mass = counted_grid_mass

    def take(self):
        out = dict(iterations=self.iterations,
                   evaluations=self.evaluations - self.f_evaluations,
                   f_iterations=self.f_iterations,
                   f_evaluations=self.f_evaluations, grids=self.grids,
                   grid_masses=self.grid_masses)
        self.evaluations = self.iterations = 0
        self.f_evaluations = self.f_iterations = 0
        self.grid_masses = 0
        self.grids = []
        return out


def _num(x):
    return None if math.isnan(x) else float(x)


def _coarse_solves(records, cases, share=0.0):
    """How many records ran more than share of their descents (any, at
    share 0) on fewer points than their case."""
    n = {case["name"]: case["n"] for case in cases}
    count = 0
    for r in records:
        grids = r.get("grids", [])
        count += sum(g < n[r["name"]] for g in grids) > share * len(grids)
    return count


def record(path):
    import nlskdv as nk
    from nlskdv import exact as exact_mod
    from nlskdv import minimize as mod

    # solves go through the module, so the counters see them too
    counts = _Counts(mod, exact_mod)
    out = {"w": [], "cold": []}
    for kind, cases in (("w", w_cases()), ("cold", cold_cases())):
        for case in cases:
            rec = dict(name=case["name"])
            try:
                prm = nk.PhysParams(**case["params"])
                grid = nk.make_grid(case["L"], case["n"])
                if kind == "w":
                    sol = mod.minimize_W(case["s"], case["t"], prm, grid)
                    rec.update(W=sol.W_value, a_star=sol.a_star,
                               twist_gap=_num(sol.twist_gap),
                               n_solves=sol.n_solves)
                else:
                    pair, _ = mod.minimize_I(case["s"], case["t"], prm, grid)
                    rec.update(I=pair.energy_value, sigma=_num(pair.sigma),
                               c=_num(pair.c))
            except Exception as err:    # recorded: its type is the status
                rec.update(status=type(err).__name__, error=str(err))
            else:
                rec["status"] = "solved"
            rec.update(counts.take())
            out[kind].append(rec)
            print(f"{kind} {rec['name']}: {rec['status']}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)


def _diff(a, b, relative):
    """|a - b|, relative to the larger size when relative; None is NaN."""
    if a is None or b is None:
        return 0.0 if a == b else math.inf
    scale = max(abs(a), abs(b)) if relative else 1.0
    return abs(a - b) / scale if scale else 0.0


# (key, relative?) of the values compared per set
_VALUES = {"w": (("W", True), ("a_star", False), ("twist_gap", False)),
           "cold": (("I", True), ("sigma", False), ("c", False))}


def compare(path_a, path_b):
    """Print the differences; returns the number of status changes."""
    with open(path_a, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        new = json.load(fh)
    changed = 0
    for kind, values in _VALUES.items():
        if len(old[kind]) != len(new[kind]):
            print(f"{kind}: {len(old[kind])} -> {len(new[kind])} cases")
            changed += 1
        pairs = list(zip(old[kind], new[kind]))
        statuses = {}
        for a, b in pairs:
            if (a["name"], a["status"]) != (b["name"], b["status"]):
                print(f"{kind} {a['name']}: {a['status']} -> {b['status']}")
                changed += 1
            statuses[b["status"]] = statuses.get(b["status"], 0) + 1
        moved = [(a["name"], a.get("error"), b.get("error"))
                 for a, b in pairs if a.get("error") != b.get("error")]
        print(f"{kind}: {len(pairs)} cases, statuses {statuses}, "
              f"{len(moved)} error messages differ")
        for name, a, b in moved:
            print(f"  {name}: {a!r} -> {b!r}")
        label, cases, share = (
            ("solves with a coarse stage", cold_cases(), 0.0)
            if kind == "cold" else
            ("W-solves that scanned on a coarser grid", w_cases(), 0.5))
        print(f"  {label}: " + " -> ".join(
            str(_coarse_solves(side[kind], cases, share))
            for side in (old, new)))
        print("  grid masses over all cases: " + " -> ".join(
            str(sum(r["grid_masses"] for r in side[kind]))
            if all("grid_masses" in r for r in side[kind]) else "n/a"
            for side in (old, new)))
        solved = [(a, b) for a, b in pairs
                  if a["status"] == b["status"] == "solved"]
        if not solved:
            continue
        for key, relative in values:
            gap, name = max((_diff(a[key], b[key], relative), a["name"])
                            for a, b in solved)
            sizes = [max((abs(r[key]) for r in side if r[key] is not None),
                         default=math.nan)
                     for side in zip(*solved)]
            print(f"  {key}: max {'rel' if relative else 'abs'} diff "
                  f"{gap:.2e} ({name}); largest value "
                  f"{sizes[0]:.3g} -> {sizes[1]:.3g}")
        for key in ("n_solves", "iterations", "evaluations",
                    "f_iterations", "f_evaluations"):
            if all(key in r for r in solved[0]):
                same = sum(a[key] == b[key] for a, b in solved)
                print(f"  {key} over solved: "
                      f"{sum(a[key] for a, _ in solved)} -> "
                      f"{sum(b[key] for _, b in solved)} "
                      f"({same} of {len(solved)} equal)")
    return changed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Record or compare the solver's answers.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", metavar="OUT")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    return 1 if compare(*args.compare) else 0


if __name__ == "__main__":
    sys.exit(main())
