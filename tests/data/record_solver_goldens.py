"""Re-record the solver path goldens from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/data/record_solver_goldens.py [--check]

The cases (masses, parameters, warm start, iteration budget) are read
from the files themselves; only the recorded results are rewritten:
every entry of descent_golden.json, and the "cases" of
minimize_golden.json.  minimize_golden.json's "w_solve" entry and the
other files in this directory are left as they are.  Every recorded key
whose value changes is printed as old -> new (a list as its length and
its largest change relative to its largest old entry), so the listing
can go with the change that moved the solver's path.

With --check the script prints the same old -> new listing but writes
nothing, and exits 1 when any recorded key would change (0 when none
would), so a change can see whether it moves the solver's path before
it rewrites the goldens.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import nlskdv as nk
from nlskdv.minimize import MinimizeOptions

DATA = Path(__file__).parent


def _num(x):
    # JSON null stands for NaN (an undefined multiplier or residual)
    return None if math.isnan(x) else float(x)


def _solve(case, grid, opts=None):
    warm = None
    if case.get("warm_gauss"):
        gauss, zero = np.exp(-grid.x ** 2 / 8.0), np.zeros(grid.n)
        warm = (gauss, zero) if case["s"] > 0 else (zero, gauss)
    return nk.minimize_I(case["s"], case["t"],
                         nk.PhysParams(**case["params"]), grid, opts,
                         warm_start=warm)


def _change(old, new):
    """old -> new for one recorded value, or None when it is unchanged."""
    if old == new:
        return None
    if isinstance(new, list):
        scale = max((abs(v) for v in old), default=0.0) or 1.0
        worst = (max(abs(a - b) for a, b in zip(old, new)) / scale
                 if len(old) == len(new) else math.nan)
        return (f"{len(old)} -> {len(new)} entries, "
                f"max |diff| / max |old| {worst:.2e}")
    if isinstance(new, float) and isinstance(old, float) and old != 0.0:
        return f"{old!r} -> {new!r} (rel {abs(new - old) / abs(old):.2e})"
    return f"{old!r} -> {new!r}"


def _update(label, case, **new):
    """Write new values into case, printing each one that changes.

    Returns the number of keys that changed.
    """
    changed = 0
    for key, val in new.items():
        change = _change(case.get(key), val)
        if change is not None:
            print(f"{label}.{key}: {change}")
            changed += 1
    case.update(new)
    return changed


def _report(label, case, rep):
    return _update(
        label, case,
        energy_history=[float(e) for e in rep.energy_history],
        history_len=len(rep.energy_history), iterations=rep.iterations,
        final_step=float(rep.final_step), pg_norm=float(rep.pg_norm),
        stages=rep.stages, termination=rep.termination)


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def record_descent(path, write=True):
    """Re-record descent_golden.json; returns the number of changed keys."""
    doc = json.loads(path.read_text())
    grid = nk.make_grid(doc["L"], doc["n"])
    changed = 0
    for name, case in doc["cases"].items():
        changed += _report(f"{path.name} {name}", case, _solve(case, grid)[1])
    case = doc["max_iter_3"]
    try:
        _solve(case, grid, MinimizeOptions(max_iter=case["max_iter"]))
    except nk.ConvergenceError as err:
        changed += _report(f"{path.name} max_iter_3", case, err.report)
    else:
        raise RuntimeError("max_iter_3 converged within its budget")
    if write:
        _write(path, doc)
    return changed


def record_minimize(path, write=True):
    """Re-record minimize_golden.json's cases; returns the changed keys."""
    doc = json.loads(path.read_text())
    grid = nk.make_grid(doc["L"], doc["n"])
    stride = doc["state_stride"]
    changed = 0
    for name, case in doc["cases"].items():
        pair, rep = _solve(case, grid)
        changed += _update(
            f"{path.name} {name}", case,
            iterations=rep.iterations, stages=rep.stages,
            energy=_num(pair.energy_value), sigma=_num(pair.sigma),
            c=_num(pair.c), el_residual_phi=_num(pair.el_residual_phi),
            el_residual_psi=_num(pair.el_residual_psi),
            phi=[float(v) for v in np.real(pair.phi.values[::stride])],
            psi=[float(v) for v in pair.psi.values[::stride]])
    if write:
        _write(path, doc)
    return changed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Re-record the solver path goldens.")
    parser.add_argument("--check", action="store_true",
                        help="list the changes, write nothing, exit 1 "
                             "when any recorded key would change")
    check = parser.parse_args(argv).check
    changed = (record_descent(DATA / "descent_golden.json", not check)
               + record_minimize(DATA / "minimize_golden.json", not check))
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
