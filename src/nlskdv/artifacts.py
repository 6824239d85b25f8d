"""Serialization of solver results: canonical JSON, binary fields, CSV.

JSON documents are written in a canonical form (sorted keys, fixed
separators, trailing newline) so that load followed by re-serialize is
byte-identical.  All writes are atomic: temp file in the target
directory, then rename.  Each output record is defined once, next to
its writer: the pair.json keys, the report.json fields, the sweep columns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from typing import Optional

from .evolve import EvolveTrace
from .grid import atomic_write, load_field, save_field
from .minimize import MinimizeReport, SolitaryWavePair, WSolution


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    atomic_write(path, text.encode("utf-8"))


def write_json(path: str, obj) -> None:
    atomic_write_text(path, canonical_json(obj))


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _nan_to_none(x: float) -> Optional[float]:
    return None if (x is None or not math.isfinite(x)) else float(x)


# (pair.json key, SolitaryWavePair attribute, NaN written as null); the
# other values are written as they are, so an int mass stays an int
_PAIR_KEYS = (("s", "s", False), ("t", "t", False), ("sigma", "sigma", True),
              ("c", "c", True), ("energy", "energy_value", False),
              ("el_residual_phi", "el_residual_phi", True),
              ("el_residual_psi", "el_residual_psi", True),
              ("boundary_leak", "boundary_leak", False))


def save_pair(pair: SolitaryWavePair, dirpath: str) -> None:
    """Write pair.json plus phi/psi binary field blocks into a directory."""
    os.makedirs(dirpath, exist_ok=True)
    save_field(pair.phi, os.path.join(dirpath, "phi"))
    save_field(pair.psi, os.path.join(dirpath, "psi"))
    doc = {key: _nan_to_none(getattr(pair, attr)) if nanable
           else getattr(pair, attr) for key, attr, nanable in _PAIR_KEYS}
    doc.update(kind="solitary_wave_pair", fields={"phi": "phi", "psi": "psi"},
               grid={"L": pair.grid.half_length, "n": pair.grid.n})
    write_json(os.path.join(dirpath, "pair.json"), doc)


def load_pair(dirpath: str) -> SolitaryWavePair:
    doc = read_json(os.path.join(dirpath, "pair.json"))
    if doc.get("kind") != "solitary_wave_pair":
        raise OSError(f"not a pair artifact: {dirpath}")
    try:
        phi = load_field(os.path.join(dirpath, doc["fields"]["phi"]))
        psi = load_field(os.path.join(dirpath, doc["fields"]["psi"]))
        return SolitaryWavePair(phi=phi, psi=psi, **{
            attr: (math.nan if doc[key] is None else float(doc[key]))
            if nanable else doc[key] for key, attr, nanable in _PAIR_KEYS})
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"corrupt pair artifact in {dirpath}: {exc}") from exc


def save_report(report: MinimizeReport, dirpath: str) -> None:
    """Write report.json: the MinimizeReport fields but energy_history."""
    doc = dataclasses.asdict(report)
    del doc["energy_history"]
    write_json(os.path.join(dirpath, "report.json"), doc)


def save_wsolution(sol: WSolution, dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    save_field(sol.Phi, os.path.join(dirpath, "Phi"))
    save_field(sol.psi, os.path.join(dirpath, "psi"))
    save_pair(sol.pair, os.path.join(dirpath, "pair"))
    doc = {
        "kind": "w_solution",
        "a_star": sol.a_star, "b": sol.b,
        "omega": _nan_to_none(sol.omega), "c": _nan_to_none(sol.c),
        "W_value": sol.W_value, "i_value": sol.i_value,
        "n_solves": sol.n_solves, "n_unavailable": sol.n_unavailable,
        "twist_gap": _nan_to_none(sol.twist_gap),
        "grid": {"L": sol.Phi.grid.half_length, "n": sol.Phi.grid.n},
        "fields": {"Phi": "Phi", "psi": "psi"},
    }
    write_json(os.path.join(dirpath, "wsolution.json"), doc)


def _csv(header: list, rows) -> str:
    """CSV text of a header and rows; ints and strings are written as
    they are, every other value as repr(float(value))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if isinstance(x, (int, str)) else repr(float(x))
                      for x in row] for row in rows)
    return buf.getvalue()


def trace_to_csv(trace: EvolveTrace) -> str:
    dist = [""] * len(trace.times) if trace.distance is None \
        else trace.distance
    return _csv(["time", "E", "G", "H", "distance"],
                zip(trace.times, trace.E, trace.G, trace.H, dist))


def save_trace(trace: EvolveTrace, dirpath: str, manifest: dict) -> None:
    os.makedirs(dirpath, exist_ok=True)
    atomic_write_text(os.path.join(dirpath, "trace.csv"),
                      trace_to_csv(trace))
    doc = dict(manifest)
    doc.update({
        "kind": "evolve_trace", "dt": trace.dt,
        "sample_every": trace.sample_every, "scheme": trace.scheme,
    })
    write_json(os.path.join(dirpath, "manifest.json"), doc)


def profile_csv(grid, columns: dict) -> str:
    """CSV of sampled profiles for offline plotting, one x column first."""
    return _csv(["x"] + list(columns), zip(grid.x, *columns.values()))


SWEEP_COLUMNS = ("s", "t", "I", "sigma", "c", "residual_phi",
                 "residual_psi", "iterations")


def sweep_row(s, t, pair: SolitaryWavePair, report: MinimizeReport) -> tuple:
    """One sweep.csv row, in SWEEP_COLUMNS order."""
    return (float(s), float(t), pair.energy_value, pair.sigma, pair.c,
            pair.el_residual_phi, pair.el_residual_psi, report.iterations)


def sweep_rows_csv(rows: list) -> str:
    return _csv(list(SWEEP_COLUMNS), rows)
