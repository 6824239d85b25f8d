"""Serialization of solver results: canonical JSON, binary fields, CSV.

JSON documents are written in a canonical form (sorted keys, fixed
separators, trailing newline) so that load followed by re-serialize is
byte-identical.  All writes are atomic: temp file in the target
directory, then rename.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Optional

from .evolve import EvolveTrace
from .grid import atomic_write, load_field, save_field
from .minimize import SolitaryWavePair, WSolution


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


def save_pair(pair: SolitaryWavePair, dirpath: str) -> None:
    """Write pair.json plus phi/psi binary field blocks into a directory."""
    os.makedirs(dirpath, exist_ok=True)
    save_field(pair.phi, os.path.join(dirpath, "phi"))
    save_field(pair.psi, os.path.join(dirpath, "psi"))
    doc = {
        "kind": "solitary_wave_pair",
        "s": pair.s, "t": pair.t,
        "sigma": _nan_to_none(pair.sigma), "c": _nan_to_none(pair.c),
        "energy": pair.energy_value,
        "el_residual_phi": _nan_to_none(pair.el_residual_phi),
        "el_residual_psi": _nan_to_none(pair.el_residual_psi),
        "boundary_leak": pair.boundary_leak,
        "grid": {"L": pair.grid.half_length, "n": pair.grid.n},
        "fields": {"phi": "phi", "psi": "psi"},
    }
    write_json(os.path.join(dirpath, "pair.json"), doc)


def load_pair(dirpath: str) -> SolitaryWavePair:
    doc = read_json(os.path.join(dirpath, "pair.json"))
    if doc.get("kind") != "solitary_wave_pair":
        raise OSError(f"not a pair artifact: {dirpath}")

    def back(x):
        return math.nan if x is None else float(x)

    try:
        phi = load_field(os.path.join(dirpath, doc["fields"]["phi"]))
        psi = load_field(os.path.join(dirpath, doc["fields"]["psi"]))
        return SolitaryWavePair(
            phi=phi, psi=psi, sigma=back(doc["sigma"]), c=back(doc["c"]),
            s=doc["s"], t=doc["t"], energy_value=doc["energy"],
            el_residual_phi=back(doc["el_residual_phi"]),
            el_residual_psi=back(doc["el_residual_psi"]),
            boundary_leak=doc["boundary_leak"])
    except (ValueError, KeyError, TypeError) as exc:
        raise OSError(f"corrupt pair artifact in {dirpath}: {exc}") from exc


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
        "sample_every": trace.sample_every, "seed": trace.seed,
        "scheme": trace.scheme,
    })
    write_json(os.path.join(dirpath, "manifest.json"), doc)


def profile_csv(grid, columns: dict) -> str:
    """CSV of sampled profiles for offline plotting, one x column first."""
    return _csv(["x"] + list(columns), zip(grid.x, *columns.values()))


def sweep_rows_csv(rows: list) -> str:
    names = ["s", "t", "I", "sigma", "c", "residual_phi", "residual_psi"]
    return _csv(names + ["iterations"],
                ([float(row[k]) for k in names] + [int(row["iterations"])]
                 for row in rows))
