"""Command-line interface: solve, sweep, w-solve, evolve, rearrange, verify.

Configuration is plain key = value text with sections; every value,
including defaults, is echoed into the run manifest so a run can be
reproduced from the manifest alone.  Exit codes are a stable contract:
0 success, 2 validation, 3 I/O, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import artifacts
from .errors import (BlowUpError, NlskdvError, ValidationError)
from .evolve import evolve, perturbed_solitary_initial, traveling_wavespeed
from .functionals import PhysParams, parse_odd_denominator
from .grid import Grid1D, make_grid
from .minimize import MinimizeOptions, minimize_I, minimize_W
from .verify import (CheckRow, rows_to_table, run_functional_checks,
                     run_grid_checks, run_rearrange_suite, run_subadd_probes)

OUTPUT_ROOT_ENV = "NLSKDV_OUTPUT_ROOT"


def _float_list(raw: str) -> list:
    vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError("must list at least one value")
    return vals


def _bounded(kind, positive: bool):
    """Parser of finite values of kind (float or int), > 0 or >= 0."""
    bound = "> 0" if positive else ">= 0"

    def parse(raw: str):
        val = kind(raw)
        if not ((val > 0 if positive else val >= 0) and val < np.inf):
            raise ValueError(f"must be finite and {bound}, got {val}")
        return val
    return parse


_nonneg_float = _bounded(float, positive=False)
_pos_float = _bounded(float, positive=True)
_pos_int = _bounded(int, positive=True)
_nonneg_int = _bounded(int, positive=False)


def _wavespeed(raw: str) -> Optional[float]:
    raw = raw.strip().lower()
    if raw == "auto":
        return None
    val = float(raw)
    if not np.isfinite(val):
        raise ValueError(f"must be a finite number or 'auto', got {val}")
    return val


# (section, key, RunConfig attribute, parser, default text); every config
# key, its validation and its manifest entry come from this one table
_SCHEMA = [
    ("physics", "alpha", "alpha", float, "1.0"),
    ("physics", "tau1", "tau1", float, "1.0"),
    ("physics", "tau2", "tau2", float, "1.0"),
    ("physics", "p", "p", parse_odd_denominator, "1"),
    ("physics", "q", "q", float, "1.0"),
    ("grid", "half_length", "half_length", float, "40.0"),
    ("grid", "points", "points", int, "1024"),
    ("solver", "tol", "tol", _pos_float, "1e-8"),
    ("solver", "max_iter", "max_iter", _pos_int, "200000"),
    ("solver", "max_boundary_leak", "max_boundary_leak", _pos_float, "1e-6"),
    ("problem", "s", "s", float, "1.0"),
    ("problem", "t", "t", float, "1.0"),
    ("sweep", "s_values", "s_values", _float_list, "1.0"),
    ("sweep", "t_values", "t_values", _float_list, "1.0"),
    ("sweep", "workers", "workers", _pos_int, "2"),
    ("evolve", "dt", "dt", _pos_float, "0.001"),
    ("evolve", "duration", "duration", _nonneg_float, "20.0"),
    ("evolve", "sample_every", "sample_every", _pos_int, "100"),
    ("evolve", "seed", "seed", _nonneg_int, "1234"),
    ("evolve", "epsilon", "epsilon", _nonneg_float, "0.0"),
    ("evolve", "wavespeed", "wavespeed", _wavespeed, "auto"),
    ("verify", "subadd_count", "subadd_count", _nonneg_int, "2"),
    ("verify", "seed", "verify_seed", _nonneg_int, "7"),
    ("verify", "pairs", "verify_pairs", _pos_int, "20"),
    ("verify", "garrisi_cases", "garrisi_cases", _pos_int, "5"),
    ("output", "directory", "directory", str, "runs"),
]

_DEFAULTS: dict = {}
for _section, _key, _, _, _default in _SCHEMA:
    _DEFAULTS.setdefault(_section, {})[_key] = _default


class RunConfig:
    """Validated configuration for one CLI invocation.

    Holds one attribute per _SCHEMA row (alpha, tau1, ..., directory).
    """

    def __init__(self, **values):
        self.__dict__.update(values)

    @staticmethod
    def from_file(path: Optional[str],
                  overrides: Optional[list] = None) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.read_dict(_DEFAULTS)
        if path is not None:
            if not os.path.exists(path):
                raise FileNotFoundError(f"config file not found: {path}")
            try:
                read = parser.read(path, encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(
                    f"config file {path} is not valid UTF-8: {exc}") from exc
            if not read:
                raise FileNotFoundError(f"cannot read config: {path}")
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ValidationError(
                    f"override must look like section.key=value, got {item!r}")
            dotted, value = item.split("=", 1)
            section, key = dotted.strip().split(".", 1)
            parser.setdefault(section, {})
            parser[section][key.strip()] = value.strip()
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ValidationError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _DEFAULTS[section]:
                    raise ValidationError(
                        f"unknown config key {key!r} in [{section}]")

        values = {}
        for section, key, attr, parse, _ in _SCHEMA:
            raw = parser[section][key]
            try:
                values[attr] = parse(raw)
            except ValueError as exc:
                raise ValidationError(
                    f"[{section}] {key} = {raw!r}: {exc}") from exc
        return RunConfig(**values)

    def phys_params(self) -> PhysParams:
        return PhysParams(alpha=self.alpha, tau1=self.tau1, tau2=self.tau2,
                          p=self.p, q=self.q)

    def grid(self) -> Grid1D:
        return make_grid(self.half_length, self.points)

    def solver_opts(self) -> MinimizeOptions:
        return MinimizeOptions(
            tol=self.tol, max_iter=self.max_iter,
            max_boundary_leak=self.max_boundary_leak)

    def outdir(self, sub: str) -> str:
        base = self.directory
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root and not os.path.isabs(base):
            base = os.path.join(root, base)
        path = os.path.join(base, sub)
        os.makedirs(path, exist_ok=True)
        return path

    def manifest(self) -> dict:
        doc: dict = {}
        for section, key, attr, _, _ in _SCHEMA:
            doc.setdefault(section, {})[key] = getattr(self, attr)
        # physics echoes the validated parameters with the derived betas,
        # grid uses the {L, n} naming of the field headers
        prm = self.phys_params()
        doc["physics"] = prm.to_dict()
        doc["grid"] = {"L": self.half_length, "n": self.points}
        doc["outside_theorem"] = not (prm.stability_regime()
                                      and self.alpha > 0)
        return doc


def _error(message: str, code: int, **extra) -> int:
    """Print the one-line JSON error record and return its exit code."""
    print(json.dumps({"error": message, "code": code, **extra}))
    return code


def cmd_solve(cfg: RunConfig) -> int:
    prm = cfg.phys_params()
    grid = cfg.grid()
    pair, report = minimize_I(cfg.s, cfg.t, prm, grid, cfg.solver_opts())
    out = cfg.outdir("solve")
    artifacts.save_pair(pair, out)
    artifacts.save_report(report, out)
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    artifacts.atomic_write_text(
        os.path.join(out, "profile.csv"),
        artifacts.profile_csv(grid, {
            "phi": np.real(pair.phi.values), "psi": pair.psi.values}))
    print(f"solved (s={cfg.s}, t={cfg.t}): I={pair.energy_value:.10g} "
          f"sigma={pair.sigma:.6g} c={pair.c:.6g} -> {out}")
    return 0


def _sweep_point(args):
    """The sweep.csv row of one lattice point, and the error message of
    a failed solve (None when it solved)."""
    s, t, cfg = args
    try:
        pair, report = minimize_I(s, t, cfg.phys_params(), cfg.grid(),
                                  cfg.solver_opts())
    except tuple(artifacts.SWEEP_STATUS) as exc:
        status = artifacts.SWEEP_STATUS[type(exc)]
        return artifacts.sweep_row(s, t, status=status), str(exc)
    return artifacts.sweep_row(s, t, pair, report), None


def cmd_sweep(cfg: RunConfig) -> int:
    """Solve every lattice point and write one sweep.csv row per point.

    A point whose solve fails gets its status row and does not stop the
    others; the command then exits 4 naming the failed points.
    """
    jobs = [(s, t, cfg) for s in cfg.s_values for t in cfg.t_values]
    workers = min(cfg.workers, len(jobs))   # a fork pool starts all
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, jobs))
    else:
        points = [_sweep_point(j) for j in jobs]
    points.sort(key=lambda point: point[0][:2])  # by (s, t)
    out = cfg.outdir("sweep")
    artifacts.atomic_write_text(
        os.path.join(out, "sweep.csv"),
        artifacts.sweep_rows_csv([row for row, _ in points]))
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    print(f"swept {len(points)} points -> {out}")
    failed = [{"s": row[0], "t": row[1], "error": msg}
              for row, msg in points if msg is not None]
    if failed:
        return _error(f"sweep: {len(failed)} of {len(points)} point(s) "
                      "failed", 4, failed=failed)
    return 0


def cmd_wsolve(cfg: RunConfig) -> int:
    prm = cfg.phys_params()
    grid = cfg.grid()
    sol = minimize_W(cfg.s, cfg.t, prm, grid, cfg.solver_opts())
    out = cfg.outdir("wsolve")
    artifacts.save_wsolution(sol, out)
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    print(f"w-solved (s={cfg.s}, t={cfg.t}): W={sol.W_value:.10g} "
          f"a*={sol.a_star:.6g} b={sol.b:.6g} -> {out}")
    return 0


def cmd_evolve(cfg: RunConfig, init_path: str) -> int:
    prm = cfg.phys_params()
    pair = artifacts.load_pair(init_path)
    if pair.grid != cfg.grid():
        raise ValidationError(
            "init artifact grid does not match the configured grid")
    c = traveling_wavespeed(pair, cfg.wavespeed)
    state, eps_abs, _ = perturbed_solitary_initial(
        pair, cfg.epsilon, cfg.seed, prm, wavespeed=c)
    out = cfg.outdir("evolve")
    manifest = cfg.manifest()
    manifest.update(epsilon_abs=eps_abs, seed=cfg.seed, wavespeed_used=c)
    try:
        trace = evolve(state, cfg.duration, cfg.dt,
                       sample_every=cfg.sample_every, reference=pair,
                       wavespeed=c)
    except BlowUpError as exc:
        if exc.trace is not None:
            artifacts.save_trace(exc.trace, out, manifest)
        return _error(str(exc), 4, partial_trace=out)
    artifacts.save_trace(trace, out, manifest)
    print(f"evolved T={cfg.duration} dt={cfg.dt}: "
          f"|dE|={trace.drift('E'):.3e} |dG|={trace.drift('G'):.3e} "
          f"|dH|={trace.drift('H'):.3e} -> {out}")
    return 0


def _report_rows(cfg: RunConfig, name: str, rows: list) -> int:
    """Write <name>.json and the manifest, print the table; exit code.

    A failed check ends stdout with the JSON error record, code 4, that
    names the failed rows.
    """
    out = cfg.outdir(name)
    artifacts.write_json(os.path.join(out, f"{name}.json"),
                         [dataclasses.asdict(r) for r in rows])
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    sys.stdout.write(rows_to_table(rows))
    failed = [r.name for r in rows if r.status == "fail"]
    if failed:
        return _error(f"{name}: {len(failed)} check(s) failed", 4,
                      failed=failed)
    return 0


def cmd_rearrange(cfg: RunConfig) -> int:
    grid = cfg.grid()
    prm = cfg.phys_params()
    rows = run_rearrange_suite(grid, prm, seed=cfg.verify_seed,
                               n_pairs=cfg.verify_pairs,
                               n_garrisi=cfg.garrisi_cases)
    return _report_rows(cfg, "rearrange", rows)


def cmd_verify(cfg: RunConfig) -> int:
    grid = cfg.grid()
    prm = cfg.phys_params()
    rows: list[CheckRow] = []
    rows += run_grid_checks(grid, seed=cfg.verify_seed)
    rows += run_functional_checks(grid, prm, seed=cfg.verify_seed + 1)
    rows += run_rearrange_suite(grid, prm, seed=cfg.verify_seed + 2,
                                n_pairs=cfg.verify_pairs,
                                n_garrisi=cfg.garrisi_cases)
    rows += run_subadd_probes(prm, grid, cfg.solver_opts(),
                              count=cfg.subadd_count, seed=cfg.verify_seed)
    return _report_rows(cfg, "verify", rows)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError: exit 2 with the JSON record."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlskdv",
        description="solitary-wave laboratory for the coupled NLS-KdV system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_txt in [
            ("solve", "constrained minimization at one (s, t)"),
            ("sweep", "minimization over an (s, t) lattice"),
            ("w-solve", "mass-momentum constrained minimization"),
            ("evolve", "time integration from a solved pair"),
            ("rearrange", "rearrangement inequality suite"),
            ("verify", "full invariant suite")]:
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", default=None,
                       help="key = value config file (defaults used if absent)")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="override any config field, repeatable")
        if name == "evolve":
            p.add_argument("--init", required=True,
                           help="directory holding a saved pair")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig.from_file(args.config, args.overrides)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.init)
        return {"solve": cmd_solve, "sweep": cmd_sweep, "w-solve": cmd_wsolve,
                "rearrange": cmd_rearrange,
                "verify": cmd_verify}[args.command](cfg)
    except (ValidationError, configparser.Error) as exc:
        return _error(str(exc), 2)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        return _error(f"{type(exc).__name__}: {exc}", 3)
    except NlskdvError as exc:
        return _error(str(exc), 4)


if __name__ == "__main__":
    sys.exit(main())
