"""Command-line interface: solve, sweep, w-solve, evolve, rearrange, verify.

Configuration is plain key = value text with sections; every value,
including defaults, is echoed into the run manifest so a run can be
reproduced from the manifest alone.  Exit codes are a stable contract:
0 success, 2 validation, 3 I/O, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import artifacts
from .errors import (BlowUpError, NlskdvError, ValidationError)
from .evolve import (evolve, perturbed_solitary_initial, solitary_initial,
                     traveling_wavespeed)
from .functionals import PhysParams, parse_odd_denominator
from .grid import Grid1D, make_grid
from .minimize import MinimizeOptions, minimize_I, minimize_W
from .verify import (CheckRow, rows_to_table, run_functional_checks,
                     run_grid_checks, run_rearrange_suite, run_subadd_probes)

OUTPUT_ROOT_ENV = "NLSKDV_OUTPUT_ROOT"


def _float_list(raw: str) -> list:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _nonneg_float(raw: str) -> float:
    val = float(raw)
    if not val >= 0.0:
        raise ValueError(f"must be >= 0, got {val}")
    return val


def _pos_float(raw: str) -> float:
    val = float(raw)
    if not 0.0 < val < float("inf"):
        raise ValueError(f"must be positive and finite, got {val}")
    return val


def _wavespeed(raw: str) -> Optional[float]:
    raw = raw.strip().lower()
    return None if raw == "auto" else float(raw)


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
    ("solver", "max_iter", "max_iter", int, "200000"),
    ("solver", "continuation_step", "continuation_step", _pos_float, "0.25"),
    ("solver", "stabilize_iters", "stabilize_iters", int, "300"),
    ("solver", "max_boundary_leak", "max_boundary_leak", _pos_float, "1e-6"),
    ("problem", "s", "s", float, "1.0"),
    ("problem", "t", "t", float, "1.0"),
    ("sweep", "s_values", "s_values", _float_list, "1.0"),
    ("sweep", "t_values", "t_values", _float_list, "1.0"),
    ("sweep", "workers", "workers", int, "2"),
    ("evolve", "dt", "dt", _pos_float, "0.001"),
    ("evolve", "duration", "duration", _nonneg_float, "20.0"),
    ("evolve", "sample_every", "sample_every", int, "100"),
    ("evolve", "seed", "seed", int, "1234"),
    ("evolve", "epsilon", "epsilon", _nonneg_float, "0.0"),
    ("evolve", "wavespeed", "wavespeed", _wavespeed, "auto"),
    ("verify", "subadd_count", "subadd_count", int, "2"),
    ("verify", "seed", "verify_seed", int, "7"),
    ("verify", "pairs", "verify_pairs", int, "20"),
    ("verify", "garrisi_cases", "garrisi_cases", int, "5"),
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
            continuation_step=self.continuation_step,
            stabilize_iters=self.stabilize_iters,
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


def _pair_row(s, t, pair, report):
    return {
        "s": s, "t": t, "I": pair.energy_value,
        "sigma": pair.sigma, "c": pair.c,
        "residual_phi": pair.el_residual_phi,
        "residual_psi": pair.el_residual_psi,
        "iterations": report.iterations,
    }


def cmd_solve(cfg: RunConfig) -> int:
    prm = cfg.phys_params()
    grid = cfg.grid()
    pair, report = minimize_I(cfg.s, cfg.t, prm, grid, cfg.solver_opts())
    out = cfg.outdir("solve")
    artifacts.save_pair(pair, out)
    artifacts.write_json(os.path.join(out, "report.json"), {
        "iterations": report.iterations,
        "termination": report.termination,
        "I_value": report.I_value,
        "pg_norm": report.pg_norm,
        "final_step": report.final_step,
        "stages": report.stages,
    })
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    artifacts.atomic_write_text(
        os.path.join(out, "profile.csv"),
        artifacts.profile_csv(grid, {
            "phi": np.real(pair.phi.values), "psi": pair.psi.values}))
    print(f"solved (s={cfg.s}, t={cfg.t}): I={pair.energy_value:.10g} "
          f"sigma={pair.sigma:.6g} c={pair.c:.6g} -> {out}")
    return 0


def _sweep_point(args):
    s, t, cfg = args
    prm = cfg.phys_params()
    grid = cfg.grid()
    pair, report = minimize_I(s, t, prm, grid, cfg.solver_opts())
    return _pair_row(s, t, pair, report)


def cmd_sweep(cfg: RunConfig) -> int:
    jobs = [(s, t, cfg) for s in cfg.s_values for t in cfg.t_values]
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    rows.sort(key=lambda r: (r["s"], r["t"]))
    out = cfg.outdir("sweep")
    artifacts.atomic_write_text(os.path.join(out, "sweep.csv"),
                                artifacts.sweep_rows_csv(rows))
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    print(f"swept {len(rows)} points -> {out}")
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
    if cfg.epsilon > 0.0:
        state, eps_abs, _ = perturbed_solitary_initial(
            pair, cfg.epsilon, cfg.seed, prm, wavespeed=c)
    else:
        state, eps_abs = solitary_initial(pair, c, prm=prm), 0.0
    out = cfg.outdir("evolve")
    manifest = cfg.manifest()
    manifest["epsilon_abs"] = eps_abs
    manifest["wavespeed_used"] = c
    try:
        trace = evolve(state, cfg.duration, cfg.dt,
                       sample_every=cfg.sample_every, reference=pair,
                       wavespeed=c, seed=cfg.seed)
    except BlowUpError as exc:
        if exc.trace is not None:
            artifacts.save_trace(exc.trace, out, manifest)
        print(json.dumps({"error": str(exc), "partial_trace": out}))
        return 4
    artifacts.save_trace(trace, out, manifest)
    print(f"evolved T={cfg.duration} dt={cfg.dt}: "
          f"|dE|={trace.drift('E'):.3e} |dG|={trace.drift('G'):.3e} "
          f"|dH|={trace.drift('H'):.3e} -> {out}")
    return 0


def cmd_rearrange(cfg: RunConfig) -> int:
    grid = cfg.grid()
    prm = cfg.phys_params()
    rows = run_rearrange_suite(grid, prm, seed=cfg.verify_seed,
                               n_pairs=cfg.verify_pairs,
                               n_garrisi=cfg.garrisi_cases)
    out = cfg.outdir("rearrange")
    artifacts.write_json(os.path.join(out, "rearrange.json"),
                         [r.to_dict() for r in rows])
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    sys.stdout.write(rows_to_table(rows))
    return 0 if all(r.status != "fail" for r in rows) else 4


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
    out = cfg.outdir("verify")
    artifacts.write_json(os.path.join(out, "verify.json"),
                         [r.to_dict() for r in rows])
    artifacts.write_json(os.path.join(out, "manifest.json"), cfg.manifest())
    sys.stdout.write(rows_to_table(rows))
    failures = [r.name for r in rows if r.status == "fail"]
    if failures:
        print(json.dumps({"failed": failures}))
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, args.overrides)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "w-solve":
            return cmd_wsolve(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.init)
        if args.command == "rearrange":
            return cmd_rearrange(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ValidationError(f"unknown command {args.command}")
    except (ValidationError, configparser.Error) as exc:
        print(json.dumps({"error": str(exc), "code": 2}))
        return 2
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "code": 3}))
        return 3
    except NlskdvError as exc:
        print(json.dumps({"error": str(exc), "code": 4}))
        return 4


if __name__ == "__main__":
    sys.exit(main())
