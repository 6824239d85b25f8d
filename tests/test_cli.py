import json
from pathlib import Path

import numpy as np
import pytest

import nlskdv as nk
from nlskdv import artifacts
from nlskdv.cli import _SCHEMA, OUTPUT_ROOT_ENV, RunConfig, main

SMALL = """
[grid]
half_length = 30.0
points = 512

[problem]
s = 1.0
t = 1.0

[evolve]
dt = 0.002
duration = 0.5
sample_every = 50
epsilon = 0.02

[verify]
subadd_count = 1
pairs = 5
garrisi_cases = 2

[output]
directory = {out}
"""


@pytest.fixture()
def cfgfile(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL.format(out=tmp_path / "out"))
    return str(path)


def test_solve_writes_artifacts(cfgfile, tmp_path):
    assert main(["solve", "--config", cfgfile]) == 0
    out = tmp_path / "out" / "solve"
    for name in ("pair.json", "phi.bin", "psi.bin", "report.json",
                 "manifest.json", "profile.csv"):
        assert (out / name).exists()
    pair = artifacts.load_pair(str(out))
    assert pair.energy_value < 0.0
    man = artifacts.read_json(str(out / "manifest.json"))
    assert man["solver"]["tol"] == 1e-8          # defaults echoed
    assert man["outside_theorem"] is False
    # load -> re-serialize is byte-identical for every JSON artifact
    for name in ("manifest.json", "pair.json", "report.json"):
        raw = (out / name).read_bytes()
        assert raw == artifacts.canonical_json(json.loads(raw)).encode()


def test_solve_matches_oracle(tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text("""
[physics]
alpha = 0.0
tau1 = 1.0
q = 2.0

[problem]
s = 4.0
t = 0.0

[grid]
half_length = 30.0
points = 512

[output]
directory = {}
""".format(tmp_path / "out"))
    assert main(["solve", "--config", str(cfg)]) == 0
    pair = artifacts.load_pair(str(tmp_path / "out" / "solve"))
    grid = pair.grid
    exact = np.sqrt(2) / np.cosh(grid.x)
    assert np.max(np.abs(np.real(pair.phi.values) - exact)) <= 1e-5


def test_invalid_p_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[physics]\np = 1/2\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 2


@pytest.mark.parametrize("text,overrides", [
    ("[physics]\nbogus = 3\n", []),
    (None, ["sweep.s_values=1,abc"]),
    (None, ["evolve.wavespeed=fast"]),
    ("alpha = 1.0\n", []),
    ("[physics]\nalpha = 1.0\nalpha = 2.0\n", []),
    (b"[physics]\nalpha = \xff\n", []),
    (None, ["evolve.epsilon=-0.5"]),
    (None, ["evolve.duration=-0.1"]),
    (None, ["evolve.dt=-0.001"]),
    (None, ["solver.continuation_step=0"]),
    (None, ["solver.tol=0"]),
    (None, ["solver.tol=nan"]),
    (None, ["solver.max_boundary_leak=-1"]),
], ids=["unknown-key", "bad-float-list", "bad-wavespeed",
        "no-section-header", "duplicate-key", "non-utf8",
        "negative-epsilon", "negative-duration", "negative-dt",
        "zero-continuation-step", "nonpositive-tol", "nan-tol",
        "negative-leak"])
def test_unknown_key_exit_2(tmp_path, capsys, text, overrides):
    args = ["solve", "--set", f"output.directory={tmp_path / 'out'}"]
    if text is not None:
        cfg = tmp_path / "bad.cfg"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        args += ["--config", str(cfg)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 2


def test_missing_config_exit_3(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_corrupt_init_exit_3(cfgfile, tmp_path):
    bad = tmp_path / "pairdir"
    bad.mkdir()
    (bad / "pair.json").write_text("{broken")
    assert main(["evolve", "--config", cfgfile, "--init", str(bad)]) == 3


def test_missing_init_exit_3(cfgfile, tmp_path):
    assert main(["evolve", "--config", cfgfile,
                 "--init", str(tmp_path / "nowhere")]) == 3


def test_evolve_roundtrip(cfgfile, tmp_path):
    assert main(["solve", "--config", cfgfile]) == 0
    assert main(["evolve", "--config", cfgfile,
                 "--init", str(tmp_path / "out" / "solve")]) == 0
    out = tmp_path / "out" / "evolve"
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "time,E,G,H,distance"
    man = artifacts.read_json(str(out / "manifest.json"))
    assert man["epsilon_abs"] > 0.0
    # distances stay near the perturbation size on this short run
    dist = [float(ln.split(",")[4]) for ln in lines[1:]]
    assert max(dist) <= 10 * man["epsilon_abs"]


def test_sweep_rows(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("""
[grid]
half_length = 30.0
points = 512

[sweep]
s_values = 0.8, 1.2
t_values = 0.9
workers = 1

[output]
directory = {}
""".format(tmp_path / "out"))
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("s,t,I,sigma,c")
    assert len(lines) == 3
    for ln in lines[1:]:
        cells = ln.split(",")
        assert float(cells[2]) < 0.0     # minimum value always negative


def test_rearrange_command(cfgfile, tmp_path, capsys):
    assert main(["rearrange", "--config", cfgfile]) == 0
    rows = artifacts.read_json(str(tmp_path / "out" / "rearrange"
                                   / "rearrange.json"))
    assert all(r["status"] != "fail" for r in rows)


def test_verify_command(cfgfile, tmp_path, capsys):
    assert main(["verify", "--config", cfgfile]) == 0
    rows = artifacts.read_json(str(tmp_path / "out" / "verify"
                                   / "verify.json"))
    names = {r["name"] for r in rows}
    assert any(n.startswith("subadd/") for n in names)
    assert all(r["status"] != "fail" for r in rows)


def test_verify_coarse_grid_tolerance_limited(tmp_path):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("""
[grid]
half_length = 40.0
points = 64

[verify]
subadd_count = 0
pairs = 4
garrisi_cases = 2

[output]
directory = {}
""".format(tmp_path / "out"))
    assert main(["verify", "--config", str(cfg)]) == 0
    rows = artifacts.read_json(str(tmp_path / "out" / "verify"
                                   / "verify.json"))
    ps = [r for r in rows if r["name"] == "rearrange/polya-szego"][0]
    assert ps["status"] == "tolerance-limited"


def test_output_root_env(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("""
[physics]
alpha = 0.0
tau1 = 1.0
q = 2.0

[problem]
s = 4.0
t = 0.0

[grid]
half_length = 30.0
points = 256

[output]
directory = nested/runs
""")
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (tmp_path / "root" / "nested" / "runs" / "solve"
            / "pair.json").exists()


def test_manifest_reproducible(cfgfile, tmp_path):
    cfg = RunConfig.from_file(cfgfile)
    man1 = artifacts.canonical_json(cfg.manifest())
    man2 = artifacts.canonical_json(RunConfig.from_file(cfgfile).manifest())
    assert man1 == man2


def test_no_config_file_uses_defaults(tmp_path):
    # no --config at all: defaults plus command-line overrides
    code = main(["solve",
                 "--set", f"output.directory={tmp_path / 'out'}",
                 "--set", "grid.half_length=30.0",
                 "--set", "grid.points=512"])
    assert code == 0
    assert (tmp_path / "out" / "solve" / "pair.json").exists()


def test_set_overrides(cfgfile):
    cfg = RunConfig.from_file(cfgfile, ["problem.s=2.5", "solver.tol=1e-7"])
    assert cfg.s == 2.5
    assert cfg.tol == 1e-7
    with pytest.raises(nk.ValidationError):
        RunConfig.from_file(cfgfile, ["bogus.key=1"])
    with pytest.raises(nk.ValidationError):
        RunConfig.from_file(cfgfile, ["nodot=1"])


def test_default_manifest_golden():
    golden = Path(__file__).parent / "data" / "default_manifest.json"
    man = artifacts.canonical_json(RunConfig.from_file(None).manifest())
    assert man == golden.read_text()


# a non-default value for every config key: (raw text, manifest section,
# manifest key, parsed value)
_NEW_VALUES = {
    "physics.alpha": ("0.5", "physics", "alpha", 0.5),
    "physics.tau1": ("2.0", "physics", "tau1", 2.0),
    "physics.tau2": ("3.0", "physics", "tau2", 3.0),
    "physics.p": ("7/5", "physics", "p", "7/5"),
    "physics.q": ("2.5", "physics", "q", 2.5),
    "grid.half_length": ("33.0", "grid", "L", 33.0),
    "grid.points": ("512", "grid", "n", 512),
    "solver.tol": ("1e-7", "solver", "tol", 1e-7),
    "solver.max_iter": ("1000", "solver", "max_iter", 1000),
    "solver.continuation_step": ("0.5", "solver", "continuation_step", 0.5),
    "solver.stabilize_iters": ("10", "solver", "stabilize_iters", 10),
    "solver.max_boundary_leak": ("1e-5", "solver", "max_boundary_leak",
                                 1e-5),
    "problem.s": ("2.0", "problem", "s", 2.0),
    "problem.t": ("0.0", "problem", "t", 0.0),
    "sweep.s_values": ("0.5, 1.5", "sweep", "s_values", [0.5, 1.5]),
    "sweep.t_values": ("2", "sweep", "t_values", [2.0]),
    "sweep.workers": ("1", "sweep", "workers", 1),
    "evolve.dt": ("0.01", "evolve", "dt", 0.01),
    "evolve.duration": ("3.0", "evolve", "duration", 3.0),
    "evolve.sample_every": ("7", "evolve", "sample_every", 7),
    "evolve.seed": ("99", "evolve", "seed", 99),
    "evolve.epsilon": ("0.1", "evolve", "epsilon", 0.1),
    "evolve.wavespeed": ("0.25", "evolve", "wavespeed", 0.25),
    "verify.subadd_count": ("3", "verify", "subadd_count", 3),
    "verify.seed": ("8", "verify", "seed", 8),
    "verify.pairs": ("4", "verify", "pairs", 4),
    "verify.garrisi_cases": ("1", "verify", "garrisi_cases", 1),
    "output.directory": ("elsewhere", "output", "directory", "elsewhere"),
}


def test_every_config_key_reaches_manifest():
    assert set(_NEW_VALUES) == {f"{row[0]}.{row[1]}" for row in _SCHEMA}
    default = RunConfig.from_file(None).manifest()
    for dotted, (raw, section, key, value) in _NEW_VALUES.items():
        man = RunConfig.from_file(None, [f"{dotted}={raw}"]).manifest()
        assert man[section][key] == value, dotted
        assert default[section][key] != value, dotted


def test_outside_theorem_flag(cfgfile):
    cfg = RunConfig.from_file(cfgfile, ["physics.p=7/5"])
    assert cfg.manifest()["outside_theorem"] is True
    cfg2 = RunConfig.from_file(cfgfile)
    assert cfg2.manifest()["outside_theorem"] is False


def test_sweep_parallel_workers(tmp_path):
    cfg = tmp_path / "sweeppar.cfg"
    cfg.write_text("""
[grid]
half_length = 30.0
points = 256

[sweep]
s_values = 0.8, 1.2
t_values = 0.9
workers = 2

[output]
directory = {}
""".format(tmp_path / "out"))
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "sweep"
             / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
