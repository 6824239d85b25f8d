import csv
import json
from pathlib import Path

import numpy as np
import pytest

import nlskdv as nk
from nlskdv import artifacts, cli
from nlskdv.cli import _SCHEMA, OUTPUT_ROOT_ENV, RunConfig, main
from nlskdv.verify import CheckRow

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
    (None, ["solver.max_iter=0"]),
    (None, ["verify.seed=-1"]),
    (None, ["evolve.seed=-1"]),
    (None, ["problem.s=nan"]),
    (None, ["problem.t=nan"]),
    (None, ["verify.pairs=-1"]),
    (None, ["verify.garrisi_cases=-2"]),
    (None, ["verify.subadd_count=-1"]),
    (None, ["sweep.workers=-3"]),
    (None, ["solver.stabilize_iters=-1"]),
    (None, ["physics.alpha=inf"]),
    (None, ["physics.tau2=inf"]),
    (None, ["evolve.duration=inf"]),
    (None, ["evolve.wavespeed=nan"]),
    (None, ["sweep.s_values="]),
    (None, ["physics.alpha=1e300"]),
    (None, ["evolve.sample_every=0"]),
    (None, ["solver.stabilize_iters=300"]),
    (None, ["solver.continuation_step=0.25"]),
], ids=["unknown-key", "bad-float-list", "bad-wavespeed",
        "no-section-header", "duplicate-key", "non-utf8",
        "negative-epsilon", "negative-duration", "negative-dt",
        "zero-continuation-step", "nonpositive-tol", "nan-tol",
        "negative-leak", "zero-max-iter", "negative-verify-seed",
        "negative-evolve-seed", "nan-s", "nan-t", "negative-pairs",
        "negative-garrisi-cases", "negative-subadd-count",
        "negative-workers", "negative-stabilize-iters", "inf-alpha",
        "inf-tau2", "inf-duration", "nan-wavespeed", "empty-s-values",
        "huge-alpha", "zero-sample-every", "retired-stabilize-iters",
        "retired-continuation-step"])
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


def test_evolve_partial_step_exit_2(cfgfile, tmp_path, capsys):
    # 0.5 / 0.003 is not a whole number of steps: refused, not cut short
    assert main(["solve", "--config", cfgfile]) == 0
    assert main(["evolve", "--config", cfgfile, "--set", "evolve.dt=0.003",
                 "--init", str(tmp_path / "out" / "solve")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 2 and "whole number" in err["error"]


def test_evolve_blowup_exit_4(cfgfile, tmp_path, capsys, monkeypatch):
    # a blow-up prints the JSON error line every failure prints, code too
    assert main(["solve", "--config", cfgfile]) == 0

    def blow_up(*args, **kwargs):
        raise nk.BlowUpError("blow-up at step 1 (t=0.001)")

    monkeypatch.setattr(cli, "evolve", blow_up)
    assert main(["evolve", "--config", cfgfile,
                 "--init", str(tmp_path / "out" / "solve")]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 4 and "blow-up" in err["error"]
    assert err["partial_trace"] == str(tmp_path / "out" / "evolve")


def test_evolve_blowup_saves_partial_trace(cfgfile, tmp_path, capsys,
                                           monkeypatch):
    # the trace a BlowUpError carries is written where the error record
    # points: the real evolve runs three steps, then the run "blows up"
    assert main(["solve", "--config", cfgfile]) == 0
    real_evolve = cli.evolve
    partial = []

    def blow_up(state, T, dt, **kwargs):
        partial.append(real_evolve(state, 3 * dt, dt, **kwargs))
        raise nk.BlowUpError("blow-up at step 4 (t=0.008)",
                             last_state=partial[0].final_state,
                             trace=partial[0])

    monkeypatch.setattr(cli, "evolve", blow_up)
    assert main(["evolve", "--config", cfgfile,
                 "--set", "evolve.sample_every=1",
                 "--init", str(tmp_path / "out" / "solve")]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    out = tmp_path / "out" / "evolve"
    assert err["code"] == 4 and err["partial_trace"] == str(out)
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # t = 0 and three steps
    assert lines == artifacts.trace_to_csv(partial[0]).splitlines()
    man = artifacts.read_json(str(out / "manifest.json"))
    assert man["kind"] == "evolve_trace" and man["sample_every"] == 1
    assert man["seed"] == man["evolve"]["seed"]


def test_evolve_epsilon_zero(cfgfile, tmp_path):
    # an unperturbed run starts from the reference wave itself; the
    # manifest still records the configured seed next to epsilon_abs
    assert main(["solve", "--config", cfgfile]) == 0
    assert main(["evolve", "--config", cfgfile,
                 "--set", "evolve.epsilon=0", "--set", "evolve.seed=99",
                 "--set", "evolve.duration=0.01",
                 "--init", str(tmp_path / "out" / "solve")]) == 0
    man = artifacts.read_json(str(tmp_path / "out" / "evolve"
                                  / "manifest.json"))
    assert man["epsilon_abs"] == 0.0
    assert man["seed"] == 99 and man["evolve"]["seed"] == 99


def test_evolve_grid_mismatch_exit_2(cfgfile, tmp_path, capsys):
    # the saved pair lives on the 512-point grid, the run asks for 256
    assert main(["solve", "--config", cfgfile]) == 0
    assert main(["evolve", "--config", cfgfile, "--set", "grid.points=256",
                 "--init", str(tmp_path / "out" / "solve")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 2 and "grid" in err["error"]


@pytest.mark.parametrize("argv", [["bogus"], ["evolve"], ["solve", "--bogus"]],
                         ids=["unknown-command", "evolve-without-init",
                              "unknown-flag"])
def test_usage_error_exit_2(argv, capsys):
    # usage errors print the JSON error record too, not argparse's usage
    assert main(argv) == 2
    out = capsys.readouterr()
    err = json.loads(out.out.strip().splitlines()[-1])
    assert err["code"] == 2 and err["error"].startswith("nlskdv")
    assert out.err == ""


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-h"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_solver_failure_exit_4(tmp_path, capsys):
    # the coupled pair does not fit a box of half-length 8
    assert main(["solve", "--set", f"output.directory={tmp_path / 'out'}",
                 "--set", "grid.half_length=8",
                 "--set", "grid.points=128"]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 4 and err["error"].startswith("boundary leak")


def test_wsolve_writes_artifacts(cfgfile, tmp_path):
    assert main(["w-solve", "--config", cfgfile]) == 0
    out = tmp_path / "out" / "wsolve"
    doc = artifacts.read_json(str(out / "wsolution.json"))
    assert doc["twist_gap"] <= 1e-12
    Phi = nk.load_field(str(out / "Phi"))
    psi = nk.load_field(str(out / "psi"))
    pair = artifacts.load_pair(str(out / "pair"))
    assert pair.energy_value == doc["i_value"]
    # mass and momentum within the criterion-07 gates (s = t = 1)
    assert abs(nk.charge(Phi) - 1.0) <= 1e-10
    assert abs(nk.momentum(Phi, psi) - 1.0) <= 1e-8
    man = artifacts.read_json(str(out / "manifest.json"))
    assert man["grid"] == {"L": 30.0, "n": 512}


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


def _sweep_csv(tmp_path):
    """Header and rows (dicts) of the sweep.csv under tmp_path/out."""
    with open(tmp_path / "out" / "sweep" / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_keeps_good_points(tmp_path, capsys, workers):
    # at L=30, n=256 the two s = 0.5 points leak past the limit; the
    # others still get their rows, and the exit names the failed points
    code = main(["sweep", "--set", "grid.half_length=30",
                 "--set", "grid.points=256",
                 "--set", "sweep.s_values=0.5, 1", "--set",
                 "sweep.t_values=0.5, 1", "--set", f"sweep.workers={workers}",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 4
    header, rows = _sweep_csv(tmp_path)
    assert header == list(artifacts.SWEEP_COLUMNS) and header[-1] == "status"
    assert [(r["s"], r["t"], r["status"]) for r in rows] == [
        ("0.5", "0.5", "domain-too-small"), ("0.5", "1.0", "domain-too-small"),
        ("1.0", "0.5", "ok"), ("1.0", "1.0", "ok")]
    for row in rows:
        numeric = [row[k] for k in header[2:-1]]
        if row["status"] == "ok":
            assert float(row["I"]) < 0.0 and int(row["iterations"]) > 0
        else:
            assert numeric == [""] * 6
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 4
    assert [(f["s"], f["t"]) for f in err["failed"]] == [(0.5, 0.5),
                                                         (0.5, 1.0)]
    for f in err["failed"]:
        assert "enlarge the box to L >= " in f["error"]
    assert not list((tmp_path / "out" / "sweep").glob("*.tmp"))


@pytest.mark.parametrize("error,status", [
    (nk.DomainTooSmallError, "domain-too-small"),
    (nk.ConvergenceError, "no-convergence"),
    (nk.UnattainedInfimumError, "unattained"),
])
def test_sweep_status_rows(tmp_path, capsys, monkeypatch, error, status):
    real = cli.minimize_I

    def one_bad_point(s, t, *args, **kwargs):
        if (s, t) == (1.0, 2.0):
            raise error("no pair here")
        return real(s, t, *args, **kwargs)
    monkeypatch.setattr(cli, "minimize_I", one_bad_point)
    code = main(["sweep", "--set", "grid.half_length=30",
                 "--set", "grid.points=256", "--set", "sweep.workers=1",
                 "--set", "sweep.s_values=1", "--set", "sweep.t_values=1, 2",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 4
    _, rows = _sweep_csv(tmp_path)
    assert [r["status"] for r in rows] == ["ok", status]
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["failed"] == [{"s": 1.0, "t": 2.0, "error": "no pair here"}]


def test_sweep_validation_error_exit_2(tmp_path, capsys, monkeypatch):
    def invalid(*args, **kwargs):
        raise nk.ValidationError("overflows")
    monkeypatch.setattr(cli, "minimize_I", invalid)
    code = main(["sweep", "--set", "sweep.workers=1",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 2
    assert not (tmp_path / "out" / "sweep" / "sweep.csv").exists()


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


@pytest.mark.parametrize("command,runner", [
    ("verify", "run_grid_checks"), ("rearrange", "run_rearrange_suite")])
def test_failed_check_exit_4(command, runner, cfgfile, capsys, monkeypatch):
    # a failed check row ends stdout with the JSON error record every
    # exit-4 path prints, naming the failed rows
    monkeypatch.setattr(cli, runner, lambda *args, **kwargs: [
        CheckRow("forced", "fail", "monkeypatched")])
    assert main([command, "--config", cfgfile]) == 4
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["code"] == 4 and command in err["error"]
    assert err["failed"] == ["forced"]


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


@pytest.mark.parametrize("workers, pools", [(5000, [4]), (2, [2]), (1, [])])
def test_sweep_pool_bounded_by_points(tmp_path, monkeypatch, workers, pools):
    # under fork a pool starts all its max_workers processes at the first
    # submit, so the sweep asks for no more workers than points; the fake
    # pool records its size and maps in this process, starting none
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    code = main(["sweep", "--set", "grid.half_length=30",
                 "--set", "grid.points=256",
                 "--set", "sweep.s_values=0.8, 1.2",
                 "--set", "sweep.t_values=0.9, 1.1",
                 "--set", f"sweep.workers={workers}",
                 "--set", f"output.directory={tmp_path / 'out'}"])
    assert code == 0
    assert sizes == pools
    assert [r["status"] for r in _sweep_csv(tmp_path)[1]] == ["ok"] * 4


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


@pytest.fixture(scope="module")
def small_pair_dir(tmp_path_factory):
    # a solved pair on the L=30, n=256 grid of the extreme-input table
    prm = nk.PhysParams(alpha=1.0, tau1=1.0, tau2=1.0, p=1, q=1.0)
    pair, _ = nk.minimize_I(1.0, 1.0, prm, nk.make_grid(30.0, 256))
    out = str(tmp_path_factory.mktemp("small") / "pair")
    artifacts.save_pair(pair, out)
    return out


@pytest.mark.parametrize("command,override", [
    ("w-solve", "problem.t=1e160"),
    ("w-solve", "problem.t=1e200"),
    ("evolve", "evolve.dt=1e-320"),
    ("solve", "problem.s=1e300"),
    ("solve", "grid.half_length=1e300"),
    ("solve", "physics.tau2=1e300"),
    ("solve", "physics.alpha=1e300"),
])
def test_extreme_input_exit_code(command, override, small_pair_dir,
                                 tmp_path, capsys):
    # an extreme but finite input ends in a typed failure: main returns
    # 2, 3 or 4 and stdout ends with the JSON record of that code
    argv = [command, "--set", f"output.directory={tmp_path}",
            "--set", "grid.half_length=30", "--set", "grid.points=256",
            "--set", override]
    if command == "evolve":
        argv += ["--init", small_pair_dir]
    code = main(argv)
    assert code in (2, 3, 4)
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["code"] == code


@pytest.mark.parametrize("override,grid_text", [
    ("grid.half_length=1e300", "L=1e+300, n=256"),
    ("physics.tau2=1e300", "L=30.0, n=256"),
])
def test_unbracketable_mass_names_inputs(override, grid_text, tmp_path,
                                         capsys):
    # the start profile's mass cannot be reached: the record names the
    # mass, the power, beta and the grid, the inputs a user can change
    code = main(["solve", "--set", f"output.directory={tmp_path}",
                 "--set", "grid.half_length=30", "--set", "grid.points=256",
                 "--set", override])
    assert code == 2
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["code"] == 2
    for text in ("target mass 1.0", "power", "beta", grid_text):
        assert text in record["error"]
