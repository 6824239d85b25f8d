import dataclasses
import json
import os

import numpy as np
import pytest

import nlskdv as nk
from nlskdv import artifacts


@pytest.fixture(scope="module")
def solved(coupled_pair_30):
    pair, report, grid = coupled_pair_30
    return pair, report, grid


def test_pair_roundtrip(tmp_path, solved):
    pair, _, _ = solved
    d = str(tmp_path / "pair")
    artifacts.save_pair(pair, d)
    back = artifacts.load_pair(d)
    assert back.phi.values.tobytes() == pair.phi.values.tobytes()
    assert back.psi.values.tobytes() == pair.psi.values.tobytes()
    assert back.sigma == pair.sigma
    assert back.c == pair.c
    assert back.energy_value == pair.energy_value


def test_json_reserialization_byte_identical(tmp_path, solved):
    pair, _, _ = solved
    d = str(tmp_path / "pair")
    artifacts.save_pair(pair, d)
    path = os.path.join(d, "pair.json")
    with open(path, "rb") as fh:
        raw1 = fh.read()
    doc = json.loads(raw1)
    raw2 = artifacts.canonical_json(doc).encode()
    assert raw1 == raw2


def test_binary_reserialization_bit_identical(tmp_path, solved):
    pair, _, _ = solved
    d = str(tmp_path / "pair")
    artifacts.save_pair(pair, d)
    back = artifacts.load_pair(d)
    artifacts.save_pair(back, str(tmp_path / "pair2"))
    for name in ("phi.bin", "psi.bin"):
        with open(os.path.join(d, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(str(tmp_path / "pair2"), name), "rb") as fh2:
            b2 = fh2.read()
        assert b1 == b2


def test_nan_multipliers_roundtrip(tmp_path, grid30, prm_nls):
    pair, _ = nk.minimize_I(4.0, 0.0, prm_nls, grid30)
    d = str(tmp_path / "nls")
    artifacts.save_pair(pair, d)
    back = artifacts.load_pair(d)
    assert np.isnan(back.c)
    assert back.sigma == pair.sigma


def test_load_rejects_wrong_kind(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "pair.json").write_text('{"kind": "something_else"}\n')
    with pytest.raises(OSError):
        artifacts.load_pair(str(d))


def test_wsolution_artifacts(tmp_path, prm_coupled):
    grid = nk.make_grid(30.0, 512)
    sol = nk.minimize_W(1.0, 1.0, prm_coupled, grid)
    d = str(tmp_path / "w")
    artifacts.save_wsolution(sol, d)
    doc = artifacts.read_json(os.path.join(d, "wsolution.json"))
    assert doc["a_star"] == sol.a_star
    inner = artifacts.load_pair(os.path.join(d, "pair"))
    assert inner.energy_value == sol.i_value
    phi = nk.load_field(os.path.join(d, "Phi"))
    assert phi.values.tobytes() == sol.Phi.values.tobytes()


def test_trace_csv(tmp_path, solved, prm_coupled):
    pair, _, grid = solved
    st = nk.solitary_initial(pair, pair.c, prm=prm_coupled)
    tr = nk.evolve(st, 0.1, 1e-2, sample_every=5, reference=pair)
    d = str(tmp_path / "tr")
    artifacts.save_trace(tr, d, {"note": "test"})
    with open(os.path.join(d, "trace.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "time,E,G,H,distance"
    assert len(lines) == 1 + len(tr.times)
    first = lines[1].split(",")
    assert float(first[0]) == tr.times[0]
    assert float(first[4]) == tr.distance[0]
    man = artifacts.read_json(os.path.join(d, "manifest.json"))
    assert man["scheme"] == tr.scheme and man["note"] == "test"


def test_no_tmp_files_left(tmp_path, solved):
    pair, _, _ = solved
    d = str(tmp_path / "pair")
    artifacts.save_pair(pair, d)
    leftovers = [f for f in os.listdir(d) if f.endswith(".tmp")]
    assert leftovers == []


def test_profile_csv(solved):
    pair, _, grid = solved
    text = artifacts.profile_csv(grid, {"phi": np.real(pair.phi.values)})
    lines = text.splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 1 + grid.n


def test_pair_key_table_covers_every_field(tmp_path, solved):
    # one table drives save and load: every scalar field round-trips,
    # and a mass given as an int is written as an int
    pair, _, _ = solved
    attrs = [attr for _, attr, _ in artifacts._PAIR_KEYS]
    scalars = [f.name for f in dataclasses.fields(pair)
               if f.name not in ("phi", "psi")]
    assert sorted(attrs) == sorted(scalars)
    d = str(tmp_path / "pair")
    artifacts.save_pair(dataclasses.replace(pair, s=1, t=1), d)
    assert artifacts.read_json(os.path.join(d, "pair.json"))["s"] == 1
    back = artifacts.load_pair(d)
    for attr in attrs:
        assert getattr(back, attr) == getattr(pair, attr)


def test_report_json_fields(tmp_path, solved):
    # report.json holds every MinimizeReport field but the history
    _, report, _ = solved
    artifacts.save_report(report, str(tmp_path))
    doc = artifacts.read_json(str(tmp_path / "report.json"))
    names = {f.name for f in dataclasses.fields(report)}
    assert set(doc) == names - {"energy_history"}
    assert all(doc[k] == getattr(report, k) for k in doc)
