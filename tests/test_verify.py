import re

import numpy as np

import nlskdv as nk
from nlskdv import rearrange as rearrange_mod
from nlskdv.verify import (rows_to_table, run_functional_checks,
                           run_grid_checks, run_rearrange_suite,
                           run_subadd_probes, truncated_bump)


def test_grid_checks_pass(grid30):
    rows = run_grid_checks(grid30)
    assert all(r.status == "pass" for r in rows)


def test_functional_checks_pass(grid30, prm_coupled):
    rows = run_functional_checks(grid30, prm_coupled)
    assert all(r.status == "pass" for r in rows)


def test_rearrange_suite_reference_grid(grid30, prm_coupled):
    rows = run_rearrange_suite(grid30, prm_coupled, n_pairs=5, n_garrisi=2)
    assert all(r.status != "fail" for r in rows)
    names = {r.name for r in rows}
    assert "rearrange/polya-szego" in names


def test_two_bump_violation_judged_by_suite(grid30, prm_coupled,
                                            monkeypatch):
    # without the rearrangement and its tolerance the two-bump drop
    # fails: garrisi_check reports it, and the suite writes a fail row
    # in its usual form beside the rows that still pass
    monkeypatch.setattr(rearrange_mod, "rearrange_values",
                        lambda values: np.asarray(values, dtype=np.float64))
    monkeypatch.setattr(rearrange_mod, "PS_TOL_COEFF", 0.0)
    u = truncated_bump(grid30, 1.0, 1.0)
    rep = nk.garrisi_check(u, u, grid30.half_length)
    assert rep.garrisi_lhs > rep.garrisi_rhs + rep.tol_ps

    rows = run_rearrange_suite(grid30, prm_coupled, n_pairs=3, n_garrisi=2)
    status = {r.name: r.status for r in rows}
    assert status == {
        "rearrange/lp-preservation": "pass",
        "rearrange/hardy-littlewood": "pass",
        "rearrange/polya-szego": "pass",
        "rearrange/two-bump-kinetic-drop": "fail",
        "rearrange/energy-never-increases": "pass"}
    row = [r for r in rows if r.name == "rearrange/two-bump-kinetic-drop"][0]
    assert re.fullmatch(r"min slack -\S+, tol 0\.000e\+00", row.detail)


def test_rearrange_suite_coarse_grid_flagged(prm_coupled):
    coarse = nk.make_grid(40.0, 64)
    rows = run_rearrange_suite(coarse, prm_coupled, n_pairs=4, n_garrisi=2)
    ps = [r for r in rows if r.name == "rearrange/polya-szego"][0]
    assert ps.status in ("tolerance-limited", "pass")
    assert ps.status == "tolerance-limited"
    assert all(r.status != "fail" for r in rows)


def test_subadd_probe_rows(prm_coupled):
    grid = nk.make_grid(40.0, 512)
    rows = run_subadd_probes(prm_coupled, grid, nk.MinimizeOptions(),
                             count=1, seed=3)
    assert len(rows) == 1
    assert rows[0].status == "pass"


def test_subadd_probe_skipped_when_box_too_small(prm_coupled):
    # profiles cannot decay inside a tiny box; the probe row is skipped
    # with the reason instead of failing the whole table
    grid = nk.make_grid(8.0, 64)
    rows = run_subadd_probes(prm_coupled, grid, nk.MinimizeOptions(),
                             count=1, seed=3)
    assert rows[0].status == "skipped"


def test_rows_to_table_format(grid30):
    rows = run_grid_checks(grid30)
    table = rows_to_table(rows)
    assert table.count("\n") == len(rows)
    assert "grid/parseval" in table
