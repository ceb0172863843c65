"""The benchmark's checks pass on real output and fail on corrupted copies of it.

Run from the root of a checkout::

    python3 -m pytest -q pipebench

This is the benchmark's smoke mode: a miniature of each workload runs once
(a plain and a traced round) through the same code paths and checks as a
measured run.  Each negative test copies that run, corrupts one thing (one
fan value shifted, a QR fan row that stays sorted but repeats or relabels
taus, one profit changed, one member row dropped) and expects the named
check to fail.
"""

import copy
import csv
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipebench")
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(ROOT, str(base / name), seed=3, smoke=True)
        wl.prepare()
        wl.outcomes = [wl.run_round(0), wl.run_round(1, Tracer())]
        out[name] = wl
    return out


def corrupted_copy(wl, tmp_path):
    clone = copy.copy(wl)
    clone.run_dir = str(tmp_path / wl.name)
    shutil.copytree(wl.run_dir, clone.run_dir)
    clone.errors = []
    return clone


def failed_checks(wl):
    report = checks.Report()
    wl.check(report)
    return {r["check"] for r in report.results if not r["ok"]}


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def nudge_median(rows, date, hour, variable):
    """Move p50 of one fan row a third of the way to p51: still sorted, no longer right."""
    header = rows[0]
    i50, i51 = header.index("p50"), header.index("p51")
    for row in rows[1:]:
        if row[0] == date and row[1] == str(hour) and row[2] == variable:
            lo, hi = float(row[i50]), float(row[i51])
            row[i50] = repr(lo + (hi - lo) / 3.0)
            return rows
    raise AssertionError(f"no fan row {date} h{hour} {variable}")


def edit_fan_row(rows, date, hour, variable, edit):
    header = rows[0]
    first = header.index("p01")
    for row in rows[1:]:
        if row[0] == date and row[1] == str(hour) and row[2] == variable:
            row[first:first + 99] = edit(row[first:first + 99])
            return rows
    raise AssertionError(f"no fan row {date} h{hour} {variable}")


def change_one_profit(rows):
    header = rows[0]
    ip, ic = header.index("profit"), header.index("curtail")
    for row in rows[1:]:
        if row[ic] == "0" and abs(float(row[ip])) > 1.0:
            row[ip] = repr(float(row[ip]) * 1.01)
            return rows
    raise AssertionError("no traded decision with a non-zero profit")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes_every_check(runs, name):
    wl = runs[name]
    assert all(ok for outcome in wl.outcomes for ok in outcome.values()), wl.errors
    assert not failed_checks(wl)
    assert checks.tree_digest(wl.round_dir(0)) == checks.tree_digest(wl.round_dir(1)), \
        "the traced round wrote different output"


def test_shifted_qr_fan_value_fails(runs, tmp_path):
    wl = corrupted_copy(runs["paper_qr"], tmp_path)
    date, hour = wl.linprog_samples()[0]
    rewrite_csv(os.path.join(wl.round_dir(0), "forecast", "fans.csv"),
                lambda rows: nudge_median(rows, date, hour, "DA"))
    failed = failed_checks(wl)
    assert "qr fan rows are HiGHS pinball fits" in failed
    assert "evaluate crps equals numpy pinball mean" in failed
    assert "fans finite and non-decreasing" not in failed


@pytest.mark.parametrize("edit", [
    pytest.param(lambda v: v[:49] + [v[50]] + v[50:], id="p50-holds-p51"),
    pytest.param(lambda v: [v[49]] * 99, id="row-collapsed-to-median"),
    pytest.param(lambda v: v[1:] + [v[-1]], id="taus-shifted-one-step"),
])
def test_sorted_but_mislabelled_qr_row_fails(runs, tmp_path, edit):
    wl = corrupted_copy(runs["paper_qr"], tmp_path)
    date, hour = wl.linprog_samples()[0]
    rewrite_csv(os.path.join(wl.round_dir(0), "forecast", "fans.csv"),
                lambda rows: edit_fan_row(rows, date, hour, "DA", edit))
    failed = failed_checks(wl)
    assert "qr fan rows are HiGHS pinball fits" in failed
    assert "fans finite and non-decreasing" not in failed


def test_shifted_ensemble_fan_value_fails(runs, tmp_path):
    wl = corrupted_copy(runs["cli_session"], tmp_path)
    rewrite_csv(os.path.join(wl.round_dir(0), "forecast", "fans.csv"),
                lambda rows: nudge_median(rows, wl.dates[-1], 7, "SP"))
    assert "fan rows equal numpy.quantile of the members" in failed_checks(wl)


@pytest.mark.parametrize("name", ["paper_ensembles", "cli_session"])
def test_changed_profit_fails(runs, tmp_path, name):
    wl = corrupted_copy(runs[name], tmp_path)
    rewrite_csv(os.path.join(wl.round_dir(0), "backtest", "decisions.csv"), change_one_profit)
    failed = failed_checks(wl)
    assert "decision profits equal the per-MWh formula" in failed
    assert "strategy means and frequencies match decisions.csv" in failed


def test_dropped_member_row_fails(runs, tmp_path):
    wl = corrupted_copy(runs["cli_session"], tmp_path)
    path = os.path.join(wl.round_dir(0), "forecast", f"members_{wl.dates[-1]}.csv")
    rewrite_csv(path, lambda rows: rows[:5] + rows[6:])
    failed = failed_checks(wl)
    assert "members per hour" in failed
    assert "fan rows equal numpy.quantile of the members" in failed


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "pipebench/run.py", "--workload", "paper_qr"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
