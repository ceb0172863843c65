"""What a fresh process imports: ``import splitcast`` loads no submodule, and
each command loads only the modules it runs.

Every case runs in a child interpreter with this environment and this
checkout's package first on the path, then lists its ``sys.modules``.
"""

import datetime as dt
import json
import os
import pathlib
import subprocess
import sys

import pytest

import splitcast
from splitcast.panel import SyntheticConfig, generate_synthetic_panel, write_panel

SRC = str(pathlib.Path(splitcast.__file__).resolve().parents[1])

# runs the command of argv[1:] as ``python -m splitcast`` does, then prints
# its exit status and the loaded modules as the last line
RUN_COMMAND = """
import json, sys
from splitcast.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

ENGINE = ("splitcast.backtest", "splitcast.ensembles", "splitcast.trading")
POOL = "concurrent.futures.process"


def _loaded(code, *argv):
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("SPLITCAST_CONFIG", None)
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result.get("code", 0) == 0, out.stderr
    return set(result["modules"])


def _command(*argv):
    return _loaded(RUN_COMMAND, *argv)


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """A 110 day panel: its CSV path and its last date."""
    path = tmp_path_factory.mktemp("imports") / "panel.csv"
    generated = generate_synthetic_panel(SyntheticConfig(days=110), seed=5)
    write_panel(generated, str(path))
    return str(path), generated.dates[-1].isoformat()


def test_import_splitcast_loads_no_submodule():
    modules = _loaded("import json, sys, splitcast\n"
                      "print(json.dumps({'modules': sorted(sys.modules)}))")
    assert "splitcast" in modules
    assert not {m for m in modules if m.startswith("splitcast.")}
    assert "numpy" not in modules


def test_validate_loads_the_panel_module_alone(panel):
    modules = _command("validate", panel[0])
    assert "splitcast.panel" in modules
    assert not modules & {*ENGINE, "splitcast.quantreg", "splitcast.config", POOL}


def test_evaluate_loads_no_ensemble_engine(panel, tmp_path):
    path, last = panel
    fans = tmp_path / "fans.csv"
    with open(fans, "w") as fh:
        fh.write("date,hour,variable," + ",".join(f"p{t:02d}" for t in range(1, 100)) + "\n")
        for h in range(1, 25):
            fh.write(f"{last},{h},DA," + ",".join(str(t) for t in range(1, 100)) + "\n")
    modules = _command("evaluate", "--fans", str(fans), "--input", path,
                       "--out", str(tmp_path / "scores"))
    assert {"splitcast.scores", "splitcast.quantreg"} <= modules
    assert not modules & {*ENGINE, POOL}


def test_report_runs_without_numpy(tmp_path):
    with open(tmp_path / "strategy.csv", "w") as fh:
        fh.write("strategy,tau,trade_frequency,avg_profit,profit_per_trade,var5\n"
                 "epi,0.3,0.5,1.25,2.5,-3\nnaive,,0,0,0,0\n")
    with open(tmp_path / "decisions.csv", "w") as fh:
        fh.write("date,hour,strategy,tau,q,curtail,profit\n2021-01-01,1,epi,0.3,0.25,0,1.5\n")
    modules = _command("report", "--backtest-dir", str(tmp_path))
    assert (tmp_path / "q_histogram.csv").exists()
    assert "numpy" not in modules
    assert not modules & {*ENGINE, "splitcast.panel", "splitcast.scores"}


def test_serial_backtest_starts_no_process_pool(panel, tmp_path):
    modules = _command("backtest", "--input", panel[0], "--out", str(tmp_path / "out"),
                       "--window", "100", "--eval-days", "1", "--workers", "1",
                       "--set", "methods=hist", "--set", "variables=L,W",
                       "--set", "derived=", "--set", "mv_variables=", "--no-trading")
    assert (tmp_path / "out" / "summary.txt").exists()
    assert "splitcast.backtest" in modules
    assert POOL not in modules


@pytest.mark.parametrize("workers", [1, 2])
def test_forecast_starts_a_process_pool_only_with_workers(panel, tmp_path, workers):
    """``forecast`` runs its days through the backtest's driver: a serial
    run loads no pool, and ``workers=2`` over two days does."""
    path, last = panel
    start = (dt.date.fromisoformat(last) - dt.timedelta(days=1)).isoformat()
    modules = _command("forecast", "--method", "point", "--input", path, "--window", "100",
                       "--start", start, "--end", last, "--out", str(tmp_path / "out"),
                       "--set", f"workers={workers}")
    assert (tmp_path / "out" / "point_forecasts.csv").exists()
    assert "splitcast.backtest" in modules
    assert (POOL in modules) == (workers > 1)
