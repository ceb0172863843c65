"""The three workloads: their inputs, one round of operations, their checks.

A round is the fixed list of operations a workload times; an operation is
one CLI command or, for ``paper_ensembles``, one evaluation day of an
in-process ``run_backtest``.  Every round of a run repeats the same
operations on the same inputs into its own directory, so its outputs must
be byte-identical to the first round's.  The checks run on the first
round's outputs.

CLI commands run as child processes (``python3 -m splitcast``), as a user
runs them; with a tracer they run through ``child.py``, which installs the
same tracer in the child and hands its totals back through a JSON file.
"""

import datetime as dt
import json
import os
import subprocess
import sys
import traceback

import numpy as np

import checks
import panelgen

HERE = os.path.dirname(os.path.abspath(__file__))
C_OM = 10.0


def child_env(root):
    """The parent's environment with the checkout's ``src`` first on PYTHONPATH.

    ``SPLITCAST_CONFIG`` is dropped so that a user's default config file
    cannot change a workload.
    """
    env = dict(os.environ)
    env.pop("SPLITCAST_CONFIG", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python_child(argv, root, cwd):
    """Run ``python3 argv`` in ``cwd``; returns the completed process."""
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(root),
                          capture_output=True, text=True, check=False)


class Workload:
    """Base class: a seeded panel CSV in ``run_dir`` and rounds under it."""

    name = None
    ops = ()
    min_rounds = 1
    n_days = 0  # panel length
    stratified_days = 0  # trailing days with stratified innovations (panelgen)

    def __init__(self, root, run_dir, seed):
        self.root = root
        self.run_dir = run_dir
        self.seed = int(seed)
        self.errors = []
        self._panel = None

    @property
    def panel_csv(self):
        return os.path.join(self.run_dir, "panel.csv")

    def prepare(self):
        os.makedirs(self.run_dir, exist_ok=True)
        dates = panelgen.write_csv(self.panel_csv, self.n_days, self.seed, self.stratified_days)
        self.dates = [d.isoformat() for d in dates]

    @property
    def panel(self):
        """The panel as the benchmark's own parser reads it, for the oracles."""
        if self._panel is None:
            self._panel = checks.Panel(*panelgen.read_csv(self.panel_csv))
        return self._panel

    def round_dir(self, k):
        return os.path.join(self.run_dir, f"r{k}")

    def cli(self, args, tracer=None):
        """One CLI command; returns True when it exits with status 0."""
        if tracer is None:
            proc = python_child(["-m", "splitcast", *args], self.root, self.run_dir)
        else:
            trace_out = os.path.join(self.run_dir, "child_trace.json")
            proc = python_child([os.path.join(HERE, "child.py"), trace_out, *args],
                                self.root, self.run_dir)
            if os.path.exists(trace_out):
                with open(trace_out) as fh:
                    tracer.merge(json.load(fh))
                os.remove(trace_out)
        if proc.returncode != 0:
            self.errors.append(f"splitcast {args[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        return proc.returncode == 0

    def run_round(self, k, tracer=None):
        """Run every operation once; returns {op: ran without error}."""
        raise NotImplementedError

    def check(self, report):
        """Check the first round's outputs with the oracles."""
        raise NotImplementedError

    def crps_da(self):
        raise NotImplementedError


class PaperQR(Workload):
    """``forecast --method qr`` for the DA fans of consecutive days, then ``evaluate``."""

    name = "paper_qr"
    ops = ("forecast", "evaluate")
    min_rounds = 2  # one round is long: a second halves the weight of a slow spell of the host

    def __init__(self, root, run_dir, seed, smoke=False):
        super().__init__(root, run_dir, seed)
        self.window = 60 if smoke else 365
        self.days = 1 if smoke else 2
        self.samples = 1 if smoke else 2
        self.n_days = self.window + 8 + self.days
        self.stratified_days = self.days

    def run_round(self, k, tracer=None):
        out = self.round_dir(k)
        fc = self.cli(["forecast", "--method", "qr", "--input", self.panel_csv,
                       "--start", self.dates[-self.days], "--end", self.dates[-1],
                       "--window", str(self.window), "--set", "qr_variables=DA",
                       "--out", os.path.join(out, "forecast")], tracer)
        ev = self.cli(["evaluate", "--fans", os.path.join(out, "forecast", "fans.csv"),
                       "--input", self.panel_csv, "--out", os.path.join(out, "evaluate")], tracer)
        return {"forecast": fc, "evaluate": ev}

    def check(self, report):
        out = self.round_dir(0)
        fans = checks.read_fans(os.path.join(out, "forecast", "fans.csv"))
        checks.check_fans_sorted(report, fans, ["forecast"])
        checks.check_qr_linprog(report, fans, self.panel, self.window, self.linprog_samples(),
                                ["forecast"])
        checks.check_evaluate(report, fans, self.panel, os.path.join(out, "evaluate"), ["evaluate"])

    def linprog_samples(self):
        """The seeded (date, hour) cells whose fan rows meet the linprog oracle."""
        cells = [(d, h) for d in self.dates[-self.days:] for h in range(1, 25)]
        picks = np.random.default_rng(self.seed).choice(len(cells), size=self.samples, replace=False)
        return [cells[i] for i in sorted(picks)]

    def crps_da(self):
        return checks.crps_all(os.path.join(self.round_dir(0), "evaluate"), "DA")["stored"]


class PaperEnsembles(Workload):
    """In-process ``run_backtest`` of point, hist, ms corr and uncorr, ranks and trading."""

    name = "paper_ensembles"
    min_rounds = 2  # so that the bundle's byte identity is checked in every run

    def __init__(self, root, run_dir, seed, smoke=False):
        super().__init__(root, run_dir, seed)
        # 180-day window, 14 splits: 1,260 members, a third of the paper's 3,660,
        # so that ranks dominate a round of about 10 s
        self.window = 90 if smoke else 180
        self.n_splits = 2 if smoke else 14
        self.days = 2
        self.ops = tuple(f"day{i + 1}" for i in range(self.days))
        self.n_days = self.window + 8 + self.days
        self.stratified_days = self.days

    def prepare(self):
        super().prepare()
        from splitcast import load_panel

        self.loaded = load_panel(self.panel_csv)

    def config(self, out):
        from splitcast import ExperimentConfig

        return ExperimentConfig(output_dir=out, calibration_window_days=self.window,
                                evaluation_days=self.days, n_splits=self.n_splits,
                                methods=("point", "hist", "ms"), c_om=C_OM, workers=1)

    def run_round(self, k, tracer=None):
        import splitcast

        if tracer is not None:
            tracer.install()
        try:
            # looked up after install, so that a traced round calls the wrapper
            splitcast.run_backtest(self.config(os.path.join(self.round_dir(k), "backtest")),
                                   panel=self.loaded)
            ok = True
        except Exception:  # the operation failed; keep its traceback and go on
            self.errors.append(traceback.format_exc(limit=4))
            ok = False
        finally:
            if tracer is not None:
                tracer.uninstall()
        return dict.fromkeys(self.ops, ok)

    def check(self, report):
        bundle = os.path.join(self.round_dir(0), "backtest")
        checks.check_backtest_bundle(report, bundle, self.panel, self.window, C_OM, self.ops)
        checks.check_sp_corr_beats_uncorr(report, bundle, self.ops)

    def crps_da(self):
        crps = checks.crps_all(os.path.join(self.round_dir(0), "backtest"), "DA")
        return float(np.mean([crps[m] for m in ("hist", "ms_corr", "ms_uncorr")]))


class CliSession(Workload):
    """validate, a short backtest, report, a default-config ms forecast with members, evaluate."""

    name = "cli_session"
    ops = ("validate", "backtest", "report", "forecast", "evaluate")

    def __init__(self, root, run_dir, seed, smoke=False):
        super().__init__(root, run_dir, seed)
        self.bt_window = 90 if smoke else 100
        self.bt_splits = 2 if smoke else 4
        self.bt_days = 2 if smoke else 6
        self.fc_window = 365  # the 0.9 +- 0.1 DA-ID correlation check needs the full window
        self.fc_splits = 4 if smoke else 20
        self.n_days = max(self.bt_window + self.bt_days, self.fc_window + 1) + 8
        self.stratified_days = self.bt_days

    @property
    def bt_cfg(self):
        return os.path.join(self.run_dir, "backtest.cfg")

    def prepare(self):
        super().prepare()
        with open(self.bt_cfg, "w") as fh:
            fh.write(f"calibration_window_days = {self.bt_window}\n"
                     f"n_splits = {self.bt_splits}\n"
                     f"evaluation_days = {self.bt_days}\n"
                     "methods = point,hist,ms\n"
                     "ms_modes = corr\n"
                     f"c_om = {C_OM}\n"
                     "workers = 1\n")

    def run_round(self, k, tracer=None):
        out = self.round_dir(k)
        bt = os.path.join(out, "backtest")
        fc = os.path.join(out, "forecast")
        return {
            "validate": self.cli(["validate", self.panel_csv], tracer),
            "backtest": self.cli(["backtest", "-c", self.bt_cfg, "--input", self.panel_csv,
                                  "--out", bt], tracer),
            "report": self.cli(["report", "--backtest-dir", bt, "--out",
                                os.path.join(out, "report")], tracer),
            "forecast": self.cli(["forecast", "--method", "ms", "--members",
                                  "--input", self.panel_csv, "--start", self.dates[-1],
                                  "--end", self.dates[-1], "--window", str(self.fc_window),
                                  "--splits", str(self.fc_splits), "--out", fc], tracer),
            "evaluate": self.cli(["evaluate", "--fans", os.path.join(fc, "fans.csv"),
                                  "--input", self.panel_csv, "--out",
                                  os.path.join(out, "evaluate")], tracer),
        }

    def check(self, report):
        from splitcast import load_config, load_panel
        from splitcast.backtest import leakage_check

        out = self.round_dir(0)
        bundle = os.path.join(out, "backtest")
        dates = checks.check_backtest_bundle(report, bundle, self.panel, self.bt_window, C_OM,
                                             ["backtest"])
        checks.check_q_histogram(report, os.path.join(out, "report"), len(dates), ["report"])

        fans = checks.read_fans(os.path.join(out, "forecast", "fans.csv"))
        checks.check_fans_sorted(report, fans, ["forecast"])
        date = self.dates[-1]
        expected = self.fc_splits * (self.fc_window - round(0.5 * self.fc_window))
        checks.check_members(report, os.path.join(out, "forecast", f"members_{date}.csv"),
                             fans, date, expected, ["forecast"])
        checks.check_evaluate(report, fans, self.panel, os.path.join(out, "evaluate"), ["evaluate"])

        cfg = load_config(self.bt_cfg)
        diffs = leakage_check(load_panel(self.panel_csv), cfg, dt.date.fromisoformat(dates[0]))
        worst = max(diffs.values())
        report.close("leakage_check all zero on the first evaluation day", worst, 0.0,
                     ["backtest"], f"{len(diffs)} artifacts")

        rerun = os.path.join(self.run_dir, "rerun")
        ok = self.cli(["backtest", "-c", self.bt_cfg, "--input", self.panel_csv, "--out", rerun])
        report.require("backtest rerun byte-identical",
                       ok and checks.tree_digest(rerun) == checks.tree_digest(bundle), ["backtest"])

    def crps_da(self):
        crps = checks.crps_all(os.path.join(self.round_dir(0), "backtest"), "DA")
        return float(np.mean([crps[m] for m in ("hist", "ms_corr")]))


WORKLOADS = {w.name: w for w in (PaperQR, PaperEnsembles, CliSession)}
