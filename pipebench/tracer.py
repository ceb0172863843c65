"""Per-layer timing from outside the package.

The tracer replaces a public function by a timing wrapper under every name
that binds it in a loaded ``splitcast`` module (``from .models import
ols_fit`` makes ``ensembles.ols_fit`` a second binding), so calls through
any module are seen.  Nothing under ``src/`` is edited, and ``uninstall``
puts the originals back.

Each wrapped call is a span.  A span's time is the wall time inside the
call; its self time is that time minus the time of the spans it called
directly.  Spans are kept as running totals in memory and written once.
"""

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute); cli.* are the subcommand handlers
LAYERS = {
    "panel.load_panel": ("splitcast.panel", "load_panel"),
    "features.from_panel": ("splitcast.features", "MarketData.from_panel"),
    "features.design_rows": ("splitcast.features", "design_rows"),
    "models.ols_fit": ("splitcast.models", "ols_fit"),
    "quantreg.qr_fit_fan": ("splitcast.quantreg", "qr_fit_fan"),
    "quantreg.qr_fit": ("splitcast.quantreg", "qr_fit"),
    "ensembles.historical_ensembles_for_day": ("splitcast.ensembles", "historical_ensembles_for_day"),
    "ensembles.ms_ensembles_for_day": ("splitcast.ensembles", "ms_ensembles_for_day"),
    "ensembles.interpolated_quantiles": ("splitcast.ensembles", "interpolated_quantiles"),
    "scores.multivariate_rank": ("splitcast.scores", "multivariate_rank"),
    "scores.coverage_report": ("splitcast.scores", "coverage_report"),
    "scores.crps_fan_matrix": ("splitcast.scores", "crps_fan_matrix"),
    "scores.reliability_index": ("splitcast.scores", "reliability_index"),
    "trading.profit_pools": ("splitcast.trading", "profit_pools"),
    "trading.choose_q": ("splitcast.trading", "choose_q"),
    "trading.stopping_rule": ("splitcast.trading", "stopping_rule"),
    "trading.evaluate_strategy": ("splitcast.trading", "evaluate_strategy"),
    "backtest.run_backtest": ("splitcast.backtest", "run_backtest"),
    "cli.validate": ("splitcast.cli", "_cmd_validate"),
    "cli.backtest": ("splitcast.cli", "_cmd_backtest"),
    "cli.forecast": ("splitcast.cli", "_cmd_forecast"),
    "cli.evaluate": ("splitcast.cli", "_cmd_evaluate"),
    "cli.report": ("splitcast.cli", "_cmd_report"),
}

# the per-layer metrics the benchmark reports, in BENCHMARK.json order
TIME_METRICS = (
    "quantreg.qr_fit_fan", "scores.multivariate_rank", "models.ols_fit",
    "features.design_rows", "ensembles.historical_ensembles_for_day",
    "ensembles.ms_ensembles_for_day", "ensembles.interpolated_quantiles",
    "trading.profit_pools", "trading.choose_q", "trading.stopping_rule",
    "trading.evaluate_strategy", "scores.coverage_report", "scores.crps_fan_matrix",
    "scores.reliability_index", "backtest.run_backtest", "cli.backtest",
    "cli.forecast", "cli.evaluate", "cli.report", "panel.load_panel",
    "features.from_panel",
)
CALL_METRICS = (
    "quantreg.qr_fit_fan", "quantreg.qr_fit", "scores.multivariate_rank",
    "models.ols_fit", "features.design_rows", "ensembles.interpolated_quantiles",
)


class Tracer:
    """Running span totals; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.preranks_comparisons = 0
        self._stack = []
        self._restore = []

    def _wrap(self, layer, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "scores.multivariate_rank":
                m, k = args[0].shape
                self.preranks_comparisons += (m + 1) ** 2 * k
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - frame[0]
                self.calls[layer] += 1
        return traced

    def install(self):
        owners = {modname: importlib.import_module(modname) for modname, _ in LAYERS.values()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "splitcast" or name.startswith("splitcast."))]
        for layer, (modname, attr) in LAYERS.items():
            owner = owners[modname]
            if "." in attr:  # a classmethod: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(layer, original.__func__)))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        self._restore.append((module, name, original))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def merge(self, totals):
        """Add the totals a traced child process wrote with :meth:`totals`."""
        for key in ("seconds", "self_seconds", "calls"):
            mine = getattr(self, key)
            for layer, value in totals[key].items():
                mine[layer] += value
        self.preranks_comparisons += totals["preranks_comparisons"]

    def totals(self):
        return {"seconds": self.seconds, "self_seconds": self.self_seconds,
                "calls": self.calls, "preranks_comparisons": self.preranks_comparisons}

    def metrics(self):
        """The per-layer metric values, name -> (value, unit)."""
        out = {f"{layer}_s": (self.seconds[layer], "s") for layer in TIME_METRICS}
        out.update({f"{layer}_calls": (self.calls[layer], "count") for layer in CALL_METRICS})
        out["scores.preranks_comparisons"] = (self.preranks_comparisons, "count")
        out["backtest.self_s"] = (self.self_seconds["backtest.run_backtest"], "s")
        out["cli.self_s"] = (sum(v for layer, v in self.self_seconds.items()
                                 if layer.startswith("cli.")), "s")
        return out
