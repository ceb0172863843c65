"""splitcast: joint probabilistic power market forecasting by split resampling.

``import splitcast`` loads no submodule.  Each public name is imported from
its module on first access (PEP 562), so a process loads only the modules
it uses: ``splitcast report`` runs without numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    **dict.fromkeys(("MarketPanel", "SyntheticConfig", "dst_normalize",
                     "generate_synthetic_panel", "load_panel", "validate_panel",
                     "write_panel"), "panel"),
    **dict.fromkeys(("KINDS", "MarketData", "ModelSpec", "design_rows", "row_length",
                     "targets"), "features"),
    "ols_fit": "models",
    **dict.fromkeys(("QuantileFan", "TAU_GRID", "pinball", "qr_fan", "qr_fit",
                     "qr_fit_fan"), "quantreg"),
    **dict.fromkeys(("ForecastEnsemble", "SplitPlan", "derived_ensemble",
                     "historical_ensembles_for_day", "interpolated_quantile",
                     "ms_ensembles_for_day", "random_split"), "ensembles"),
    **dict.fromkeys(("CoverageReport", "KupiecResult", "ReliabilityReport", "coverage_report",
                     "crps_from_fan", "interval_hits", "kupiec", "multivariate_rank",
                     "reliability_index", "univariate_rank"), "scores"),
    **dict.fromkeys(("StrategyOutcome", "TradeDecision", "choose_q", "evaluate_strategy",
                     "naive_decision", "profit_pools", "realized_profit",
                     "stopping_rule"), "trading"),
    **dict.fromkeys(("ExperimentConfig", "load_config"), "config"),
    **dict.fromkeys(("BacktestResult", "RunPlan", "forecast_day", "leakage_check",
                     "run_backtest", "run_plan", "score_day"), "backtest"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the module on every access, not cached here: a name rebound in
    # its module (a timing wrapper, a test's patch) reads the same through both
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
