"""The package surface other code binds by name.

``pipebench/tracer.py`` rebinds a list of package functions by module and
attribute name for its per-layer timings, and ``pipebench/run.py`` records
``_kernels.USE_NUMBA``.  A prune that drops one of them breaks ``--trace 1``,
so this file checks them against the tracer's own list.  The scripts under
``benchmarks/`` import package names at load time, so each is loaded here
without running it.  ``import splitcast``
binds its exports lazily, so the last tests check that they resolve to the
modules' own objects.
"""

import importlib
import importlib.util
import pathlib

import pytest

import splitcast
from splitcast import _kernels

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "pipebench" / "tracer.py"
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

PRUNED = (
    # quantreg
    "fan_interval", "qr_interval", "PredictionInterval",
    # ensembles
    "map_ensemble", "multiple_split_ensemble", "historical_ensemble", "ensemble_to_csv",
    "ensemble_quantile", "ensemble_interval", "ensemble_fan",
    # trading
    "profit_ensemble",
    # features and models
    "regressors", "target", "RegressorRow", "point_forecast", "CoefficientSet",
    # scores and errors: coverage_report takes interval_hits, and no option raised it
    "picp", "NoTradesError",
    # panel, features and config: MarketData.hourly and .starred hold the series,
    # panel.DERIVED the parents of a derived series
    "DerivedSeries", "InfoSet", "derive_series", "build_info_set", "series", "_STARRED",
    "_starred", "DERIVED_PARENTS",
    # features and config: REGRESSORS declares each expert's terms, and a config
    # key parses by its ExperimentConfig annotation
    "_load_block", "_daily_price_block", "_forecast_triple", "_CASTERS", "_SCHEMA_FIELDS",
    "_tuple_of",
    # backtest: the run plan names every method label
    "method_labels", "ensemble_method_labels",
    # scores and trading: pinball and the per MWh profit are each written once
    "crps_fan_batch", "profit_per_mwh",
)


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("pipebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _tracer_layers()
    assert layers
    for layer, (modname, attr) in layers.items():
        target = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(target, part), f"{layer}: {modname}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), layer


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.name)
def test_benchmark_scripts_load(path):
    # each script runs only under its ``__main__`` guard, so loading it runs
    # its imports and definitions alone
    spec = importlib.util.spec_from_file_location(f"benchmark_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_numba_flag_is_recorded():
    assert isinstance(_kernels.USE_NUMBA, bool)
    # the flag is all the module holds: each kernel lives beside its caller
    assert [name for name in vars(_kernels) if not name.startswith("__")] == ["USE_NUMBA"]


def test_pruned_names_stay_gone():
    modules = [splitcast] + [importlib.import_module(f"splitcast.{name}") for name in
                             ("_kernels", "backtest", "config", "ensembles", "errors", "features",
                              "models", "panel", "quantreg", "scores", "trading")]
    for name in PRUNED:
        for module in modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(splitcast.MarketPanel, "series")


def test_the_day_engine_is_public():
    from splitcast import backtest

    assert splitcast.forecast_day is backtest.forecast_day
    assert splitcast.score_day is backtest.score_day
    assert not hasattr(backtest, "_process_day")


def test_the_lazy_exports_are_the_modules_objects():
    for name in splitcast.__all__:
        module = importlib.import_module(f"splitcast.{splitcast._MODULE_OF[name]}")
        assert getattr(splitcast, name) is getattr(module, name), name
    assert set(splitcast.__all__) <= set(dir(splitcast))
    assert len(splitcast.__all__) == len(set(splitcast.__all__))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitcast.no_such_name
    assert not hasattr(splitcast, "score_fans")  # a module's name, not a package export


def test_star_import_binds_every_export():
    namespace = {}
    exec("from splitcast import *", namespace)
    assert set(splitcast.__all__) <= set(namespace)
    assert namespace["run_backtest"] is splitcast.backtest.run_backtest
