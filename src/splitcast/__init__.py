"""splitcast: joint probabilistic power market forecasting by split resampling."""

__version__ = "0.1.0"

from .panel import (
    MarketPanel,
    SyntheticConfig,
    build_info_set,
    derive_series,
    dst_normalize,
    generate_synthetic_panel,
    load_panel,
    validate_panel,
    write_panel,
)
from .features import KINDS, MarketData, ModelSpec, design_rows, regressors, row_length, target, targets
from .models import CoefficientSet, ols_fit, point_forecast
from .quantreg import (
    PredictionInterval,
    QuantileFan,
    TAU_GRID,
    pinball,
    qr_fan,
    qr_fit,
    qr_fit_fan,
    qr_interval,
)
from .ensembles import (
    ForecastEnsemble,
    SplitPlan,
    derived_ensemble,
    ensemble_fan,
    ensemble_interval,
    ensemble_quantile,
    ensemble_to_csv,
    historical_ensemble,
    interpolated_quantile,
    map_ensemble,
    multiple_split_ensemble,
    random_split,
)
from .scores import (
    CoverageReport,
    KupiecResult,
    ReliabilityReport,
    coverage_report,
    crps_from_fan,
    kupiec,
    multivariate_rank,
    picp,
    reliability_index,
    univariate_rank,
)
from .trading import (
    StrategyOutcome,
    TradeDecision,
    choose_q,
    evaluate_strategy,
    naive_decision,
    profit_ensemble,
    profit_per_mwh,
    profit_pools,
    realized_profit,
    stopping_rule,
)
from .config import ExperimentConfig, load_config
from .backtest import BacktestResult, leakage_check, run_backtest
