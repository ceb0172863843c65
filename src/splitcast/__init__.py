"""splitcast: joint probabilistic power market forecasting by split resampling."""

__version__ = "0.1.0"

from .panel import (
    MarketPanel,
    SyntheticConfig,
    dst_normalize,
    generate_synthetic_panel,
    load_panel,
    validate_panel,
    write_panel,
)
from .features import KINDS, MarketData, ModelSpec, design_rows, row_length, targets
from .models import ols_fit
from .quantreg import QuantileFan, TAU_GRID, pinball, qr_fan, qr_fit, qr_fit_fan
from .ensembles import (
    ForecastEnsemble,
    SplitPlan,
    derived_ensemble,
    historical_ensembles_for_day,
    interpolated_quantile,
    ms_ensembles_for_day,
    random_split,
)
from .scores import (
    CoverageReport,
    KupiecResult,
    ReliabilityReport,
    coverage_report,
    crps_from_fan,
    interval_hits,
    kupiec,
    multivariate_rank,
    reliability_index,
    univariate_rank,
)
from .trading import (
    StrategyOutcome,
    TradeDecision,
    choose_q,
    evaluate_strategy,
    naive_decision,
    profit_per_mwh,
    profit_pools,
    realized_profit,
    stopping_rule,
)
from .config import ExperimentConfig, load_config
from .backtest import BacktestResult, forecast_day, leakage_check, run_backtest, score_day
