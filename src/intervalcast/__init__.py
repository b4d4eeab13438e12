"""Interval-conditioned time-series forecasting.

Trains forecasters whose loss is shaped toward a region of interest of the
value domain, composes fine-grained interval models at inference time, and
quantifies the downstream impact of interval accuracy with a base-station
energy-saving simulator.
"""

from .data import (
    ScaleRecord,
    SplitSpec,
    TimeSeries,
    WindowConfig,
    Windows,
    chrono_split,
    generate_synthds,
    load_csv,
    make_windows,
    normalize,
    split_windows,
    write_csv,
)
from .energy import (
    DecisionErrors,
    EnergySimConfig,
    SimOutcome,
    compare_decisions,
    default_threshold_grid,
    sweep_threshold,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateConfidenceError,
    DimensionError,
    FormatError,
    IntervalcastError,
    NumericError,
    ParseError,
    SplitError,
    TrainingError,
    UnsupportedQueryError,
)
from .evaluation import (
    IntervalMetric,
    interval_mae,
    rolled_forecasts,
    rolling_eval,
    write_table_csv,
)
from .intervals import (
    DecaySpec,
    DiscretePartition,
    FULL_DOMAIN,
    INDICATOR,
    Interval,
    intersecting,
    target_weights,
)
from .models import (
    BatchDraw,
    ModelArch,
    ModelParams,
    backward,
    forward_batch,
    init,
)
from .patching import (
    STRATEGY_AVERAGE,
    STRATEGY_MAXCONF,
    forecast,
)
from .training import (
    AdamwState,
    EpochRecord,
    PolicyConfig,
    TrainReport,
    cosine_lr,
    draw_batch,
    load_checkpoint,
    save_checkpoint,
    train,
    validation_loss,
)

__version__ = "0.1.0"
