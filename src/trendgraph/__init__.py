"""Community-level attribute trend prediction from dynamic graph snapshots."""

from .errors import (
    CsvFormatError,
    DataError,
    InsufficientHistoryError,
    NegativeSalesError,
    NonFiniteError,
    NumericalError,
    ShapeMismatchError,
    UndefinedAucError,
    UsageError,
)
from .evaluate import EvalReport, auc, evaluate_predictions, mom_baseline
from .model import ModelConfig, TrainResult, initialize, train
from .predictions import PredictionMatrix
from .snapshots import (
    Catalogs,
    MonthlySales,
    SnapshotSeries,
    TrendSample,
    build_windows,
    filter_min_sales,
    ingest,
)
from .synthetic import GeneratorConfig, generate

__version__ = "0.1.0"

__all__ = [
    "Catalogs",
    "CsvFormatError",
    "DataError",
    "EvalReport",
    "GeneratorConfig",
    "InsufficientHistoryError",
    "ModelConfig",
    "MonthlySales",
    "NegativeSalesError",
    "NonFiniteError",
    "NumericalError",
    "PredictionMatrix",
    "ShapeMismatchError",
    "SnapshotSeries",
    "TrainResult",
    "TrendSample",
    "UndefinedAucError",
    "UsageError",
    "auc",
    "build_windows",
    "evaluate_predictions",
    "filter_min_sales",
    "generate",
    "ingest",
    "initialize",
    "mom_baseline",
    "train",
]
