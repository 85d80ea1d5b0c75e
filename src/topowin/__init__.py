"""topowin: window classification for multivariate time series via
persistence diagrams, Wasserstein distances and k-nearest neighbors."""

from .classify import (
    EvaluationReport,
    KnnConfig,
    KSweepEntry,
    evaluate,
    knn_predict,
    predict_all,
    round_half_up,
    sweep_k,
)
from .distance import DistanceMatrix, WassersteinConfig, distance_matrix, wasserstein
from .errors import DataError, NumericalError
from .ingest import (
    CsvSchema,
    SplitRange,
    SplitSpec,
    StandardizationParams,
    TimeSeries,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    split_series,
)
from .persistence import (
    Diagrams,
    PersistenceDiagram,
    rips_persistence_dim0,
    rips_persistence_dim0_batch,
    rips_persistence_dim1,
)
from .pipeline import PipelineConfig, StageArtifact, describe_run, run
from .pointcloud import (
    AugmentConfig,
    augment,
    augment_batch,
    default_offset,
    resolve_anchors,
    resolve_offset,
)
from .windowing import LabeledWindow, WindowConfig, Windows, make_windows, window_count, window_label

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "CsvSchema",
    "DataError",
    "Diagrams",
    "DistanceMatrix",
    "EvaluationReport",
    "KSweepEntry",
    "KnnConfig",
    "LabeledWindow",
    "NumericalError",
    "PersistenceDiagram",
    "PipelineConfig",
    "SplitRange",
    "SplitSpec",
    "StageArtifact",
    "StandardizationParams",
    "TimeSeries",
    "WassersteinConfig",
    "WindowConfig",
    "Windows",
    "apply_standardizer",
    "augment",
    "augment_batch",
    "default_offset",
    "describe_run",
    "distance_matrix",
    "evaluate",
    "fit_standardizer",
    "knn_predict",
    "load_csv",
    "make_windows",
    "predict_all",
    "resolve_anchors",
    "resolve_offset",
    "rips_persistence_dim0",
    "rips_persistence_dim0_batch",
    "rips_persistence_dim1",
    "round_half_up",
    "run",
    "split_series",
    "sweep_k",
    "wasserstein",
    "window_count",
    "window_label",
]
