"""Walk-forward wavelet features and randomized functional-link forecasting."""

from ewtforecast.series import (
    Scaler,
    SplitSpec,
    TimeSeries,
    WindowedDataset,
    apply_scaler,
    embed,
    fit_scaler,
    load_csv,
)
from ewtforecast.ewt import (
    EwtBoundaries,
    EwtDecomposition,
    EwtFilterBank,
    Spectrum,
    build_filter_bank,
    decompose,
    detect_boundaries,
    magnitude_spectrum,
    reconstruct,
)
from ewtforecast.walkforward import (
    WalkForwardConfig,
    build_walkforward_features,
    causal_decompose_at,
    leaky_features,
)
from ewtforecast.rvfl import RvflConfig, RvflModel
from ewtforecast.edrvfl import EdRvflConfig, EdRvflModel
from ewtforecast.metrics import (
    EvalSeries,
    MetricSet,
    compute_metrics,
    dstat,
    friedman_nemenyi,
    wilcoxon_signed_rank,
)
from ewtforecast.harness import (
    ExperimentConfig,
    ExperimentReport,
    GridSpace,
    grid_search,
    layerwise_grid_search,
    load_model,
    run_experiment,
    save_model,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "Scaler", "SplitSpec", "TimeSeries", "WindowedDataset",
    "apply_scaler", "embed", "fit_scaler", "load_csv",
    "EwtBoundaries", "EwtDecomposition", "EwtFilterBank", "Spectrum",
    "build_filter_bank", "decompose", "detect_boundaries", "magnitude_spectrum", "reconstruct",
    "WalkForwardConfig", "build_walkforward_features", "causal_decompose_at", "leaky_features",
    "RvflConfig", "RvflModel", "EdRvflConfig", "EdRvflModel",
    "EvalSeries", "MetricSet", "compute_metrics", "dstat",
    "friedman_nemenyi", "wilcoxon_signed_rank",
    "ExperimentConfig", "ExperimentReport", "GridSpace",
    "grid_search", "layerwise_grid_search", "load_model", "run_experiment",
    "save_model", "write_report",
]
