"""Activity signals from raw triaxial wrist-accelerometer recordings.

The package turns a raw recording into every preprocessed dataset kind,
evaluates the full catalog of activity-metric variants on 60 s epochs, and
quantifies the agreement between variants with time- and frequency-domain
correlation analysis.
"""

from .analysis import (
    CorrelationSummary,
    Domain,
    PsdEstimate,
    PsdParams,
    SweepCurve,
    correlation_matrix,
    pearson,
    psd,
    threshold_sweep,
)
from .combine import (
    AxisTriple,
    CatalogOptions,
    CombinationRule,
    VariantDescriptor,
    catalog,
    compute_activity,
    vm3,
)
from .config import PipelineConfig, config_from_dict, load_config
from .core import (
    ActivitySignal,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    ValidationReport,
    validate_recording,
)
from .metrics import (
    Applicability,
    IntegrationMethod,
    MetricId,
    NoiseVarianceEstimate,
    ThresholdPolicy,
    applicability,
    estimate_noise_variance,
    sd_threshold,
)
from .pipeline import process_subject, run_pipeline
from .preprocess import (
    Bandpass,
    FilterRealization,
    Highpass,
    apply_filter,
    design_filter,
    fmpre,
    hfen_preprocess,
    magnitude,
    normalize_magnitude,
    preprocess_all,
)
from .synthetic import SyntheticSpec, synthesize

__version__ = "0.1.0"
