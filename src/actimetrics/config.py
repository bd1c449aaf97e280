"""Pipeline configuration: JSON schema, strict validation, canonical hashing.

The config file is JSON with a ``schema_version`` field. Unknown keys are
rejected anywhere in the document, and every parameter is validated
against the invariants of the module that consumes it before any work
starts.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .analysis import PsdParams
from .combine import CatalogOptions
from .core import DatasetKind
from .errors import ConfigError
from .metrics import (
    Applicability,
    IntegrationMethod,
    MetricId,
    ThresholdPolicy,
    applicability,
)
from .preprocess import FilterSpec, default_bandpass, hfen_highpass

SCHEMA_VERSION = 1

_DATASET_KINDS = {kind.value for kind in DatasetKind}

_INTEGRATIONS = {
    "riemann": IntegrationMethod.RIEMANN_SUM,
    "simpson38": IntegrationMethod.SIMPSON38,
}


@dataclass(frozen=True)
class BandpassConfig:
    order: int = 3
    f_low_hz: float = 0.25
    f_high_hz: float = 2.5


@dataclass(frozen=True)
class HighpassConfig:
    order: int = 4
    cutoff_hz: float = 0.2


@dataclass(frozen=True)
class ThresholdConfig:
    mode: str = "adaptive_sd"
    fixed_g: Optional[float] = None


@dataclass(frozen=True)
class AiConfig:
    noise_window_s: float = 60.0
    subtract_per_axis: bool = False
    sigma_sq_override: Optional[float] = None


@dataclass(frozen=True)
class PsdConfig:
    segment_epochs: int = 256
    overlap: float = 0.5
    window: str = "hann"


@dataclass(frozen=True)
class CatalogConfig:
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepConfig:
    metrics: tuple[str, ...] = ("ZCM", "TAT")
    kinds: tuple[str, ...] = ("UFM",)
    step_g: float = 0.05
    max_steps: int = 200


@dataclass(frozen=True)
class SyntheticConfig:
    subjects: int = 2
    duration_s: float = 3600.0
    rest_s: float = 1500.0
    active_s: float = 900.0
    active_freq_hz: float = 1.5
    active_amp_g: float = 0.5
    amp_jitter: float = 0.3
    noise_sd_g: float = 0.02


@dataclass(frozen=True)
class PipelineConfig:
    schema_version: int = SCHEMA_VERSION
    epoch_s: float = 60.0
    full_scale_g: float = 8.0
    filter_phase: str = "causal"
    pim_integrations: tuple[str, ...] = ("riemann",)
    bandpass: BandpassConfig = field(default_factory=BandpassConfig)
    hfen_highpass: HighpassConfig = field(default_factory=HighpassConfig)
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    ai: AiConfig = field(default_factory=AiConfig)
    psd: PsdConfig = field(default_factory=PsdConfig)
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    seed: int = 0

    # -- derived views -------------------------------------------------

    @property
    def zero_phase(self) -> bool:
        return self.filter_phase == "zero-phase"

    def bandpass_spec(self, sample_rate_hz: float) -> FilterSpec:
        return default_bandpass(
            sample_rate_hz,
            order=self.bandpass.order,
            f_low_hz=self.bandpass.f_low_hz,
            f_high_hz=self.bandpass.f_high_hz,
        )

    def hfen_spec(self, sample_rate_hz: float) -> FilterSpec:
        return hfen_highpass(
            sample_rate_hz,
            order=self.hfen_highpass.order,
            cutoff_hz=self.hfen_highpass.cutoff_hz,
        )

    def integration_methods(self) -> tuple[IntegrationMethod, ...]:
        return tuple(_INTEGRATIONS[name] for name in self.pim_integrations)

    def threshold_policy(self) -> ThresholdPolicy:
        if self.threshold.mode == "fixed":
            return ThresholdPolicy.fixed(self.threshold.fixed_g)
        return ThresholdPolicy.adaptive()

    def catalog_options(self) -> CatalogOptions:
        return CatalogOptions(
            integrations=self.integration_methods(),
            threshold_policy=self.threshold_policy(),
            include=self.catalog.include,
            exclude=self.catalog.exclude,
        )

    def psd_params(self) -> PsdParams:
        return PsdParams(
            segment_epochs=self.psd.segment_epochs,
            overlap=self.psd.overlap,
            window=self.psd.window,
        )

    def sweep_requests(self) -> list[tuple[str, str]]:
        return [(m, k) for m in self.sweep.metrics for k in self.sweep.kinds]

    def canonical_dict(self) -> dict:
        return _tuples_to_lists(asdict(self))

    def config_hash(self) -> str:
        canonical = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tuples_to_lists(v) for v in obj]
    return obj


def _build_section(cls, data: Mapping[str, Any], path: str):
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: expected an object")
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


_SECTIONS = {
    "bandpass": BandpassConfig,
    "hfen_highpass": HighpassConfig,
    "threshold": ThresholdConfig,
    "ai": AiConfig,
    "psd": PsdConfig,
    "catalog": CatalogConfig,
    "sweep": SweepConfig,
    "synthetic": SyntheticConfig,
}

_SCALAR_KEYS = {
    "schema_version",
    "epoch_s",
    "full_scale_g",
    "filter_phase",
    "pim_integrations",
    "seed",
}


def config_from_dict(data: Mapping[str, Any]) -> PipelineConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _SCALAR_KEYS - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    kwargs: dict[str, Any] = {}
    for key in _SCALAR_KEYS:
        if key in data:
            value = data[key]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
    for key, cls in _SECTIONS.items():
        if key in data:
            kwargs[key] = _build_section(cls, data[key], key)

    try:
        config = PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    validate_config(config)
    return config


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(data)


def validate_config(config: PipelineConfig) -> None:
    """Cross-check every parameter against its consumer's invariants."""
    if config.schema_version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {config.schema_version} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    if config.epoch_s <= 0:
        raise ConfigError("epoch_s must be positive")
    if config.full_scale_g <= 0:
        raise ConfigError("full_scale_g must be positive")
    if config.filter_phase not in ("causal", "zero-phase"):
        raise ConfigError("filter_phase must be causal or zero-phase")
    if not config.pim_integrations:
        raise ConfigError("pim_integrations cannot be empty")
    for name in config.pim_integrations:
        if name not in _INTEGRATIONS:
            raise ConfigError(f"unknown integration method {name!r}")
    if len(set(config.pim_integrations)) != len(config.pim_integrations):
        raise ConfigError("pim_integrations holds duplicates")
    if config.threshold.mode not in ("adaptive_sd", "fixed"):
        raise ConfigError(f"unknown threshold mode {config.threshold.mode!r}")
    if config.threshold.mode == "fixed":
        if config.threshold.fixed_g is None or config.threshold.fixed_g < 0:
            raise ConfigError("fixed threshold needs fixed_g >= 0")
    if config.ai.noise_window_s <= 0:
        raise ConfigError("ai.noise_window_s must be positive")
    if config.ai.sigma_sq_override is not None and config.ai.sigma_sq_override < 0:
        raise ConfigError("ai.sigma_sq_override must be >= 0")
    try:
        config.psd_params()
    except ValueError as exc:
        raise ConfigError(f"psd: {exc}") from None
    for metric in config.sweep.metrics:
        if metric not in (MetricId.ZCM.value, MetricId.TAT.value):
            raise ConfigError(f"sweep.metrics: {metric!r} is not ZCM or TAT")
    for kind in config.sweep.kinds:
        if not isinstance(kind, str) or kind not in _DATASET_KINDS:
            raise ConfigError(
                f"sweep.kinds: {kind!r} is not one of {sorted(_DATASET_KINDS)}"
            )
    for metric, kind in config.sweep_requests():
        mode, reason = applicability(MetricId(metric), DatasetKind(kind))
        if mode is Applicability.INAPPLICABLE:
            raise ConfigError(f"sweep: {metric}({kind}) is inapplicable: {reason}")
    if config.sweep.step_g <= 0:
        raise ConfigError("sweep.step_g must be positive")
    if config.sweep.max_steps < 1:
        raise ConfigError("sweep.max_steps must be >= 1")
    if config.synthetic.subjects < 1:
        raise ConfigError("synthetic.subjects must be >= 1")

    # filter specs and epoch length are rate-dependent; check at a nominal
    # 10 Hz here and again per recording in the pipeline
    try:
        config.bandpass_spec(10.0)
        config.hfen_spec(10.0)
    except Exception as exc:
        raise ConfigError(f"filter spec: {exc}") from None


def check_epoch_alignment(config: PipelineConfig, sample_rate_hz: float) -> int:
    """Reject epoch lengths that do not hold a whole number of samples."""
    product = config.epoch_s * sample_rate_hz
    n = round(product)
    if abs(product - n) > 1e-9:
        raise ConfigError(
            f"epoch_s={config.epoch_s} at {sample_rate_hz} Hz gives a non-integer "
            f"sample count {product}; choose a deliberate epoch length"
        )
    if n < 2:
        raise ConfigError("epoch holds fewer than 2 samples")
    return int(n)
