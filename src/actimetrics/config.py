"""Pipeline configuration: JSON schema, strict validation, canonical hashing.

The config file is JSON with a ``schema_version`` field. Each section's
constructor checks its field types (:func:`core.check_fields`), then its
values, so a file, Python and ``dataclasses.replace`` meet the same
:class:`ConfigError`; :func:`config_from_dict` only rejects unknown keys and
maps JSON onto the constructors. :class:`PipelineConfig` also designs both
filters at a nominal 10 Hz. The ``threshold``, ``psd``, ``bandpass`` and
``hfen_highpass`` sections are the library's own domain types.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, get_type_hints

from .analysis import PsdParams
from .combine import VariantDescriptor, catalog
from .core import DatasetKind, check_fields
from .errors import ActimetricsError, ConfigError, InapplicableMetric
from .metrics import (
    DEFAULT_NOISE_WINDOW_S,
    THRESHOLD_METRICS,
    IntegrationMethod,
    MetricId,
    ThresholdPolicy,
    require_sweepable,
)
from .preprocess import Bandpass, Highpass, design_filter

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AiConfig:
    noise_window_s: float = DEFAULT_NOISE_WINDOW_S
    subtract_per_axis: bool = False
    sigma_sq_override: Optional[float] = None

    def __post_init__(self):
        check_fields(self, "ai")
        if self.noise_window_s <= 0:
            raise ConfigError("ai.noise_window_s must be positive")
        if self.sigma_sq_override is not None and self.sigma_sq_override < 0:
            raise ConfigError("ai.sigma_sq_override must be >= 0")


@dataclass(frozen=True)
class CatalogConfig:
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, "catalog")


@dataclass(frozen=True)
class SweepConfig:
    metrics: tuple[str, ...] = ("ZCM", "TAT")
    kinds: tuple[str, ...] = ("UFM",)
    step_g: float = 0.05
    max_steps: int = 200

    def __post_init__(self):
        check_fields(self, "sweep")
        for metric in self.metrics:
            if metric not in (m.value for m in THRESHOLD_METRICS):
                raise ConfigError(f"sweep.metrics: {metric!r} is not ZCM or TAT")
        kinds = sorted(kind.value for kind in DatasetKind)
        for kind in self.kinds:
            if kind not in kinds:
                raise ConfigError(f"sweep.kinds: {kind!r} is not one of {kinds}")
        for name, values in (("sweep.metrics", self.metrics), ("sweep.kinds", self.kinds)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} holds duplicates")
        for metric in self.metrics:
            for kind in self.kinds:
                try:
                    require_sweepable(MetricId(metric), DatasetKind(kind))
                except InapplicableMetric as exc:
                    raise ConfigError(f"sweep: {exc}") from None
        if self.step_g <= 0:
            raise ConfigError("sweep.step_g must be positive")
        if self.max_steps < 1:
            raise ConfigError("sweep.max_steps must be >= 1")


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

    def __post_init__(self):
        check_fields(self, "synthetic")
        if self.subjects < 1:
            raise ConfigError("synthetic.subjects must be >= 1")
        try:
            self.subject_spec(0, 0)
        except ValueError as exc:
            raise ConfigError(f"synthetic: {exc}") from None

    def subject_spec(self, i: int, seed: int):
        """The ``SyntheticSpec`` of subject ``i`` (from 0), seeded ``seed + i``."""
        from .synthetic import SyntheticSpec

        params = asdict(self)
        del params["subjects"]
        return SyntheticSpec(subject_id=f"subject{i + 1:02d}", seed=seed + i, **params)


@dataclass(frozen=True)
class PipelineConfig:
    schema_version: int = SCHEMA_VERSION
    epoch_s: float = 60.0
    full_scale_g: float = 8.0
    filter_phase: str = "causal"
    pim_integrations: tuple[str, ...] = ("riemann",)
    bandpass: Bandpass = field(default_factory=Bandpass)
    hfen_highpass: Highpass = field(default_factory=Highpass)
    threshold: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    ai: AiConfig = field(default_factory=AiConfig)
    psd: PsdParams = field(default_factory=PsdParams)
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version {self.schema_version} unsupported "
                              f"(expected {SCHEMA_VERSION})")
        if self.epoch_s <= 0:
            raise ConfigError("epoch_s must be positive")
        if self.full_scale_g <= 0:
            raise ConfigError("full_scale_g must be positive")
        if self.filter_phase not in ("causal", "zero-phase"):
            raise ConfigError("filter_phase must be causal or zero-phase")
        if not self.pim_integrations:
            raise ConfigError("pim_integrations cannot be empty")
        try:
            self.integration_methods()
        except ValueError as exc:
            raise ConfigError(f"pim_integrations: {exc}") from None
        if len(set(self.pim_integrations)) != len(self.pim_integrations):
            raise ConfigError("pim_integrations holds duplicates")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.variants():
            raise ConfigError("empty catalog: include/exclude filters left no variants")
        for name, spec in (("bandpass", self.bandpass),
                           ("hfen_highpass", self.hfen_highpass)):
            try:
                design_filter(spec, 10.0)
            except (ActimetricsError, ArithmeticError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from None

    # -- derived views -------------------------------------------------

    @property
    def zero_phase(self) -> bool:
        return self.filter_phase == "zero-phase"

    def integration_methods(self) -> tuple[IntegrationMethod, ...]:
        return tuple(IntegrationMethod(name) for name in self.pim_integrations)

    def variants(self) -> list[VariantDescriptor]:
        """The configured catalog, never empty (the constructor checks it)."""
        return catalog(
            integrations=self.integration_methods(),
            threshold_policy=self.threshold,
            include=self.catalog.include,
            exclude=self.catalog.exclude,
        )

    def sweep_requests(self) -> list[tuple[str, str]]:
        return [(m, k) for m in self.sweep.metrics for k in self.sweep.kinds]

    def canonical_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))  # as its JSON document: tuples as lists

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_section(cls, data: Mapping[str, Any], where: str):
    """``cls`` from the JSON object ``data``, named ``where`` in errors.

    Lists become tuples and objects sections; the constructors check the rest.
    """
    hints = get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if isinstance(value, Mapping) and is_dataclass(hints[key]):
            value = _build_section(hints[key], value, key)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: Mapping[str, Any]) -> PipelineConfig:
    if not isinstance(data, Mapping):
        raise ConfigError("config: expected an object")
    return _build_section(PipelineConfig, data, "config")


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, bad JSON, a huge int
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(data)

