"""Pipeline configuration: JSON schema, strict validation, canonical hashing.

The config file is JSON with a ``schema_version`` field. Unknown keys are
rejected anywhere in the document, and every value must have its field's
annotated type (numbers finite, lists lists of strings). Every other check
is in a section's constructor, so a file, Python and ``dataclasses.replace``
meet the same :class:`ConfigError`: :class:`AiConfig`, :class:`SweepConfig`
and :class:`SyntheticConfig` check their own fields; :class:`PipelineConfig`
its scalars, a non-empty catalog and both filters at a nominal 10 Hz; and
the ``threshold``, ``psd``, ``bandpass`` and ``hfen_highpass`` sections are
domain types that check themselves.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union, get_args, get_origin, get_type_hints

from .analysis import PsdParams
from .combine import VariantDescriptor, catalog
from .core import DatasetKind
from .errors import ActimetricsError, ConfigError, InapplicableMetric, InvalidCutoffs
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
        if self.noise_window_s <= 0:
            raise ConfigError("ai.noise_window_s must be positive")
        if self.sigma_sq_override is not None and self.sigma_sq_override < 0:
            raise ConfigError("ai.sigma_sq_override must be >= 0")


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

    def __post_init__(self):
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
            except (ActimetricsError, ArithmeticError) as exc:
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


def _typed(value, hint, path: str):
    """``value`` as a field annotated ``hint`` takes it, else a ConfigError.

    An int rejects bool, a float takes a finite int or float, a tuple of
    strings takes a list of strings, and None is only for Optional fields.
    A dataclass field takes an object, built by :func:`_build_section`.
    """
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _build_section(hint, value, path)
    if hint == tuple[str, ...]:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        raise ConfigError(f"{path}: expected a list of strings, got {value!r}")
    if hint is float:
        # an int compares exactly, so one too large for a float is caught too
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    elif hint is int:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, hint)
    if not ok or (hint is not bool and isinstance(value, bool)):
        noun = "a finite number" if hint is float else f"a {hint.__name__}"
        raise ConfigError(f"{path}: expected {noun}, got {value!r}")
    return value


def _build_section(cls, data: Mapping[str, Any], path: str):
    """``cls`` from the JSON object ``data``; ``path`` locates it in errors."""
    where = path or "config"
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {
        key: _typed(value, hints[key], f"{path}.{key}" if path else key)
        for key, value in data.items()
    }
    try:
        return cls(**kwargs)
    except (ValueError, InvalidCutoffs) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: Mapping[str, Any]) -> PipelineConfig:
    return _build_section(PipelineConfig, data, "")


def load_config(path) -> PipelineConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(data)

