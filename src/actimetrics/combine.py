"""Variant descriptors, axial-combination indicators, and the catalog.

A :class:`VariantDescriptor` names one legal activity computation: a
metric, the dataset (or axis triple) it runs on, an optional combination
rule collapsing per-axis activities into one signal, plus the threshold
policy (ZCM/TAT) and integration method (PIM). Illegal combinations cannot
be constructed.

Label grammar, stable across versions::

    METRIC(KIND)          PIM(UFNM), MAD(UFM), AI(FXYZ)
    METRIC(AXIS)          ZCM(FY)
    METRIC(AXIS2)         PIM(FX**2)   -- metric on the squared series
    METRIC(AXIS)2         PIM(FX)**2   -- squared activity signal
    RULE[METRIC,FXYZ]     SUM, SQRTSUM, SUMSQ, VM3 over per-axis activities
    RULE[METRIC,FXYZ2]    SUM/SQRTSUM over squared-series activities

(2 is the superscript two in the actual labels; ENMO and HFEN are bare
because each can be computed in exactly one way.)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fnmatch import fnmatch
from typing import Mapping, Optional, Union

import numpy as np

from .core import (
    FILTERED_AXES,
    UNFILTERED_AXES,
    ActivitySignal,
    DatasetKind,
    PreprocessedSeries,
    epoch_matrix,
    epoch_sample_count,
)
from .errors import InapplicableMetric, MissingDataset, SeriesMismatch
from .metrics import (
    AXIAL_METRICS,
    Applicability,
    IntegrationMethod,
    MetricId,
    NoiseVarianceEstimate,
    THRESHOLD_METRICS,
    ThresholdPolicy,
    ai_values,
    applicability,
    enmo_values,
    hfen_values,
    mad_values,
    noise_variance_from_axes,
    pim_corrected_values,
    tat_values,
    zcm_values,
)

SQ = "\N{SUPERSCRIPT TWO}"


class AxisTriple(Enum):
    """The two axis families a triple-input variant can consume."""

    UFXYZ = "UFXYZ"
    FXYZ = "FXYZ"

    def __str__(self) -> str:
        return self.value

    @property
    def axes(self) -> tuple[DatasetKind, DatasetKind, DatasetKind]:
        if self is AxisTriple.UFXYZ:
            return UNFILTERED_AXES
        return FILTERED_AXES


class CombinationRule(Enum):
    NONE = "none"
    SUM_AXES = "sum"
    SQRT_OF_SUM_AXES = "sqrt_sum"
    SQUARE_EACH_AXIS = "square_each"
    SUM_OF_SQUARES = "sum_sq"
    VM3 = "vm3"
    METRIC_ON_SQUARED_AXIS = "squared_axis"


_RULE_TOKEN = {
    CombinationRule.SUM_AXES: "SUM",
    CombinationRule.SQRT_OF_SUM_AXES: "SQRTSUM",
    CombinationRule.SUM_OF_SQUARES: "SUMSQ",
    CombinationRule.VM3: "VM3",
}

_METRIC_UNITS = {
    MetricId.PIM: "g*s",
    MetricId.ZCM: "count",
    MetricId.TAT: "s",
    MetricId.MAD: "g",
    MetricId.ENMO: "g",
    MetricId.HFEN: "g",
    MetricId.AI: "g",
}

VariantKind = Union[DatasetKind, AxisTriple]

# Resolved ZCM/TAT thresholds of one subject's datasets, keyed by
# (dataset kind, squared input, policy); scalars only.
ThresholdMemo = dict[tuple[DatasetKind, bool, ThresholdPolicy], float]


def _metric_token(metric: MetricId, integration: Optional[IntegrationMethod]) -> str:
    if metric is MetricId.PIM and integration is IntegrationMethod.SIMPSON38:
        return "PIMs"
    return metric.value


@dataclass(frozen=True)
class VariantDescriptor:
    """One cataloged activity computation; construction enforces legality.

    ``squared_axes`` marks the combined families built from squared-series
    per-axis activities (``SUM[PIM,FXYZ2]``); the single-axis squared-series
    rows use ``combination=METRIC_ON_SQUARED_AXIS`` instead.
    """

    metric: MetricId
    kind: VariantKind
    combination: CombinationRule = CombinationRule.NONE
    squared_axes: bool = False
    threshold_policy: Optional[ThresholdPolicy] = None
    integration: Optional[IntegrationMethod] = None

    def __post_init__(self):
        if self.metric in THRESHOLD_METRICS:
            if self.threshold_policy is None:
                object.__setattr__(self, "threshold_policy", ThresholdPolicy.adaptive())
        elif self.threshold_policy is not None:
            raise ValueError(f"{self.metric} takes no threshold policy")
        if self.metric is MetricId.PIM:
            if self.integration is None:
                object.__setattr__(self, "integration", IntegrationMethod.RIEMANN_SUM)
        elif self.integration is not None:
            raise ValueError(f"{self.metric} takes no integration method")
        self._check_legality()

    def _check_legality(self) -> None:
        metric, kind, rule = self.metric, self.kind, self.combination

        if isinstance(kind, AxisTriple):
            if metric is MetricId.AI:
                if rule is not CombinationRule.NONE or self.squared_axes:
                    raise InapplicableMetric("AI takes the plain axis triple")
                return
            if metric not in AXIAL_METRICS:
                raise InapplicableMetric(f"{metric} is not applied per axis")
            if rule in (CombinationRule.NONE, CombinationRule.SQUARE_EACH_AXIS,
                        CombinationRule.METRIC_ON_SQUARED_AXIS):
                raise InapplicableMetric(
                    f"rule {rule.value} needs a single axis, not {kind}"
                )
            if kind is not AxisTriple.FXYZ:
                raise InapplicableMetric(
                    "combination indicators are defined on the filtered axes"
                )
            if self.squared_axes and rule not in (
                CombinationRule.SUM_AXES, CombinationRule.SQRT_OF_SUM_AXES
            ):
                raise InapplicableMetric(
                    f"squared-series inputs are not combined with {rule.value}"
                )
            return

        if self.squared_axes:
            raise ValueError("squared_axes applies to triple kinds only")
        if metric is MetricId.AI:
            raise InapplicableMetric(
                "AI needs the three axial signals separately (use an axis triple)"
            )
        if rule in (CombinationRule.SQUARE_EACH_AXIS,
                    CombinationRule.METRIC_ON_SQUARED_AXIS):
            if metric not in AXIAL_METRICS:
                raise InapplicableMetric(f"{metric} is not applied per axis")
            if not kind.is_axis:
                raise InapplicableMetric(f"rule {rule.value} needs an axis kind")
        elif rule is not CombinationRule.NONE:
            raise InapplicableMetric(f"rule {rule.value} needs the axis triple")
        mode, reason = applicability(metric, kind)
        if mode is Applicability.INAPPLICABLE:
            raise InapplicableMetric(f"{metric}({kind}): {reason}")

    @property
    def label(self) -> str:
        token = _metric_token(self.metric, self.integration)
        rule = self.combination
        if isinstance(self.kind, AxisTriple):
            if self.metric is MetricId.AI:
                return f"AI({self.kind})"
            suffix = SQ if self.squared_axes else ""
            return f"{_RULE_TOKEN[rule]}[{token},{self.kind}{suffix}]"
        if rule is CombinationRule.METRIC_ON_SQUARED_AXIS:
            return f"{token}({self.kind}{SQ})"
        if rule is CombinationRule.SQUARE_EACH_AXIS:
            return f"{token}({self.kind}){SQ}"
        if self.metric in (MetricId.ENMO, MetricId.HFEN):
            return self.metric.value
        return f"{token}({self.kind})"

    @property
    def units(self) -> str:
        base = _METRIC_UNITS[self.metric]
        if self.combination is CombinationRule.METRIC_ON_SQUARED_AXIS or self.squared_axes:
            base = f"({base}) on g{SQ} input"
        if self.combination in (CombinationRule.SQUARE_EACH_AXIS,
                                CombinationRule.SUM_OF_SQUARES):
            return f"({base}){SQ}"
        return base


def vm3(a_x, a_y, a_z):
    """Euclidean norm of the three per-axis activity values, per epoch."""
    ax, ay, az = (np.asarray(v, dtype=float) for v in (a_x, a_y, a_z))
    return np.sqrt(ax * ax + ay * ay + az * az)


_COMBINERS = {
    CombinationRule.SUM_AXES: lambda a, b, c: a + b + c,
    CombinationRule.SQRT_OF_SUM_AXES: lambda a, b, c: np.sqrt(a + b + c),
    CombinationRule.SUM_OF_SQUARES: lambda a, b, c: a * a + b * b + c * c,
    CombinationRule.VM3: vm3,
}


def combine_axial(
    ax: ActivitySignal,
    ay: ActivitySignal,
    az: ActivitySignal,
    rule: CombinationRule,
    label: Optional[str] = None,
) -> ActivitySignal:
    """Collapse three per-axis activity signals into one, epoch by epoch."""
    combiner = _COMBINERS.get(rule)
    if combiner is None:
        raise ValueError(f"rule {rule.value} does not combine three signals")
    if not (ax.n_epochs == ay.n_epochs == az.n_epochs):
        raise SeriesMismatch("per-axis activity signals differ in length")
    if not (ax.epoch_length_s == ay.epoch_length_s == az.epoch_length_s):
        raise SeriesMismatch("per-axis activity signals differ in epoch length")
    values = combiner(ax.values, ay.values, az.values)
    if label is None:
        label = f"{_RULE_TOKEN[rule]}[{ax.label},{ay.label},{az.label}]"
    return ActivitySignal(
        label=label,
        epoch_length_s=ax.epoch_length_s,
        values=values,
        units=ax.units,
    )


def _squared_series(series: PreprocessedSeries) -> PreprocessedSeries:
    return PreprocessedSeries(
        kind=series.kind,
        values=series.values ** 2,
        sample_rate_hz=series.sample_rate_hz,
        provenance=series.provenance,
    )


def _single_values(
    metric: MetricId,
    series: PreprocessedSeries,
    te_s: float,
    policy: Optional[ThresholdPolicy],
    integration: Optional[IntegrationMethod],
    squared_input: bool,
    thresholds: ThresholdMemo,
) -> np.ndarray:
    """Per-epoch activity of one metric on one series, corrections applied.

    A ZCM/TAT threshold is resolved once per key of ``thresholds``. A
    squared input is squared block by block inside the kernel; the whole
    squared series exists only while its threshold is being resolved.
    """
    mode, reason = applicability(metric, series.kind)
    if mode is Applicability.INAPPLICABLE:
        raise InapplicableMetric(f"{metric}({series.kind}): {reason}")
    n = epoch_sample_count(te_s, series.sample_rate_hz)
    mat = epoch_matrix(series.values, n)
    ts = series.ts
    if metric is MetricId.PIM:
        return pim_corrected_values(
            mat, ts, series.kind, integration, squared=squared_input
        )
    if metric in THRESHOLD_METRICS:
        policy = policy or ThresholdPolicy.adaptive()
        key = (series.kind, squared_input, policy)
        threshold = thresholds.get(key)
        if threshold is None:
            threshold = thresholds[key] = policy.resolve(
                _squared_series(series) if squared_input else series
            )
        if metric is MetricId.ZCM:
            return zcm_values(mat, threshold, squared=squared_input).astype(float)
        return tat_values(mat, threshold, ts, squared=squared_input)
    if metric is MetricId.MAD:
        return mad_values(mat, squared=squared_input)
    if metric is MetricId.ENMO:
        return enmo_values(mat)
    if metric is MetricId.HFEN:
        return hfen_values(mat)
    raise InapplicableMetric(f"{metric} cannot run on a single series")


def metric_on_squared_axis(
    metric: MetricId,
    axis_series: PreprocessedSeries,
    te_s: float,
    policy: Optional[ThresholdPolicy] = None,
    integration: IntegrationMethod = IntegrationMethod.RIEMANN_SUM,
) -> ActivitySignal:
    """Apply an axial metric to the elementwise-squared axis series.

    For ZCM/TAT the adaptive threshold resolves to the SD of the squared
    series, keeping the threshold in the squared units.
    """
    if metric not in AXIAL_METRICS:
        raise InapplicableMetric(f"{metric} is not applied per axis")
    if not axis_series.kind.is_axis:
        raise InapplicableMetric(
            f"squared-series variants need an axis kind, got {axis_series.kind}"
        )
    descriptor = VariantDescriptor(
        metric=metric,
        kind=axis_series.kind,
        combination=CombinationRule.METRIC_ON_SQUARED_AXIS,
        threshold_policy=policy if metric in THRESHOLD_METRICS else None,
        integration=integration if metric is MetricId.PIM else None,
    )
    values = _single_values(
        metric, axis_series, te_s, policy, descriptor.integration,
        squared_input=True, thresholds={},
    )
    return ActivitySignal(
        label=descriptor.label,
        epoch_length_s=te_s,
        values=values,
        units=descriptor.units,
        variant=descriptor,
    )


def compute_activity(
    variant: VariantDescriptor,
    datasets: Mapping[DatasetKind, PreprocessedSeries],
    te_s: float,
    *,
    noise: Optional[NoiseVarianceEstimate] = None,
    noise_window_s: float = 60.0,
    ai_subtract_per_axis: bool = False,
    thresholds: Optional[ThresholdMemo] = None,
) -> ActivitySignal:
    """Evaluate one variant against a preprocessed dataset map.

    AI variants need a noise-variance estimate; when ``noise`` is None it
    is derived from the raw axes in ``datasets`` with ``noise_window_s``
    windows.

    ``thresholds`` lets calls on the same ``datasets`` share their resolved
    ZCM/TAT thresholds: pass one empty dict per dataset map (one subject)
    and never reuse it for another map. When None, each call resolves its
    own.
    """
    if thresholds is None:
        thresholds = {}

    def _series(kind: DatasetKind) -> PreprocessedSeries:
        series = datasets.get(kind)
        if series is None:
            raise MissingDataset(f"{variant.label} needs dataset {kind}")
        return series

    if isinstance(variant.kind, AxisTriple):
        if variant.metric is MetricId.AI:
            sx, sy, sz = (_series(k) for k in variant.kind.axes)
            if noise is None:
                rx, ry, rz = (_series(k) for k in UNFILTERED_AXES)
                noise = noise_variance_from_axes(
                    rx.values, ry.values, rz.values, rx.sample_rate_hz, noise_window_s
                )
            n = epoch_sample_count(te_s, sx.sample_rate_hz)
            values = ai_values(
                epoch_matrix(sx.values, n),
                epoch_matrix(sy.values, n),
                epoch_matrix(sz.values, n),
                noise.sigma_bar_sq,
                ai_subtract_per_axis,
            )
        else:
            per_axis = [
                _single_values(
                    variant.metric,
                    _series(kind),
                    te_s,
                    variant.threshold_policy,
                    variant.integration,
                    variant.squared_axes,
                    thresholds,
                )
                for kind in variant.kind.axes
            ]
            values = _COMBINERS[variant.combination](*per_axis)
    else:
        values = _single_values(
            variant.metric,
            _series(variant.kind),
            te_s,
            variant.threshold_policy,
            variant.integration,
            variant.combination is CombinationRule.METRIC_ON_SQUARED_AXIS,
            thresholds,
        )
        if variant.combination is CombinationRule.SQUARE_EACH_AXIS:
            values = values ** 2

    return ActivitySignal(
        label=variant.label,
        epoch_length_s=te_s,
        values=values,
        units=variant.units,
        variant=variant,
    )


@dataclass(frozen=True)
class CatalogOptions:
    """Knobs for catalog enumeration; defaults mirror the pipeline defaults."""

    integrations: tuple[IntegrationMethod, ...] = (IntegrationMethod.RIEMANN_SUM,)
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy.adaptive)
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()


_MAGNITUDES = (DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPRE, DatasetKind.FMPOST)


def catalog(options: Optional[CatalogOptions] = None) -> list[VariantDescriptor]:
    """Enumerate every legal variant in a fixed, deterministic order.

    Single-series variants come first (PIM, ZCM, TAT, MAD, ENMO, HFEN, AI),
    then the per-metric combination families over the filtered axes.
    Include/exclude shell-style patterns filter by label.
    """
    opts = options or CatalogOptions()
    policy = opts.threshold_policy
    out: list[VariantDescriptor] = []

    for integration in opts.integrations:
        for kind in _MAGNITUDES + FILTERED_AXES:
            out.append(VariantDescriptor(MetricId.PIM, kind, integration=integration))

    for metric in THRESHOLD_METRICS:
        for kind in _MAGNITUDES + FILTERED_AXES:
            out.append(VariantDescriptor(metric, kind, threshold_policy=policy))

    for kind in _MAGNITUDES + UNFILTERED_AXES + FILTERED_AXES:
        out.append(VariantDescriptor(MetricId.MAD, kind))

    out.append(VariantDescriptor(MetricId.ENMO, DatasetKind.UFM))
    out.append(VariantDescriptor(MetricId.HFEN, DatasetKind.HFEN_SPECIAL))
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.UFXYZ))
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.FXYZ))

    for metric in AXIAL_METRICS:
        integrations = opts.integrations if metric is MetricId.PIM else (None,)
        for integration in integrations:
            kwargs = {}
            if metric is MetricId.PIM:
                kwargs["integration"] = integration
            if metric in THRESHOLD_METRICS:
                kwargs["threshold_policy"] = policy
            triple = AxisTriple.FXYZ

            out.append(VariantDescriptor(
                metric, triple, CombinationRule.SUM_AXES, **kwargs))
            out.append(VariantDescriptor(
                metric, triple, CombinationRule.SQRT_OF_SUM_AXES, **kwargs))
            for axis in FILTERED_AXES:
                out.append(VariantDescriptor(
                    metric, axis, CombinationRule.SQUARE_EACH_AXIS, **kwargs))
            out.append(VariantDescriptor(
                metric, triple, CombinationRule.SUM_OF_SQUARES, **kwargs))
            out.append(VariantDescriptor(
                metric, triple, CombinationRule.VM3, **kwargs))
            for axis in FILTERED_AXES:
                out.append(VariantDescriptor(
                    metric, axis, CombinationRule.METRIC_ON_SQUARED_AXIS, **kwargs))
            out.append(VariantDescriptor(
                metric, triple, CombinationRule.SUM_AXES, squared_axes=True, **kwargs))
            out.append(VariantDescriptor(
                metric, triple, CombinationRule.SQRT_OF_SUM_AXES, squared_axes=True,
                **kwargs))

    labels = [v.label for v in out]
    if len(set(labels)) != len(labels):
        raise RuntimeError("catalog produced duplicate labels")

    if opts.include:
        out = [v for v in out if any(fnmatch(v.label, p) for p in opts.include)]
    if opts.exclude:
        out = [v for v in out if not any(fnmatch(v.label, p) for p in opts.exclude)]
    return out
