"""Variant descriptors, axial-combination indicators, and the catalog.

A :class:`VariantDescriptor` names one legal activity computation: a
metric, the dataset (or axis triple) it runs on, an optional combination
rule collapsing per-axis activities into one signal, plus the threshold
policy (ZCM/TAT) and integration method (PIM). Illegal combinations cannot
be constructed: whether a metric may run on a dataset kind comes from the
applicability table in :mod:`actimetrics.metrics`, and the rules add only
which kinds they take (one axis, or the filtered axis triple).

:func:`compute_activity` is the one evaluation path. Every variant except
AI takes its metric's base values on each of its series (one kind, or
FX/FY/FZ), on the squared series where the label says so, then applies its
rule's post-op: none, ``²``, SUM, SQRTSUM, SUMSQ or VM3. :func:`catalog`
enumerates the single-series rows from the table; only the AI rows and the
combination families are listed by hand.

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

from dataclasses import dataclass, field, replace
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
    IntegrationMethod,
    MetricId,
    NoiseVarianceEstimate,
    THRESHOLD_METRICS,
    ThresholdPolicy,
    ai_values,
    applicable_kinds,
    enmo_values,
    hfen_values,
    mad_values,
    noise_variance_from_axes,
    pim_corrected_values,
    require_applicable,
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


# The rules that combine the three filtered axes, with their label tokens.
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

    The metric must be legal, by the applicability table, on the kind or on
    each axis of the triple, and the rule must take that kind.

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
            if rule not in _RULE_TOKEN:
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
            kinds = kind.axes
        else:
            if self.squared_axes:
                raise ValueError("squared_axes applies to triple kinds only")
            if rule in _RULE_TOKEN:
                raise InapplicableMetric(f"rule {rule.value} needs the axis triple")
            if rule is not CombinationRule.NONE and not kind.is_axis:
                raise InapplicableMetric(f"rule {rule.value} needs an axis kind")
            kinds = (kind,)
        for series_kind in kinds:
            require_applicable(metric, series_kind)

    @property
    def squared_input(self) -> bool:
        """Whether the metric runs on the elementwise-squared series."""
        return (
            self.squared_axes
            or self.combination is CombinationRule.METRIC_ON_SQUARED_AXIS
        )

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
        if self.squared_input:
            base = f"({base}) on g{SQ} input"
        if self.combination in (CombinationRule.SQUARE_EACH_AXIS,
                                CombinationRule.SUM_OF_SQUARES):
            return f"({base}){SQ}"
        return base


def vm3(a_x, a_y, a_z):
    """Euclidean norm of the three per-axis activity values, per epoch."""
    ax, ay, az = (np.asarray(v, dtype=float) for v in (a_x, a_y, a_z))
    return np.sqrt(ax * ax + ay * ay + az * az)


# The post-op of each rule, over the base values of the variant's series:
# one array for a single kind, three (x, y, z) for the filtered triple.
_POST_OPS = {
    CombinationRule.NONE: lambda a: a,
    CombinationRule.METRIC_ON_SQUARED_AXIS: lambda a: a,
    CombinationRule.SQUARE_EACH_AXIS: lambda a: a ** 2,
    CombinationRule.SUM_AXES: lambda a, b, c: a + b + c,
    CombinationRule.SQRT_OF_SUM_AXES: lambda a, b, c: np.sqrt(a + b + c),
    CombinationRule.SUM_OF_SQUARES: lambda a, b, c: a * a + b * b + c * c,
    CombinationRule.VM3: vm3,
}


def _single_values(
    variant: VariantDescriptor,
    series: PreprocessedSeries,
    te_s: float,
    thresholds: ThresholdMemo,
) -> np.ndarray:
    """Per-epoch activity of ``variant``'s metric (not AI) on one series.

    The descriptor has already checked the cell against the applicability
    table; the kernel applies the metric's correction for ``series.kind``.
    A ZCM/TAT threshold is resolved once per key of ``thresholds``. A
    squared input is squared block by block inside the kernel; the whole
    squared series exists only while its threshold is being resolved.
    """
    metric, squared = variant.metric, variant.squared_input
    n = epoch_sample_count(te_s, series.sample_rate_hz)
    mat = epoch_matrix(series.values, n)
    ts = series.ts
    if metric is MetricId.PIM:
        return pim_corrected_values(
            mat, ts, series.kind, variant.integration, squared=squared
        )
    if metric in THRESHOLD_METRICS:
        policy = variant.threshold_policy
        key = (series.kind, squared, policy)
        threshold = thresholds.get(key)
        if threshold is None:
            threshold = thresholds[key] = policy.resolve(
                replace(series, values=series.values ** 2) if squared else series
            )
        if metric is MetricId.ZCM:
            return zcm_values(mat, threshold, squared=squared).astype(float)
        return tat_values(mat, threshold, ts, squared=squared)
    if metric is MetricId.MAD:
        return mad_values(mat, squared=squared)
    if metric is MetricId.ENMO:
        return enmo_values(mat)
    return hfen_values(mat)


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

    Every variant except AI is the base values of its metric on each of its
    series, then its rule's post-op; the three axes of a combination must
    give the same number of epochs (:class:`SeriesMismatch` otherwise).

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
        kinds = (
            variant.kind.axes if isinstance(variant.kind, AxisTriple)
            else (variant.kind,)
        )
        base = [_single_values(variant, _series(kind), te_s, thresholds) for kind in kinds]
        epochs = [v.size for v in base]
        if len(set(epochs)) > 1:
            raise SeriesMismatch(
                f"{variant.label}: per-axis epoch counts differ: {epochs}"
            )
        values = _POST_OPS[variant.combination](*base)

    return ActivitySignal(
        label=variant.label,
        epoch_length_s=te_s,
        values=values,
        units=variant.units,
    )


@dataclass(frozen=True)
class CatalogOptions:
    """Knobs for catalog enumeration; defaults mirror the pipeline defaults."""

    integrations: tuple[IntegrationMethod, ...] = (IntegrationMethod.RIEMANN_SUM,)
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy.adaptive)
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()


def catalog(options: Optional[CatalogOptions] = None) -> list[VariantDescriptor]:
    """Enumerate every legal variant in a fixed, deterministic order.

    Single-series variants come first: per metric (PIM per integration,
    ZCM, TAT, MAD, ENMO, HFEN), every kind the applicability table allows,
    in its column order. Then AI on both axis triples, then the per-metric
    combination families over the filtered axes. Include/exclude
    shell-style patterns filter by label.
    """
    opts = options or CatalogOptions()
    # (metric, constructor keywords): PIM once per integration method
    settings: list[tuple[MetricId, dict]] = []
    for metric in MetricId:
        if metric is MetricId.PIM:
            settings += [(metric, {"integration": i}) for i in opts.integrations]
        elif metric in THRESHOLD_METRICS:
            settings.append((metric, {"threshold_policy": opts.threshold_policy}))
        else:
            settings.append((metric, {}))

    out = [
        VariantDescriptor(metric, kind, **kwargs)
        for metric, kwargs in settings
        for kind in applicable_kinds(metric)
    ]
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.UFXYZ))
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.FXYZ))

    triple = AxisTriple.FXYZ
    for metric, kwargs in settings:
        if metric not in AXIAL_METRICS:
            continue
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
