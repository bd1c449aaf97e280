"""Variant descriptors, axial-combination indicators, and the catalog.

A :class:`VariantDescriptor` names one legal activity computation: a
metric, the dataset (or axis triple) it runs on, whether the metric runs
on the elementwise-squared series, and a combination rule collapsing
per-axis activities into one signal, plus the threshold policy (ZCM/TAT)
and integration method (PIM). Illegal combinations cannot be constructed:
whether a metric may run on a dataset kind comes from the applicability
table in :mod:`actimetrics.metrics`, and which (squared, rule) pairs exist
beyond the plain metric comes from one family table, ``_FAMILIES``. A
triple rule takes the filtered axis triple; every other family takes one
axis.

:func:`compute_activity` is the one evaluation path. Every variant except
AI takes its metric's base values on each of its series (one kind, or
FX/FY/FZ), squared where ``squared`` says so, then applies its rule's
post-op: none, ``²``, SUM, SQRTSUM, SUMSQ or VM3; a combination (the last
four) reads the signals of its per-axis :attr:`~VariantDescriptor.inputs`
it is given, and evaluates only the absent ones. :func:`catalog`
enumerates the single-series rows from the applicability table, the two AI
rows, then ``_FAMILIES`` for each axial metric.

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

from dataclasses import dataclass
from enum import Enum
from fnmatch import fnmatch
from typing import Mapping, Optional, Sequence, Union

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


# The rules that combine the three filtered axes, with their label tokens.
_RULE_TOKEN = {
    CombinationRule.SUM_AXES: "SUM",
    CombinationRule.SQRT_OF_SUM_AXES: "SQRTSUM",
    CombinationRule.SUM_OF_SQUARES: "SUMSQ",
    CombinationRule.VM3: "VM3",
}

# Every (squared, rule) pair beyond the plain metric, in catalog order. A
# triple rule gives one FXYZ row; the others give one row per axis.
_FAMILIES = (
    (False, CombinationRule.SUM_AXES),
    (False, CombinationRule.SQRT_OF_SUM_AXES),
    (False, CombinationRule.SQUARE_EACH_AXIS),
    (False, CombinationRule.SUM_OF_SQUARES),
    (False, CombinationRule.VM3),
    (True, CombinationRule.NONE),
    (True, CombinationRule.SUM_AXES),
    (True, CombinationRule.SQRT_OF_SUM_AXES),
)

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
    each axis of the triple. A (squared, rule) pair other than the plain
    ``(False, NONE)`` must be in ``_FAMILIES``: a triple rule needs the
    filtered triple, every other family one axis. ``squared=True`` runs
    the metric on the elementwise-squared series (``PIM(FX²)``,
    ``SUM[PIM,FXYZ²]``).
    """

    metric: MetricId
    kind: VariantKind
    combination: CombinationRule = CombinationRule.NONE
    squared: bool = False
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
        triple = isinstance(kind, AxisTriple)
        if (self.squared, rule) == (False, CombinationRule.NONE):
            if triple:
                if metric is not MetricId.AI:
                    raise InapplicableMetric(f"{kind} needs a combination rule")
                return  # AI reads the plain triple itself
        # a triple rule takes the filtered triple, any other family one axis
        elif (self.squared, rule) not in _FAMILIES or (
            kind is not AxisTriple.FXYZ if rule in _RULE_TOKEN
            else triple or not kind.is_axis
        ):
            raise InapplicableMetric(
                f"no variant family takes {kind} with rule {rule.value} "
                f"and squared={self.squared}"
            )
        for series_kind in self.datasets:
            require_applicable(metric, series_kind)

    @property
    def datasets(self) -> tuple[DatasetKind, ...]:
        """The dataset kinds the variant reads: its kind, or its triple's axes."""
        if isinstance(self.kind, AxisTriple):
            return self.kind.axes
        return (self.kind,)

    @property
    def label(self) -> str:
        token = _metric_token(self.metric, self.integration)
        suffix = SQ if self.squared else ""
        if isinstance(self.kind, AxisTriple):
            if self.metric is MetricId.AI:
                return f"AI({self.kind})"
            return f"{_RULE_TOKEN[self.combination]}[{token},{self.kind}{suffix}]"
        if self.combination is CombinationRule.SQUARE_EACH_AXIS:
            return f"{token}({self.kind}){SQ}"
        if self.metric in (MetricId.ENMO, MetricId.HFEN):
            return self.metric.value
        return f"{token}({self.kind}{suffix})"

    @property
    def units(self) -> str:
        base = _METRIC_UNITS[self.metric]
        if self.squared:
            base = f"({base}) on g{SQ} input"
        if self.combination in (CombinationRule.SQUARE_EACH_AXIS,
                                CombinationRule.SUM_OF_SQUARES):
            return f"({base}){SQ}"
        return base

    @property
    def inputs(self) -> tuple[VariantDescriptor, ...]:
        """The per-axis variants (FX, FY, FZ) a combination rule combines; none for other rules."""
        if self.combination not in _RULE_TOKEN:
            return ()
        return tuple(
            VariantDescriptor(self.metric, axis, CombinationRule.NONE, self.squared,
                              self.threshold_policy, self.integration)
            for axis in self.datasets
        )


def vm3(a_x, a_y, a_z):
    """Euclidean norm of the three per-axis activity values, per epoch."""
    ax, ay, az = (np.asarray(v, dtype=float) for v in (a_x, a_y, a_z))
    return np.sqrt(ax * ax + ay * ay + az * az)


# The post-op of each rule, over the base values of the variant's series:
# one array for a single kind, three (x, y, z) for the filtered triple.
_POST_OPS = {
    CombinationRule.NONE: lambda a: a,
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
    squared input is squared block by block, inside the kernel and inside
    :func:`~actimetrics.metrics.sd_threshold`, which also centres each
    block on its own, so a call makes no full-length temporary.
    """
    metric, squared = variant.metric, variant.squared
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
            threshold = thresholds[key] = policy.resolve(series, squared=squared)
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
    ai_subtract_per_axis: bool = False,
    thresholds: Optional[ThresholdMemo] = None,
    signals: Optional[Mapping[VariantDescriptor, ActivitySignal]] = None,
) -> ActivitySignal:
    """Evaluate one variant against a preprocessed dataset map.

    Every variant except AI is the base values of its metric on each of its
    series, then its rule's post-op; the three axes of a combination must
    give the same number of epochs (:class:`SeriesMismatch` otherwise).
    ``signals`` holds the subject's already-evaluated signals, keyed by
    descriptor (a label does not carry the threshold policy): a combination
    takes each of its :attr:`~VariantDescriptor.inputs` found there as that
    axis's base values, and evaluates only the others.

    AI variants need ``noise``, the subject's noise-variance estimate (see
    :func:`~actimetrics.metrics.estimate_noise_variance`); without it they
    raise ValueError.

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
        if noise is None:
            raise ValueError(f"{variant.label} needs a noise-variance estimate")
        sx, sy, sz = (_series(k) for k in variant.datasets)
        n = epoch_sample_count(te_s, sx.sample_rate_hz)
        values = ai_values(
            epoch_matrix(sx.values, n),
            epoch_matrix(sy.values, n),
            epoch_matrix(sz.values, n),
            noise.sigma_bar_sq,
            ai_subtract_per_axis,
        )
    else:
        known = signals or {}
        base = [
            known[v].values if v in known
            else _single_values(variant, _series(kind), te_s, thresholds)
            for kind, v in zip(variant.datasets, variant.inputs or [None])
        ]
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


def catalog(
    *,
    integrations: Sequence[IntegrationMethod] = (IntegrationMethod.RIEMANN_SUM,),
    threshold_policy: Optional[ThresholdPolicy] = None,
    include: Sequence[str] = (),
    exclude: Sequence[str] = (),
) -> list[VariantDescriptor]:
    """Enumerate every legal variant in a fixed, deterministic order.

    Single-series variants come first: per metric (PIM once per
    integration, ZCM and TAT with ``threshold_policy``, default adaptive;
    MAD, ENMO, HFEN), every kind the applicability table allows, in its
    column order. Then AI on both axis triples, then ``_FAMILIES`` for each
    axial metric over the filtered axes. Include/exclude shell-style
    patterns filter by label.
    """
    # (metric, constructor keywords): PIM once per integration method
    settings: list[tuple[MetricId, dict]] = []
    for metric in MetricId:
        if metric is MetricId.PIM:
            settings += [(metric, {"integration": i}) for i in integrations]
        elif metric in THRESHOLD_METRICS:
            settings.append((metric, {"threshold_policy": threshold_policy}))
        else:
            settings.append((metric, {}))

    out = [
        VariantDescriptor(metric, kind, **kwargs)
        for metric, kwargs in settings
        for kind in applicable_kinds(metric)
    ]
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.UFXYZ))
    out.append(VariantDescriptor(MetricId.AI, AxisTriple.FXYZ))
    out += [
        VariantDescriptor(metric, kind, rule, squared, **kwargs)
        for metric, kwargs in settings if metric in AXIAL_METRICS
        for squared, rule in _FAMILIES
        for kind in ((AxisTriple.FXYZ,) if rule in _RULE_TOKEN else FILTERED_AXES)
    ]

    labels = [v.label for v in out]
    if len(set(labels)) != len(labels):
        raise RuntimeError("catalog produced duplicate labels")

    if include:
        out = [v for v in out if any(fnmatch(v.label, p) for p in include)]
    if exclude:
        out = [v for v in out if not any(fnmatch(v.label, p) for p in exclude)]
    return out
