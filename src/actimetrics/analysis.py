"""Correlation of activity signals in time and frequency domain.

The matrices and the threshold sweeps are each a map and a reduce.
:func:`subject_correlation` computes one subject's Pearson matrix over all
pairs of its activity signals (in the frequency domain, between their Welch
power spectral densities, estimated in one stacked call), and
:func:`correlation_matrix` reduces those to mean and SD matrices across
subjects. Threshold sweeps trace how ZCM/TAT relate to reference metrics as
their threshold grows, with the dataset-SD threshold marked:
:func:`recording_sweep` computes one recording's part, a one-subject
:class:`SweepCurve` that carries its metric, kind and grid, and
:func:`threshold_sweep` averages the parts, taking those three from them.
The references are the subject's ENMO and HFEN signals: the pipeline passes
those its catalog already computed, and without them a part computes them
from its own UFM and HFEN_SPECIAL datasets. Both reduces share one
NaN-skipping mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import signal as spsignal

from .core import (
    ActivitySignal,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    epoch_matrix,
    epoch_sample_count,
)
from .errors import DegenerateInput, LabelMismatch, SignalTooShort
from .metrics import (
    MetricId,
    enmo_values,
    hfen_values,
    require_applicable,
    sd_threshold,
    tat_values,
    zcm_values,
)
from .preprocess import Bandpass, Highpass, preprocess_all


class Domain(Enum):
    TIME = "time"
    FREQUENCY = "frequency"


def pearson(a, b) -> float:
    """Sample Pearson correlation coefficient, clipped into [-1, 1].

    Raises DegenerateInput when either input is constant, because the
    coefficient is undefined there; aggregation layers exclude such pairs
    and count them instead of imputing a value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length 1-D inputs, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 samples")
    da = a - a.mean()
    db = b - b.mean()
    na = float(np.sqrt(da @ da))
    nb = float(np.sqrt(db @ db))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInput("correlation is undefined for a constant input")
    return float(np.clip((da @ db) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class PsdParams:
    """Welch estimator settings; lengths are counted in epochs."""

    segment_epochs: int = 256
    overlap: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        if self.segment_epochs < 2:
            raise ValueError("segment_epochs must be >= 2")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        try:
            spsignal.get_window(self.window, self.segment_epochs)
        except ValueError as exc:
            raise ValueError(f"window {self.window!r}: {exc}") from None


def psd(
    rows, epoch_length_s: float, params: Optional[PsdParams] = None
) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, power) of Welch PSDs along the last axis of ``rows``.

    ``rows`` is one activity signal or a stack of them, sampled at 1/Te
    Hz. Segments are mean-removed and Hann-windowed with 50% overlap by
    default; the density normalization keeps the integrated power
    consistent with the signal variance.
    """
    params = params or PsdParams()
    x = np.asarray(rows, dtype=float)
    if x.shape[-1] < params.segment_epochs:
        raise SignalTooShort(
            f"signal of {x.shape[-1]} epochs is shorter than one "
            f"{params.segment_epochs}-epoch segment"
        )
    return spsignal.welch(
        x,
        fs=1.0 / epoch_length_s,
        window=params.window,
        nperseg=params.segment_epochs,
        noverlap=int(params.segment_epochs * params.overlap),
        detrend="constant",
        axis=-1,
    )


@dataclass(frozen=True, eq=False)
class CorrelationSummary:
    """Per-pair mean and SD of Pearson coefficients across subjects.

    ``excluded`` counts, per cell, subjects whose pair was degenerate
    (constant input) and therefore left out of the aggregation. The
    diagonal is exactly 1 +/- 0 by convention.
    """

    labels: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    domain: Domain
    n_subjects: int
    excluded: np.ndarray

    def __post_init__(self):
        for name in ("mean", "sd", "excluded"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _nanmean(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean over equal-shaped arrays ignoring NaNs; all-NaN cells stay NaN."""
    stacked = np.stack(rows)
    mask = np.isfinite(stacked)
    counts = mask.sum(axis=0)
    sums = np.where(mask, stacked, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def subject_correlation(
    signals: Mapping[str, ActivitySignal],
    labels: Sequence[str],
    domain: Domain = Domain.TIME,
    psd_params: Optional[PsdParams] = None,
) -> np.ndarray:
    """One subject's Pearson matrix over ``labels``, NaN where a row is constant.

    The rows are the signals themselves in the time domain and their Welch
    PSDs, from one stacked call, in the frequency domain. The signals must
    carry exactly ``labels``, all of one length.
    """
    if set(signals) != set(labels):
        raise LabelMismatch(
            f"signals {sorted(signals)} do not match the labels {sorted(labels)}"
        )
    rows = [signals[label].values for label in labels]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise LabelMismatch(f"signals of one subject differ in length: {sorted(lengths)}")
    rows = np.asarray(rows, dtype=float)
    if domain is Domain.FREQUENCY:
        rows = psd(rows, signals[labels[0]].epoch_length_s, psd_params)[1]
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    valid = norms > 0.0
    safe = np.where(valid, norms, 1.0)
    unit = centered / safe[:, None]
    r = np.clip(unit @ unit.T, -1.0, 1.0)
    return np.where(np.outer(valid, valid), r, np.nan)


def correlation_matrix(
    per_subject: Sequence[np.ndarray],
    domain: Domain,
    labels: Sequence[str],
) -> CorrelationSummary:
    """Mean and SD across subjects of their :func:`subject_correlation` matrices.

    The matrices are taken in the order given. A NaN cell (a degenerate
    pair) leaves that subject out of the cell's mean and SD and is counted
    in ``excluded``.
    """
    if not per_subject:
        raise ValueError("need at least one subject")
    mean = _nanmean(per_subject)
    if mean.shape != (len(labels), len(labels)):
        raise ValueError(f"matrices of shape {mean.shape} do not fit {len(labels)} labels")
    sd = np.sqrt(np.maximum(_nanmean([r * r for r in per_subject]) - mean * mean, 0.0))
    excluded = np.isnan(np.stack(per_subject)).sum(axis=0)

    mean = (mean + mean.T) / 2.0
    sd = (sd + sd.T) / 2.0
    np.fill_diagonal(mean, 1.0)
    np.fill_diagonal(sd, 0.0)
    np.fill_diagonal(excluded, 0)
    return CorrelationSummary(
        labels=tuple(labels),
        mean=mean,
        sd=sd,
        domain=domain,
        n_subjects=len(per_subject),
        excluded=excluded,
    )


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Correlation against references on an ascending threshold grid.

    One subject's part (:func:`subject_sweep`) holds the full grid, the
    epoch-mean activity per grid point in ``mean_activity``, its adaptive
    threshold in ``sd_marker`` and, in the ``sd_anchor_*`` scalars, the
    correlations of the activity at that threshold against the references
    (NaN where degenerate). The reduce (:func:`threshold_sweep`) holds the
    means over its parts, on the grid cut where the activity fades.
    """

    metric: MetricId
    kind: DatasetKind
    thresholds: np.ndarray
    r_vs_enmo: np.ndarray
    r_vs_hfen: np.ndarray
    r_vs_sd_anchored: np.ndarray
    mean_activity: np.ndarray
    sd_marker: float
    sd_anchor_r_vs_enmo: float
    sd_anchor_r_vs_hfen: float


def _level_values(metric: MetricId, mat: np.ndarray, threshold: float, ts: float):
    if metric is MetricId.ZCM:
        return zcm_values(mat, threshold).astype(float)
    return tat_values(mat, threshold, ts)


def subject_sweep(
    metric: MetricId,
    kind: DatasetKind,
    datasets: Mapping[DatasetKind, PreprocessedSeries],
    te_s: float = 60.0,
    *,
    references: Optional[tuple[np.ndarray, np.ndarray]] = None,
    step_g: float = 0.05,
    max_steps: int = 200,
) -> SweepCurve:
    """One subject's part of a sweep, from its already-preprocessed datasets.

    The grid starts at 1 g for UFM (which still carries gravity) and at
    0 g otherwise, ascending in ``step_g`` increments, ``max_steps`` points.
    ``references`` is the subject's (ENMO, HFEN) per-epoch values, such as
    its catalog's ``ENMO`` and ``HFEN`` signals; when None they are computed
    from ``datasets``' UFM and HFEN_SPECIAL series, which then must be
    there. The self-reference curve correlates each grid point against the
    activity at the grid point nearest the subject's adaptive SD threshold.
    """
    if metric not in (MetricId.ZCM, MetricId.TAT):
        raise ValueError("threshold sweeps are defined for ZCM and TAT only")
    require_applicable(metric, kind)
    grid = (1.0 if kind is DatasetKind.UFM else 0.0) + step_g * np.arange(max_steps)
    series = datasets[kind]
    n = epoch_sample_count(te_s, series.sample_rate_hz)
    mat = epoch_matrix(series.values, n)
    if mat.shape[0] < 2:
        raise SignalTooShort(
            f"a threshold sweep needs at least 2 epochs, got {mat.shape[0]}"
        )
    ts = series.ts
    if references is None:
        references = (
            enmo_values(epoch_matrix(datasets[DatasetKind.UFM].values, n)),
            hfen_values(epoch_matrix(datasets[DatasetKind.HFEN_SPECIAL].values, n)),
        )
    ref_enmo, ref_hfen = references

    sd_thr = sd_threshold(series)
    anchor_idx = int(np.clip(round((sd_thr - grid[0]) / step_g), 0, max_steps - 1))

    # beyond the series maximum both metrics are exactly zero, so only the
    # rows up to it are computed; a zero row is constant and its r stays NaN
    vmax = float(series.values.max())
    rows = next((i for i, thr in enumerate(grid) if thr > vmax), grid.size)
    activities = np.zeros((grid.size, mat.shape[0]))
    for i in range(rows):
        activities[i] = _level_values(metric, mat, grid[i], ts)
    sd_activity = _level_values(metric, mat, sd_thr, ts)

    def _r_curve(reference: np.ndarray) -> np.ndarray:
        out = np.full(grid.size, np.nan)
        for i in range(rows):
            try:
                out[i] = pearson(activities[i], reference)
            except DegenerateInput:
                pass
        return out

    def _r_scalar(reference: np.ndarray) -> float:
        try:
            return pearson(sd_activity, reference)
        except DegenerateInput:
            return np.nan

    return SweepCurve(
        metric=metric,
        kind=kind,
        thresholds=grid,
        r_vs_enmo=_r_curve(ref_enmo),
        r_vs_hfen=_r_curve(ref_hfen),
        r_vs_sd_anchored=_r_curve(activities[anchor_idx]),
        mean_activity=activities.mean(axis=1),
        sd_marker=sd_thr,
        sd_anchor_r_vs_enmo=_r_scalar(ref_enmo),
        sd_anchor_r_vs_hfen=_r_scalar(ref_hfen),
    )


def recording_sweep(
    metric: MetricId,
    kind: DatasetKind,
    rec: RawRecording,
    te_s: float = 60.0,
    *,
    bandpass: Bandpass = Bandpass(),
    hfen_spec: Highpass = Highpass(),
    zero_phase: bool = False,
    references: Optional[tuple[np.ndarray, np.ndarray]] = None,
    step_g: float = 0.05,
    max_steps: int = 200,
) -> SweepCurve:
    """One recording's part of a threshold sweep.

    The recording is preprocessed into only the kinds the sweep reads, with
    filters designed at its own sample rate, then run through
    :func:`subject_sweep`. Given ``references`` (the subject's ENMO and HFEN
    values, as the pipeline takes them from its catalog) that is the swept
    kind alone, so a UFM sweep runs no filter; without them it is also UFM
    for the ENMO reference and HFEN_SPECIAL for the HFEN reference.
    """
    kinds = (kind,)
    if references is None:
        kinds += (DatasetKind.UFM, DatasetKind.HFEN_SPECIAL)
    datasets = preprocess_all(rec, bandpass, hfen_spec, zero_phase, kinds=kinds)
    return subject_sweep(metric, kind, datasets, te_s, references=references,
                         step_g=step_g, max_steps=max_steps)


def threshold_sweep(parts: Sequence[SweepCurve]) -> SweepCurve:
    """Average one-subject sweeps into one curve, in the order given.

    Metric, kind and grid are the parts' own, and ValueError is raised
    unless every part has the same three. The grid is cut once the
    subject-mean activity falls below 1% of its maximum; the SD marker is
    the mean of the subjects' adaptive thresholds.
    """
    if not parts:
        raise ValueError("need at least one recording")
    first = parts[0]

    def described(part: SweepCurve) -> str:
        return (f"{part.metric.value} {part.kind.value} on "
                f"{np.array2string(part.thresholds, threshold=6, edgeitems=2)}")

    for part in parts:
        if (part.metric is not first.metric or part.kind is not first.kind
                or not np.array_equal(part.thresholds, first.thresholds)):
            raise ValueError(f"sweep parts differ: {described(part)} vs {described(first)}")
    mean_activity = _nanmean([p.mean_activity for p in parts])
    peak = float(mean_activity.max())
    cut = mean_activity.size
    if peak > 0:
        below = np.nonzero(mean_activity < 0.01 * peak)[0]
        if below.size:
            cut = int(below[0]) + 1

    keep = slice(0, cut)
    return SweepCurve(
        metric=first.metric,
        kind=first.kind,
        thresholds=first.thresholds[keep],
        r_vs_enmo=_nanmean([p.r_vs_enmo for p in parts])[keep],
        r_vs_hfen=_nanmean([p.r_vs_hfen for p in parts])[keep],
        r_vs_sd_anchored=_nanmean([p.r_vs_sd_anchored for p in parts])[keep],
        mean_activity=mean_activity[keep],
        sd_marker=float(np.mean([p.sd_marker for p in parts])),
        sd_anchor_r_vs_enmo=float(_nanmean([p.sd_anchor_r_vs_enmo for p in parts])),
        sd_anchor_r_vs_hfen=float(_nanmean([p.sd_anchor_r_vs_hfen for p in parts])),
    )
