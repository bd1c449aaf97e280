"""Correlation of activity signals in time and frequency domain.

Pairs of activity signals are compared per subject with Pearson's
coefficient (in the frequency domain, between their Welch power spectral
densities, estimated for all of a subject's signals in one stacked call),
then aggregated across subjects into mean and SD matrices.
Threshold sweeps trace how ZCM/TAT relate to reference metrics as their
threshold grows, with the dataset-SD threshold marked; each subject's part
is computed from its preprocessed datasets, then the parts are averaged.
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
    ordered_map,
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


def _signal_rows(
    signals: Mapping[str, ActivitySignal],
    labels: Sequence[str],
    domain: Domain,
    psd_params: Optional[PsdParams],
) -> np.ndarray:
    rows = [signals[label].values for label in labels]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise LabelMismatch(f"signals of one subject differ in length: {sorted(lengths)}")
    rows = np.asarray(rows, dtype=float)
    if domain is Domain.FREQUENCY:
        return psd(rows, signals[labels[0]].epoch_length_s, psd_params)[1]
    return rows


def _pairwise_r(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs Pearson matrix plus a validity mask (False where degenerate)."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    valid = norms > 0.0
    safe = np.where(valid, norms, 1.0)
    unit = centered / safe[:, None]
    r = np.clip(unit @ unit.T, -1.0, 1.0)
    mask = np.outer(valid, valid)
    return r, mask


def correlation_matrix(
    per_subject_signals: Mapping[str, Mapping[str, ActivitySignal]],
    domain: Domain = Domain.TIME,
    psd_params: Optional[PsdParams] = None,
) -> CorrelationSummary:
    """Correlate every signal with every other, aggregated across subjects.

    All subjects must carry the same label set; the label order of the
    first subject is kept. Each subject contributes one coefficient per
    pair; means and SDs are taken over subjects, skipping degenerate pairs.
    """
    if not per_subject_signals:
        raise ValueError("need at least one subject")
    subjects = sorted(per_subject_signals)
    labels = tuple(per_subject_signals[subjects[0]].keys())
    label_set = set(labels)
    for subject in subjects:
        if set(per_subject_signals[subject].keys()) != label_set:
            raise LabelMismatch(f"subject {subject} has a different label set")

    n = len(labels)
    r_sum = np.zeros((n, n))
    r_sq_sum = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=int)
    for subject in subjects:
        rows = _signal_rows(per_subject_signals[subject], labels, domain, psd_params)
        r, mask = _pairwise_r(rows)
        r_sum += np.where(mask, r, 0.0)
        r_sq_sum += np.where(mask, r * r, 0.0)
        counts += mask

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = r_sum / counts
        var = np.maximum(r_sq_sum / counts - mean * mean, 0.0)
    sd = np.sqrt(var)

    mean = (mean + mean.T) / 2.0
    sd = (sd + sd.T) / 2.0
    np.fill_diagonal(mean, 1.0)
    np.fill_diagonal(sd, 0.0)
    excluded = len(subjects) - counts
    np.fill_diagonal(excluded, 0)
    return CorrelationSummary(
        labels=labels,
        mean=mean,
        sd=sd,
        domain=domain,
        n_subjects=len(subjects),
        excluded=excluded,
    )


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Mean correlation against references on an ascending threshold grid.

    ``sd_marker`` is the subject-mean adaptive threshold for the swept
    dataset; the ``sd_anchor_*`` scalars are the mean correlations of the
    adaptively thresholded variant itself against the references.
    """

    metric: MetricId
    kind: DatasetKind
    thresholds: np.ndarray
    r_vs_enmo: np.ndarray
    r_vs_hfen: np.ndarray
    r_vs_sd_anchored: np.ndarray
    sd_marker: float
    sd_anchor_r_vs_enmo: float
    sd_anchor_r_vs_hfen: float


def _level_values(metric: MetricId, mat: np.ndarray, threshold: float, ts: float):
    if metric is MetricId.ZCM:
        return zcm_values(mat, threshold).astype(float)
    return tat_values(mat, threshold, ts)


def _nanmean(rows: list[np.ndarray]) -> np.ndarray:
    """Column means over stacked rows ignoring NaNs; all-NaN columns stay NaN."""
    stacked = np.vstack(rows)
    mask = np.isfinite(stacked)
    counts = mask.sum(axis=0)
    sums = np.where(mask, stacked, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def _nanmean_scalar(values) -> float:
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else float("nan")


def _sweep_grid(
    metric: MetricId, kind: DatasetKind, step_g: float, max_steps: int
) -> np.ndarray:
    """The ascending threshold grid of one sweep; rejects non-level metrics."""
    if metric not in (MetricId.ZCM, MetricId.TAT):
        raise ValueError("threshold sweeps are defined for ZCM and TAT only")
    require_applicable(metric, kind)
    start = 1.0 if kind is DatasetKind.UFM else 0.0
    return start + step_g * np.arange(max_steps)


@dataclass(frozen=True, eq=False)
class SubjectSweep:
    """One subject's share of a threshold sweep, before the reduce.

    Rows are indexed by grid point. ``mean_activity`` is the epoch-mean
    activity per grid point; ``sd_threshold`` is the subject's adaptive
    threshold and the ``anchor_*`` scalars correlate the activity at that
    threshold against the references (NaN where degenerate).
    """

    r_vs_enmo: np.ndarray
    r_vs_hfen: np.ndarray
    r_vs_sd_anchored: np.ndarray
    mean_activity: np.ndarray
    sd_threshold: float
    anchor_r_vs_enmo: float
    anchor_r_vs_hfen: float


def subject_sweep(
    metric: MetricId,
    kind: DatasetKind,
    datasets: Mapping[DatasetKind, PreprocessedSeries],
    te_s: float = 60.0,
    *,
    step_g: float = 0.05,
    max_steps: int = 200,
) -> SubjectSweep:
    """Evaluate one subject's already-preprocessed datasets on the sweep grid.

    The self-reference curve correlates each grid point against the
    activity at the grid point nearest the subject's adaptive SD threshold.
    """
    grid = _sweep_grid(metric, kind, step_g, max_steps)
    series = datasets[kind]
    n = epoch_sample_count(te_s, series.sample_rate_hz)
    mat = epoch_matrix(series.values, n)
    if mat.shape[0] < 2:
        raise SignalTooShort(
            f"a threshold sweep needs at least 2 epochs, got {mat.shape[0]}"
        )
    ts = series.ts
    ref_enmo = enmo_values(epoch_matrix(datasets[DatasetKind.UFM].values, n))
    ref_hfen = hfen_values(epoch_matrix(datasets[DatasetKind.HFEN_SPECIAL].values, n))

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

    return SubjectSweep(
        r_vs_enmo=_r_curve(ref_enmo),
        r_vs_hfen=_r_curve(ref_hfen),
        r_vs_sd_anchored=_r_curve(activities[anchor_idx]),
        mean_activity=activities.mean(axis=1),
        sd_threshold=sd_thr,
        anchor_r_vs_enmo=_r_scalar(ref_enmo),
        anchor_r_vs_hfen=_r_scalar(ref_hfen),
    )


def reduce_sweeps(
    metric: MetricId,
    kind: DatasetKind,
    parts: Sequence[SubjectSweep],
    *,
    step_g: float = 0.05,
    max_steps: int = 200,
) -> SweepCurve:
    """Average per-subject sweeps into one curve, in the order given.

    The grid is cut once the subject-mean activity falls below 1% of its
    maximum; the SD marker is the mean of the subjects' adaptive
    thresholds.
    """
    grid = _sweep_grid(metric, kind, step_g, max_steps)
    if not parts:
        raise ValueError("need at least one recording")
    mean_activity = _nanmean([p.mean_activity for p in parts])
    peak = float(mean_activity.max())
    cut = grid.size
    if peak > 0:
        below = np.nonzero(mean_activity < 0.01 * peak)[0]
        if below.size:
            cut = int(below[0]) + 1

    keep = slice(0, cut)
    return SweepCurve(
        metric=metric,
        kind=kind,
        thresholds=grid[keep],
        r_vs_enmo=_nanmean([p.r_vs_enmo for p in parts])[keep],
        r_vs_hfen=_nanmean([p.r_vs_hfen for p in parts])[keep],
        r_vs_sd_anchored=_nanmean([p.r_vs_sd_anchored for p in parts])[keep],
        sd_marker=float(np.mean([p.sd_threshold for p in parts])),
        sd_anchor_r_vs_enmo=_nanmean_scalar([p.anchor_r_vs_enmo for p in parts]),
        sd_anchor_r_vs_hfen=_nanmean_scalar([p.anchor_r_vs_hfen for p in parts]),
    )


def threshold_sweep(
    metric: MetricId,
    kind: DatasetKind,
    recordings: Sequence[RawRecording],
    te_s: float = 60.0,
    *,
    bandpass: Bandpass = Bandpass(),
    hfen_spec: Highpass = Highpass(),
    zero_phase: bool = False,
    step_g: float = 0.05,
    max_steps: int = 200,
    jobs: int = 1,
) -> SweepCurve:
    """Sweep the ZCM/TAT threshold and correlate against ENMO and HFEN.

    The grid starts at 1 g for UFM (which still carries gravity) and at
    0 g otherwise, ascending in ``step_g`` increments, capped at
    ``max_steps`` points. Each recording is preprocessed into only the
    kinds the sweep reads (the swept kind, UFM for the ENMO reference and
    HFEN_SPECIAL for the HFEN reference) and run through
    :func:`subject_sweep` in one step that keeps only its
    :class:`SubjectSweep`; with ``jobs`` > 1 those steps run on that many
    threads. :func:`reduce_sweeps` then averages the parts in the order
    given, so the curve is the same for any ``jobs``. The filters are
    designed at each recording's own sample rate, so a corpus may mix rates.
    """
    _sweep_grid(metric, kind, step_g, max_steps)  # reject before preprocessing

    def _part(rec: RawRecording) -> SubjectSweep:
        datasets = preprocess_all(
            rec, bandpass, hfen_spec, zero_phase,
            kinds=(kind, DatasetKind.UFM, DatasetKind.HFEN_SPECIAL),
        )
        return subject_sweep(metric, kind, datasets, te_s, step_g=step_g, max_steps=max_steps)

    parts = list(ordered_map(_part, recordings, jobs))
    return reduce_sweeps(metric, kind, parts, step_g=step_g, max_steps=max_steps)
