"""The seven activity metrics, their correction rules, and thresholds.

Each metric maps one epoch of (preprocessed) acceleration to a scalar:

- PIM: epoch integral of the signal (Riemann sum or Simpson 3/8), g*s
- ZCM: number of threshold crossings, count
- TAT: time spent strictly above a threshold, s
- MAD: mean absolute deviation from the epoch mean, g
- ENMO: mean positive part of (magnitude - 1 g), g
- HFEN: mean of the high-pass-filtered magnitude, g
- AI: sqrt of the noise-corrected mean per-axis variance, g

Per-epoch operations accept an :class:`~actimetrics.core.Epoch`; the
``*_values`` variants run the same computation over an epoch matrix (one
row per epoch) and are the batch fast path. Both share kernels, so they
agree exactly.

Not every metric applies to every dataset kind; :func:`applicability`
encodes which cells are direct, which need a correction, and why the rest
are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    FILTERED_AXES,
    UNFILTERED_AXES,
    DatasetKind,
    Epoch,
    PreprocessedSeries,
    RawRecording,
)
from .errors import EmptySeries, InapplicableMetric, RecordingTooShort, SeriesMismatch


class MetricId(Enum):
    PIM = "PIM"
    ZCM = "ZCM"
    TAT = "TAT"
    MAD = "MAD"
    ENMO = "ENMO"
    HFEN = "HFEN"
    AI = "AI"

    def __str__(self) -> str:
        return self.value


AXIAL_METRICS = (MetricId.PIM, MetricId.ZCM, MetricId.TAT, MetricId.MAD)
THRESHOLD_METRICS = (MetricId.ZCM, MetricId.TAT)


class IntegrationMethod(Enum):
    RIEMANN_SUM = "riemann"
    SIMPSON38 = "simpson38"


class Applicability(Enum):
    DIRECT = "directly applicable"
    CORRECTED = "applicable if corrected"
    INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the ZCM/TAT threshold is chosen for a dataset.

    ``adaptive_sd`` resolves to the standard deviation of the whole input
    series (plus 1 g for UFM, which still carries gravity); ``fixed`` uses
    the given value in g as-is.
    """

    mode: str = "adaptive_sd"
    fixed_value: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("adaptive_sd", "fixed"):
            raise ValueError(f"unknown threshold mode: {self.mode}")
        if self.mode == "fixed":
            if self.fixed_value is None or self.fixed_value < 0:
                raise ValueError("fixed threshold needs a value >= 0")
        elif self.fixed_value is not None:
            raise ValueError("adaptive_sd takes no fixed value")

    @classmethod
    def adaptive(cls) -> "ThresholdPolicy":
        return cls("adaptive_sd")

    @classmethod
    def fixed(cls, value: float) -> "ThresholdPolicy":
        return cls("fixed", value)

    def resolve(self, series: PreprocessedSeries) -> float:
        if self.mode == "fixed":
            return float(self.fixed_value)
        return sd_threshold(series)


@dataclass(frozen=True)
class NoiseVarianceEstimate:
    """Baseline (device-at-rest) noise variance in g^2, summed over axes."""

    sigma_bar_sq: float
    window_length_s: float
    source_window_index: int

    def __post_init__(self):
        if self.sigma_bar_sq < 0:
            raise ValueError("sigma_bar_sq must be >= 0")


def sd_threshold(series: PreprocessedSeries) -> float:
    """Population SD of the whole series; +1 g for UFM.

    One threshold per (subject, dataset): epochs computed from the same
    series all share it.
    """
    if series.n_samples == 0:
        raise EmptySeries("cannot take the SD of an empty series")
    sd = float(series.values.std())
    if series.kind is DatasetKind.UFM:
        sd += 1.0
    return sd


# ---------------------------------------------------------------------------
# applicability matrix

_INAPPLICABLE_REASONS = {
    (MetricId.PIM, "uf_axis"): (
        "the unknown orientation-dependent share of gravity on a single raw "
        "axis integrates into uncorrectable plateaus"
    ),
    (MetricId.ZCM, "uf_axis"): (
        "no threshold can be placed relative to the unknown "
        "orientation-dependent gravity level of a raw axis"
    ),
    (MetricId.TAT, "uf_axis"): (
        "no threshold can be placed relative to the unknown "
        "orientation-dependent gravity level of a raw axis"
    ),
    (MetricId.ENMO, "other"): (
        "ENMO subtracts gravity itself, so it needs magnitudes that still "
        "contain the 1 g offset (UFM only)"
    ),
    (MetricId.HFEN, "other"): (
        "HFEN is defined on its dedicated high-pass preprocessed magnitude"
    ),
    (MetricId.AI, "magnitude"): "AI needs the three axial signals separately",
    ("any", "hfen_special"): (
        "the high-pass magnitude dataset is reserved for the HFEN metric"
    ),
}


def applicability(metric: MetricId, kind: DatasetKind) -> tuple[Applicability, str]:
    """Whether ``metric`` may run on a series of ``kind``, and why not if not.

    Covers single-series kinds only; AI runs on an axis triple and is
    handled by the variant layer.
    """
    if kind is DatasetKind.HFEN_SPECIAL:
        if metric is MetricId.HFEN:
            return Applicability.DIRECT, ""
        return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[("any", "hfen_special")]

    if metric is MetricId.PIM:
        if kind in UNFILTERED_AXES:
            return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[(metric, "uf_axis")]
        if kind in (DatasetKind.UFNM, DatasetKind.FMPRE):
            return Applicability.DIRECT, ""
        return Applicability.CORRECTED, ""
    if metric in (MetricId.ZCM, MetricId.TAT):
        if kind in UNFILTERED_AXES:
            return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[(metric, "uf_axis")]
        return Applicability.DIRECT, ""
    if metric is MetricId.MAD:
        return Applicability.DIRECT, ""
    if metric is MetricId.ENMO:
        if kind is DatasetKind.UFM:
            return Applicability.DIRECT, ""
        return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[(metric, "other")]
    if metric is MetricId.HFEN:
        return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[(metric, "other")]
    if metric is MetricId.AI:
        return Applicability.INAPPLICABLE, _INAPPLICABLE_REASONS[(metric, "magnitude")]
    raise ValueError(f"unknown metric {metric}")


# ---------------------------------------------------------------------------
# kernels over epoch matrices (one row per epoch)


def _as_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("expected an (epochs, n) matrix with n >= 2")
    return arr


@lru_cache(maxsize=64)
def _simpson38_weights(n: int) -> np.ndarray:
    # Composite 3/8 rule over the n-1 inter-sample intervals; the 1-2
    # leftover intervals get the trapezoid rule. Rescaled by n/(n-1) so the
    # covered span matches the Riemann sum's n*Ts and constants integrate
    # identically under both methods.
    w = np.zeros(n)
    groups = (n - 1) // 3
    pattern = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)
    for g in range(groups):
        i = 3 * g
        w[i : i + 4] += pattern
    for i in range(3 * groups, n - 1):
        w[i : i + 2] += 0.5
    w *= n / (n - 1.0)
    w.setflags(write=False)
    return w


def pim_values(
    mat, ts: float, method: IntegrationMethod = IntegrationMethod.RIEMANN_SUM
) -> np.ndarray:
    """Numerical integral per epoch, in g*s (no corrections)."""
    mat = _as_matrix(mat)
    if method is IntegrationMethod.RIEMANN_SUM:
        return ts * mat.sum(axis=1)
    if method is IntegrationMethod.SIMPSON38:
        return ts * (mat @ _simpson38_weights(mat.shape[1]))
    raise ValueError(f"unknown integration method {method}")


def pim_corrected_values(
    mat,
    ts: float,
    kind: DatasetKind,
    method: IntegrationMethod = IntegrationMethod.RIEMANN_SUM,
) -> np.ndarray:
    """PIM with the per-kind correction, always >= 0.

    UFNM and FMpre integrate directly. Filtered axes and FMpost oscillate
    around 0 g, so their absolute values are integrated. UFM still carries
    gravity: the integral of a constant 1 g over the epoch is subtracted
    and the absolute difference taken. Raw axes are rejected.
    """
    mat = _as_matrix(mat)
    mode, reason = applicability(MetricId.PIM, kind)
    if mode is Applicability.INAPPLICABLE:
        raise InapplicableMetric(f"PIM({kind}): {reason}")
    if kind in (DatasetKind.UFNM, DatasetKind.FMPRE):
        return pim_values(mat, ts, method)
    if kind in FILTERED_AXES or kind is DatasetKind.FMPOST:
        return pim_values(np.abs(mat), ts, method)
    if kind is DatasetKind.UFM:
        gravity = float(pim_values(np.ones((1, mat.shape[1])), ts, method)[0])
        return np.abs(pim_values(mat, ts, method) - gravity)
    raise InapplicableMetric(f"PIM({kind}): no correction rule")


def zcm_values(mat, threshold: float) -> np.ndarray:
    """Crossing count of (x - threshold) per epoch.

    Strict sign changes only: samples exactly on the threshold take no
    side, and a crossing is counted when the next strictly-off-threshold
    sample lands on the opposite side of the most recent one.

    A row whose samples all lie strictly above or below the threshold
    counts the changes of ``x > threshold`` between neighbours. Only rows
    holding a sample that is neither above nor below it (exactly on the
    threshold, or NaN) go through the carry-forward fill, which gives each
    on-threshold sample the side of the last off-threshold sample before
    it.
    """
    mat = _as_matrix(mat)
    above = mat > threshold
    counts = np.count_nonzero(above[:, 1:] != above[:, :-1], axis=1)
    on_threshold = ~(above | (mat < threshold)).all(axis=1)
    if on_threshold.any():
        counts[on_threshold] = _zcm_carry_forward(mat[on_threshold], threshold)
    return counts


def _zcm_carry_forward(mat: np.ndarray, threshold: float) -> np.ndarray:
    """Crossing counts with on-threshold samples filled by the preceding side."""
    m, n = mat.shape
    s = np.sign(mat - threshold)
    cols = np.arange(n)
    idx = np.where(s != 0.0, cols[None, :], -1)
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = np.where(
        idx >= 0, s[np.arange(m)[:, None], np.maximum(idx, 0)], 0.0
    )
    return ((filled[:, :-1] * filled[:, 1:]) == -1.0).sum(axis=1)


def tat_values(mat, threshold: float, ts: float) -> np.ndarray:
    """Time per epoch with samples strictly above the threshold, in s."""
    mat = _as_matrix(mat)
    return ts * (mat > threshold).sum(axis=1)


def mad_values(mat) -> np.ndarray:
    """Mean absolute deviation from the epoch mean, per epoch."""
    mat = _as_matrix(mat)
    centered = mat - mat.mean(axis=1, keepdims=True)
    return np.abs(centered).mean(axis=1)


def enmo_values(mat) -> np.ndarray:
    """Mean positive part of (x - 1 g), per epoch."""
    mat = _as_matrix(mat)
    return np.maximum(mat - 1.0, 0.0).mean(axis=1)


def hfen_values(mat) -> np.ndarray:
    """Mean of the (already high-pass-filtered) magnitudes, per epoch."""
    mat = _as_matrix(mat)
    return mat.mean(axis=1)


def ai_values(
    mat_x,
    mat_y,
    mat_z,
    sigma_bar_sq: float,
    subtract_per_axis: bool = False,
) -> np.ndarray:
    """sqrt(max((sum of per-axis variances - noise)/3, 0)) per epoch.

    By default the systematic noise variance is subtracted once from the
    summed variances; ``subtract_per_axis`` subtracts it from each axis
    instead (three times in total).
    """
    mx, my, mz = _as_matrix(mat_x), _as_matrix(mat_y), _as_matrix(mat_z)
    if not (mx.shape == my.shape == mz.shape):
        raise SeriesMismatch("axis epoch matrices differ in shape")
    var_sum = mx.var(axis=1) + my.var(axis=1) + mz.var(axis=1)
    noise = 3.0 * sigma_bar_sq if subtract_per_axis else sigma_bar_sq
    return np.sqrt(np.maximum((var_sum - noise) / 3.0, 0.0))


# ---------------------------------------------------------------------------
# per-epoch operations


def pim(
    epoch: Epoch, method: IntegrationMethod = IntegrationMethod.RIEMANN_SUM
) -> float:
    return float(pim_values(epoch.values[None, :], epoch.ts, method)[0])


def pim_corrected(
    epoch: Epoch,
    kind: DatasetKind,
    method: IntegrationMethod = IntegrationMethod.RIEMANN_SUM,
) -> float:
    return float(pim_corrected_values(epoch.values[None, :], epoch.ts, kind, method)[0])


def zcm(epoch: Epoch, threshold: float) -> int:
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return int(zcm_values(epoch.values[None, :], threshold)[0])


def tat(epoch: Epoch, threshold: float) -> float:
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    return float(tat_values(epoch.values[None, :], threshold, epoch.ts)[0])


def mad(epoch: Epoch) -> float:
    return float(mad_values(epoch.values[None, :])[0])


def enmo(epoch: Epoch) -> float:
    return float(enmo_values(epoch.values[None, :])[0])


def hfen(epoch: Epoch) -> float:
    return float(hfen_values(epoch.values[None, :])[0])


def ai(
    epoch_x: Epoch,
    epoch_y: Epoch,
    epoch_z: Epoch,
    noise: NoiseVarianceEstimate,
    subtract_per_axis: bool = False,
) -> float:
    if not (epoch_x.n == epoch_y.n == epoch_z.n):
        raise SeriesMismatch("axis epochs differ in length")
    return float(
        ai_values(
            epoch_x.values[None, :],
            epoch_y.values[None, :],
            epoch_z.values[None, :],
            noise.sigma_bar_sq,
            subtract_per_axis,
        )[0]
    )


def noise_variance_from_axes(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, sample_rate_hz: float, window_s: float
) -> NoiseVarianceEstimate:
    """Minimum over non-overlapping windows of the summed per-axis variance."""
    w = int(round(window_s * sample_rate_hz))
    if w < 2:
        raise ValueError(f"window of {window_s} s holds fewer than 2 samples")
    n = min(x.size, y.size, z.size)
    if n < w:
        raise RecordingTooShort(
            f"recording of {n} samples is shorter than one {window_s} s window"
        )
    k = n // w
    total = np.zeros(k)
    for axis in (x, y, z):
        total += axis[: k * w].reshape(k, w).var(axis=1)
    i = int(np.argmin(total))
    return NoiseVarianceEstimate(float(total[i]), window_s, i)


def estimate_noise_variance(
    rec: RawRecording, window_s: float = 60.0
) -> NoiseVarianceEstimate:
    """Systematic noise variance from the stillest window of the raw axes.

    Slides non-overlapping windows over the recording, sums the three
    per-axis variances in each, and returns the smallest sum together with
    the winning window's index. A deterministic proxy for "sections where
    the device did not move".
    """
    return noise_variance_from_axes(rec.x, rec.y, rec.z, rec.sample_rate_hz, window_s)
