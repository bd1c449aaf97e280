"""The seven activity metrics, their correction rules, and thresholds.

Each metric maps one epoch of (preprocessed) acceleration to a scalar:

- PIM: epoch integral of the signal (Riemann sum or Simpson 3/8), g*s
- ZCM: number of threshold crossings, count
- TAT: time spent strictly above a threshold, s
- MAD: mean absolute deviation from the epoch mean, g
- ENMO: mean positive part of (magnitude - 1 g), g
- HFEN: mean of the high-pass-filtered magnitude, g
- AI: sqrt of the noise-corrected mean per-axis variance, g

Each ``*_values`` kernel runs its metric over an epoch matrix (one row
per epoch), in cache-sized blocks of rows; a single epoch is a one-row
matrix.

Not every metric applies to every dataset kind. One table (metric × dataset
kind) holds which cells are direct, which need a correction, and why the
rest are rejected; :func:`applicability` looks a cell up,
:func:`require_applicable` raises :class:`~actimetrics.errors.InapplicableMetric`
for a rejected one, and :func:`applicable_kinds` lists a metric's legal
kinds in the table's column order, from which the variant catalog is built.
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
    PreprocessedSeries,
    RawRecording,
    check_fields,
)
from .errors import (
    ConfigError,
    EmptySeries,
    InapplicableMetric,
    RecordingTooShort,
    SeriesMismatch,
)


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


THRESHOLD_METRICS = (MetricId.ZCM, MetricId.TAT)
DEFAULT_NOISE_WINDOW_S = 60.0  # of the AI noise-variance estimate


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
    fixed_g: Optional[float] = None

    def __post_init__(self):
        check_fields(self, "threshold")
        if self.mode not in ("adaptive_sd", "fixed"):
            raise ConfigError(f"threshold: unknown threshold mode: {self.mode}")
        if self.mode == "fixed":
            if self.fixed_g is None or self.fixed_g < 0:
                raise ConfigError("threshold: fixed threshold needs a finite fixed_g >= 0")
        elif self.fixed_g is not None:
            raise ConfigError("threshold: adaptive_sd takes no fixed value")

    @classmethod
    def adaptive(cls) -> "ThresholdPolicy":
        return cls("adaptive_sd")

    @classmethod
    def fixed(cls, value: float) -> "ThresholdPolicy":
        return cls("fixed", value)

    def resolve(self, series: PreprocessedSeries, *, squared: bool = False) -> float:
        """The threshold for ``series``, or for its square if ``squared``."""
        if self.mode == "fixed":
            return float(self.fixed_g)
        return sd_threshold(series, squared=squared)


@dataclass(frozen=True)
class NoiseVarianceEstimate:
    """Baseline (device-at-rest) noise variance in g^2, summed over axes."""

    sigma_bar_sq: float
    window_length_s: float
    source_window_index: int

    def __post_init__(self):
        if self.sigma_bar_sq < 0:
            raise ValueError("sigma_bar_sq must be >= 0")


# Elements of one leaf of the SD's summation tree (1 MiB of float64): at
# least NumPy's own pairwise block of 128, and any size from there gives
# the same tree.
_SD_LEAF = 1 << 17


def _pairwise(values: np.ndarray, leaf_sum) -> float:
    """``leaf_sum`` over the leaves of NumPy's pairwise-summation tree of ``values``, summed.

    A node of more than ``_SD_LEAF`` elements splits where NumPy's
    ``pairwise_sum`` does, at ``n // 2`` rounded down to a multiple of 8;
    a leaf is left to ``leaf_sum``, which must sum its (transformed)
    block with NumPy. The tree below a node depends on its length alone,
    so this is ``np.add.reduce`` of the transformed whole, bit for bit.
    """
    n = values.size
    if n <= _SD_LEAF:
        return leaf_sum(values)
    half = n // 2 - n // 2 % 8
    return _pairwise(values[:half], leaf_sum) + _pairwise(values[half:], leaf_sum)


def sd_threshold(series: PreprocessedSeries, *, squared: bool = False) -> float:
    """Population SD of the whole series, or of its square; +1 g for UFM.

    One threshold per (subject, dataset): epochs computed from the same
    series all share it. It is a whole-series pass, so callers get it once
    per series: the catalog memoizes it per (dataset, squared input,
    policy) for one subject's datasets (see ``combine.compute_activity``).

    The SD takes ``ndarray.std``'s own NumPy steps (sum, divide, subtract,
    square, sum, divide, sqrt), each sum along NumPy's own summation tree
    (:func:`_pairwise`), so it is ``float(values.std())``, or
    ``float((values ** 2).std())`` when ``squared``, bit for bit. It makes
    no full-length temporary: each leaf of the tree (1 MiB) is squared
    and centred on its own.
    """
    n = series.n_samples
    if n == 0:
        raise EmptySeries("cannot take the SD of an empty series")

    # one leaf-sized scratch block for every leaf: a fresh one per leaf can
    # cost more in page faults than the arithmetic
    scratch = np.empty(min(n, _SD_LEAF))

    def leaf(block: np.ndarray) -> np.ndarray:
        return np.multiply(block, block, out=scratch[: block.size]) if squared else block

    mean = _pairwise(series.values, lambda block: np.add.reduce(leaf(block))) / n

    def squared_deviations(block: np.ndarray) -> float:
        deviations = np.subtract(leaf(block), mean, out=scratch[: block.size])
        return np.add.reduce(np.square(deviations, out=deviations))

    variance = _pairwise(series.values, squared_deviations) / n
    sd = float(np.sqrt(variance))
    if series.kind is DatasetKind.UFM:
        sd += 1.0
    return sd


# ---------------------------------------------------------------------------
# applicability matrix

_RAW_AXIS_PIM = (
    "the unknown orientation-dependent share of gravity on a single raw "
    "axis integrates into uncorrectable plateaus"
)
_RAW_AXIS_LEVEL = (
    "no threshold can be placed relative to the unknown "
    "orientation-dependent gravity level of a raw axis"
)
_ENMO_UFM_ONLY = (
    "ENMO subtracts gravity itself, so it needs magnitudes that still "
    "contain the 1 g offset (UFM only)"
)
_HFEN_OWN = "HFEN is defined on its dedicated high-pass preprocessed magnitude"
_AI_TRIPLE = "AI needs the three axial signals separately"
_HFEN_RESERVED = "the high-pass magnitude dataset is reserved for the HFEN metric"

# The column order of the table, which is also the catalog's kind order.
_TABLE_KINDS = (
    DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPRE, DatasetKind.FMPOST,
    *UNFILTERED_AXES, *FILTERED_AXES, DatasetKind.HFEN_SPECIAL,
)

_D, _C = Applicability.DIRECT, Applicability.CORRECTED

# One row per metric, one cell per kind of _TABLE_KINDS (UFM, UFNM, FMpre,
# FMpost, UFX, UFY, UFZ, FX, FY, FZ, HFEN_SPECIAL): DIRECT, CORRECTED, or
# the reason the metric cannot run on that kind.
_ROWS = {
    MetricId.PIM: (_C, _D, _D, _C, *[_RAW_AXIS_PIM] * 3, _C, _C, _C, _HFEN_RESERVED),
    MetricId.ZCM: (_D, _D, _D, _D, *[_RAW_AXIS_LEVEL] * 3, _D, _D, _D, _HFEN_RESERVED),
    MetricId.TAT: (_D, _D, _D, _D, *[_RAW_AXIS_LEVEL] * 3, _D, _D, _D, _HFEN_RESERVED),
    MetricId.MAD: (_D, _D, _D, _D, _D, _D, _D, _D, _D, _D, _HFEN_RESERVED),
    MetricId.ENMO: (_D, *[_ENMO_UFM_ONLY] * 9, _HFEN_RESERVED),
    MetricId.HFEN: (*[_HFEN_OWN] * 10, _D),
    MetricId.AI: (*[_AI_TRIPLE] * 10, _HFEN_RESERVED),
}

_TABLE: dict[tuple[MetricId, DatasetKind], tuple[Applicability, str]] = {
    (metric, kind): (cell, "") if isinstance(cell, Applicability)
    else (Applicability.INAPPLICABLE, cell)
    for metric, row in _ROWS.items()
    for kind, cell in zip(_TABLE_KINDS, row, strict=True)
}


def applicability(metric: MetricId, kind: DatasetKind) -> tuple[Applicability, str]:
    """Whether ``metric`` may run on a series of ``kind``, and why not if not.

    Covers single-series kinds only; AI runs on an axis triple and is
    handled by the variant layer.
    """
    return _TABLE[(metric, kind)]


def require_applicable(metric: MetricId, kind: DatasetKind) -> Applicability:
    """The table's mode for ``metric`` on ``kind``; raises if it has none.

    The one place that turns an inapplicable cell into
    :class:`~actimetrics.errors.InapplicableMetric`, with the cell's reason.
    """
    mode, reason = _TABLE[(metric, kind)]
    if mode is Applicability.INAPPLICABLE:
        raise InapplicableMetric(f"{metric}({kind}): {reason}")
    return mode


def require_sweepable(metric: MetricId, kind: DatasetKind) -> None:
    """Raise unless ``metric`` is ZCM or TAT (ValueError) and legal on ``kind``."""
    if metric not in THRESHOLD_METRICS:
        raise ValueError("threshold sweeps are defined for ZCM and TAT only")
    require_applicable(metric, kind)


def applicable_kinds(metric: MetricId) -> tuple[DatasetKind, ...]:
    """The kinds ``metric`` may run on, in the table's column order."""
    return tuple(
        kind for kind in _TABLE_KINDS
        if _TABLE[(metric, kind)][0] is not Applicability.INAPPLICABLE
    )


# The metrics applied per axis: those legal on every filtered axis.
AXIAL_METRICS = tuple(
    metric for metric in MetricId if set(FILTERED_AXES) <= set(applicable_kinds(metric))
)


# ---------------------------------------------------------------------------
# kernels over epoch matrices (one row per epoch)


def _as_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("expected an (epochs, n) matrix with n >= 2")
    return arr


# Byte budget of one row block. A block and the temporaries a kernel makes
# from it (about 1 MiB each) stay in the CPU cache, where the same
# temporaries of a whole recording (48 MB per array for a week at 10 Hz)
# stream through main memory, and are page-faulted in afresh, once per
# numpy operation.
_BLOCK_BYTES = 1 << 20


def _by_row_blocks(kernel, *mats: np.ndarray, squared: bool = False) -> np.ndarray:
    """``kernel(*blocks)`` over consecutive row blocks of ``mats``, joined.

    A block holds about ``_BLOCK_BYTES`` of float64 rows, so the row count
    is that budget over 8 bytes times the samples per row. Every row is
    reduced exactly as on the whole matrix; the kernel must be row-wise.
    ``squared`` hands the kernel ``b * b`` (bitwise ``values ** 2``) for
    each block ``b``, written into one scratch block per input that the
    kernel may overwrite. A matrix without rows makes one empty block.
    """
    m, n = mats[0].shape
    rows = max(1, _BLOCK_BYTES // (8 * n))
    # one scratch block reused for every block: a fresh one per block can
    # cost more in page faults than the squaring itself
    scratch = [np.empty((min(rows, m), n)) for _ in mats] if squared else None
    parts = []
    for lo in range(0, max(m, 1), rows):
        blocks = [mat[lo : lo + rows] for mat in mats]
        if squared:
            blocks = [np.multiply(b, b, out=s[: len(b)]) for b, s in zip(blocks, scratch)]
        parts.append(kernel(*blocks))
    return np.concatenate(parts)


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
    """Numerical integral per epoch, in g*s (no corrections).

    Both rules sum each row on its own (numpy's pairwise sum), so a row's
    integral does not depend on how many rows share the call.
    """
    mat = _as_matrix(mat)
    if method is IntegrationMethod.RIEMANN_SUM:
        return ts * mat.sum(axis=1)
    if method is IntegrationMethod.SIMPSON38:
        return ts * (mat * _simpson38_weights(mat.shape[1])).sum(axis=1)
    raise ValueError(f"unknown integration method {method}")


def pim_corrected_values(
    mat,
    ts: float,
    kind: DatasetKind,
    method: IntegrationMethod = IntegrationMethod.RIEMANN_SUM,
    *,
    squared: bool = False,
) -> np.ndarray:
    """PIM with the per-kind correction, always >= 0.

    UFNM and FMpre integrate directly. Filtered axes and FMpost oscillate
    around 0 g, so their absolute values are integrated. UFM still carries
    gravity: the integral of a constant 1 g over the epoch is subtracted
    and the absolute difference taken. Raw axes are rejected. ``squared``
    integrates the elementwise square of ``mat`` instead.
    """
    mat = _as_matrix(mat)
    if require_applicable(MetricId.PIM, kind) is Applicability.DIRECT:
        def kernel(b):
            return pim_values(b, ts, method)
    elif kind is DatasetKind.UFM:
        gravity = float(pim_values(np.ones((1, mat.shape[1])), ts, method)[0])

        def kernel(b):
            return np.abs(pim_values(b, ts, method) - gravity)
    else:
        def kernel(b):
            # a squared block is already a temporary of our own
            return pim_values(np.abs(b, out=b if squared else None), ts, method)
    return _by_row_blocks(kernel, mat, squared=squared)


def zcm_values(mat, threshold: float, *, squared: bool = False) -> np.ndarray:
    """Crossing count of (x - threshold) per epoch.

    Strict sign changes only: samples exactly on the threshold take no
    side, and a crossing is counted when the next strictly-off-threshold
    sample lands on the opposite side of the most recent one.

    A row whose samples all lie strictly above or below the threshold
    counts the changes of ``x > threshold`` between neighbours. Only rows
    holding a sample that is neither above nor below it (exactly on the
    threshold, or NaN) go through the carry-forward fill, which gives each
    on-threshold sample the side of the last off-threshold sample before
    it. ``squared`` counts the crossings of the elementwise square of
    ``mat``.
    """
    return _by_row_blocks(
        lambda b: _zcm_block(b, threshold), _as_matrix(mat), squared=squared
    )


def _zcm_block(mat: np.ndarray, threshold: float) -> np.ndarray:
    above = mat > threshold
    # summing booleans into int32 skips numpy's slow bool-to-intp loop; int32
    # because an epoch may hold more than 65,535 samples. Counts are intp.
    changes = (above[:, 1:] != above[:, :-1]).sum(axis=1, dtype=np.int32)
    counts = changes.astype(np.intp)
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


def tat_values(mat, threshold: float, ts: float, *, squared: bool = False) -> np.ndarray:
    """Time per epoch with samples strictly above the threshold, in s.

    ``squared`` measures the elementwise square of ``mat`` instead.
    """
    return _by_row_blocks(
        lambda b: ts * (b > threshold).sum(axis=1, dtype=np.int32),
        _as_matrix(mat),
        squared=squared,
    )


def mad_values(mat, *, squared: bool = False) -> np.ndarray:
    """Mean absolute deviation from the epoch mean, per epoch.

    ``squared`` takes it of the elementwise square of ``mat`` instead.
    """
    # a squared block is scratch of our own, so it is centered in place
    kernel = (lambda b: _mad_block(b, out=b)) if squared else _mad_block
    return _by_row_blocks(kernel, _as_matrix(mat), squared=squared)


def _mad_block(mat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    centered = np.subtract(mat, mat.mean(axis=1, keepdims=True), out=out)
    return np.abs(centered, out=centered).mean(axis=1)


def enmo_values(mat) -> np.ndarray:
    """Mean positive part of (x - 1 g), per epoch."""
    return _by_row_blocks(_enmo_block, _as_matrix(mat))


def _enmo_block(mat: np.ndarray) -> np.ndarray:
    excess = mat - 1.0
    return np.maximum(excess, 0.0, out=excess).mean(axis=1)


def hfen_values(mat) -> np.ndarray:
    """Mean of the (already high-pass-filtered) magnitudes, per epoch."""
    mat = _as_matrix(mat)
    return mat.mean(axis=1)


def _summed_variance(mx: np.ndarray, my: np.ndarray, mz: np.ndarray) -> np.ndarray:
    """Per-row variance of x, plus that of y, plus that of z."""
    return mx.var(axis=1) + my.var(axis=1) + mz.var(axis=1)


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
    var_sum = _by_row_blocks(_summed_variance, mx, my, mz)
    noise = 3.0 * sigma_bar_sq if subtract_per_axis else sigma_bar_sq
    return np.sqrt(np.maximum((var_sum - noise) / 3.0, 0.0))


def noise_window_samples(window_s: float, sample_rate_hz: float) -> int:
    """Samples per AI noise window at a rate; ConfigError below 2."""
    w = int(round(window_s * sample_rate_hz))
    if w < 2:
        raise ConfigError(f"ai.noise_window_s={window_s} s at {sample_rate_hz} Hz "
                          f"gives {w} samples per window (need >= 2)")
    return w


def estimate_noise_variance(
    rec: RawRecording, window_s: float = DEFAULT_NOISE_WINDOW_S
) -> NoiseVarianceEstimate:
    """Systematic noise variance from the stillest window of the raw axes.

    Slides non-overlapping windows over the recording, sums the three
    per-axis variances in each, and returns the smallest sum together with
    the winning window's index. A deterministic proxy for "sections where
    the device did not move".
    """
    w = noise_window_samples(window_s, rec.sample_rate_hz)
    n = min(rec.x.size, rec.y.size, rec.z.size)
    if n < w:
        raise RecordingTooShort(
            f"recording of {n} samples is shorter than one {window_s} s window"
        )
    k = n // w
    total = _by_row_blocks(
        _summed_variance, *(axis[: k * w].reshape(k, w) for axis in (rec.x, rec.y, rec.z))
    )
    i = int(np.argmin(total))
    return NoiseVarianceEstimate(float(total[i]), window_s, i)
