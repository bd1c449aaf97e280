"""Dataset generation: magnitudes, normalization, and Butterworth filtering.

Produces every dataset kind a metric can consume from one raw recording:
the raw axes pass through, the axes and the raw magnitude are bandpassed
(FXYZ, FMpost), FMpre is the magnitude of the filtered axes, UFNM is the
gravity-normalized magnitude, and the HFEN input gets its own high-pass
pipeline.

A filter is specified without a sample rate, as a :class:`Bandpass` or a
:class:`Highpass`, and :func:`design_filter` realizes it at the rate of the
recording it is applied to; a cutoff at or above that rate's Nyquist
frequency is rejected there.

Filtering is causal (forward-only, zero initial state) by default to mirror
what in-device processing can do; set ``zero_phase=True`` for
forward-backward filtering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import signal as spsignal

from .core import (
    FILTERED_AXES,
    UNFILTERED_AXES,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    as_float_array,
)
from .errors import InvalidCutoffs, SeriesMismatch, UnstableDesign


@dataclass(frozen=True)
class Bandpass:
    """Butterworth bandpass, applied to the axes and to the raw magnitude.

    ``order`` counts analog prototype poles; the realization carries twice
    that many. The cutoffs are checked against Nyquist when the filter is
    designed at a recording's rate.
    """

    order: int = 3
    f_low_hz: float = 0.25
    f_high_hz: float = 2.5

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < self.f_low_hz < self.f_high_hz:
            raise InvalidCutoffs(
                f"need 0 < f_low < f_high, got ({self.f_low_hz}, {self.f_high_hz})"
            )


@dataclass(frozen=True)
class Highpass:
    """Butterworth highpass applied per axis ahead of the HFEN magnitude."""

    order: int = 4
    cutoff_hz: float = 0.2

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not self.cutoff_hz > 0.0:
            raise InvalidCutoffs(f"need 0 < cutoff, got {self.cutoff_hz}")


@dataclass(frozen=True, eq=False)
class FilterRealization:
    """Cascade of second-order sections; state starts at zero each call."""

    spec: Union[Bandpass, Highpass]
    sample_rate_hz: float
    sos: np.ndarray

    def __post_init__(self):
        sos = np.ascontiguousarray(np.asarray(self.sos, dtype=float))
        sos.setflags(write=False)
        object.__setattr__(self, "sos", sos)

    def dc_gain(self) -> float:
        """|H| at z = 1."""
        b = self.sos[:, :3].sum(axis=1)
        a = self.sos[:, 3:].sum(axis=1)
        return float(abs(np.prod(b / a)))

    def poles(self) -> np.ndarray:
        return np.concatenate([np.roots(section[3:]) for section in self.sos])

    def max_pole_magnitude(self) -> float:
        return float(np.max(np.abs(self.poles())))

    def magnitude_response(self, freqs_hz) -> np.ndarray:
        """|H| evaluated at the given frequencies."""
        _, h = spsignal.sosfreqz(
            self.sos, worN=np.atleast_1d(freqs_hz), fs=self.sample_rate_hz
        )
        return np.abs(h)


def design_filter(
    spec: Union[Bandpass, Highpass], sample_rate_hz: float
) -> FilterRealization:
    """Design the Butterworth realization of ``spec`` at ``sample_rate_hz``.

    Bilinear transform of the analog prototype with frequency prewarping,
    returned as a second-order-section cascade. Deterministic: the same
    spec and rate always yield bitwise-identical coefficients.
    """
    if isinstance(spec, Bandpass):
        btype, wn, top = "bandpass", (spec.f_low_hz, spec.f_high_hz), spec.f_high_hz
    else:
        btype, wn, top = "highpass", spec.cutoff_hz, spec.cutoff_hz
    nyquist = sample_rate_hz / 2.0
    if not top < nyquist:
        raise InvalidCutoffs(
            f"{spec}: cutoffs must lie below {nyquist} Hz, the Nyquist "
            f"frequency at {sample_rate_hz} Hz"
        )
    # a very high order overflows inside the design and leaves NaN in sos
    with np.errstate(all="ignore"):
        sos = spsignal.butter(spec.order, wn, btype=btype, fs=sample_rate_hz, output="sos")
    if not np.isfinite(sos).all():
        raise UnstableDesign(
            f"non-finite coefficients for {spec} at {sample_rate_hz} Hz"
        )
    realization = FilterRealization(spec, sample_rate_hz, sos)
    if realization.max_pole_magnitude() >= 1.0:
        raise UnstableDesign(
            f"pole on or outside the unit circle for {spec} at {sample_rate_hz} Hz"
        )
    return realization


def filter_values(
    values: np.ndarray, realization: FilterRealization, zero_phase: bool = False
) -> np.ndarray:
    """Filter a bare array; causal with zero initial state unless zero_phase."""
    # sosfilt and sosfiltfilt copy x into their own output, so a read-only
    # series goes in as it is; the compiled kernel needs a writable sos
    x = np.asarray(values, dtype=float)
    sos = np.array(realization.sos)
    if zero_phase:
        return spsignal.sosfiltfilt(sos, x)
    return spsignal.sosfilt(sos, x)


_FILTERED_KIND = {
    DatasetKind.UFX: DatasetKind.FX,
    DatasetKind.UFY: DatasetKind.FY,
    DatasetKind.UFZ: DatasetKind.FZ,
    DatasetKind.UFM: DatasetKind.FMPOST,
}


def apply_filter(
    series: PreprocessedSeries,
    realization: FilterRealization,
    zero_phase: bool = False,
) -> PreprocessedSeries:
    """Run a series through a realization, keeping length.

    Raw axes map to FX/FY/FZ, the raw magnitude to FMpost. The startup
    transient is kept in the output; trimming is the caller's business.
    """
    if abs(series.sample_rate_hz - realization.sample_rate_hz) > 1e-9:
        raise SeriesMismatch(
            f"series at {series.sample_rate_hz} Hz vs filter designed for "
            f"{realization.sample_rate_hz} Hz"
        )
    out_kind = _FILTERED_KIND.get(series.kind)
    if out_kind is None:
        raise SeriesMismatch(f"no filtered counterpart for kind {series.kind}")
    filtered = filter_values(series.values, realization, zero_phase)
    return PreprocessedSeries(
        kind=out_kind,
        values=filtered,
        sample_rate_hz=series.sample_rate_hz,
        provenance=realization.spec,
    )


def magnitude(x, y, z, sample_rate_hz: float) -> PreprocessedSeries:
    """Elementwise Euclidean norm of the three raw axes (UFM, all >= 0)."""
    ax, ay, az = as_float_array(x), as_float_array(y), as_float_array(z)
    if not (ax.size == ay.size == az.size):
        raise SeriesMismatch(
            f"axis lengths differ: x={ax.size} y={ay.size} z={az.size}"
        )
    values = _norm(a * a for a in (ax, ay, az))
    return PreprocessedSeries(DatasetKind.UFM, values, sample_rate_hz)


def _norm(squares) -> np.ndarray:
    """sqrt((s0 + s1) + s2) of the squared axes, summed in s0's own memory.

    ``squares`` may be a generator, so that only the running sum and the
    next square are alive at once; each square must be a fresh array.
    """
    squares = iter(squares)
    total = next(squares)
    for sq in squares:
        total += sq
    return np.sqrt(total, out=total)


def normalize_magnitude(ufm: PreprocessedSeries) -> PreprocessedSeries:
    """UFNM[k] = |UFM[k] - 1 g|: gravity removed without filtering."""
    if ufm.kind is not DatasetKind.UFM:
        raise SeriesMismatch(f"normalization expects UFM input, got {ufm.kind}")
    values = ufm.values - 1.0
    return PreprocessedSeries(
        DatasetKind.UFNM, np.abs(values, out=values), ufm.sample_rate_hz
    )


def fmpre(
    fx: PreprocessedSeries, fy: PreprocessedSeries, fz: PreprocessedSeries
) -> PreprocessedSeries:
    """Magnitude of the three bandpassed axes (FMpre, all >= 0)."""
    expected = (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)
    kinds = (fx.kind, fy.kind, fz.kind)
    if kinds != expected:
        raise SeriesMismatch(f"expected kinds {expected}, got {kinds}")
    if not (fx.n_samples == fy.n_samples == fz.n_samples):
        raise SeriesMismatch("filtered axes differ in length")
    values = _norm(s.values * s.values for s in (fx, fy, fz))
    return PreprocessedSeries(
        DatasetKind.FMPRE, values, fx.sample_rate_hz, provenance=fx.provenance
    )


def hfen_preprocess(
    rec: RawRecording, spec: Highpass = Highpass(), zero_phase: bool = False
) -> PreprocessedSeries:
    """High-pass each raw axis, then take the elementwise magnitude.

    Gravity is eliminated per axis by the highpass before the norm, so the
    output decays toward zero on a motionless recording. One axis is
    filtered at a time and squared in its own output buffer.
    """
    realization = design_filter(spec, rec.sample_rate_hz)
    filtered = (filter_values(a, realization, zero_phase) for a in (rec.x, rec.y, rec.z))
    values = _norm(np.multiply(h, h, out=h) for h in filtered)
    return PreprocessedSeries(
        DatasetKind.HFEN_SPECIAL, values, rec.sample_rate_hz, provenance=spec
    )


def preprocess_all(
    rec: RawRecording,
    bandpass: Bandpass = Bandpass(),
    hfen_spec: Highpass = Highpass(),
    zero_phase: bool = False,
) -> dict[DatasetKind, PreprocessedSeries]:
    """Produce every dataset kind from one recording (11 in total)."""
    fs = rec.sample_rate_hz
    realization = design_filter(bandpass, fs)

    out: dict[DatasetKind, PreprocessedSeries] = {}
    for kind, values in zip(UNFILTERED_AXES, (rec.x, rec.y, rec.z)):
        out[kind] = PreprocessedSeries(kind, values, fs)
    for raw_kind, filt_kind in zip(UNFILTERED_AXES, FILTERED_AXES):
        out[filt_kind] = apply_filter(out[raw_kind], realization, zero_phase)

    ufm = magnitude(rec.x, rec.y, rec.z, fs)
    out[DatasetKind.UFM] = ufm
    out[DatasetKind.UFNM] = normalize_magnitude(ufm)
    out[DatasetKind.FMPRE] = fmpre(
        out[DatasetKind.FX], out[DatasetKind.FY], out[DatasetKind.FZ]
    )
    out[DatasetKind.FMPOST] = apply_filter(ufm, realization, zero_phase)
    out[DatasetKind.HFEN_SPECIAL] = hfen_preprocess(rec, hfen_spec, zero_phase)
    return out
