"""Dataset generation: magnitudes, normalization, and Butterworth filtering.

:func:`preprocess_all` is the one producer of dataset kinds: it makes the
11 a metric can consume from one raw recording, or only those asked for
and what they are made from. The raw axes pass through,
the axes and the raw magnitude are bandpassed (FXYZ, FMpost), FMpre is the
magnitude of the filtered axes, UFNM is the gravity-normalized magnitude,
and the HFEN input is the magnitude of the high-passed axes. Whether a
filter runs per axis or on a magnitude is therefore read in one place.

A filter is specified without a sample rate, as a :class:`Bandpass` or a
:class:`Highpass`, and :func:`design_filter` designs it at the rate of the
recording it is applied to and returns the second-order-section (SOS)
cascade itself; a cutoff at or above that rate's Nyquist frequency is
rejected there.

Filtering is causal (forward-only, zero initial state) by default to mirror
what in-device processing can do; set ``zero_phase=True`` for
forward-backward filtering.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from scipy import signal as spsignal

from .core import (
    FILTERED_AXES,
    UNFILTERED_AXES,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
)
from .errors import InvalidCutoffs, SeriesMismatch, UnstableDesign


@dataclass(frozen=True)
class Bandpass:
    """Butterworth bandpass, applied to the axes and to the raw magnitude.

    ``order`` counts analog prototype poles; the designed cascade carries
    twice that many. The cutoffs are checked against Nyquist when the
    filter is designed at a recording's rate.
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


def design_filter(spec: Union[Bandpass, Highpass], sample_rate_hz: float) -> np.ndarray:
    """Design the Butterworth filter ``spec`` at ``sample_rate_hz``.

    Bilinear transform of the analog prototype with frequency prewarping,
    returned as a fresh, writable ``(sections, 6)`` second-order-section
    cascade. Deterministic: the same spec and rate always yield
    bitwise-identical coefficients.
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
    poles = np.concatenate([np.roots(section[3:]) for section in sos])
    if np.max(np.abs(poles)) >= 1.0:
        raise UnstableDesign(
            f"pole on or outside the unit circle for {spec} at {sample_rate_hz} Hz"
        )
    return sos


def filter_values(
    values: np.ndarray, sos: np.ndarray, zero_phase: bool = False
) -> np.ndarray:
    """Filter a bare array; causal with zero initial state unless zero_phase."""
    # sosfilt and sosfiltfilt copy x into their own output, so a read-only
    # series goes in as it is
    x = np.asarray(values, dtype=float)
    if zero_phase:
        return spsignal.sosfiltfilt(sos, x)
    return spsignal.sosfilt(sos, x)


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


def preprocess_all(
    rec: RawRecording,
    bandpass: Bandpass = Bandpass(),
    hfen_spec: Highpass = Highpass(),
    zero_phase: bool = False,
    kinds: Iterable[DatasetKind] = tuple(DatasetKind),
) -> dict[DatasetKind, PreprocessedSeries]:
    """Produce the dataset ``kinds`` from one recording (all 11 by default).

    Only the requested kinds and what they are made from are built: FX, FY,
    FZ and FMpre filter the three axes, FMpost filters UFM, and
    HFEN_SPECIAL high-passes the three axes. A threshold sweep asks for the
    swept kind, UFM and HFEN_SPECIAL. Each kind built is the same array
    whichever others are requested. Filtered kinds keep the startup
    transient. The HFEN input high-passes one axis at a time and squares it
    in its own buffer, so one such axis is alive at once.
    """
    fs = rec.sample_rate_hz
    axes = (rec.x, rec.y, rec.z)
    if not (rec.x.size == rec.y.size == rec.z.size):
        raise SeriesMismatch(
            f"axis lengths differ: x={rec.x.size} y={rec.y.size} z={rec.z.size}"
        )
    band = design_filter(bandpass, fs)
    high = design_filter(hfen_spec, fs)
    wanted = frozenset(kinds)

    def need(*made_from) -> bool:
        return not wanted.isdisjoint(made_from)

    out: dict[DatasetKind, PreprocessedSeries] = {}

    def put(kind, values):
        # wrapped as soon as made: a zero-phase output is a reversed view,
        # and its contiguous copy must replace it before the next is filtered
        out[kind] = PreprocessedSeries(kind, values, fs)
        return out[kind].values

    for kind, a in zip(UNFILTERED_AXES, axes):
        put(kind, a)
    if need(*FILTERED_AXES, DatasetKind.FMPRE):
        filtered = [
            put(kind, filter_values(a, band, zero_phase))
            for kind, a in zip(FILTERED_AXES, axes)
        ]
    if need(DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPOST):
        ufm = put(DatasetKind.UFM, _norm(a * a for a in axes))
    if need(DatasetKind.UFNM):
        ufnm = ufm - 1.0
        put(DatasetKind.UFNM, np.abs(ufnm, out=ufnm))
    if need(DatasetKind.FMPRE):
        put(DatasetKind.FMPRE, _norm(f * f for f in filtered))
    if need(DatasetKind.FMPOST):
        put(DatasetKind.FMPOST, filter_values(ufm, band, zero_phase))
    if need(DatasetKind.HFEN_SPECIAL):
        highpassed = (filter_values(a, high, zero_phase) for a in axes)
        put(DatasetKind.HFEN_SPECIAL, _norm(np.multiply(h, h, out=h) for h in highpassed))
    return {kind: series for kind, series in out.items() if kind in wanted}
