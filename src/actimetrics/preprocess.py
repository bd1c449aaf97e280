"""Dataset generation: magnitudes, normalization, and Butterworth filtering.

:func:`preprocess_all` is the one producer of dataset kinds: it makes the
11 a metric can consume from one raw recording, or only those asked for
and what they are made from. The raw axes pass through,
the axes and the raw magnitude are bandpassed (FXYZ, FMpost), FMpre is the
magnitude of the filtered axes, UFNM is the gravity-normalized magnitude,
and the HFEN input is the magnitude of the high-passed axes. Whether a
filter runs per axis or on a magnitude is therefore read in one place.
It yields each kind as it is made, in :data:`BUILD_ORDER`, so that a
consumer can use and drop each dataset before the later ones exist; the
pipeline's subject plan sorts the catalog by that order.

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
from functools import lru_cache
from typing import Iterable, Iterator, Union

import numpy as np
from scipy import signal as spsignal

from .core import (
    FILTERED_AXES,
    UNFILTERED_AXES,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    check_fields,
)
from .errors import ConfigError, InvalidCutoffs, SeriesMismatch, UnstableDesign

# The order in which preprocess_all makes and yields the kinds it is asked for.
BUILD_ORDER = (DatasetKind.HFEN_SPECIAL, *UNFILTERED_AXES, DatasetKind.UFM, DatasetKind.UFNM,
               DatasetKind.FMPOST, *FILTERED_AXES, DatasetKind.FMPRE)


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
        check_fields(self, "bandpass")
        if self.order < 1:
            raise ConfigError("bandpass: order must be >= 1")
        if not 0.0 < self.f_low_hz < self.f_high_hz:
            raise InvalidCutoffs(f"bandpass: need 0 < f_low < f_high, "
                                 f"got ({self.f_low_hz}, {self.f_high_hz})")


@dataclass(frozen=True)
class Highpass:
    """Butterworth highpass applied per axis ahead of the HFEN magnitude."""

    order: int = 4
    cutoff_hz: float = 0.2

    def __post_init__(self):
        check_fields(self, "hfen_highpass")
        if self.order < 1:
            raise ConfigError("hfen_highpass: order must be >= 1")
        if not self.cutoff_hz > 0.0:
            raise InvalidCutoffs(f"hfen_highpass: need 0 < cutoff, got {self.cutoff_hz}")


def design_filter(spec: Union[Bandpass, Highpass], sample_rate_hz: float) -> np.ndarray:
    """Design the Butterworth filter ``spec`` at ``sample_rate_hz``.

    Bilinear transform of the analog prototype with frequency prewarping,
    returned as a fresh, writable ``(sections, 6)`` second-order-section
    cascade. Deterministic: the same spec and rate always yield
    bitwise-identical coefficients. Each (spec, rate) is designed once per
    process and cached; every call returns its own copy, because SciPy's
    ``sosfilt`` rejects a read-only cascade.
    """
    return _design(spec, sample_rate_hz).copy()


@lru_cache(maxsize=64)
def _design(spec: Union[Bandpass, Highpass], sample_rate_hz: float) -> np.ndarray:
    """The cached, read-only design behind :func:`design_filter`."""
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
    # a very high order overflows inside the design: it leaves NaN in sos or,
    # higher still, raises in SciPy's or NumPy's own words
    try:
        with np.errstate(all="ignore"):
            sos = spsignal.butter(spec.order, wn, btype=btype, fs=sample_rate_hz,
                                  output="sos")
    except (OverflowError, ValueError):
        raise UnstableDesign(
            f"{spec} at {sample_rate_hz} Hz: order {spec.order} is too high to design"
        ) from None
    if not np.isfinite(sos).all():
        raise UnstableDesign(
            f"non-finite coefficients for {spec} at {sample_rate_hz} Hz"
        )
    poles = np.concatenate([np.roots(section[3:]) for section in sos])
    if np.max(np.abs(poles)) >= 1.0:
        raise UnstableDesign(
            f"pole on or outside the unit circle for {spec} at {sample_rate_hz} Hz"
        )
    sos.setflags(write=False)
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


# Samples per block of a magnitude's running sum: the square added to it is
# one 256 KiB block at a time, never a full-length series beside the sum.
_SUM_BLOCK = 1 << 15


def _add_square(total: np.ndarray, a: np.ndarray) -> None:
    """``total += a * a``, one block at a time."""
    for lo in range(0, total.size, _SUM_BLOCK):
        block = a[lo : lo + _SUM_BLOCK]
        total[lo : lo + _SUM_BLOCK] += block * block


def _norm(axes: Iterable[np.ndarray]) -> np.ndarray:
    """sqrt((a0² + a1²) + a2²) of the axes, summed in one fresh array.

    ``axes`` may be a generator, so that only the running sum and the
    next axis are alive at once: each axis is dropped as soon as its
    square is in the sum, before the next is made.
    """
    axes = iter(axes)
    first = next(axes)
    total = first * first
    del first
    for a in axes:
        _add_square(total, a)
        del a
    return np.sqrt(total, out=total)


def _gravity_free(ufm: np.ndarray) -> np.ndarray:
    """|UFM − 1 g|, in one fresh array."""
    out = ufm - 1.0
    return np.abs(out, out=out)


def preprocess_all(
    rec: RawRecording,
    bandpass: Bandpass = Bandpass(),
    hfen_spec: Highpass = Highpass(),
    zero_phase: bool = False,
    kinds: Iterable[DatasetKind] = tuple(DatasetKind),
) -> Iterator[tuple[DatasetKind, PreprocessedSeries]]:
    """The dataset ``kinds`` of one recording (all 11 by default), as made.

    Yields ``(kind, series)`` pairs in :data:`BUILD_ORDER`. Only the
    requested kinds are yielded, and only they and what they are made from are
    built: FX, FY, FZ and FMpre filter the three axes, UFNM and FMpost are
    made from UFM, and HFEN_SPECIAL high-passes the three axes. A threshold
    sweep asks for the swept kind alone. Each kind built is the same
    array whichever others are requested; take ``dict(...)`` of the pairs
    for a map. Filtered kinds keep the startup transient.

    The recording and the filters are checked at the call; each kind is
    built when its pair is drawn. The build keeps no series it will not
    read again: it holds its own references to the three decoded axes and
    drops each after its last use (x once FX has been filtered), UFM goes
    once FMpost has been drawn, each filtered axis once its square is in
    FMpre, and a magnitude adds each later square to its running sum
    block by block. An axis is freed then only if the caller holds no
    recording that refers to it. So with causal filtering a consumer that
    drops each series after its last use, and the recording before FX is
    made, holds at most five series at once (the three axes, UFM, and
    UFNM or FMpost), and one that keeps them all holds the finished
    datasets and one block.
    """
    fs = rec.sample_rate_hz
    if not (rec.x.size == rec.y.size == rec.z.size):
        raise SeriesMismatch(
            f"axis lengths differ: x={rec.x.size} y={rec.y.size} z={rec.z.size}"
        )
    band = design_filter(bandpass, fs)
    high = design_filter(hfen_spec, fs)
    return _build(rec, band, high, zero_phase, frozenset(kinds))


def _build(rec, band, high, zero_phase, wanted):
    """The pairs of :func:`preprocess_all`, made one at a time in :data:`BUILD_ORDER`."""
    fs = rec.sample_rate_hz
    # the build's own references to the decoded axes, each dropped after its
    # last use; once the caller drops the recording, that frees the axis
    axes = [rec.x, rec.y, rec.z]
    del rec

    def need(*made_from) -> bool:
        return not wanted.isdisjoint(made_from)

    def made(kind, values):
        # wrapped as soon as made: a zero-phase output is a reversed view,
        # and its contiguous copy must replace it before the next is filtered
        return kind, PreprocessedSeries(kind, values, fs)

    magnitudes = need(DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPOST)
    filtering = need(*FILTERED_AXES, DatasetKind.FMPRE)
    if need(DatasetKind.HFEN_SPECIAL):
        yield made(DatasetKind.HFEN_SPECIAL, _norm(
            filter_values(a, high, zero_phase) for a in axes
        ))
    for i, kind in enumerate(UNFILTERED_AXES):
        if kind in wanted:
            yield made(kind, axes[i])
        if not (magnitudes or filtering):
            axes[i] = None
    if magnitudes:
        ufm = _norm(axes)
        if not filtering:
            axes.clear()
        if DatasetKind.UFM in wanted:
            yield made(DatasetKind.UFM, ufm)
        if DatasetKind.UFNM in wanted:
            yield made(DatasetKind.UFNM, _gravity_free(ufm))
        if DatasetKind.FMPOST in wanted:
            yield made(DatasetKind.FMPOST, filter_values(ufm, band, zero_phase))
        del ufm
    if filtering:
        filtered = []  # the filtered axes FMpre is made from
        for i, kind in enumerate(FILTERED_AXES):
            pair = made(kind, filter_values(axes[i], band, zero_phase))
            axes[i] = None
            if DatasetKind.FMPRE in wanted:
                filtered.append(pair[1].values)
            if kind in wanted:
                yield pair
            del pair
        if DatasetKind.FMPRE in wanted:
            yield made(DatasetKind.FMPRE, _norm(filtered.pop(0) for _ in FILTERED_AXES))
