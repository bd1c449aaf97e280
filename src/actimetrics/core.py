"""Domain types, recording validation, epoch matrices and the ordered process map.

All types are immutable after construction (array fields are made
read-only) and picklable; every operation here but :func:`ordered_map`,
which runs what it is given, is a pure function of its inputs.
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import ConfigError, EmptySeries, EpochTooShort

DEFAULT_FULL_SCALE_G = 8.0


def as_float_array(values) -> np.ndarray:
    """Coerce to a read-only, contiguous 1-D float64 array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    # a view, so that freezing it leaves the caller's own array writeable
    arr = np.ascontiguousarray(arr).view()
    arr.setflags(write=False)
    return arr


class DatasetKind(Enum):
    """Preprocessing outputs an activity metric can be applied to.

    UFX/UFY/UFZ are the raw axial accelerations; FX/FY/FZ their bandpassed
    counterparts. UFM is the raw vector magnitude, UFNM = |UFM - 1 g|,
    FMpre the magnitude of the filtered axes, FMpost the filtered raw
    magnitude, and HFEN_SPECIAL the high-passed-axes magnitude consumed
    only by the HFEN metric.
    """

    UFX = "UFX"
    UFY = "UFY"
    UFZ = "UFZ"
    FX = "FX"
    FY = "FY"
    FZ = "FZ"
    UFM = "UFM"
    UFNM = "UFNM"
    FMPRE = "FMpre"
    FMPOST = "FMpost"
    HFEN_SPECIAL = "HFEN_SPECIAL"

    def __str__(self) -> str:
        return self.value

    @property
    def is_axis(self) -> bool:
        return self in UNFILTERED_AXES or self in FILTERED_AXES


UNFILTERED_AXES = (DatasetKind.UFX, DatasetKind.UFY, DatasetKind.UFZ)
FILTERED_AXES = (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)


@dataclass(frozen=True, eq=False)
class RawRecording:
    """Triaxial acceleration samples in g at a fixed sampling rate.

    The constructor only enforces what later math cannot survive without
    (positive rate, 1-D arrays); value-level problems such as NaNs, axis
    length mismatches, or out-of-range samples are reported by
    :func:`validate_recording` so callers can decide what to do.
    """

    subject_id: str
    sample_rate_hz: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, as_float_array(getattr(self, name)))

    @property
    def n_samples(self) -> int:
        return int(self.x.size)

    def load(self) -> RawRecording:
        """This recording: the in-memory source of a run (see ``formats.RecordingSource``)."""
        return self


@dataclass(frozen=True)
class Finding:
    """One validation problem; ``axis``/``index`` locate it when sample-level."""

    code: str
    message: str
    axis: Optional[str] = None
    index: Optional[int] = None


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f.message for f in self.findings)


def validate_recording(
    rec: RawRecording, full_scale_g: float = DEFAULT_FULL_SCALE_G
) -> ValidationReport:
    """Check a recording against its invariants and report every violation.

    Pure: the same recording always yields an identical report. Sample-level
    findings name the axis and the first offending index, plus a count.
    """
    findings: list[Finding] = []
    sizes = {"x": rec.x.size, "y": rec.y.size, "z": rec.z.size}
    if len(set(sizes.values())) != 1:
        detail = " ".join(f"{k}={v}" for k, v in sizes.items())
        findings.append(Finding("length-mismatch", f"axis lengths differ: {detail}"))
    if min(sizes.values()) < 1:
        findings.append(Finding("empty", "recording holds no samples"))

    for axis in ("x", "y", "z"):
        values = getattr(rec, axis)
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            findings.append(
                Finding(
                    "non-finite",
                    f"{axis}[{i}] is non-finite ({int(bad.sum())} total on {axis})",
                    axis=axis,
                    index=i,
                )
            )
        over = np.abs(values) > full_scale_g
        over &= np.isfinite(values)
        if over.any():
            i = int(np.argmax(over))
            findings.append(
                Finding(
                    "out-of-range",
                    f"{axis}[{i}] = {float(values[i])!r} g exceeds the "
                    f"+/-{full_scale_g} g full scale ({int(over.sum())} total on {axis})",
                    axis=axis,
                    index=i,
                )
            )
    return ValidationReport(tuple(findings))


@dataclass(frozen=True, eq=False)
class PreprocessedSeries:
    """A sample stream tagged with the dataset kind that produced it.

    Filtering never changes length, so the series always matches its
    source recording sample-for-sample.
    """

    kind: DatasetKind
    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "values", as_float_array(self.values))

    @property
    def ts(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def n_samples(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class ActivitySignal:
    """One activity value per epoch for a single variant.

    ``label`` is the variant's canonical name. Values are non-negative for
    every cataloged variant.
    """

    label: str
    epoch_length_s: float
    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", as_float_array(self.values))


def epoch_sample_count(te_s: float, sample_rate_hz: float) -> int:
    """Samples per epoch, n = Te * fs: a whole number (within 1e-9), at least 2."""
    product = te_s * sample_rate_hz
    n = int(round(product))
    if abs(product - n) > 1e-9:
        raise ConfigError(f"Te={te_s} s at {sample_rate_hz} Hz gives {product} "
                          "samples per epoch, not a whole number")
    if n < 2:
        raise EpochTooShort(
            f"Te={te_s} s at {sample_rate_hz} Hz gives {n} samples per epoch (need >= 2)"
        )
    return n


def epoch_matrix(values: np.ndarray, n: int) -> np.ndarray:
    """View of the first floor(N/n)*n samples shaped (epochs, n).

    The trailing partial epoch, if any, is discarded.
    """
    m = values.size // n
    if m == 0:
        raise EmptySeries(f"series of {values.size} samples is shorter than one epoch ({n})")
    return values[: m * n].reshape(m, n)


def require_jobs(jobs: int) -> None:
    """ConfigError unless ``jobs`` >= 1 and, above 1, the platform can fork."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(f"--jobs {jobs} needs worker processes started by fork, "
                          "which this platform does not have; use --jobs 1")


_task: Optional[tuple[Callable, list]] = None  # (fn, items) in a worker process


def _init_worker(fn: Callable, items: list) -> None:
    global _task
    _task = fn, items


def _run_item(index: int):
    fn, items = _task
    return fn(items[index])


def ordered_map(fn: Callable, items: Iterable, jobs: int = 1) -> Iterator:
    """``fn`` over ``items``, results in input order.

    With ``jobs`` > 1 every item is submitted at the first ``next`` to
    ``min(jobs, len(items))`` worker processes, started by fork. They
    inherit ``fn`` and ``items``, so neither is pickled and ``fn`` may be
    a closure; only the indices go out and the results come back pickled.
    A worker that dies raises ``BrokenProcessPool`` at the first result
    not yet yielded, and the pool's other workers are ended with it.
    Otherwise each item runs lazily on the caller's thread, so one item's
    temporaries are gone before the next starts.
    """
    if jobs > 1:
        items = list(items)
        if not items:
            return
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(items)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(fn, items),
        ) as pool:
            yield from pool.map(_run_item, range(len(items)))
    else:
        yield from map(fn, items)
