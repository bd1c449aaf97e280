"""File formats: recordings (CSV and native binary), results, matrices.

Recording CSV: UTF-8 text, header ``x,y,z`` (an optional leading ``t``
column is accepted and ignored), numeric body in g. The sample rate comes from an
argument or from a JSON sidecar next to the file (``<name>.csv.json`` with a
``sample_rate_hz`` key). The sidecar's ``subject_id`` names the subject's
output directory, so one that is not a plain directory name is rejected.

Native binary (.actm): 16-byte little-endian header - magic ``ACTM``,
version u16, sample rate u16 in deci-hertz, sample count u64 - followed by
interleaved x,y,z float32 samples in g. Write-then-read round-trips
bitwise.

:func:`open_recording` reads only what a run orders and admits recordings
by (the subject id and the sample rate: the ``.actm`` header, or the CSV
sidecar); :meth:`RecordingSource.load` decodes the samples later.

Result files are plain CSV with ``#``-prefixed metadata lines, plus a
machine-readable JSON twin for correlation matrices.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .analysis import CorrelationSummary, SweepCurve
from .core import ActivitySignal, PreprocessedSeries, RawRecording
from .errors import (
    BadMagic,
    MissingSampleRate,
    ParseError,
    TruncatedPayload,
    UnreadableRecording,
    UnrepresentableSampleRate,
    VersionUnsupported,
)

PathLike = Union[str, Path]

MAGIC = b"ACTM"
BIN_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_ROWS_PER_WRITE = 1 << 16


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _read_sidecar(sidecar: Path) -> dict:
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(
            getattr(exc, "lineno", 1), f"{sidecar}: invalid JSON sidecar: {exc}"
        ) from None
    if not isinstance(meta, dict):
        raise ParseError(
            1, f"{sidecar}: expected a JSON object, got {type(meta).__name__}"
        )
    return meta


def _sample_rate(value, path: Path) -> float:
    """``value`` as a positive, finite rate in Hz, or MissingSampleRate.

    Only a real number that is not a bool counts; the error names
    ``path``, the file the value came from.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise MissingSampleRate(
            f"{path}: sample rate {value!r} is not a positive, finite number of Hz"
        )
    return float(value)


def _write_rows(
    path: PathLike, meta: dict, header: str, *columns, index: bool = False
) -> None:
    """``# key: value`` lines, the CSV header, then one row per float of ``columns``.

    Floats print as ``repr(float(v))``, the shortest text that reads back
    to the same value; ``index`` prepends the row number. Rows stop at the
    shortest column and are written in blocks, so memory stays bounded.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = min(c.size for c in cols)
    if index:
        cols.insert(0, np.arange(n))
    row = ",".join(["%r"] * len(cols)) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("".join(f"# {k}: {v}\n" for k, v in meta.items()) + header + "\n")
        for lo in range(0, n, _ROWS_PER_WRITE):
            block = [c[lo:lo + _ROWS_PER_WRITE].tolist() for c in cols]
            fh.write("".join(map(row.__mod__, zip(*block))))


def _csv_meta(path: Path, sample_rate_hz: Optional[float]) -> tuple[str, float]:
    """(subject id, rate) of a CSV recording, every check made before its body."""
    sidecar = _sidecar_path(path)
    meta = _read_sidecar(sidecar) if sidecar.exists() else {}
    source = path
    if sample_rate_hz is None:
        sample_rate_hz, source = meta.get("sample_rate_hz"), sidecar
    if sample_rate_hz is None:
        raise MissingSampleRate(
            f"{path}: supply a sample rate or a sidecar {sidecar.name}"
        )
    sample_rate_hz = _sample_rate(sample_rate_hz, source)
    subject_id = meta.get("subject_id", path.stem)
    if (not isinstance(subject_id, str) or subject_id in ("", ".", "..")
            or any(c in subject_id for c in "/\\\0")):
        raise ParseError(
            1, f"{sidecar}: subject_id {subject_id!r} names the subject's output "
            "directory: it must be a non-empty string, not '.' or '..', "
            "with no '/', '\\' or NUL"
        )
    return subject_id, sample_rate_hz


def read_recording_csv(path: PathLike, sample_rate_hz: Optional[float] = None) -> RawRecording:
    """Read a recording from CSV; parse failures name the file and the offending line."""
    path = Path(path)
    subject_id, sample_rate_hz = _csv_meta(path, sample_rate_hz)

    xs: list[float] = []
    ys: list[float] = []
    zs: list[float] = []
    # each line is decoded on its own, so an undecodable one is named exactly
    lineno = 1
    try:
        with path.open("rb") as fh:
            header = fh.readline().decode("utf-8")
            if not header:
                raise ParseError(1, f"{path}: empty file, expected header 'x,y,z'")
            columns = [c.strip().lower() for c in header.strip().split(",")]
            if columns == ["t", "x", "y", "z"]:
                offset = 1
            elif columns == ["x", "y", "z"]:
                offset = 0
            else:
                raise ParseError(
                    1, f"{path}: expected columns 'x,y,z' (optional leading 't'), "
                    f"got {columns}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != 3 + offset:
                    raise ParseError(
                        lineno, f"{path}: expected {3 + offset} columns, got {len(cells)}"
                    )
                try:
                    xs.append(float(cells[offset]))
                    ys.append(float(cells[offset + 1]))
                    zs.append(float(cells[offset + 2]))
                except ValueError as exc:
                    raise ParseError(lineno, f"{path}: non-numeric cell: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(lineno, f"{path}: not UTF-8 text: {exc.reason}") from None

    return RawRecording(
        subject_id=subject_id,
        sample_rate_hz=sample_rate_hz,
        x=xs,
        y=ys,
        z=zs,
    )


def write_recording_csv(rec: RawRecording, path: PathLike) -> None:
    """Write a recording plus its JSON sidecar carrying the sample rate."""
    path = Path(path)
    _write_rows(path, {}, "x,y,z", rec.x, rec.y, rec.z)
    sidecar = {
        "subject_id": rec.subject_id,
        "sample_rate_hz": rec.sample_rate_hz,
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _bin_header(path: Path, blob: bytes) -> tuple[float, int]:
    """(rate, sample count) from the header at the start of ``blob``; errors are typed."""
    if len(blob) < _HEADER.size:
        raise TruncatedPayload(f"{path}: {len(blob)} bytes is too short for a header")
    magic, version, deci_hz, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise BadMagic(f"{path}: magic {magic!r}, expected {MAGIC!r}")
    if version != BIN_VERSION:
        raise VersionUnsupported(f"{path}: version {version}, supported: {BIN_VERSION}")
    return _sample_rate(deci_hz / 10.0, path), count


def read_recording_bin(path: PathLike) -> RawRecording:
    """Read the native binary format; header errors are typed."""
    path = Path(path)
    blob = path.read_bytes()
    sample_rate_hz, count = _bin_header(path, blob)
    need = count * 3 * 4
    have = len(blob) - _HEADER.size
    if have < need:
        raise TruncatedPayload(
            f"{path}: header declares {count} samples ({need} bytes), payload has "
            f"{have}"
        )
    data = np.frombuffer(
        blob, dtype="<f4", count=3 * count, offset=_HEADER.size
    ).reshape(count, 3)
    return RawRecording(
        subject_id=path.stem,
        sample_rate_hz=sample_rate_hz,
        x=data[:, 0].astype(float),
        y=data[:, 1].astype(float),
        z=data[:, 2].astype(float),
    )


def write_recording_bin(rec: RawRecording, path: PathLike) -> None:
    """Write the native binary format (samples quantized to float32)."""
    deci = rec.sample_rate_hz * 10.0
    if abs(deci - round(deci)) > 1e-9 or not 0 < round(deci) < 2 ** 16:
        raise UnrepresentableSampleRate(
            f"{path}: sample rate {rec.sample_rate_hz} Hz is not a whole number of "
            "deci-hertz below 6553.6 Hz, so the .actm header cannot hold it"
        )
    n = rec.n_samples
    interleaved = np.empty((n, 3), dtype="<f4")
    interleaved[:, 0] = rec.x
    interleaved[:, 1] = rec.y
    interleaved[:, 2] = rec.z
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, BIN_VERSION, int(round(deci)), n))
        fh.write(interleaved.tobytes())


@contextmanager
def _reading(path: Path):
    """Turn an OSError while ``path`` is read into :class:`UnreadableRecording`."""
    try:
        yield
    except OSError as exc:
        raise UnreadableRecording(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_recording(path: PathLike, sample_rate_hz: Optional[float] = None) -> RawRecording:
    """Dispatch on extension: .csv or the native binary format."""
    path = Path(path)
    with _reading(path):
        if path.suffix.lower() == ".csv":
            return read_recording_csv(path, sample_rate_hz)
        return read_recording_bin(path)


@dataclass(frozen=True)
class RecordingSource:
    """A recording file known by its header: what ordering and admission read.

    Made by :func:`open_recording`; :meth:`load` decodes the samples. A
    :class:`RawRecording` also has ``subject_id``, ``sample_rate_hz`` and
    a ``load()`` (that returns itself), so a run takes either.
    """

    path: Path
    subject_id: str
    sample_rate_hz: float

    def load(self) -> RawRecording:
        """Decode the file; payload errors surface here, typed as by :func:`read_recording`."""
        return read_recording(self.path, self.sample_rate_hz)


def open_recording(path: PathLike, sample_rate_hz: Optional[float] = None) -> RecordingSource:
    """Probe a recording without decoding its samples.

    An ``.actm`` file is known by its 16-byte header and its stem, a CSV
    file by ``sample_rate_hz`` or its sidecar, and the sidecar's
    ``subject_id`` or its stem. Every error :func:`read_recording` raises
    before the payload or the CSV body is raised here; the file must also
    open for reading.
    """
    path = Path(path)
    with _reading(path):
        if path.suffix.lower() == ".csv":
            subject_id, sample_rate_hz = _csv_meta(path, sample_rate_hz)
            path.open("rb").close()
        else:
            with path.open("rb") as fh:
                sample_rate_hz, _ = _bin_header(path, fh.read(_HEADER.size))
            subject_id = path.stem
    return RecordingSource(path, subject_id, sample_rate_hz)


# ---------------------------------------------------------------------------
# result serialization


def label_slug(label: str) -> str:
    """Filesystem-safe variant of a label, stable and collision-free."""
    sq = "\N{SUPERSCRIPT TWO}"
    out = label.replace(")" + sq, ")_squared").replace(sq, "sq")
    for ch in "[]() ,":
        out = out.replace(ch, "_")
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def write_activity_csv(sig: ActivitySignal, path: PathLike) -> None:
    meta = {"label": sig.label, "units": sig.units,
            "epoch_length_s": float(sig.epoch_length_s)}
    _write_rows(path, meta, "epoch_index,value", sig.values, index=True)


def write_dataset_csv(series: PreprocessedSeries, path: PathLike) -> None:
    meta = {"kind": series.kind.value, "sample_rate_hz": float(series.sample_rate_hz)}
    _write_rows(path, meta, "index,value", series.values, index=True)


def _fmt_stat(value: float, decimals: int) -> str:
    if not math.isfinite(value):
        return "NA"
    text = f"{value:.{decimals}f}".rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def format_mean_sd(mean: float, sd: float) -> str:
    """Cell text like ``0.98971±0.04`` (mean to 5 decimals, SD to 2)."""
    if not (math.isfinite(mean) and math.isfinite(sd)):
        return "NA"
    return f"{_fmt_stat(mean, 5)}±{_fmt_stat(sd, 2)}"


def write_matrix_csv(summary: CorrelationSummary, path: PathLike) -> None:
    # labels may contain commas (combination variants), so quote properly
    labels = summary.labels
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# domain: {summary.domain.value}\n")
        fh.write(f"# n_subjects: {summary.n_subjects}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("",) + labels)
        for i, label in enumerate(labels):
            cells = [
                format_mean_sd(summary.mean[i, j], summary.sd[i, j])
                for j in range(len(labels))
            ]
            writer.writerow([label] + cells)


def write_matrix_json(summary: CorrelationSummary, path: PathLike) -> None:
    payload = {
        "domain": summary.domain.value,
        "n_subjects": summary.n_subjects,
        "labels": list(summary.labels),
        "mean": [[None if not math.isfinite(v) else v for v in row]
                 for row in summary.mean.tolist()],
        "sd": [[None if not math.isfinite(v) else v for v in row]
               for row in summary.sd.tolist()],
        "excluded_pairs": int(np.count_nonzero(summary.excluded)),
        "excluded": summary.excluded.tolist(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def write_sweep_csv(curve: SweepCurve, path: PathLike) -> None:
    meta = {
        "metric": curve.metric.value,
        "kind": curve.kind.value,
        "sd_marker": float(curve.sd_marker),
        "sd_anchor_r_vs_enmo": float(curve.sd_anchor_r_vs_enmo),
        "sd_anchor_r_vs_hfen": float(curve.sd_anchor_r_vs_hfen),
    }
    _write_rows(
        path, meta, "threshold_g,r_vs_enmo,r_vs_hfen,r_vs_sd_anchored",
        curve.thresholds, curve.r_vs_enmo, curve.r_vs_hfen, curve.r_vs_sd_anchored,
    )
