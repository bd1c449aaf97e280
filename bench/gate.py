"""Correctness gate for one `correlate` bundle, independent of actimetrics.

Checks, in order:

- the manifest lists the full catalog and every expected subject as `ok`;
- every output the manifest lists exists, with one activity file per label
  and subject;
- both correlation matrices are symmetric, have a unit diagonal and lie in
  [-1, 1];
- ZCM(UFM), TAT(UFM), PIM(UFNM) and ENMO recomputed with naive loops from
  the raw `.actm` files, on seeded-random epochs, match the activity CSVs.

Nothing here imports actimetrics: the `.actm` header is decoded with
`struct` and the per-epoch metrics are plain Python loops, as the
criterion-1 oracles in the acceptance suite are.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sHHQ")
_REL_TOL = 1e-9
_EPOCHS_CHECKED = 3  # per subject


@dataclass
class GateResult:
    problems: list[str] = field(default_factory=list)
    sha256: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def bundle_sha256(bundle: Path) -> str:
    """Digest over every file of the bundle: relative path plus content."""
    h = hashlib.sha256()
    for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
        h.update(path.relative_to(bundle).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def read_actm(path: Path) -> tuple[float, np.ndarray]:
    """Sample rate and (n, 3) float64 samples of a `.actm` file."""
    blob = path.read_bytes()
    magic, _version, deci_hz, count = _HEADER.unpack_from(blob, 0)
    if magic != b"ACTM":
        raise ValueError(f"{path}: not an .actm file")
    data = np.frombuffer(blob, dtype="<f4", count=3 * count, offset=_HEADER.size)
    return deci_hz / 10.0, data.reshape(count, 3).astype(np.float64)


def _activity(bundle: Path, subject: str, slug: str) -> list[float]:
    values = []
    with (bundle / subject / "activity" / f"{slug}.csv").open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("epoch_index"):
                continue
            values.append(float(line.split(",")[1]))
    return values


def _zcm_oracle(values, threshold) -> int:
    count, last = 0, 0
    for v in values:
        side = int(v > threshold) - int(v < threshold)
        if side != 0:
            if last != 0 and side != last:
                count += 1
            last = side
    return count


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-12)


def _check_oracles(bundle, inputs, epoch_s, rng, problems) -> None:
    for path in inputs:
        subject = path.stem
        fs, xyz = read_actm(path)
        ufm = np.sqrt((xyz * xyz).sum(axis=1))
        threshold = float(ufm.std()) + 1.0  # adaptive SD threshold on UFM
        n = int(round(epoch_s * fs))
        ts = 1.0 / fs
        stored = {
            slug: _activity(bundle, subject, slug)
            for slug in ("ZCM_UFM", "TAT_UFM", "PIM_UFNM", "ENMO")
        }
        n_epochs = ufm.size // n
        for e in rng.sample(range(n_epochs), min(_EPOCHS_CHECKED, n_epochs)):
            epoch = [float(v) for v in ufm[e * n : (e + 1) * n]]
            expect = {
                "ZCM_UFM": float(_zcm_oracle(epoch, threshold)),
                "TAT_UFM": ts * sum(1 for v in epoch if v > threshold),
                "PIM_UFNM": ts * sum(abs(v - 1.0) for v in epoch),
                "ENMO": sum(max(v - 1.0, 0.0) for v in epoch) / n,
            }
            for slug, want in expect.items():
                got = stored[slug][e] if e < len(stored[slug]) else float("nan")
                if not _close(got, want):
                    problems.append(f"{subject} {slug} epoch {e}: bundle {got!r}, oracle {want!r}")


def _check_matrix(path: Path, labels: list[str], problems) -> None:
    payload = json.loads(path.read_text())
    if payload.get("labels") != labels:
        problems.append(f"{path.name}: labels differ from the manifest catalog")
        return
    mean = np.array(
        [[np.nan if v is None else v for v in row] for row in payload["mean"]], dtype=float
    )
    n = len(labels)
    if mean.shape != (n, n):
        problems.append(f"{path.name}: shape {mean.shape}, expected {(n, n)}")
        return
    if not np.array_equal(mean, mean.T, equal_nan=True):
        problems.append(f"{path.name}: not symmetric")
    if not np.all(np.diag(mean) == 1.0):
        problems.append(f"{path.name}: diagonal is not exactly 1")
    finite = mean[np.isfinite(mean)]
    if finite.size and (finite.min() < -1.0 or finite.max() > 1.0):
        problems.append(f"{path.name}: values outside [-1, 1]")


def check_bundle(
    bundle: Path,
    inputs: list[Path],
    *,
    catalog_size: int,
    sweeps: int,
    epoch_s: float,
    seed: int,
) -> GateResult:
    """Run every check on `bundle`; `inputs` are the `.actm` files it came from."""
    result = GateResult()
    _check(bundle, inputs, catalog_size, sweeps, epoch_s, seed, result.problems)
    result.sha256 = bundle_sha256(bundle)
    return result


def _check(bundle, inputs, catalog_size, sweeps, epoch_s, seed, problems) -> None:
    manifest_path = bundle / "manifest.json"
    if not manifest_path.is_file():
        problems.append("manifest.json missing")
        return
    manifest = json.loads(manifest_path.read_text())

    labels = manifest.get("catalog_labels", [])
    if manifest.get("catalog_count") != catalog_size or len(set(labels)) != catalog_size:
        problems.append(
            f"catalog lists {manifest.get('catalog_count')} / {len(set(labels))} labels, "
            f"expected {catalog_size}"
        )
    subjects = {s["subject_id"]: s for s in manifest.get("subjects", [])}
    expected = sorted(p.stem for p in inputs)
    if sorted(subjects) != expected:
        problems.append(f"manifest subjects {sorted(subjects)}, expected {expected}")
    for sid, entry in sorted(subjects.items()):
        if entry.get("status") != "ok":
            problems.append(f"subject {sid} status {entry.get('status')}: {entry.get('error')}")

    outputs = manifest.get("outputs", [])
    missing = [rel for rel in outputs if not (bundle / rel).is_file()]
    if missing:
        problems.append(f"{len(missing)} listed outputs missing, e.g. {missing[0]}")
    want_outputs = len(expected) * catalog_size + 4 + sweeps
    if len(outputs) != want_outputs:
        problems.append(f"manifest lists {len(outputs)} outputs, expected {want_outputs}")
    for sid in expected:
        found = len(list((bundle / sid / "activity").glob("*.csv")))
        if found != catalog_size:
            problems.append(f"{sid}: {found} activity files, expected {catalog_size}")
    if problems:
        return

    for stem in ("correlation_time", "correlation_frequency"):
        _check_matrix(bundle / f"{stem}.json", labels, problems)
    _check_oracles(bundle, inputs, epoch_s, random.Random(seed), problems)
