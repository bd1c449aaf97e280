"""Benchmark workloads and their seeded, cached `.actm` inputs.

Every workload is a synthetic corpus at 10 Hz. Subject shapes follow the
acceptance corpus (`corpus_specs` in tests/test_acceptance.py): subject i
rests 1500 + 120 i s, is active 900 + 60 i s at 1.0 + 0.2 i Hz with
amplitude 0.4 + 0.05 i g (40 % jitter), in one of six orientations, with
0.02 g noise. The benchmark seed only changes the random content (noise,
bout amplitudes, phases), so the work per run stays the same across seeds.

Every subject holds at least 256 epochs: the frequency-domain matrix needs
one full 256-epoch PSD segment, and a shorter subject aborts the whole
`correlate` run (a known defect that the harness tests exercise on a 1 h
corpus, not a property of the workloads).
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

SAMPLE_RATE_HZ = 10.0
EPOCH_S = 60.0
CATALOG_SIZE = 83  # default catalog: one PIM integration

_ORIENTATIONS = (
    (0.0, 0.0, 1.0),
    (0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0),
    (0.6, 0.0, 0.8),
    (0.0, 0.6, 0.8),
    (0.48, 0.6, 0.64),
)

# Input sets kept per workload; older seeds are evicted to bound disk use.
_CACHED_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark corpus plus the `correlate` flags it runs with."""

    name: str
    why: str
    subjects: int
    duration_s: float
    jobs: int = 1
    config: dict = field(default_factory=lambda: {"schema_version": 1})

    @property
    def rec_hours(self) -> float:
        return self.subjects * self.duration_s / 3600.0

    @property
    def samples_per_axis(self) -> int:
        return self.subjects * int(round(self.duration_s * SAMPLE_RATE_HZ))

    @property
    def sweeps(self) -> int:
        sweep = self.config.get("sweep", {})
        return len(sweep.get("metrics", ("ZCM", "TAT"))) * len(sweep.get("kinds", ("UFM",)))

    def subject_ids(self) -> list[str]:
        return [f"subject{i:02d}" for i in range(self.subjects)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bundle-6x24h",
            why=(
                "Paper's full bundle on the acceptance corpus: 6 x 24 h at 10 Hz, 144 rec-h, "
                "5.18 M samples/axis, jobs 1; catalog kernels and the two UFM sweeps dominate"
            ),
            subjects=6,
            duration_s=86400.0,
        ),
        Workload(
            name="week-1x7d",
            why=(
                "One 7-day subject at 10 Hz, 168 rec-h, 6.05 M samples/axis, sweeps off, "
                "jobs 1; per-sample layers and memory dominate, sweeps do nothing"
            ),
            subjects=1,
            duration_s=7 * 86400.0,
            config={"schema_version": 1, "sweep": {"metrics": []}},
        ),
        Workload(
            name="cohort-24x6h-j2",
            why=(
                "24 x 6 h at 10 Hz (360 epochs each, >= the 256-epoch PSD segment), 144 rec-h, "
                "5.18 M samples/axis, jobs 2; per-subject fixed costs and the thread pool"
            ),
            subjects=24,
            duration_s=6 * 3600.0,
            jobs=2,
        ),
    )
}


def subject_specs(workload: Workload, seed: int):
    """The `SyntheticSpec` of every subject of `workload` under `seed`."""
    from actimetrics import SyntheticSpec

    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    specs = []
    for i, subject_id in enumerate(workload.subject_ids()):
        shape = i % len(_ORIENTATIONS)
        specs.append(
            SyntheticSpec(
                subject_id=subject_id,
                duration_s=workload.duration_s,
                sample_rate_hz=SAMPLE_RATE_HZ,
                rest_s=1500.0 + 120.0 * shape,
                active_s=900.0 + 60.0 * shape,
                active_freq_hz=1.0 + 0.2 * shape,
                active_amp_g=0.4 + 0.05 * shape,
                amp_jitter=0.4,
                orientation=_ORIENTATIONS[shape],
                noise_sd_g=0.02,
                seed=seed * 1000 + i,
            )
        )
    return specs


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def ensure_inputs(workload: Workload, seed: int, work_dir: Path) -> tuple[list[Path], Path]:
    """Generate (or reuse) the `.actm` inputs and config file for one seed.

    Inputs are cached per (workload, seed) under `work_dir/inputs`; a
    `ready.json` marker written last makes a half-written set invisible.
    Returns the recording paths and the config path.
    """
    from actimetrics import formats, synthesize

    base = work_dir / "inputs"
    target = base / f"{workload.name}-seed{seed}"
    marker = target / "ready.json"
    paths = [target / f"{sid}.actm" for sid in workload.subject_ids()]
    config_path = target / "config.json"
    if not marker.is_file():
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        for spec, path in zip(subject_specs(workload, seed), paths):
            formats.write_recording_bin(synthesize(spec), path)
        config_path.write_text(json.dumps(workload.config, sort_keys=True) + "\n")
        marker.write_text(json.dumps({"inputs_sha256": _digest(paths)}) + "\n")
    marker.touch()

    siblings = sorted(
        (p for p in base.glob(f"{workload.name}-seed*") if p != target),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in siblings[: max(0, len(siblings) - (_CACHED_SEEDS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    return paths, config_path


def inputs_sha256(inputs: list[Path]) -> str:
    """Digest of the input set as recorded when it was generated."""
    marker = inputs[0].parent / "ready.json"
    return json.loads(marker.read_text())["inputs_sha256"]
