"""End-to-end batch pipeline over a set of recordings.

Per subject: validate, preprocess into every dataset kind, evaluate the
full variant catalog, and write one activity file per variant. Across
subjects: time- and frequency-domain correlation matrices, the configured
threshold sweeps (computed per subject at the subject's own sample rate,
then averaged over the successful subjects in input order), and a
manifest tying everything to the config hash and catalog.

The CLI's ``preprocess``, ``activity`` and ``sweep`` subcommands run the
same steps through :func:`preprocess_subject`, :func:`write_activity_files`
and :func:`write_sweeps`.

Failures of one subject are reported in the manifest and do not stop the
others. Output is deterministic: rerunning with the same config and
inputs produces byte-identical files.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import formats
from .analysis import Domain, SweepCurve, correlation_matrix, threshold_sweep
from .combine import catalog, compute_activity
from .config import PipelineConfig, check_epoch_alignment
from .core import (
    ActivitySignal,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    validate_recording,
)
from .errors import ActimetricsError, ConfigError, InvalidRecording
from .metrics import MetricId, NoiseVarianceEstimate, estimate_noise_variance
from .preprocess import preprocess_all

MANIFEST_SCHEMA = 1


def preprocess_subject(
    rec: RawRecording, config: PipelineConfig
) -> dict[DatasetKind, PreprocessedSeries]:
    """Every dataset kind of one recording, filtered as configured at its rate.

    Rejects a rate at which the configured epoch is not a whole number of
    samples before any filtering.
    """
    check_epoch_alignment(config, rec.sample_rate_hz)
    return preprocess_all(rec, config.bandpass, config.hfen_highpass, config.zero_phase)


def process_subject(
    rec: RawRecording, config: PipelineConfig
) -> dict[str, ActivitySignal]:
    """All cataloged activity signals for one recording, keyed by label."""
    report = validate_recording(rec, config.full_scale_g)
    if not report.ok:
        raise InvalidRecording(f"{rec.subject_id}: {report.summary()}")

    datasets = preprocess_subject(rec, config)
    if config.ai.sigma_sq_override is not None:
        noise = NoiseVarianceEstimate(config.ai.sigma_sq_override, 0.0, -1)
    else:
        noise = estimate_noise_variance(rec, config.ai.noise_window_s)

    variants = catalog(config.catalog_options())
    if not variants:
        raise ConfigError("empty catalog: include/exclude filters left no variants")
    thresholds = {}  # resolved ZCM/TAT thresholds of this subject's datasets
    signals: dict[str, ActivitySignal] = {}
    for variant in variants:
        signals[variant.label] = compute_activity(
            variant,
            datasets,
            config.epoch_s,
            noise=noise,
            ai_subtract_per_axis=config.ai.subtract_per_axis,
            thresholds=thresholds,
        )
    return signals


def write_activity_files(
    signals: Mapping[str, ActivitySignal], out_dir: Path, subject: str
) -> list[str]:
    """One CSV per signal under ``subject/activity/``, in the mapping's order.

    Returns the written paths relative to ``out_dir``.
    """
    (out_dir / subject / "activity").mkdir(parents=True, exist_ok=True)
    written = []
    for label, signal in signals.items():
        rel = f"{subject}/activity/{formats.label_slug(label)}.csv"
        formats.write_activity_csv(signal, out_dir / rel)
        written.append(rel)
    return written


def write_sweeps(
    config: PipelineConfig, recordings: Sequence[RawRecording], out_dir: Path
) -> Iterator[tuple[str, SweepCurve]]:
    """Compute and write each configured threshold sweep over ``recordings``.

    Yields (file name relative to ``out_dir``, curve) once each file is
    written, so a caller can report progress; nothing runs until iterated.
    """
    for metric_name, kind_name in config.sweep_requests():
        curve = threshold_sweep(
            MetricId(metric_name),
            DatasetKind(kind_name),
            recordings,
            config.epoch_s,
            bandpass=config.bandpass,
            hfen_spec=config.hfen_highpass,
            zero_phase=config.zero_phase,
            step_g=config.sweep.step_g,
            max_steps=config.sweep.max_steps,
        )
        rel = f"sweep_{metric_name}_{kind_name}.csv"
        formats.write_sweep_csv(curve, out_dir / rel)
        yield rel, curve


def run_pipeline(
    config: PipelineConfig,
    recordings: Sequence[RawRecording],
    out_dir,
    jobs: int = 1,
) -> dict:
    """Run the whole pipeline and write the artifact bundle; returns the manifest."""
    if not recordings:
        raise ConfigError("no recordings given")
    ids = [rec.subject_id for rec in recordings]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate subject ids: {sorted(ids)}")
    variants = catalog(config.catalog_options())
    if not variants:
        raise ConfigError("empty catalog: include/exclude filters left no variants")
    labels = [v.label for v in variants]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    per_subject: dict[str, dict[str, ActivitySignal]] = {}
    failures: dict[str, str] = {}

    def _run(rec: RawRecording):
        try:
            return rec.subject_id, process_subject(rec, config), None
        except ActimetricsError as exc:
            return rec.subject_id, None, str(exc)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run, recordings))
    else:
        results = map(_run, recordings)  # lazily, one subject at a time
    for subject, signals, error in results:
        if error is None:
            per_subject[subject] = signals
        else:
            failures[subject] = error

    outputs: list[str] = []
    for subject in sorted(per_subject):
        outputs += write_activity_files(per_subject[subject], out_dir, subject)

    matrices: dict[str, dict] = {}
    if per_subject:
        for domain, stem in ((Domain.TIME, "correlation_time"),
                             (Domain.FREQUENCY, "correlation_frequency")):
            summary = correlation_matrix(per_subject, domain, config.psd)
            formats.write_matrix_csv(summary, out_dir / f"{stem}.csv")
            formats.write_matrix_json(summary, out_dir / f"{stem}.json")
            outputs += [f"{stem}.csv", f"{stem}.json"]
            matrices[domain.value] = {
                "excluded_pairs": int((summary.excluded > 0).sum()),
            }

    ok_recordings = [rec for rec in recordings if rec.subject_id in per_subject]
    sweeps: list[str] = []
    if ok_recordings:
        sweeps = [rel for rel, _ in write_sweeps(config, ok_recordings, out_dir)]
        outputs += sweeps

    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "config_hash": config.config_hash(),
        "config": config.canonical_dict(),
        "catalog_count": len(labels),
        "catalog_labels": labels,
        "subjects": [
            {
                "subject_id": subject_id,
                "status": "ok" if subject_id in per_subject else "failed",
                "error": failures.get(subject_id),
            }
            for subject_id in sorted(ids)
        ],
        "matrices": matrices,
        "sweeps": sweeps,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest
