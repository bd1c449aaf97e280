"""End-to-end batch pipeline over a set of recordings.

One map and one reduce. The map is one task per subject: decode the
recording, validate, preprocess into every dataset kind, evaluate the
full variant catalog, compute the subject's part of each configured
threshold sweep (at the subject's own sample rate, against the catalog's
own ``ENMO`` and ``HFEN`` signals when it holds both), then write one
activity file per variant. The reduce, over the successful subjects in
subject-id order: for each of the time and frequency domains, every
subject's Pearson matrix and then their mean and SD matrices; one curve
per sweep, from its parts alone (each part carries its metric, kind and
grid); and a manifest tying everything to the config hash and catalog.

A run takes recording sources: each has a ``subject_id``, a
``sample_rate_hz`` and a ``load()`` that returns the
:class:`RawRecording`. A :class:`formats.RecordingSource` holds only what
the file's header (or CSV sidecar) says and decodes the file in ``load``;
a :class:`RawRecording` returns itself. The calling process orders and
admits subjects by id and rate alone, and each subject task decodes its
own recording, so no process holds the whole cohort's samples.

With ``jobs`` > 1 the subject tasks run in that many worker processes
(at most one per subject), started by fork: each inherits the config and
every recording's path, id and rate, and only its subject's signals,
written paths and sweep parts come back pickled. The reduce, the
per-subject matrices included, and the manifest run in the calling
process once the pool has shut down, so the bundle is byte-identical for
any ``jobs`` and any input order. A worker process that dies ends the
run in :class:`WorkerDied` before the manifest is written.

A failure in one subject's decode, :func:`process_subject` or sweep
parts, whatever the exception, is reported in the manifest and does not
stop the others.
Output is deterministic: rerunning with the same config and inputs
produces byte-identical files.
"""
from __future__ import annotations

import json
import logging
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Mapping, Sequence, Union

from . import formats
from .analysis import (
    Domain,
    correlation_matrix,
    recording_sweep,
    subject_correlation,
    threshold_sweep,
)
from .combine import compute_activity
from .config import PipelineConfig
from .core import (
    ActivitySignal,
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    epoch_sample_count,
    ordered_map,
    require_jobs,
    validate_recording,
)
from .errors import ActimetricsError, ConfigError, InvalidRecording, WorkerDied
from .metrics import (
    MetricId,
    NoiseVarianceEstimate,
    estimate_noise_variance,
    noise_window_samples,
)
from .preprocess import preprocess_all

MANIFEST_SCHEMA = 1

# what run_pipeline takes: anything with subject_id, sample_rate_hz and load()
Source = Union[RawRecording, formats.RecordingSource]

_log = logging.getLogger(__name__)


def preprocess_subject(
    rec: RawRecording, config: PipelineConfig
) -> dict[DatasetKind, PreprocessedSeries]:
    """Every dataset kind of one recording, filtered at its rate.

    Rejects ``rec`` first: :class:`InvalidRecording` on any validation
    finding, then :func:`epoch_sample_count`'s rule.
    """
    report = validate_recording(rec, config.full_scale_g)
    if not report.ok:
        raise InvalidRecording(f"{rec.subject_id}: {report.summary()}")
    epoch_sample_count(config.epoch_s, rec.sample_rate_hz)
    return preprocess_all(rec, config.bandpass, config.hfen_highpass, config.zero_phase)


def process_subject(
    rec: RawRecording, config: PipelineConfig
) -> dict[str, ActivitySignal]:
    """All cataloged activity signals for one recording, keyed by label."""
    datasets = preprocess_subject(rec, config)
    if config.ai.sigma_sq_override is not None:
        noise = NoiseVarianceEstimate(config.ai.sigma_sq_override, 0.0, -1)
    else:
        noise = estimate_noise_variance(rec, config.ai.noise_window_s)

    thresholds = {}  # resolved ZCM/TAT thresholds of this subject's datasets
    signals: dict[str, ActivitySignal] = {}
    for variant in config.variants():
        signals[variant.label] = compute_activity(
            variant,
            datasets,
            config.epoch_s,
            noise=noise,
            ai_subtract_per_axis=config.ai.subtract_per_axis,
            thresholds=thresholds,
        )
    return signals


def require_unique_subject_ids(recordings: Sequence[Source]) -> None:
    """Raise ConfigError if two recordings share a subject id, which names their output."""
    ids = [rec.subject_id for rec in recordings]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate subject ids: {sorted(ids)}")


def _require_a_fitting_rate(
    config: PipelineConfig, recordings: Sequence[Source]
) -> None:
    """Raise the first rate's ConfigError unless some rate suits ``config``.

    Checked once per distinct sample rate: the epoch rule and, unless
    sigma² is overridden, the AI noise window. A recording at a failing
    rate is left to fail alone when its subject runs.
    """
    errors = []
    for rate in dict.fromkeys(rec.sample_rate_hz for rec in recordings):
        try:
            epoch_sample_count(config.epoch_s, rate)
            if config.ai.sigma_sq_override is None:
                noise_window_samples(config.ai.noise_window_s, rate)
            return
        except ConfigError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]


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


def run_pipeline(
    config: PipelineConfig,
    recordings: Sequence[Source],
    out_dir,
    jobs: int = 1,
) -> dict:
    """Run the whole pipeline and write the artifact bundle; returns the manifest.

    ``recordings`` are sources (see the module docstring); each is loaded
    inside its own subject task. Config errors (empty catalog, duplicate
    ids, no fitting rate, a ``jobs`` :func:`require_jobs` rejects) are
    raised before anything is written. Any exception in one subject's
    ``load()``, :func:`process_subject` or sweep parts fails that subject
    alone, before its activity files are written, reported by its own text
    if a package error, else as ``"<TypeName>: <message>"`` with its
    traceback logged; an error while writing propagates, and so does
    :class:`WorkerDied` when a worker process dies.
    """
    if not recordings:
        raise ConfigError("no recordings given")
    require_jobs(jobs)
    labels = [v.label for v in config.variants()]
    recordings = sorted(recordings, key=lambda source: source.subject_id)
    require_unique_subject_ids(recordings)
    _require_a_fitting_rate(config, recordings)
    out_dir = Path(out_dir)

    requests = [(MetricId(m), DatasetKind(k)) for m, k in config.sweep_requests()]
    grid = {"step_g": config.sweep.step_g, "max_steps": config.sweep.max_steps}

    def _run(source: Source):
        """(signals, written paths, sweep parts) of one subject, or the text of its failure."""
        try:
            rec = source.load()
            signals = process_subject(rec, config)
            # the sweeps' references are these very signals; a catalog filter
            # may drop them, and then each part computes its own
            enmo, hfen = signals.get(MetricId.ENMO.value), signals.get(MetricId.HFEN.value)
            references = None if enmo is None or hfen is None else (enmo.values, hfen.values)
            parts = [
                recording_sweep(
                    metric, kind, rec, config.epoch_s,
                    bandpass=config.bandpass,
                    hfen_spec=config.hfen_highpass,
                    zero_phase=config.zero_phase,
                    references=references,
                    **grid,
                )
                for metric, kind in requests
            ]
        except ActimetricsError as exc:
            return str(exc)
        except Exception as exc:
            _log.error("subject %s failed", source.subject_id, exc_info=exc)
            return f"{type(exc).__name__}: {exc}"
        return signals, write_activity_files(signals, out_dir, source.subject_id), parts

    results = []  # consumed to the end, so that the pool is shut down here
    try:
        for result in ordered_map(_run, recordings, jobs):
            results.append(result)
    except BrokenProcessPool:
        raise WorkerDied(
            "a worker process died (killed, or out of memory?) before subject "
            f"{recordings[len(results)].subject_id} returned; no manifest was written"
        ) from None
    failures = {rec.subject_id: result for rec, result in zip(recordings, results)
                if isinstance(result, str)}
    ok = [result for result in results if not isinstance(result, str)]
    signals = [s for s, _, _ in ok]  # per ok subject, in subject-id order
    outputs = [rel for _, written, _ in ok for rel in written]
    parts = [p for _, _, p in ok]  # per ok subject, one per sweep request
    out_dir.mkdir(parents=True, exist_ok=True)

    matrices: dict[str, dict] = {}
    if signals:
        for domain, stem in ((Domain.TIME, "correlation_time"),
                             (Domain.FREQUENCY, "correlation_frequency")):
            summary = correlation_matrix(
                [subject_correlation(s, labels, domain, config.psd) for s in signals],
                domain, labels)
            formats.write_matrix_csv(summary, out_dir / f"{stem}.csv")
            formats.write_matrix_json(summary, out_dir / f"{stem}.json")
            outputs += [f"{stem}.csv", f"{stem}.json"]
            matrices[domain.value] = {
                "excluded_pairs": int((summary.excluded > 0).sum()),
            }

    sweeps: list[str] = []
    # zip(*parts) is empty when no subject succeeded
    for sweep_parts in zip(*parts):
        curve = threshold_sweep(sweep_parts)
        rel = f"sweep_{curve.metric.value}_{curve.kind.value}.csv"
        formats.write_sweep_csv(curve, out_dir / rel)
        sweeps.append(rel)
    outputs += sweeps

    manifest = {
        "manifest_schema": MANIFEST_SCHEMA,
        "config_hash": config.config_hash(),
        "config": config.canonical_dict(),
        "catalog_count": len(labels),
        "catalog_labels": labels,
        "subjects": [
            {
                "subject_id": rec.subject_id,
                "status": "failed" if rec.subject_id in failures else "ok",
                "error": failures.get(rec.subject_id),
            }
            for rec in recordings
        ],
        "matrices": matrices,
        "sweeps": sweeps,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest
