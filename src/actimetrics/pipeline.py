"""End-to-end batch pipeline over a set of recordings.

One map and one reduce. The map is one task per subject, and
:func:`process_subject` is all of it but the writes: decode the
recording, validate, and walk the list :func:`plan_subject` makes, which
fixes the evaluation order, when each dataset is built and dropped, and
when the subject's part of each configured threshold sweep runs (at the
subject's own rate, against the same build's ``ENMO`` and ``HFEN``);
then the task makes the subject's Pearson matrix in each of the time and
frequency domains and writes one activity file per variant, in catalog
order. The task is the recording's only holder and drops it after the
sweep parts, so the build frees each decoded axis after its last use.
The reduce, over the successful subjects in subject-id order: for each
domain, the mean and SD of their matrices; one curve per sweep, from its
parts alone (each part carries its metric, kind and grid); and a
manifest tying everything to the config hash and catalog.

A run takes recording sources: each has a ``subject_id``, a
``sample_rate_hz`` and a ``load()`` that returns the
:class:`RawRecording`. A :class:`formats.RecordingSource` holds only what
the file's header (or CSV sidecar) says and decodes the file in ``load``;
a :class:`RawRecording` returns itself. The calling process orders and
admits subjects by id and rate alone, and each subject task decodes its
own recording, so no process holds the whole cohort's samples.

With ``jobs`` > 1 the subject tasks run in that many worker processes
(at most one per subject), started by fork: each inherits the config and
every recording's path, id and rate, and only its subject's two
matrices, written paths and sweep parts come back pickled, never its
signals. The reduce and the manifest run in the calling
process once the pool has shut down, so the bundle is byte-identical for
any ``jobs`` and any input order. A worker process that dies ends the
run in :class:`WorkerDied` before the manifest is written.

A failure anywhere in one subject's task, its decode, sweep parts and
matrices included (a recording shorter than one PSD segment, say),
whatever the exception, is reported in the manifest and stops no other.
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
    SweepCurve,
    correlation_matrix,
    recording_sweep,
    subject_correlation,
    threshold_sweep,
)
from .combine import VariantDescriptor, catalog, compute_activity
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
from .preprocess import BUILD_ORDER, preprocess_all

MANIFEST_SCHEMA = 1

# what run_pipeline takes: anything with subject_id, sample_rate_hz and load()
Source = Union[RawRecording, formats.RecordingSource]

_log = logging.getLogger(__name__)

# the sweep parts' references, in the order recording_sweep takes them
_REFERENCES = (MetricId.ENMO.value, MetricId.HFEN.value)


def _admit(rec: RawRecording, config: PipelineConfig) -> None:
    """Reject ``rec`` unless ``config`` can process it.

    :class:`InvalidRecording` on any validation finding, then
    :func:`epoch_sample_count`'s rule.
    """
    report = validate_recording(rec, config.full_scale_g)
    if not report.ok:
        raise InvalidRecording(f"{rec.subject_id}: {report.summary()}")
    epoch_sample_count(config.epoch_s, rec.sample_rate_hz)


def preprocess_subject(
    rec: RawRecording, config: PipelineConfig
) -> dict[DatasetKind, PreprocessedSeries]:
    """Every dataset kind of one recording, filtered at its rate.

    The map lists them in :class:`DatasetKind` order. Rejects ``rec``
    first, as :func:`process_subject` does.
    """
    _admit(rec, config)
    made = dict(preprocess_all(rec, config.bandpass, config.hfen_highpass, config.zero_phase))
    return {kind: made[kind] for kind in DatasetKind}


def plan_subject(
    variants: Sequence[VariantDescriptor], sweeps: bool
) -> list[VariantDescriptor]:
    """The order in which one subject evaluates ``variants``.

    Given ``sweeps``, the parts' references, the catalog's ``ENMO`` and
    ``HFEN``, are added after the rest if the catalog filters left them
    out. Each variant is placed at the :data:`~actimetrics.preprocess.BUILD_ORDER`
    position of the last dataset it reads, keeping catalog order among
    equals, so :func:`process_subject` evaluates it as soon as that
    dataset is made, drops each dataset after the last entry that reads
    it, and runs the sweep parts right after the later reference.
    """
    left_out = [label for label in _REFERENCES if label not in {v.label for v in variants}]
    if sweeps and left_out:  # catalog(include=[]) would be the whole catalog
        variants = [*variants, *catalog(include=left_out)]
    return sorted(variants, key=lambda v: max(map(BUILD_ORDER.index, v.datasets)))


def process_subject(
    source: Source,
    config: PipelineConfig,
    requests: Sequence[tuple[MetricId, DatasetKind]] = (),
) -> tuple[dict[str, ActivitySignal], list[SweepCurve]]:
    """All cataloged activity signals of one recording, and its sweep parts.

    ``source`` is loaded here, so that, given a file, this call is the
    recording's only holder (a :class:`RawRecording` returns itself, and
    its caller holds it too). The signals come back keyed by label in
    catalog order, and the parts, one :func:`recording_sweep` per
    ``(metric, kind)`` request, in request order. :func:`plan_subject`
    decides the evaluation order, each dataset's lifetime and the sweep
    point; the references it adds are not returned. A combination reads
    the signals of its per-axis inputs, evaluated before it. The
    recording is dropped after the parts (before the build without
    requests), so the build frees each decoded axis after its last use.
    """
    rec = source.load()
    _admit(rec, config)
    variants = config.variants()
    noise = None  # read by the AI variants alone
    if config.ai.sigma_sq_override is not None:
        noise = NoiseVarianceEstimate(config.ai.sigma_sq_override, 0.0, -1)
    elif _estimates_noise(config):
        noise = estimate_noise_variance(rec, config.ai.noise_window_s)

    plan = plan_subject(variants, bool(requests))
    last_reader = {kind: step for step, v in enumerate(plan) for kind in v.datasets}
    labels = [variant.label for variant in plan]
    sweep_at = max(map(labels.index, _REFERENCES)) if requests else None
    build = preprocess_all(rec, config.bandpass, config.hfen_highpass,
                           config.zero_phase, kinds=last_reader)
    if sweep_at is None:
        rec = None  # no part reads it, so the build frees each axis after its last use
    datasets: dict[DatasetKind, PreprocessedSeries] = {}
    thresholds = {}  # resolved ZCM/TAT thresholds of this subject's datasets
    signals: dict[VariantDescriptor, ActivitySignal] = {}  # where a combination finds its inputs
    parts = []
    for step, variant in enumerate(plan):
        while not datasets.keys() >= set(variant.datasets):
            datasets.update([next(build)])  # the map alone holds it: its last reader frees it
        signals[variant] = compute_activity(
            variant, datasets, config.epoch_s, noise=noise,
            ai_subtract_per_axis=config.ai.subtract_per_axis, thresholds=thresholds,
            signals=signals)
        for kind in variant.datasets:
            if last_reader[kind] == step:
                del datasets[kind]
        if step == sweep_at:
            references = tuple(signals[plan[labels.index(label)]].values
                               for label in _REFERENCES)
            parts = [
                recording_sweep(
                    metric, swept, rec, config.epoch_s, references=references,
                    bandpass=config.bandpass, hfen_spec=config.hfen_highpass,
                    zero_phase=config.zero_phase, step_g=config.sweep.step_g,
                    max_steps=config.sweep.max_steps)
                for metric, swept in requests
            ]
            rec = None
    return {variant.label: signals[variant] for variant in variants}, parts


def require_unique_subject_ids(recordings: Sequence[Source]) -> None:
    """Raise ConfigError if two recordings share a subject id, which names their output."""
    ids = [rec.subject_id for rec in recordings]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate subject ids: {sorted(ids)}")


def _estimates_noise(config: PipelineConfig) -> bool:
    """Whether a subject estimates its AI noise: an AI variant, no sigma² override."""
    return config.ai.sigma_sq_override is None and any(
        variant.metric is MetricId.AI for variant in config.variants())


def require_a_fitting_rate(
    config: PipelineConfig, recordings: Sequence[Source], estimates_noise: bool
) -> None:
    """Raise the first rate's ConfigError unless some rate suits ``config``.

    Checked once per distinct sample rate: the epoch rule and, if
    ``estimates_noise``, the AI noise window. A recording at a failing
    rate is left to fail alone when its subject runs.
    """
    errors = []
    for rate in dict.fromkeys(rec.sample_rate_hz for rec in recordings):
        try:
            epoch_sample_count(config.epoch_s, rate)
            if estimates_noise:
                noise_window_samples(config.ai.noise_window_s, rate)
            return
        except ConfigError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]


def subject_failure(subject_id: str, exc: Exception) -> str:
    """How one subject's failure is reported.

    A package error by its own text, anything else as
    ``"<TypeName>: <message>"``, with its traceback logged.
    """
    if isinstance(exc, ActimetricsError):
        return str(exc)
    _log.error("subject %s failed", subject_id, exc_info=exc)
    return f"{type(exc).__name__}: {exc}"


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
    inside its own subject task, by :func:`process_subject`. Config errors
    (duplicate ids, no fitting rate, a ``jobs`` :func:`require_jobs`
    rejects) and an id :func:`formats.require_plain_subject_id` rejects are
    raised before anything is written. Any exception in one subject's
    task (its ``load()``, sweep parts and matrices included) fails that
    subject alone, before its activity files are written, reported as
    :func:`subject_failure` words it; an error while writing propagates,
    and so does :class:`WorkerDied` when a worker process dies.
    """
    if not recordings:
        raise ConfigError("no recordings given")
    require_jobs(jobs)
    for i, source in enumerate(recordings):  # each names its output directory
        formats.require_plain_subject_id(source.subject_id, f"recordings[{i}]")
    labels = [v.label for v in config.variants()]
    recordings = sorted(recordings, key=lambda source: source.subject_id)
    require_unique_subject_ids(recordings)
    require_a_fitting_rate(config, recordings, _estimates_noise(config))
    out_dir = Path(out_dir)

    requests = [(MetricId(m), DatasetKind(k)) for m, k in config.sweep_requests()]

    def _run(source: Source):
        """(matrices, written paths, sweep parts) of one subject, or the text of its failure."""
        try:
            signals, parts = process_subject(source, config, requests)
            matrices = {domain: subject_correlation(signals, labels, domain, config.psd)
                        for domain in Domain}
        except Exception as exc:
            return subject_failure(source.subject_id, exc)
        return matrices, write_activity_files(signals, out_dir, source.subject_id), parts

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
    per_subject = [m for m, _, _ in ok]  # per ok subject, in subject-id order
    outputs = [rel for _, written, _ in ok for rel in written]
    parts = [p for _, _, p in ok]  # per ok subject, one per sweep request
    out_dir.mkdir(parents=True, exist_ok=True)

    matrices: dict[str, dict] = {}
    if per_subject:
        for domain in Domain:
            summary = correlation_matrix([m[domain] for m in per_subject], domain, labels)
            stem = f"correlation_{domain.value}"
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
