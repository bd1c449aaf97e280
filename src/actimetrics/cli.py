"""Command-line interface: synth -> preprocess -> correlate (the full bundle).

Exit codes: 0 success, 1 configuration error, 2 data error, 3 partial
failure (some subjects failed, others were processed), 4 a ``--jobs``
worker process died (no manifest is written). Duplicate subject
ids, and an epoch or AI noise window that no recording's rate holds, are
configuration errors, and so is output that cannot be written (an
``--out`` that names a file, say). Every recording is first opened by its
header alone (``formats.open_recording``): a missing or unreadable file,
a bad ``.actm`` header or CSV sidecar, and a subject id (a sidecar's or a
file stem) that is not a plain directory name, is a data error before any
output. Past that, any exception while one subject is decoded,
validated, preprocessed, evaluated or swept fails that subject only, with
a ``data error: subject <id> failed: <reason>`` line, and the others are
still written: ``preprocess`` and ``correlate`` exit 3, or 2 if no
subject succeeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import formats
from .config import PipelineConfig, load_config
from .core import DatasetKind, require_jobs
from .errors import ActimetricsError, ConfigError, WorkerDied
from .pipeline import (
    preprocess_subject,
    require_a_fitting_rate,
    require_unique_subject_ids,
    run_pipeline,
    subject_failure,
)
from .synthetic import synthesize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3
EXIT_WORKER = 4


class _Parser(argparse.ArgumentParser):
    # usage problems should exit 1 (config error), not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="actimetrics", description=__doc__)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, help="override the config RNG seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for correlate's per-subject tasks "
                             "(>= 1; above 1 needs fork)")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic recordings")
    synth.add_argument("--subjects", type=int, help="override synthetic.subjects")
    synth.add_argument("--format", choices=("csv", "actm"), default="actm")

    for name, help_text in (
        ("preprocess", "write every preprocessed dataset kind per subject"),
        ("correlate", "run the full pipeline: activities, matrices, sweeps"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("recordings", nargs="+", type=Path)
        cmd.add_argument("--sample-rate-hz", type=float, help="rate for CSV inputs")

    sub.add_parser(
        "catalog",
        help="print the variant labels and count",
        description="Print every cataloged variant label, one per line.",
        epilog=(
            "Label grammar (stable across versions): METRIC(KIND) e.g. PIM(UFNM); "
            "METRIC(AXIS) e.g. ZCM(FY); METRIC(AXIS²) applies the metric to the "
            "squared series; METRIC(AXIS)² squares the activity signal; "
            "RULE[METRIC,FXYZ] with RULE in SUM, SQRTSUM, SUMSQ, VM3 combines "
            "per-axis activities; RULE[METRIC,FXYZ²] combines squared-series "
            "activities. ENMO and HFEN are bare: each has exactly one computation."
        ),
    )

    convert = sub.add_parser("convert", help="convert a recording between csv and actm")
    convert.add_argument("src", type=Path)
    convert.add_argument("dst", type=Path)
    convert.add_argument("--sample-rate-hz", type=float, help="rate for CSV inputs")

    return parser


def _cmd_synth(args, config: PipelineConfig) -> int:
    synthetic = config.synthetic
    if args.subjects is not None:
        synthetic = dataclasses.replace(synthetic, subjects=args.subjects)  # runs its checks
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    for i in range(synthetic.subjects):
        spec = synthetic.subject_spec(i, config.seed)
        rec = synthesize(spec)
        if args.format == "csv":
            formats.write_recording_csv(rec, out / f"{spec.subject_id}.csv")
        else:
            formats.write_recording_bin(rec, out / f"{spec.subject_id}.actm")
        print(f"wrote {spec.subject_id} ({rec.n_samples} samples)")
    return EXIT_OK


def _cmd_preprocess(args, config: PipelineConfig) -> int:
    sources = [formats.open_recording(p, args.sample_rate_hz) for p in args.recordings]
    require_unique_subject_ids(sources)
    require_a_fitting_rate(config, sources, estimates_noise=False)
    n_ok = 0
    for source in sources:
        try:
            datasets = preprocess_subject(source.load(), config)
        except Exception as exc:
            _report_failure(source.subject_id, subject_failure(source.subject_id, exc))
            continue
        subject_dir = args.out / source.subject_id / "datasets"
        subject_dir.mkdir(parents=True, exist_ok=True)
        for kind in list(datasets):  # each series is freed once written
            formats.write_dataset_csv(datasets.pop(kind), subject_dir / f"{kind.value}.csv")
        print(f"{source.subject_id}: wrote {len(DatasetKind)} dataset kinds")
        n_ok += 1
    return _exit_code(n_ok, len(sources))


def _cmd_correlate(args, config: PipelineConfig) -> int:
    sources = [formats.open_recording(p, args.sample_rate_hz) for p in args.recordings]
    manifest = run_pipeline(config, sources, args.out, jobs=args.jobs)
    for subject in manifest["subjects"]:
        if subject["status"] == "failed":
            _report_failure(subject["subject_id"], subject["error"])
    statuses = [s["status"] for s in manifest["subjects"]]
    n_ok = statuses.count("ok")
    print(f"processed {n_ok}/{len(statuses)} subjects, "
          f"{manifest['catalog_count']} variants each")
    return _exit_code(n_ok, len(statuses))


def _report_failure(subject_id: str, reason: str) -> None:
    print(f"data error: subject {subject_id} failed: {reason}", file=sys.stderr)


def _exit_code(n_ok: int, n_subjects: int) -> int:
    """0 if every subject succeeded, 3 if only some did, 2 if none did."""
    if n_ok == 0:
        return EXIT_DATA
    return EXIT_PARTIAL if n_ok < n_subjects else EXIT_OK


def _cmd_catalog(config: PipelineConfig) -> int:
    variants = config.variants()
    for variant in variants:
        print(variant.label)
    print(f"total: {len(variants)} variants")
    return EXIT_OK


def _cmd_convert(args) -> int:
    rec = formats.read_recording(args.src, args.sample_rate_hz)
    if args.dst.suffix.lower() == ".csv":
        formats.write_recording_csv(rec, args.dst)
    else:
        formats.write_recording_bin(rec, args.dst)
    print(f"wrote {args.dst} ({rec.n_samples} samples at {rec.sample_rate_hz} Hz)")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)  # runs its checks
        require_jobs(args.jobs)

        if args.command == "synth":
            return _cmd_synth(args, config)
        if args.command == "preprocess":
            return _cmd_preprocess(args, config)
        if args.command == "correlate":
            return _cmd_correlate(args, config)
        if args.command == "catalog":
            return _cmd_catalog(config)
        if args.command == "convert":
            return _cmd_convert(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerDied as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except ActimetricsError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # reads raise typed errors, so this is a write
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"config error: cannot write output: {reason}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
