"""Benchmark of `actimetrics correlate`, the path from `.actm` files to the bundle.

Usage, from the repository root:

    python3 bench/run.py --workload bundle-6x24h --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics (bundle_s, rec_hours_per_s,
peak_rss_mb, setup_s) and `--trace 1` the per-layer metrics of a traced run
plus the tracing overhead; both print failed_frac and each bundle's
sha256. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every bundle passed the correctness gate, 1 when one did not, and 2 when
the program's sources are absent.

Inputs are generated from `--seed` with `actimetrics.synthesize`, written
as `.actm` and cached per (workload, seed) under `.bench_work/`, outside
every timed region. See bench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import harness
from workloads import WORKLOADS

WORK_DIR = harness.ROOT / ".bench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def report(m: harness.Measurement) -> dict:
    """Print the human-readable lines and return the result object."""
    w = m.workload
    print(f"workload {w.name}: {w.subjects} subject(s), {w.rec_hours:g} rec-h, "
          f"{w.samples_per_axis} samples/axis, jobs {w.jobs}, seed {m.seed}, "
          f"trace {int(m.trace)}")
    print(f"inputs sha256 {m.inputs_sha256}")
    for r in m.runs:
        kind = "traced  " if r.traced else "untraced"
        status = "ok" if not (r.error or r.problems) else "FAILED"
        bundle = f"{r.bundle_s:.3f} s" if r.bundle_s is not None else "-"
        print(f"  {kind} bundle {bundle}  {status}  sha256 {r.sha256 or '-'}")
        if r.unwrapped:
            print(f"    not traced (not found): {', '.join(r.unwrapped)}")
    for problem in m.problems:
        print(f"  problem: {problem}")
    for name, (value, unit, n) in m.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:8s} n={n}")
    frac = m.failed / m.attempted if m.attempted else 1.0
    print(f"  {'failed_frac':32s} {frac:14.6g} {'ratio':8s} "
          f"n={m.attempted} ({m.failed} of {m.attempted} operations failed)")
    if m.trace and "trace.self_sum_s" in m.metrics:
        get = lambda name: m.metrics[name][0]  # noqa: E731
        overlap = get("pipeline.subject_busy_s") - get("pipeline.subject_wall_s")
        print(f"  span self times sum to {get('trace.self_sum_s'):.4f} s; less "
              f"{overlap:.4f} s of overlapping subjects (jobs {w.jobs}) that is "
              f"{get('trace.self_sum_s') - overlap:.4f} s of a "
              f"{get('trace.bundle_s'):.4f} s traced bundle")
    return {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        # a metric with no sample (every worker crashed) is left out, not NaN
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in m.metrics.items() if math.isfinite(value)},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (harness.source_dir() / "actimetrics" / "cli.py").is_file():
        print(f"no actimetrics sources under {harness.source_dir()}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.source_dir()))

    workload = WORKLOADS[args.workload]
    m = harness.measure(workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    result = report(m)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  time=time.time(), inputs_sha256=m.inputs_sha256,
                  bundle_sha256=sorted({r.sha256 for r in m.runs if r.sha256}),
                  problems=m.problems)
    with (WORK_DIR / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())
