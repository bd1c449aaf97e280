"""Run the benchmark over several seeds and workloads and summarize the spread.

Usage, from the repository root:

    python3 bench/suite.py --seeds 1-10 [--workloads bundle-6x24h,week-1x7d]
                           [--seconds 10] [--trace 0] [--json FILE]

Each (workload, seed) pair is one `bench/run.py` process, run in order.
For every metric the summary gives the unit, the number of runs, the
median, the quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median. It also prints failed_frac over all
operations attempted, and each run's bundle sha256. The exit code is
1 when any run failed its correctness gate or exited non-zero.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("nan")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def run_one(workload: str, seed: int, seconds: float,
            trace: int) -> tuple[int, dict | None, list[str]]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
    lines = proc.stdout.strip().splitlines()
    digests = sorted(set(re.findall(r"bundle .* sha256 ([0-9a-f]{64})", proc.stdout)))
    try:
        return proc.returncode, json.loads(lines[-1]), digests
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return proc.returncode, None, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            code, result, digests = run_one(name, seed, args.seconds, args.trace)
            if result is None or code != 0 or not result["correct"]:
                ok = False
            if result is None:
                print(f"{name} seed {seed}: no result (exit {code})")
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            line = []
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
                line.append(f"{metric}={entry['value']:.6g}")
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(line[:6])
                  + f" bundle_sha256={','.join(d[:16] for d in digests) or '-'}", flush=True)
        rows = {m: dict(summarize(v), unit=units[m]) for m, v in values.items()}
        rows["failed_frac"] = {"n": attempted, "value": failed / attempted if attempted else 1.0,
                               "unit": "ratio"}
        summary[name] = rows
        print(f"\n{name}: {len(args.seeds)} seeds, seconds {args.seconds:g}, trace {args.trace}")
        print(f"  {'metric':32s} {'unit':8s} {'n':>5s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s}")
        for metric, row in rows.items():
            if "q1" in row:
                print(f"  {metric:32s} {row['unit']:8s} {row['n']:5d} {row['median']:12.6g} "
                      f"{row['q1']:12.6g} {row['q3']:12.6g} {row['spread']:8.4f}")
            else:
                print(f"  {metric:32s} {row['unit']:8s} {row['n']:5d} {row['value']:12.6g} "
                      f"(n = operations attempted, all runs)")
        print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
