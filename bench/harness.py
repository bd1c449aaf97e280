"""Run one workload: fresh worker processes, the gate, and the metrics.

A run generates (or reuses) the workload's inputs for the seed, times
set-up in fresh processes, then repeats units until `seconds` have passed
(at least one unit). An untraced unit is one worker running `correlate`;
a traced run pairs each untraced worker with a traced one, so the
difference of their `bundle_s` is the tracing overhead. Every bundle goes
through the gate, and all bundles of one run must be byte-identical.

Operations are subjects plus bundle artifacts (activity files, the four
matrix files, sweep curves and the manifest). A worker that aborts or a
bundle that fails the gate counts all of its operations as failed, with
the error text kept.
"""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer
from workloads import CATALOG_SIZE, EPOCH_S, Workload, ensure_inputs, inputs_sha256

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 1
# A run must end within 180 s: workers still running this long after the run
# started are killed (and count as failed), and no new unit starts that
# would not finish by then.
RUN_DEADLINE_S = 165.0


@dataclass
class BundleRun:
    traced: bool
    setup_s: float | None = None
    bundle_s: float | None = None
    peak_rss_mb: float | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    sha256: str = ""
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None
    unwrapped: list[str] = field(default_factory=list)  # trace targets not found


@dataclass
class Measurement:
    workload: Workload
    seed: int
    trace: bool
    inputs_sha256: str
    runs: list[BundleRun]
    problems: list[str]
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def source_dir() -> Path:
    return ROOT / "src"


def _spawn_worker(result_path: Path, config: Path, out: Path, jobs: int, trace: bool,
                  run_id: str, inputs: list[Path],
                  deadline: float) -> tuple[dict | None, str, float]:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(result_path), str(source_dir()),
           str(config), str(out), str(jobs), "1" if trace else "0", run_id,
           *(str(p) for p in inputs)]
    started = time.monotonic()
    timeout = max(1.0, deadline - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s", started
    if proc.returncode != 0 or not result_path.is_file():
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"worker exited {proc.returncode}: {tail}", started
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, "", started


def time_setup(config: Path, scratch: Path, deadline: float) -> tuple[float | None, str]:
    """Seconds from spawning a process to actimetrics.cli imported, config loaded."""
    result, error, started = _spawn_worker(
        scratch / f"setup-{uuid.uuid4().hex[:8]}.json", config, scratch, 1, False, "setup", [],
        deadline,
    )
    if result is None:
        return None, f"set-up probe: {error}"
    return result["ready_monotonic"] - started, ""


def operations(workload: Workload) -> int:
    """Subjects plus bundle artifacts one `correlate` run should produce."""
    artifacts = workload.subjects * CATALOG_SIZE + 4 + workload.sweeps + 1
    return workload.subjects + artifacts


def run_bundle(workload: Workload, seed: int, inputs: list[Path], config: Path,
               scratch: Path, traced: bool, deadline: float,
               keep: Path | None = None) -> BundleRun:
    """One fresh worker running `correlate`, then the gate on its bundle."""
    run_id = uuid.uuid4().hex[:12]
    out = scratch / f"bundle-{run_id}"
    result, error, started = _spawn_worker(
        scratch / f"result-{run_id}.json", config, out, workload.jobs, traced, run_id, inputs,
        deadline,
    )
    run = BundleRun(traced=traced, attempted=operations(workload))
    if result is None:
        run.error = error
    else:
        run.setup_s = result["ready_monotonic"] - started
        run.bundle_s = result["bundle_s"]
        run.peak_rss_mb = result["peak_rss_mb"]
        run.error = result["error"]
        if traced:
            run.layers = tracer.layer_metrics(result["trace"], workload.jobs)
            run.unwrapped = result["trace"]["missing"]
            trace_path = scratch.parent / f"trace-{workload.name}.json"
            trace_path.write_text(json.dumps(result["trace"]) + "\n")
    if run.error is None:
        verdict = gate.check_bundle(out, inputs, catalog_size=CATALOG_SIZE,
                                    sweeps=workload.sweeps, epoch_s=EPOCH_S, seed=seed)
        run.problems = verdict.problems
        run.sha256 = verdict.sha256
    if run.error is not None or run.problems:
        run.failed = run.attempted
    if keep is not None and out.is_dir():
        shutil.copytree(out, keep, dirs_exist_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    return run


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
            setup_probes: int = SETUP_PROBES, keep: Path | None = None) -> Measurement:
    """One benchmark run of `workload` under `seed` (see module docstring)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_dir = Path(work_dir)
    inputs, config = ensure_inputs(workload, seed, work_dir)
    scratch = work_dir / "scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    problems: list[str] = []
    setup_samples: list[float] = []
    for _ in range(0 if trace else setup_probes):
        sample, error = time_setup(config, scratch, deadline)
        if sample is None:
            problems.append(error)
        else:
            setup_samples.append(sample)
    runs: list[BundleRun] = []
    begin = time.monotonic()
    unit_s = 0.0
    while not runs or (time.monotonic() - begin < seconds
                       and time.monotonic() + unit_s < deadline):
        unit_start = time.monotonic()
        runs.append(run_bundle(workload, seed, inputs, config, scratch, False, deadline, keep))
        if trace:
            runs.append(run_bundle(workload, seed, inputs, config, scratch, True, deadline))
        unit_s = time.monotonic() - unit_start
    shutil.rmtree(scratch, ignore_errors=True)

    problems += [f"{'traced' if r.traced else 'untraced'} run: {p}"
                 for r in runs for p in ([r.error] if r.error else []) + r.problems]
    digests = {r.sha256 for r in runs if r.sha256 and not r.problems}
    if len(digests) > 1:
        problems.append(f"bundles of one run differ: {sorted(digests)}")

    plain = [r for r in runs if not r.traced]
    bundle_s = _median([r.bundle_s for r in plain if r.bundle_s is not None])
    metrics: dict[str, tuple[float, str, int]] = {}
    if trace:
        traced = [r for r in runs if r.traced and r.layers is not None]
        names = dict.fromkeys(k for r in traced for k in r.layers)
        for name in names:
            metrics[name] = (_median([r.layers.get(name, 0.0) for r in traced]),
                             tracer.layer_unit(name), len(traced))
        traced_s = _median([r.layers["trace.bundle_s"] for r in traced])
        metrics["trace.overhead_s"] = (traced_s - bundle_s, "s", len(traced))
    else:
        setup_samples += [r.setup_s for r in plain if r.setup_s is not None]
        n = len([r for r in plain if r.bundle_s is not None])
        metrics["bundle_s"] = (bundle_s, "s", n)
        metrics["rec_hours_per_s"] = (workload.rec_hours / bundle_s, "rec-h/s", n)
        rss = [r.peak_rss_mb for r in plain if r.peak_rss_mb is not None]
        metrics["peak_rss_mb"] = (_median(rss), "MB", len(rss))
        metrics["setup_s"] = (_median(setup_samples), "s", len(setup_samples))
    return Measurement(workload, seed, trace, inputs_sha256(inputs), runs, problems, metrics)
