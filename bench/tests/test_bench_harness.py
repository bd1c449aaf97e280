"""Tests of the benchmark harness: gate, failure accounting, repeatable counters.

They run the real worker processes on scaled-down corpora (2 subjects of
270 epochs, just above the 256-epoch PSD segment), so the counts they
check are the same ones the full workloads report.
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    CATALOG_SIZE, WORKLOADS, Workload, ensure_inputs, inputs_sha256)

SMALL = Workload(name="small-2x270m", why="scaled-down bundle", subjects=2,
                 duration_s=270 * 60.0)
SHORT = Workload(name="short-2x1h", why="shorter than one PSD segment", subjects=2,
                 duration_s=3600.0)
SEED = 5

REPEATABLE_COUNTS = (
    "metrics.kernel_calls",
    "metrics.kernel_calls_distinct",
    "metrics.sweep_kernel_calls",
    "preprocess.calls",
    "preprocess.sweep_calls",
    "formats.files_written",
    "formats.bytes_written",
    "analysis.sweep_thresholds",
    "combine.variants",
)
SELF_TIMES = (
    "cli.self_s", "formats.read_s", "formats.write_s", "core.validate_s", "preprocess.s",
    "metrics.noise_s", "combine.s", "analysis.corr_time_s", "analysis.corr_freq_s",
    "analysis.sweep_s", "pipeline.self_s",
)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench-work")
    kept = work / "kept-bundle"
    first = harness.measure(SMALL, SEED, 0, True, work, keep=kept)
    second = harness.measure(SMALL, SEED, 0, True, work)
    return first, second, kept, work


def _value(measurement, name):
    return measurement.metrics[name][0]


def test_traced_runs_pass_the_gate(traced_runs):
    first, second, _, _ = traced_runs
    for m in (first, second):
        assert m.correct, m.problems
        assert m.failed == 0 and m.attempted == 2 * harness.operations(SMALL)


def test_counters_repeat_exactly_for_one_seed(traced_runs):
    first, second, _, _ = traced_runs
    for name in REPEATABLE_COUNTS:
        assert _value(first, name) == _value(second, name), name
    assert _value(first, "combine.variants") == SMALL.subjects * CATALOG_SIZE
    assert _value(first, "formats.files_written") == SMALL.subjects * CATALOG_SIZE + 4 + 2
    assert _value(first, "preprocess.sweep_calls") == 2 * SMALL.subjects
    assert _value(first, "preprocess.calls") == 3 * SMALL.subjects
    assert 0 < _value(first, "metrics.kernel_calls_distinct") < _value(first, "metrics.kernel_calls")
    assert _value(first, "analysis.sweep_thresholds") > 0


def test_self_times_account_for_the_traced_bundle(traced_runs):
    first, _, _, _ = traced_runs
    total = sum(_value(first, name) for name in SELF_TIMES)
    assert total == pytest.approx(_value(first, "trace.bundle_s"), rel=1e-9)
    assert _value(first, "trace.self_sum_s") == pytest.approx(total, rel=1e-9)
    assert _value(first, "pipeline.worker_utilization") == pytest.approx(1.0, abs=0.01)


def test_bundle_is_byte_identical_across_runs_and_tracing(traced_runs):
    first, second, _, _ = traced_runs
    digests = {r.sha256 for m in (first, second) for r in m.runs}
    assert len(digests) == 1 and "" not in digests


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    return harness.measure(SHORT, 1, 0, False, tmp_path_factory.mktemp("short"),
                           setup_probes=0)


def test_short_recording_abort_counts_every_operation(short_run):
    m = short_run
    assert not m.correct
    assert m.attempted == harness.operations(SHORT)
    assert m.failed == m.attempted
    assert "256-epoch segment" in m.runs[0].error


def _gate(bundle, work):
    inputs, _ = ensure_inputs(SMALL, SEED, work)
    return gate.check_bundle(bundle, inputs, catalog_size=CATALOG_SIZE, sweeps=2,
                             epoch_s=60.0, seed=SEED)


@pytest.fixture
def bundle_copy(traced_runs, tmp_path):
    _, _, kept, work = traced_runs
    copy = tmp_path / "bundle"
    shutil.copytree(kept, copy)
    return copy, work


def test_gate_accepts_the_real_bundle(bundle_copy):
    bundle, work = bundle_copy
    assert _gate(bundle, work).ok


def test_gate_rejects_an_activity_value_off_the_oracle(bundle_copy):
    bundle, work = bundle_copy
    path = bundle / "subject00" / "activity" / "ENMO.csv"
    lines = path.read_text().splitlines()
    fudged = [line if line.startswith("#") or line.startswith("epoch")
              else f"{line.split(',')[0]},{float(line.split(',')[1]) + 1e-3!r}" for line in lines]
    path.write_text("\n".join(fudged) + "\n")
    verdict = _gate(bundle, work)
    assert not verdict.ok and any("ENMO" in p for p in verdict.problems)


def test_gate_rejects_an_asymmetric_matrix(bundle_copy):
    bundle, work = bundle_copy
    path = bundle / "correlation_time.json"
    payload = json.loads(path.read_text())
    payload["mean"][0][1] = 0.123
    path.write_text(json.dumps(payload))
    verdict = _gate(bundle, work)
    assert any("not symmetric" in p for p in verdict.problems)


def test_gate_rejects_a_missing_output(bundle_copy):
    bundle, work = bundle_copy
    (bundle / "sweep_TAT_UFM.csv").unlink()
    assert any("missing" in p for p in _gate(bundle, work).problems)


def test_inputs_depend_only_on_the_seed(tmp_path):
    tiny = Workload(name="tiny", why="seed check", subjects=1, duration_s=600.0)
    a, _ = ensure_inputs(tiny, 3, tmp_path / "a")
    b, _ = ensure_inputs(tiny, 3, tmp_path / "b")
    c, _ = ensure_inputs(tiny, 4, tmp_path / "a")
    assert inputs_sha256(a) == inputs_sha256(b) != inputs_sha256(c)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert tracer.self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_benchmark_json_names_every_reported_metric(traced_runs, short_run):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    first, _, _, _ = traced_runs
    reported = {name: unit for name, (_value, unit, _n) in first.metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    reported = {name: unit for name, (_value, unit, _n) in short_run.metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == reported
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
