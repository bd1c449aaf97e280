import contextlib
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actimetrics
from actimetrics import (
    DatasetKind,
    MetricId,
    PipelineConfig,
    SyntheticSpec,
    config_from_dict,
    preprocess_all,
    synthesize,
    threshold_sweep,
)
from actimetrics.analysis import recording_sweep
from actimetrics.cli import main
from actimetrics.config import CatalogConfig, SweepConfig, SyntheticConfig, load_config
from actimetrics.core import epoch_matrix, epoch_sample_count
from actimetrics.errors import ConfigError, UnusableSubjectId
from actimetrics.formats import read_recording, write_recording_bin, write_recording_csv
from actimetrics.metrics import enmo_values, hfen_values
from actimetrics.pipeline import run_pipeline

import dataclasses


def small_config(**overrides):
    """A config sized for short test corpora."""
    base = PipelineConfig(
        psd=dataclasses.replace(PipelineConfig().psd, segment_epochs=8),
        sweep=SweepConfig(metrics=("ZCM",), kinds=("UFM",), max_steps=40),
        synthetic=SyntheticConfig(subjects=2, duration_s=1200.0, rest_s=240.0,
                                  active_s=180.0),
    )
    return dataclasses.replace(base, **overrides)


def _log_pid(path, tag="-"):
    """Append ``tag`` and this process's pid as one line (one O_APPEND write)."""
    with open(path, "a") as fh:
        fh.write(f"{tag} {os.getpid()}\n")


def _logged(path):
    """The (tag, pid) lines :func:`_log_pid` appended to ``path``."""
    return [(tag, int(pid)) for tag, pid in map(str.split, path.read_text().splitlines())]


def direct_references(config, rec):
    """A recording's (ENMO, HFEN) values from a build of its own, outside the pipeline."""
    made = dict(preprocess_all(rec, config.bandpass, config.hfen_highpass, config.zero_phase,
                               kinds=(DatasetKind.UFM, DatasetKind.HFEN_SPECIAL)))
    n = epoch_sample_count(config.epoch_s, rec.sample_rate_hz)
    return (enmo_values(epoch_matrix(made[DatasetKind.UFM].values, n)),
            hfen_values(epoch_matrix(made[DatasetKind.HFEN_SPECIAL].values, n)))


def direct_sweep(config, metric, kind, recordings):
    """One configured sweep outside the pipeline: each recording's part, then the reduce."""
    metric, kind = MetricId(metric), DatasetKind(kind)
    grid = {"step_g": config.sweep.step_g, "max_steps": config.sweep.max_steps}
    parts = [
        recording_sweep(metric, kind, rec, config.epoch_s,
                        references=direct_references(config, rec), bandpass=config.bandpass,
                        hfen_spec=config.hfen_highpass, zero_phase=config.zero_phase, **grid)
        for rec in recordings
    ]
    return threshold_sweep(parts)


def corpus(n=2, duration_s=1200.0, seed0=50):
    return [
        synthesize(
            SyntheticSpec(
                subject_id=f"s{i:02d}",
                duration_s=duration_s,
                rest_s=240.0,
                active_s=180.0,
                active_amp_g=0.5,
                amp_jitter=0.3,
                noise_sd_g=0.02,
                seed=seed0 + i,
            )
        )
        for i in range(n)
    ]


@functools.lru_cache(maxsize=None)
def _short_recording(i, epochs):
    """Subject ``s<i>``: ``epochs`` minutes of noisy motion at 10 Hz."""
    return synthesize(SyntheticSpec(subject_id=f"s{i}", duration_s=60.0 * epochs, rest_s=90.0,
                                    active_s=60.0, amp_jitter=0.3, noise_sd_g=0.02, seed=i))


class TestConfig:
    def test_defaults_validate(self):
        config_from_dict({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"not_a_key": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bandpass": {"order": 3, "ripple_db": 1.0}})

    def test_bad_cutoffs_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"bandpass": {"f_low_hz": 3.0, "f_high_hz": 2.5}})

    def test_bad_integration_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"pim_integrations": ["simpson"]})

    def test_fixed_threshold_requires_value(self):
        with pytest.raises(ConfigError):
            config_from_dict({"threshold": {"mode": "fixed"}})

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epoch_s": 30.0, "seed": 7}))
        config = load_config(path)
        assert config.epoch_s == 30.0
        assert config.seed == 7

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"epoch_s": 60.0})
        b = config_from_dict({})
        c = config_from_dict({"epoch_s": 30.0})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("data, digest", [
        ({}, "fa7c13c81b5969ac73f90c4a83de9c0c0384008afb9397cd5d6a9e51835a40bd"),
        ({"threshold": {"mode": "fixed", "fixed_g": 0.15},
          "psd": {"segment_epochs": 8},
          "pim_integrations": ["riemann", "simpson38"],
          "sweep": {"metrics": []}},
         "205e94971040e6b655949781f2f1a988763c7fd9bbbbd27d60b2f623b923c0e8"),
    ])
    def test_hash_pinned(self, data, digest):
        # manifests of earlier runs carry these hashes; the config's types
        # may change, its canonical form may not
        assert config_from_dict(data).config_hash() == digest

    def test_non_integer_epoch_sample_count_rejected(self):
        from actimetrics.core import epoch_sample_count

        config = config_from_dict({"epoch_s": 60.05})
        with pytest.raises(ConfigError):
            epoch_sample_count(config.epoch_s, 10.0)
        assert epoch_sample_count(config_from_dict({}).epoch_s, 10.0) == 600

    def test_both_integrations_flow_into_catalog(self):
        config = config_from_dict({"pim_integrations": ["riemann", "simpson38"]})
        labels = [v.label for v in config.variants()]
        assert "PIM(UFNM)" in labels and "PIMs(UFNM)" in labels
        assert len(labels) == 102

    @pytest.mark.parametrize("kinds", [["BOGUS"], ["UFX"], ["HFEN_SPECIAL"], [7]])
    def test_bad_sweep_kind_rejected(self, kinds):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": {"kinds": kinds}})

    @pytest.mark.parametrize("sweep", [
        {"metrics": ["ZCM", "ZCM"]},
        {"kinds": ["UFM", "FMpost", "UFM"]},
    ])
    def test_duplicate_sweep_entries_rejected(self, sweep):
        # each would compute one curve twice and list its file twice
        with pytest.raises(ConfigError, match="holds duplicates"):
            config_from_dict({"sweep": sweep})

    def test_every_level_metric_kind_accepted_for_sweeps(self):
        kinds = ["FX", "FY", "FZ", "UFM", "UFNM", "FMpre", "FMpost"]
        config = config_from_dict({"sweep": {"kinds": kinds}})
        assert len(config.sweep_requests()) == 2 * len(kinds)

    def test_fixed_threshold_flows_into_compute(self):
        from actimetrics import DatasetKind, MetricId, compute_activity, preprocess_all
        from actimetrics.combine import VariantDescriptor
        from actimetrics.metrics import tat_values

        config = config_from_dict({"threshold": {"mode": "fixed", "fixed_g": 0.15}})
        rec = corpus(1, duration_s=600.0)[0]
        datasets = dict(preprocess_all(rec))
        variant = VariantDescriptor(
            MetricId.TAT, DatasetKind.FY,
            threshold_policy=config.threshold,
        )
        out = compute_activity(variant, datasets, 60.0)
        mat = datasets[DatasetKind.FY].values[:6000].reshape(10, 600)
        np.testing.assert_array_equal(out.values, tat_values(mat, 0.15, 0.1))

    def test_filters_designed_at_the_recordings_own_rate(self):
        from actimetrics import design_filter
        from actimetrics.pipeline import preprocess_subject
        from actimetrics.preprocess import filter_values

        config = config_from_dict(
            {"bandpass": {"order": 4, "f_low_hz": 0.3, "f_high_hz": 2.0}})
        rec = synthesize(SyntheticSpec(
            subject_id="r20", duration_s=600.0, sample_rate_hz=20.0,
            noise_sd_g=0.02, seed=20,
        ))
        fx = preprocess_subject(rec, config)[DatasetKind.FX]
        expected = filter_values(rec.x, design_filter(config.bandpass, 20.0))
        assert fx.values.tobytes() == expected.tobytes()

    def test_zero_phase_config_filters_forward_backward(self):
        from actimetrics import compute_activity, estimate_noise_variance
        from actimetrics.pipeline import process_subject

        rec = corpus(1, duration_s=600.0)[0]
        config = config_from_dict({"filter_phase": "zero-phase"})
        signals, _ = process_subject(rec, config)
        datasets = dict(preprocess_all(rec, zero_phase=True))
        noise = estimate_noise_variance(rec)
        for variant in config.variants():
            expected = compute_activity(variant, datasets, config.epoch_s, noise=noise)
            np.testing.assert_array_equal(signals[variant.label].values,
                                          expected.values, err_msg=variant.label)
        causal, _ = process_subject(rec, config_from_dict({}))
        assert not np.array_equal(causal["PIM(FX)"].values, signals["PIM(FX)"].values)

    def test_ai_sigma_override_changes_only_ai(self, tmp_path):
        from actimetrics.pipeline import process_subject

        rec = corpus(1, duration_s=600.0)[0]
        base, _ = process_subject(rec, small_config())
        bumped, _ = process_subject(
            rec,
            small_config(ai=dataclasses.replace(
                PipelineConfig().ai, sigma_sq_override=0.01)),
        )
        assert not np.array_equal(base["AI(UFXYZ)"].values, bumped["AI(UFXYZ)"].values)
        assert (bumped["AI(UFXYZ)"].values <= base["AI(UFXYZ)"].values + 1e-15).all()
        np.testing.assert_array_equal(base["ENMO"].values, bumped["ENMO"].values)


class TestRunPipeline:
    def test_bundle_contents(self, tmp_path):
        config = small_config()
        manifest = run_pipeline(config, corpus(), tmp_path)
        assert manifest["catalog_count"] == 83
        assert [s["status"] for s in manifest["subjects"]] == ["ok", "ok"]
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "correlation_time.csv").exists()
        assert (tmp_path / "correlation_frequency.json").exists()
        assert (tmp_path / "sweep_ZCM_UFM.csv").exists()
        activity_files = list((tmp_path / "s00" / "activity").glob("*.csv"))
        assert len(activity_files) == 83

    @settings(database=None, deadline=None, max_examples=25)
    @given(st.lists(st.integers(2, 12), min_size=1, max_size=4))
    def test_a_subject_fails_alone_exactly_when_shorter_than_one_psd_segment(self, epochs):
        # small_config's PSD segment is 8 epochs of 60 s
        recordings = [_short_recording(i, n) for i, n in enumerate(epochs)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            manifest = run_pipeline(small_config(), recordings, out)
            assert json.loads((out / "manifest.json").read_text()) == manifest
            failed = [s["status"] == "failed" for s in manifest["subjects"]]
            assert failed == [n < 8 for n in epochs]
            files = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
            assert files == set(map(Path, [*manifest["outputs"], "manifest.json"]))
            dirs = {p.relative_to(out) for p in out.rglob("*") if p.is_dir()}
            assert dirs == {d for f in files for d in f.parents} - {Path(".")}

    @pytest.mark.parametrize("subject_id", ["..", ".", "", "a/b"])
    def test_an_id_that_is_no_directory_name_fails_before_any_output(self, tmp_path, subject_id):
        # the id names the subject's directory: ".." would write beside
        # out_dir, "." and "" into the bundle's root, "a/b" below a subject "a"
        a, b = corpus(duration_s=600.0)
        with pytest.raises(UnusableSubjectId, match=r"^recordings\[1\]: subject_id "):
            run_pipeline(small_config(), [a, dataclasses.replace(b, subject_id=subject_id)],
                         tmp_path / "run" / "out")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_labels_match_outputs(self, tmp_path):
        config = small_config()
        manifest = run_pipeline(config, corpus(), tmp_path)
        matrix = json.loads((tmp_path / "correlation_time.json").read_text())
        assert matrix["labels"] == manifest["catalog_labels"]

    def test_identical_label_sets_across_subjects(self, tmp_path):
        config = small_config()
        run_pipeline(config, corpus(), tmp_path)
        listings = [
            sorted(p.name for p in (tmp_path / s / "activity").glob("*.csv"))
            for s in ("s00", "s01")
        ]
        assert listings[0] == listings[1]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config()
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(config, corpus(), out1)
        run_pipeline(config, corpus(), out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_bundle_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # `synth`, then `correlate`, in one child process per OpenBLAS kernel:
        # the default one for this CPU, and two forced by OPENBLAS_CORETYPE
        (tmp_path / "config.json").write_text('{"psd": {"segment_epochs": 32}}')
        script = (
            "import sys; from pathlib import Path; from actimetrics.cli import main\n"
            "out = Path(sys.argv[1])\n"
            "assert main(['--out', str(out / 'data'), 'synth']) == 0\n"
            "assert main(['--config', sys.argv[2], '--out', str(out / 'bundle'), 'correlate',\n"
            "             *map(str, sorted((out / 'data').glob('*.actm')))]) == 0\n"
        )
        src = str(Path(actimetrics.__file__).resolve().parents[1])
        children = {}
        for coretype in ("", "Prescott", "SandyBridge"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / (coretype or "default")
            children[out] = subprocess.Popen(
                [sys.executable, "-c", script, str(out), str(tmp_path / "config.json")],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            for out, child in children.items():
                output = child.communicate(timeout=300)[0].decode()
                assert child.returncode == 0, (out.name, output)
        finally:
            for child in children.values():
                child.kill()
                child.wait()
        bundles = [out / "bundle" for out in children]
        files = sorted(p.relative_to(bundles[0]) for p in bundles[0].rglob("*") if p.is_file())
        assert len(files) > 2 * 83
        for bundle in bundles[1:]:
            assert sorted(p.relative_to(bundle) for p in bundle.rglob("*") if p.is_file()) == files
            for rel in files:
                assert (bundle / rel).read_bytes() == (bundles[0] / rel).read_bytes(), (
                    bundle.parent.name, rel)

    def test_jobs_parallel_matches_serial(self, tmp_path):
        config = small_config()
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        run_pipeline(config, corpus(), out1, jobs=1)
        run_pipeline(config, corpus(), out2, jobs=4)
        assert multiprocessing.active_children() == []
        for rel in sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file()):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_thresholds_do_not_leak_between_subjects(self, tmp_path):
        # one threshold memo per subject: two subjects in two worker
        # processes write what each writes alone
        config = small_config()
        recs = corpus()
        run_pipeline(config, recs, tmp_path / "both", jobs=2)
        for rec in recs:
            run_pipeline(config, [rec], tmp_path / rec.subject_id, jobs=1)
            alone = sorted((tmp_path / rec.subject_id / rec.subject_id / "activity").iterdir())
            assert len(alone) == 83
            for path in alone:
                together = tmp_path / "both" / rec.subject_id / "activity" / path.name
                assert path.read_bytes() == together.read_bytes(), path.name

    def test_sweep_csvs_match_threshold_sweep(self, tmp_path):
        from actimetrics.formats import write_sweep_csv

        config = small_config(sweep=SweepConfig(
            metrics=("ZCM", "TAT"), kinds=("UFM", "FMpost"), max_steps=40))
        # given out of id order; the bundle reduces in subject-id order
        recordings = corpus(3)
        manifest = run_pipeline(config, [recordings[i] for i in (2, 0, 1)],
                                tmp_path / "bundle", jobs=2)
        assert len(manifest["sweeps"]) == 4
        for metric, kind in config.sweep_requests():
            curve = direct_sweep(config, metric, kind, recordings)
            direct = tmp_path / f"direct_{metric}_{kind}.csv"
            write_sweep_csv(curve, direct)
            bundled = tmp_path / "bundle" / f"sweep_{metric}_{kind}.csv"
            assert direct.read_bytes() == bundled.read_bytes(), (metric, kind)

    def test_sweep_references_are_the_catalogs_enmo_and_hfen(self, tmp_path, monkeypatch):
        import actimetrics.pipeline as pipeline

        received = []
        real = pipeline.recording_sweep

        def recording_sweep(metric, kind, rec, *args, references, **kwargs):
            received.append((rec, references))
            return real(metric, kind, rec, *args, references=references, **kwargs)

        monkeypatch.setattr(pipeline, "recording_sweep", recording_sweep)
        config = small_config(sweep=SweepConfig())  # the default ZCM and TAT sweeps
        run_pipeline(config, corpus(), tmp_path)
        assert [rec.subject_id for rec, _ in received] == ["s00", "s00", "s01", "s01"]
        for rec, (enmo, hfen) in received:
            want_enmo, want_hfen = direct_references(config, rec)
            assert enmo.dtype == hfen.dtype == np.float64
            assert enmo.tobytes() == want_enmo.tobytes()
            assert hfen.tobytes() == want_hfen.tobytes()

    def test_default_sweeps_run_no_filter_of_their_own(self, tmp_path, monkeypatch):
        import scipy.signal

        calls = []
        real = scipy.signal.sosfilt

        def sosfilt(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "sosfilt", sosfilt)
        run_pipeline(small_config(sweep=SweepConfig()), corpus(), tmp_path)
        # 7 per subject's build, which also makes the parts' references; each
        # sweep part high-passing its own HFEN input would make it 26
        assert len(calls) == 2 * 7

    def test_references_left_out_of_the_catalog_are_evaluated_once_not_written(
        self, tmp_path, monkeypatch
    ):
        import scipy.signal

        import actimetrics.pipeline as pipeline

        filters, evaluated = [], []
        real_sosfilt, real_compute = scipy.signal.sosfilt, pipeline.compute_activity

        def sosfilt(*args, **kwargs):
            filters.append(1)
            return real_sosfilt(*args, **kwargs)

        def compute_activity(variant, *args, **kwargs):
            evaluated.append(variant.label)
            return real_compute(variant, *args, **kwargs)

        monkeypatch.setattr(scipy.signal, "sosfilt", sosfilt)
        monkeypatch.setattr(pipeline, "compute_activity", compute_activity)
        config = small_config(sweep=SweepConfig(),  # the default ZCM and TAT sweeps
                              catalog=CatalogConfig(exclude=("ENMO", "HFEN")))
        recordings = corpus()
        manifest = run_pipeline(config, recordings, tmp_path / "bundle")
        # per subject the catalog's 4 bandpasses and the 3 HFEN highpasses,
        # made once for both parts
        assert len(filters) == 2 * 7
        assert evaluated.count("ENMO") == evaluated.count("HFEN") == 2
        assert manifest["sweeps"] == ["sweep_ZCM_UFM.csv", "sweep_TAT_UFM.csv"]
        assert manifest["catalog_count"] == 81
        assert not {"ENMO", "HFEN"} & set(manifest["catalog_labels"])
        written = [path.name for path in (tmp_path / "bundle").glob("*/activity/*.csv")]
        assert len(written) == 2 * 81
        assert not {"ENMO.csv", "HFEN.csv"} & set(written)

        requests = [(MetricId.ZCM, DatasetKind.UFM)]
        signals, parts = pipeline.process_subject(recordings[0], config, requests)
        assert list(signals) == [v.label for v in config.variants()]
        assert len(parts) == 1

        evaluated.clear()
        no_sweeps = dataclasses.replace(config, sweep=SweepConfig(metrics=()))
        run_pipeline(no_sweeps, recordings, tmp_path / "no-sweeps")
        assert len(evaluated) == 2 * 81
        assert not {"ENMO", "HFEN"} & set(evaluated)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bundle_does_not_depend_on_input_order(self, tmp_path, jobs):
        config = small_config(sweep=SweepConfig(
            metrics=("ZCM", "TAT"), kinds=("UFM",), max_steps=40))
        recordings = corpus(3)
        orders = [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
        for order in orders:
            run_pipeline(config, [recordings[i] for i in order],
                         tmp_path / "".join(map(str, order)), jobs=jobs)
        first = tmp_path / "012"
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert len(files) == 3 * 83 + 4 + 2 + 1
        for order in orders[1:]:
            other = tmp_path / "".join(map(str, order))
            for rel in files:
                assert (first / rel).read_bytes() == (other / rel).read_bytes(), (order, rel)

    def test_no_fitting_rate_error_does_not_depend_on_input_order(self, tmp_path):
        # 0.05 s is half a sample at 10 Hz and one sample at 20 Hz: two errors
        recs = [synthesize(SyntheticSpec(subject_id=f"r{rate:g}", duration_s=60.0,
                                         sample_rate_hz=rate, seed=1))
                for rate in (10.0, 20.0)]
        config = config_from_dict({"epoch_s": 0.05})
        errors = []
        for order in (recs, recs[::-1]):
            with pytest.raises(ConfigError) as info:
                run_pipeline(config, order, tmp_path / "out")
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings", [
        {"catalog": {"include": ["PIM(UFNM)", "MAD(UFM)"]}},
        {"catalog": {"include": ["PIM(UFNM)"]}, "ai": {"noise_window_s": 0.1}},
    ], ids=["no-noise-window-of-data", "noise-window-of-1-sample"])
    def test_catalog_without_ai_estimates_no_noise(self, tmp_path, settings):
        # 50 s holds no 60 s noise window, so an estimate would fail the subject
        rec = synthesize(SyntheticSpec(subject_id="short", duration_s=50.0, seed=3))
        config = config_from_dict({"epoch_s": 10.0, "sweep": {"metrics": []},
                                   "psd": {"segment_epochs": 2}, **settings})
        manifest = run_pipeline(config, [rec], tmp_path)
        assert manifest["subjects"] == [
            {"subject_id": "short", "status": "ok", "error": None}]

    def test_default_catalog_estimates_noise_once_per_subject(self, tmp_path, monkeypatch):
        import actimetrics.pipeline as pipeline

        calls = []
        real = pipeline.estimate_noise_variance

        def estimate_noise_variance(rec, window_s):
            calls.append(rec.subject_id)
            return real(rec, window_s)

        monkeypatch.setattr(pipeline, "estimate_noise_variance", estimate_noise_variance)
        run_pipeline(small_config(sweep=SweepConfig(metrics=())), corpus(), tmp_path)
        assert calls == ["s00", "s01"]

    def test_empty_catalog_aborts_before_work(self, tmp_path):
        # the config cannot be built, so no run can start
        config = small_config()
        with pytest.raises(ConfigError, match="^empty catalog: "):
            dataclasses.replace(
                config, catalog=dataclasses.replace(config.catalog, include=("NOPE*",))
            )
        assert list(tmp_path.iterdir()) == []

    def test_bad_subject_isolated(self, tmp_path):
        from actimetrics import RawRecording

        good = corpus(1)[0]
        bad = RawRecording("broken", 10.0, np.full(12000, np.nan),
                           np.zeros(12000), np.ones(12000))
        for jobs in (1, 2):
            manifest = run_pipeline(small_config(), [good, bad], tmp_path / str(jobs),
                                    jobs=jobs)
            by_id = {s["subject_id"]: s for s in manifest["subjects"]}
            assert by_id["s00"]["status"] == "ok"
            assert by_id["broken"]["status"] == "failed"
            assert "non-finite" in by_id["broken"]["error"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_fails_only_its_subject(self, tmp_path, monkeypatch, jobs):
        good = corpus(1, duration_s=1200.0)[0]
        odd = dataclasses.replace(corpus(1, duration_s=1800.0, seed0=60)[0], subject_id="odd")
        _mad_fails_at_epochs(monkeypatch, 30)  # odd's 30 epochs; good has 20
        manifest = run_pipeline(small_config(), [good, odd], tmp_path, jobs=jobs)
        by_id = {s["subject_id"]: s for s in manifest["subjects"]}
        assert by_id["s00"] == {"subject_id": "s00", "status": "ok", "error": None}
        assert by_id["odd"] == {"subject_id": "odd", "status": "failed",
                                "error": "ValueError: injected kernel fault"}
        assert len(list((tmp_path / "s00" / "activity").glob("*.csv"))) == 83
        assert not (tmp_path / "odd").exists()

    def test_one_pool_runs_the_catalog_and_every_sweep_part(self, tmp_path, monkeypatch):
        import actimetrics.core as core
        import actimetrics.pipeline as pipeline

        pools, log = [], tmp_path / "pids.txt"
        real_pool = core.ProcessPoolExecutor
        real_process, real_sweep = pipeline.process_subject, pipeline.recording_sweep

        def process_pool_executor(*args, initializer, **kwargs):
            def started(*initargs):
                _log_pid(log, "worker")
                initializer(*initargs)

            pools.append(real_pool(*args, initializer=started, **kwargs))
            return pools[-1]

        def process_subject(source, config, requests):
            _log_pid(log, f"catalog:{source.subject_id}")
            return real_process(source, config, requests)

        def recording_sweep(metric, kind, rec, *args, **kwargs):
            _log_pid(log, f"sweep:{rec.subject_id}")
            return real_sweep(metric, kind, rec, *args, **kwargs)

        monkeypatch.setattr(core, "ProcessPoolExecutor", process_pool_executor)
        monkeypatch.setattr(pipeline, "process_subject", process_subject)
        monkeypatch.setattr(pipeline, "recording_sweep", recording_sweep)
        config = small_config(sweep=SweepConfig())  # the default ZCM and TAT sweeps
        manifest = run_pipeline(config, corpus(), tmp_path / "bundle", jobs=2)
        assert manifest["sweeps"] == ["sweep_ZCM_UFM.csv", "sweep_TAT_UFM.csv"]
        assert len(pools) == 1
        logged = _logged(log)
        workers = {pid for tag, pid in logged if tag == "worker"}
        assert os.getpid() not in workers
        for subject in ("s00", "s01"):
            catalog = [pid for tag, pid in logged if tag == f"catalog:{subject}"]
            sweeps = [pid for tag, pid in logged if tag == f"sweep:{subject}"]
            assert len(catalog) == 1 and catalog[0] in workers
            assert sweeps == catalog * 2  # each part in its subject's own worker

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_write_error_propagates_not_a_subject_failure(self, tmp_path, monkeypatch, jobs):
        import actimetrics.formats as formats

        def write_activity_csv(signal, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(formats, "write_activity_csv", write_activity_csv)
        with pytest.raises(OSError, match="No space left"):
            run_pipeline(small_config(), corpus(), tmp_path, jobs=jobs)
        assert not (tmp_path / "manifest.json").exists()
        assert multiprocessing.active_children() == []


def _mad_fails_at_epochs(monkeypatch, epochs):
    """Make the catalog's MAD kernel raise ValueError on ``epochs``-row input."""
    import actimetrics.combine as combine

    real = combine.mad_values

    def mad_values(mat, *args, **kwargs):
        if mat.shape[0] == epochs:
            raise ValueError("injected kernel fault")
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(combine, "mad_values", mad_values)


class TestCli:
    def _write_corpus(self, tmp_path, n=2):
        paths = []
        for rec in corpus(n, duration_s=600.0):
            path = tmp_path / f"{rec.subject_id}.actm"
            write_recording_bin(rec, path)
            paths.append(path)
        return paths

    def _config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "psd": {"segment_epochs": 8},
            "sweep": {"metrics": ["ZCM"], "kinds": ["UFM"], "max_steps": 30},
            "synthetic": {"subjects": 2, "duration_s": 600.0},
        }))
        return path

    def test_catalog_lists_labels(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "PIM(UFNM)" in out
        assert "total: 83 variants" in out

    def test_synth_writes_recordings(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "data"),
                     "--seed", "3", "synth", "--format", "actm"])
        assert code == 0
        files = sorted((tmp_path / "data").glob("*.actm"))
        assert [f.name for f in files] == ["subject01.actm", "subject02.actm"]

    def test_convert_csv_to_bin_and_back(self, tmp_path):
        rec = corpus(1, duration_s=30.0)[0]
        csv_path = tmp_path / "orig.csv"
        write_recording_csv(rec, csv_path)
        assert main(["convert", str(csv_path), str(tmp_path / "conv.actm")]) == 0
        assert main(["convert", str(tmp_path / "conv.actm"),
                     str(tmp_path / "back.csv")]) == 0
        assert (tmp_path / "back.csv").exists()

    def test_correlate_full_pipeline(self, tmp_path):
        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path)
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "correlate",
                     *map(str, paths)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["catalog_count"] == 83

    def test_preprocess_subcommand(self, tmp_path):
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(paths[0])]) == 0
        names = sorted(p.name for p in (out / "s00" / "datasets").glob("*.csv"))
        assert len(names) == 11
        assert "FMpre.csv" in names
        ufm = dict(preprocess_all(read_recording(paths[0])))[DatasetKind.UFM].values
        lines = (out / "s00" / "datasets" / "UFM.csv").read_text().splitlines()
        assert lines[:3] == ["# kind: UFM", "# sample_rate_hz: 10.0", "index,value"]
        assert lines[3:] == [f"{i},{v!r}" for i, v in enumerate(ufm.tolist())]

    def test_config_error_exit_code_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mystery": True}))
        assert main(["--config", str(bad), "catalog"]) == 1

    @pytest.mark.parametrize("text", [
        '{"threshold": {"mode": "fixed", "fixed_g": NaN}}',
        '{"full_scale_g": NaN}',
        '{"epoch_s": NaN}',
        '{"ai": {"noise_window_s": NaN}}',
        '{"sweep": {"step_g": NaN}}',
        '{"ai": {"sigma_sq_override": Infinity}}',
        pytest.param('{"full_scale_g": 1%s}' % ("0" * 400), id="int-beyond-float"),
        pytest.param('{"seed": %s}' % ("1" * 5000), id="int-beyond-str-digits"),
        '{"epoch_s": "60"}',
        '{"epoch_s": true}',
        '{"epoch_s": null}',
        '{"catalog": {"include": "PIM*"}}',
        '{"catalog": {"include": "*"}}',
        '{"sweep": {"max_steps": 2.5}}',
        '{"bandpass": {"order": true}}',
        '{"bandpass": {"f_low_hz": 3.0, "f_high_hz": 2.5}}',
        '{"bandpass": {"f_high_hz": 5.0}}',
        '{"bandpass": {"order": 0}}',
        '{"bandpass": {"order": 300}}',
        '{"hfen_highpass": {"cutoff_hz": 0.0}}',
        '{"hfen_highpass": {"order": 0}}',
        '{"ai": {"subtract_per_axis": "yes"}}',
        '{"seed": "a"}',
    ])
    def test_non_finite_or_wrong_typed_value_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--config", str(bad), "catalog"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_unknown_psd_window_exits_1_before_any_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"psd": {"window": "bogus"}}))
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--config", str(bad), "--out", str(out), "correlate",
                     str(paths[0])]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("rest_s", -1.0),
        ("duration_s", 0.0),
        ("active_freq_hz", 0.0),
        ("noise_sd_g", -1.0),
        ("amp_jitter", 2.0),
    ])
    def test_bad_synthetic_value_exits_1_before_any_recording(
        self, tmp_path, capsys, field, value
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synthetic": {field: value}}))
        out = tmp_path / "data"
        assert main(["--config", str(bad), "--out", str(out), "synth"]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["catalog", "correlate"])
    def test_empty_catalog_exits_1_before_any_output(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"catalog": {"include": ["NOPE*"]}}))
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        args = [] if command == "catalog" else [str(paths[0])]
        assert main(["--config", str(bad), "--out", str(out), command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: empty catalog")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_exception_in_one_subject_exits_3(
        self, tmp_path, monkeypatch, capsys, jobs
    ):
        config = self._config_file(tmp_path)
        good = corpus(1, duration_s=600.0)[0]
        odd = dataclasses.replace(corpus(1, duration_s=900.0, seed0=60)[0], subject_id="odd")
        paths = []
        for rec in (good, odd):
            paths.append(tmp_path / f"{rec.subject_id}.actm")
            write_recording_bin(rec, paths[-1])
        _mad_fails_at_epochs(monkeypatch, 15)  # odd's 15 epochs; good has 10
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "--jobs", jobs,
                     "correlate", *map(str, paths)])
        assert code == 3
        assert multiprocessing.active_children() == []
        assert len(list((out / "s00" / "activity").glob("*.csv"))) == 83
        assert not (out / "odd").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        errors = {s["subject_id"]: s["error"] for s in manifest["subjects"]}
        assert errors == {"odd": "ValueError: injected kernel fault", "s00": None}
        assert ("data error: subject odd failed: ValueError: injected kernel fault\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_default_corpus_too_short_for_psd_exits_2(
        self, tmp_path, monkeypatch, capsys, jobs
    ):
        # the default synth corpus is 1 h per subject: 60 epochs, fewer
        # than the default PSD's 256-epoch segment
        monkeypatch.chdir(tmp_path)
        assert main(["synth"]) == 0
        recordings = sorted(str(p) for p in Path("out").glob("*.actm"))
        capsys.readouterr()
        assert main(["--jobs", jobs, "correlate", *recordings]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "256-epoch segment" in err
        assert "Traceback" not in err
        manifest = json.loads(Path("out", "manifest.json").read_text())
        text = "signal of 60 epochs is shorter than one 256-epoch segment (psd.segment_epochs)"
        assert {s["subject_id"]: (s["status"], s["error"]) for s in manifest["subjects"]} == {
            Path(r).stem: ("failed", text) for r in recordings}
        assert sorted(Path("out").iterdir()) == sorted(
            map(Path, [*recordings, "out/manifest.json"]))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_subject_shorter_than_one_psd_segment_fails_alone(self, tmp_path, capsys, jobs):
        # a and b are 40 min, c is 5 min: 5 epochs, fewer than the
        # config's 8-epoch PSD segment
        config = self._config_file(tmp_path)
        paths = {}
        for seed, (sid, duration_s) in enumerate((("a", 2400.0), ("b", 2400.0), ("c", 300.0))):
            rec = dataclasses.replace(corpus(1, duration_s, seed0=70 + seed)[0], subject_id=sid)
            paths[sid] = str(tmp_path / f"{sid}.actm")
            write_recording_bin(rec, Path(paths[sid]))
        alone, with_c = tmp_path / "alone", tmp_path / "with_c"
        assert main(["--config", str(config), "--out", str(alone), "--jobs", jobs,
                     "correlate", paths["a"], paths["b"]]) == 0
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(with_c), "--jobs", jobs,
                     "correlate", *paths.values()]) == 3
        text = "signal of 5 epochs is shorter than one 8-epoch segment (psd.segment_epochs)"
        assert capsys.readouterr().err == f"data error: subject c failed: {text}\n"
        assert multiprocessing.active_children() == []
        manifest = json.loads((with_c / "manifest.json").read_text())
        assert {s["subject_id"]: s["error"] for s in manifest["subjects"]} == {
            "a": None, "b": None, "c": text}
        assert not (with_c / "c").exists()
        for out in (alone, with_c):
            (out / "manifest.json").unlink()
        self._same_files(alone, with_c)

    def test_bad_sweep_kind_exits_1_before_any_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {"kinds": ["BOGUS"]}}))
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--config", str(bad), "--out", str(out), "correlate",
                     str(paths[0])]) == 1
        assert not out.exists()

    def test_usage_error_exit_code_1(self):
        assert main(["definitely-not-a-command"]) == 1

    def test_help_lists_exactly_the_five_commands(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "{synth,preprocess,correlate,catalog,convert}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["activity", "sweep"])
    def test_removed_subcommand_is_usage_error(self, tmp_path, capsys, command):
        # their outputs are subsets of the correlate bundle
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), command, str(paths[0])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "invalid choice" in err
        assert not out.exists()

    def test_data_error_exit_code_2(self, tmp_path):
        missing = tmp_path / "missing.actm"
        missing.write_bytes(b"XXXX" + b"\x00" * 12)
        assert main(["correlate", str(missing)]) == 2

    @pytest.mark.parametrize("command", ["convert", "correlate"])
    def test_zero_sample_rate_header_exits_2_naming_file(self, tmp_path, capsys, command):
        path = self._write_corpus(tmp_path, n=1)[0]
        blob = bytearray(path.read_bytes())
        blob[6:8] = (0).to_bytes(2, "little")  # deci-hertz field of the header
        path.write_bytes(bytes(blob))
        args = [str(path), str(tmp_path / "r.csv")] if command == "convert" else [str(path)]
        assert main(["--out", str(tmp_path / "out"), command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "s00.actm" in err

    @pytest.mark.parametrize("rate", ["10.01", "7000"])
    def test_convert_to_actm_at_unstorable_rate_exits_2(self, tmp_path, capsys, rate):
        csv_path = tmp_path / "r.csv"
        write_recording_csv(corpus(1, duration_s=30.0)[0], csv_path)
        dst = tmp_path / "r.actm"
        assert main(["convert", str(csv_path), str(dst), "--sample-rate-hz", rate]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{float(rate)} Hz" in err
        assert not dst.exists()

    @pytest.mark.parametrize("sidecar", [
        "{not json", "[10.0]", '{"sample_rate_hz": true}', '{"sample_rate_hz": "10"}',
    ])
    def test_malformed_sidecar_exits_2_naming_sidecar(self, tmp_path, capsys, sidecar):
        csv_path = tmp_path / "r.csv"
        write_recording_csv(corpus(1, duration_s=30.0)[0], csv_path)
        (tmp_path / "r.csv.json").write_text(sidecar)
        assert main(["convert", str(csv_path), str(tmp_path / "r.actm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "r.csv.json" in err

    @pytest.mark.parametrize("name,content", [
        ("nope.actm", None),
        ("dir.actm", "directory"),
        ("rnd.csv", bytes(range(255, -1, -1)) * 4),
    ], ids=["missing", "directory", "undecodable"])
    def test_unreadable_recording_exits_2_without_traceback(
        self, tmp_path, capsys, name, content
    ):
        path = tmp_path / name
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        args = ["--out", str(tmp_path / "out"), "correlate", str(path),
                "--sample-rate-hz", "10"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [
        "a,b,c\n0.0,0.0,1.0\n",
        "x,y,z\n0.0,0.0,1.0\n0.0,1.0\n",
        "x,y,z\n0.0,0.0,1.0\n0.0,up,1.0\n",
    ], ids=["header", "columns", "non-numeric"])
    def test_csv_decode_error_names_the_bad_file_among_several(
        self, tmp_path, capsys, content
    ):
        # the body is decoded in bad's own subject task, so bad fails alone;
        # 8-epoch PSD segments fit good's 10 epochs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"psd": {"segment_epochs": 8}}))
        good = tmp_path / "good.csv"
        write_recording_csv(corpus(1, duration_s=600.0)[0], good)
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        out = tmp_path / "out"
        args = ["--config", str(config), "--out", str(out), "correlate", str(good),
                str(bad), "--sample-rate-hz", "10"]
        assert main(args) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert {s["subject_id"]: s["status"] for s in manifest["subjects"]} == {
            "bad": "failed", "s00": "ok"}
        err = capsys.readouterr().err
        line, = [line for line in err.splitlines()
                 if line.startswith("data error: subject bad failed:")]
        assert str(bad) in line
        assert str(good) not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_truncated_payload_fails_its_subject_alone(self, tmp_path, capsys, jobs):
        good, cut = self._write_corpus(tmp_path)
        cut.write_bytes(cut.read_bytes()[:-1000])  # header intact, payload cut
        out = tmp_path / "out"
        code = main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", jobs, "correlate", str(good), str(cut)])
        err = capsys.readouterr().err
        assert code == 3
        assert multiprocessing.active_children() == []
        assert len(list((out / "s00" / "activity").glob("*.csv"))) == 83
        assert not (out / "s01").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        errors = {s["subject_id"]: s["error"] for s in manifest["subjects"]}
        assert errors["s00"] is None
        assert "s01.actm" in errors["s01"] and "payload has" in errors["s01"]
        assert f"data error: subject s01 failed: {errors['s01']}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_sweep_part_fails_only_its_subject(self, tmp_path, capsys, jobs):
        paths = self._write_corpus(tmp_path)
        short = tmp_path / "c.actm"  # one 60 s epoch: its catalog runs, its sweep cannot
        write_recording_bin(corpus(1, duration_s=90.0)[0], short)
        out = tmp_path / "out"
        code = main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", jobs, "correlate", *map(str, paths), str(short)])
        err = capsys.readouterr().err
        assert code == 3
        assert multiprocessing.active_children() == []
        reason = "a threshold sweep needs at least 2 epochs, got 1"
        assert f"data error: subject c failed: {reason}\n" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subjects"][0] == {"subject_id": "c", "status": "failed",
                                           "error": reason}
        assert [s["status"] for s in manifest["subjects"][1:]] == ["ok", "ok"]
        assert manifest["sweeps"] == ["sweep_ZCM_UFM.csv"]
        assert (out / "correlation_frequency.csv").is_file()
        assert not (out / "c").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_magic_beside_a_good_recording_exits_2_before_any_output(
        self, tmp_path, capsys, jobs
    ):
        good, bad = self._write_corpus(tmp_path)
        bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
        out = tmp_path / "out"
        code = main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", jobs, "correlate", str(good), str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and "s01.actm" in err and "magic" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_preprocess_fails_a_truncated_payload_alone(self, tmp_path, capsys):
        cut, good = self._write_corpus(tmp_path)
        cut.write_bytes(cut.read_bytes()[:-1000])
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(cut), str(good)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: subject s00 failed:")
        assert "s00.actm" in err and "payload has" in err
        assert len(list((out / "s01" / "datasets").glob("*.csv"))) == 11
        assert sorted(p.name for p in out.iterdir()) == ["s01"]

    def test_preprocess_fails_an_invalid_csv_alone(self, tmp_path, capsys):
        good = self._write_corpus(tmp_path, n=1)[0]
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x,y,z\n" + "\n".join(["0.1,0.2,nan"] * 600) + "\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", "--sample-rate-hz", "10",
                     str(bad_csv), str(good)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: subject bad failed: bad: z[0] is non-finite")
        assert captured.err.count("\n") == 1
        assert "s00: wrote 11 dataset kinds" in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["s00"]
        assert main(["--out", str(tmp_path / "solo"), "preprocess", str(good)]) == 0
        self._same_files(out, tmp_path / "solo")

    def test_calling_process_does_not_grow_with_the_cohort(self, tmp_path, capsys):
        # each subject task decodes its own recording, so the traced peak of
        # an in-process run is one subject's work whatever the cohort size
        import tracemalloc

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"psd": {"segment_epochs": 8}}))
        paths = []
        for rec in corpus(6, duration_s=3600.0):
            paths.append(tmp_path / f"{rec.subject_id}.actm")
            write_recording_bin(rec, paths[-1])
        float64_bytes = 3 * rec.n_samples * 8  # one decoded recording

        def peak(n, out):
            tracemalloc.start()
            try:
                assert main(["--config", str(config), "--out", str(tmp_path / out),
                             "correlate", *map(str, paths[:n])]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["--config", str(config), "--out", str(tmp_path / "warm"),
              "correlate", str(paths[0])])  # first-call imports and caches
        small, large = peak(2, "two"), peak(6, "six")
        capsys.readouterr()
        assert large - small < float64_bytes

    def test_config_not_utf8_exits_1_without_traceback(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b"\xff\xfe{}")
        assert main(["--config", str(config), "catalog"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "c.json" in err
        assert "Traceback" not in err

    def test_mixed_sample_rates_design_filters_per_recording(self, tmp_path):
        from actimetrics.formats import write_sweep_csv

        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "psd": {"segment_epochs": 8},
            "sweep": {"metrics": ["ZCM", "TAT"], "kinds": ["UFM"], "max_steps": 30},
        }))
        paths = []
        for subject_id, rate in (("r10", 10.0), ("r20", 20.0)):
            rec = synthesize(SyntheticSpec(
                subject_id=subject_id, duration_s=1200.0, sample_rate_hz=rate,
                rest_s=240.0, active_s=180.0, amp_jitter=0.3, noise_sd_g=0.02,
                seed=int(rate),
            ))
            paths.append(tmp_path / f"{subject_id}.actm")
            write_recording_bin(rec, paths[-1])
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "correlate",
                     *map(str, paths)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["status"] for s in manifest["subjects"]] == ["ok", "ok"]
        assert manifest["sweeps"] == ["sweep_ZCM_UFM.csv", "sweep_TAT_UFM.csv"]
        parsed = load_config(config)
        recordings = [read_recording(path) for path in paths]
        for metric, kind in parsed.sweep_requests():
            curve = direct_sweep(parsed, metric, kind, recordings)
            direct = tmp_path / f"direct_{metric}_{kind}.csv"
            write_sweep_csv(curve, direct)
            assert direct.read_bytes() == (out / f"sweep_{metric}_{kind}.csv").read_bytes()

    def test_sweeps_without_catalog_references_are_byte_identical(self, tmp_path):
        paths = self._write_corpus(tmp_path, n=2)
        settings = {
            "psd": {"segment_epochs": 8},
            "sweep": {"metrics": ["ZCM", "TAT"], "kinds": ["UFM", "FMpost"],
                      "max_steps": 30},
        }
        full, dropped = tmp_path / "full", tmp_path / "dropped"
        for out, catalog in ((full, {}), (dropped, {"exclude": ["ENMO", "HFEN"]})):
            config = tmp_path / f"{out.name}.json"
            config.write_text(json.dumps({**settings, "catalog": catalog}))
            assert main(["--config", str(config), "--out", str(out), "correlate",
                         *map(str, paths)]) == 0
        manifest = json.loads((dropped / "manifest.json").read_text())
        assert manifest["catalog_count"] == 81
        assert not {"ENMO", "HFEN"} & set(manifest["catalog_labels"])
        assert len(manifest["sweeps"]) == 4
        self._same_files(full, dropped, "sweep_*.csv")

    def _nan_recording(self, tmp_path):
        """An .actm recording whose first 100 x samples are NaN."""
        rec = corpus(1, duration_s=600.0)[0]
        x = rec.x.copy()
        x[:100] = np.nan
        path = tmp_path / "nan.actm"
        write_recording_bin(dataclasses.replace(rec, x=x), path)
        return path

    def test_correlate_keeps_invalid_recording_out_of_sweeps(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        good = self._write_corpus(tmp_path, n=2)[1]
        bad = self._nan_recording(tmp_path)
        mixed, alone, only_bad = tmp_path / "mixed", tmp_path / "alone", tmp_path / "bad"
        terminal = io.StringIO()  # stdout and stderr, in the order written
        with contextlib.redirect_stdout(terminal), contextlib.redirect_stderr(terminal):
            assert main(["--config", str(config), "--out", str(mixed), "correlate",
                         str(bad), str(good)]) == 3
        manifest = json.loads((mixed / "manifest.json").read_text())
        statuses = {s["subject_id"]: s["status"] for s in manifest["subjects"]}
        assert statuses == {"nan": "failed", "s01": "ok"}
        error = manifest["subjects"][0]["error"]
        assert "non-finite" in error
        assert terminal.getvalue().splitlines() == [
            f"data error: subject nan failed: {error}",
            "processed 1/2 subjects, 83 variants each",
        ]
        assert main(["--config", str(config), "--out", str(alone), "correlate",
                     str(good)]) == 0
        assert manifest["sweeps"] == ["sweep_ZCM_UFM.csv"]
        assert ((mixed / "sweep_ZCM_UFM.csv").read_bytes()
                == (alone / "sweep_ZCM_UFM.csv").read_bytes())
        assert main(["--config", str(config), "--out", str(only_bad), "correlate",
                     str(bad)]) == 2
        assert not list(only_bad.glob("sweep_*.csv"))
        assert "Traceback" not in capsys.readouterr().err

    def test_preprocess_rejects_invalid_recording_before_any_output(
        self, tmp_path, capsys
    ):
        path = self._nan_recording(tmp_path)
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(path)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    @pytest.mark.parametrize("settings, reason, commands", [
        ({"epoch_s": 60.05}, "not a whole number", ("preprocess", "correlate")),
        ({"epoch_s": 0.1}, "need >= 2", ("preprocess", "correlate")),
        ({"ai": {"noise_window_s": 0.1}}, "ai.noise_window_s", ("correlate",)),
    ], ids=["epoch-60.05", "epoch-0.1", "noise-window-0.1"])
    def test_setting_no_rate_holds_is_one_config_error(
        self, tmp_path, capsys, settings, reason, commands
    ):
        paths = self._write_corpus(tmp_path, n=1)
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(settings))
        results = []
        for command in commands:
            out = tmp_path / command
            code = main(["--config", str(config), "--out", str(out), command,
                         str(paths[0])])
            results.append((code, capsys.readouterr().err))
            assert not out.exists()
        assert all(result == results[0] for result in results)
        code, err = results[0]
        assert code == 1
        assert err.startswith("config error:") and reason in err

    @staticmethod
    def _same_files(a, b, pattern="*"):
        files = sorted(p.relative_to(a) for p in a.rglob(pattern) if p.is_file())
        assert files
        assert files == sorted(p.relative_to(b) for p in b.rglob(pattern) if p.is_file())
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    # settings over psd.segment_epochs 8, the activity and sweep files they
    # write, and whether each activity file is the full catalog's own
    _BUNDLES = {
        "sweep": ({"sweep": {"metrics": ["ZCM", "TAT"], "kinds": ["UFM", "FMpost"],
                             "max_steps": 30}}, 166, 4, True),
        "zero-phase": ({"filter_phase": "zero-phase", "sweep": {"max_steps": 30}},
                       166, 2, False),
        "filtered": ({"catalog": {"include": ["PIM(UFNM)", "MAD(FX)", "HFEN",
                                              "SUM?PIM,FXYZ?"]},
                      "sweep": {"max_steps": 30}}, 8, 2, True),
        "sweep-free": ({"sweep": {"metrics": []}}, 166, 0, True),
    }

    @pytest.fixture(scope="class")
    def full_bundle(self, tmp_path_factory):
        """A two-subject corpus, and its full-catalog bundle at --jobs 1."""
        root = tmp_path_factory.mktemp("full")
        paths = self._write_corpus(root)
        (root / "full.json").write_text(json.dumps({"psd": {"segment_epochs": 8}}))
        assert main(["--config", str(root / "full.json"), "--out", str(root / "out"),
                     "correlate", *map(str, paths)]) == 0
        return paths, root / "out"

    @pytest.mark.parametrize("name", list(_BUNDLES))
    def test_jobs_2_writes_the_bytes_of_jobs_1(self, tmp_path, full_bundle, name):
        paths, full = full_bundle
        settings, n_activity, n_sweeps, as_full = self._BUNDLES[name]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"psd": {"segment_epochs": 8}, **settings}))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(["--config", str(config), "--out", str(out), "--jobs", jobs,
                         "correlate", *map(str, paths)]) == 0
        assert multiprocessing.active_children() == []
        self._same_files(serial, parallel)
        activity = sorted(p.relative_to(serial) for p in serial.glob("*/activity/*.csv"))
        assert len(activity) == n_activity
        assert len(list(serial.glob("sweep_*.csv"))) == n_sweeps
        for rel in activity if as_full else ():
            assert (serial / rel).read_bytes() == (full / rel).read_bytes(), rel

    def test_sweep_runs_recordings_in_jobs_workers(self, tmp_path, monkeypatch):
        import actimetrics.analysis as analysis

        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=2)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["--config", str(config), "--out", str(serial), "--jobs", "1",
                     "correlate", *map(str, paths)]) == 0

        real, log = analysis.subject_sweep, tmp_path / "pids.txt"
        # made before the pool, so both workers inherit it; breaks unless both
        # run at once
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)

        def subject_sweep(*args, **kwargs):
            _log_pid(log)
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "subject_sweep", subject_sweep)
        assert main(["--config", str(config), "--out", str(parallel), "--jobs", "2",
                     "correlate", *map(str, paths)]) == 0
        pids = {pid for _, pid in _logged(log)}
        assert len(pids) == 2
        assert os.getpid() not in pids
        self._same_files(serial, parallel, "*.csv")

    def test_correlate_writes_activity_files_in_pool_workers(self, tmp_path, monkeypatch):
        import actimetrics.formats as formats
        import actimetrics.pipeline as pipeline

        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=2)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["--config", str(config), "--out", str(serial), "--jobs", "1",
                     "correlate", *map(str, paths)]) == 0

        real_process, real_write = pipeline.process_subject, formats.write_activity_csv
        log = tmp_path / "pids.txt"
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)

        def process_subject(source, config, requests):
            _log_pid(log, f"catalog:{source.subject_id}")
            barrier.wait()
            return real_process(source, config, requests)

        def write_activity_csv(signal, path):
            _log_pid(log, f"write:{path.parent.parent.name}")
            return real_write(signal, path)

        monkeypatch.setattr(pipeline, "process_subject", process_subject)
        monkeypatch.setattr(formats, "write_activity_csv", write_activity_csv)
        assert main(["--config", str(config), "--out", str(parallel), "--jobs", "2",
                     "correlate", *map(str, paths)]) == 0
        logged = _logged(log)
        catalog = {tag.split(":")[1]: pid for tag, pid in logged if tag.startswith("catalog:")}
        assert sorted(catalog) == ["s00", "s01"]
        assert len(set(catalog.values())) == 2
        assert os.getpid() not in catalog.values()
        for subject, pid in catalog.items():
            assert [p for tag, p in logged if tag == f"write:{subject}"] == [pid] * 83
        self._same_files(serial, parallel)

    def test_correlate_makes_each_subjects_matrices_in_its_worker(self, tmp_path, monkeypatch):
        import actimetrics.pipeline as pipeline

        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=2)
        real_process, real_correlation = pipeline.process_subject, pipeline.subject_correlation
        log = tmp_path / "pids.txt"
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)

        def process_subject(source, config, requests):
            _log_pid(log, "catalog")
            barrier.wait()  # so each subject has a worker of its own
            return real_process(source, config, requests)

        def subject_correlation(signals, labels, domain, psd_params):
            _log_pid(log, domain.value)
            return real_correlation(signals, labels, domain, psd_params)

        monkeypatch.setattr(pipeline, "process_subject", process_subject)
        monkeypatch.setattr(pipeline, "subject_correlation", subject_correlation)
        assert main(["--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "2",
                     "correlate", *map(str, paths)]) == 0
        logged = _logged(log)
        workers = sorted(pid for tag, pid in logged if tag == "catalog")
        assert len(set(workers)) == 2
        assert os.getpid() not in workers
        for domain in ("time", "frequency"):
            assert sorted(pid for tag, pid in logged if tag == domain) == workers

    def test_dead_worker_exits_4_without_manifest_or_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        import actimetrics.pipeline as pipeline

        def process_subject(source, config, requests):
            os._exit(3)

        monkeypatch.setattr(pipeline, "process_subject", process_subject)
        out = tmp_path / "out"
        code = main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", "2", "correlate", *map(str, self._write_corpus(tmp_path))])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("worker error: a worker process died")
        assert "before subject s00 returned" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_jobs_starts_at_most_one_worker_per_recording(self, tmp_path, monkeypatch):
        import actimetrics.core as core

        asked = []

        class InProcessPool:
            """Records the worker count asked for and runs the items here."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(core, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(core, "_task", None)
        assert main(["--config", str(self._config_file(tmp_path)),
                     "--out", str(tmp_path / "out"), "--jobs", "64", "correlate",
                     *map(str, self._write_corpus(tmp_path))]) == 0
        assert asked == [2]

    def test_jobs_above_1_without_fork_exits_1_before_any_output(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), "--jobs", "2", "correlate", str(paths[0])]) == 1
        assert capsys.readouterr().err.startswith("config error: --jobs 2 needs worker processes")
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs", [
        ("preprocess", "1"), ("correlate", "1"), ("correlate", "2"),
    ])
    def test_duplicate_subject_ids_exit_1_before_any_output(
        self, tmp_path, capsys, command, jobs
    ):
        rec = corpus(1, duration_s=600.0)[0]
        write_recording_bin(rec, tmp_path / "s00.actm")
        write_recording_csv(rec, tmp_path / "s00.csv")
        out = tmp_path / "out"
        assert main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", jobs, command, "--sample-rate-hz", "10",
                     str(tmp_path / "s00.actm"), str(tmp_path / "s00.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: duplicate subject ids")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", ["synth", "correlate"])
    def test_jobs_below_1_exits_1_before_any_output(self, tmp_path, capsys, jobs, command):
        out = tmp_path / "out"
        args = [str(p) for p in self._write_corpus(tmp_path, n=1)] if command != "synth" else []
        assert main(["--out", str(out), "--jobs", jobs, command, *args]) == 1
        assert capsys.readouterr().err.startswith("config error: --jobs")
        assert not out.exists()

    @pytest.mark.parametrize("command, jobs", [
        ("synth", "1"), ("preprocess", "1"), ("correlate", "1"), ("correlate", "2"),
    ])
    def test_out_naming_a_file_exits_1_without_traceback(self, tmp_path, capsys, command, jobs):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        args = [str(p) for p in self._write_corpus(tmp_path)] if command != "synth" else []
        assert main(["--config", str(self._config_file(tmp_path)), "--out", str(out),
                     "--jobs", jobs, command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output: {out}")
        assert "Traceback" not in err
        assert out.read_text() == "a file, not a directory\n"

    def test_write_error_without_a_path_exits_1(self, tmp_path, capsys, monkeypatch):
        import actimetrics.formats as formats

        def write_activity_csv(signal, path):
            raise OSError(28, "No space left on device")  # as a failed write() raises it

        monkeypatch.setattr(formats, "write_activity_csv", write_activity_csv)
        assert main(["--config", str(self._config_file(tmp_path)), "--out",
                     str(tmp_path / "out"), "correlate",
                     *map(str, self._write_corpus(tmp_path))]) == 1
        assert capsys.readouterr().err == (
            "config error: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("subjects", ["0", "-1"])
    def test_subjects_below_1_exits_1_before_any_output(self, tmp_path, capsys, subjects):
        out = tmp_path / "data"
        assert main(["--out", str(out), "synth", "--subjects", subjects]) == 1
        # the same check and text as "synthetic": {"subjects": 0} in a config file
        assert capsys.readouterr().err == "config error: synthetic.subjects must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preprocess", "correlate"])
    @pytest.mark.parametrize("name", ["r.csv", "..actm", "...actm"])
    def test_escaping_sidecar_subject_id_exits_2_writing_nothing(
        self, tmp_path, capsys, name, command
    ):
        # the id names the subject's directory: a sidecar's "../escaped" and
        # the stem ".." of "...actm" would write beside --out, and the stem "."
        # of "..actm" into the bundle's root
        inputs = tmp_path / "in"
        inputs.mkdir()
        good = self._write_corpus(inputs, n=1)[0]
        bad = inputs / name
        if name == "r.csv":
            write_recording_csv(read_recording(good), bad)
            bad = inputs / "r.csv.json"
            bad.write_text(json.dumps({"sample_rate_hz": 10.0, "subject_id": "../escaped"}))
        else:
            bad.write_bytes(good.read_bytes())
        config = self._config_file(inputs)
        given = sorted(inputs.iterdir())
        assert main(["--config", str(config), "--out", str(tmp_path / "out"), command,
                     str(good), str(inputs / name)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: subject_id ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]
        assert sorted(inputs.iterdir()) == given

    @pytest.mark.parametrize("how", ["config", "flag"])
    def test_negative_seed_exits_1_before_any_output(self, tmp_path, capsys, how):
        out = tmp_path / "data"
        if how == "config":
            config = tmp_path / "seed.json"
            config.write_text(json.dumps({"seed": -1}))
            args = ["--config", str(config)]
        else:
            args = ["--seed", "-5"]
        assert main([*args, "--out", str(out), "synth"]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not out.exists()

    def test_partial_failure_exit_code_3(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=1)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x,y,z\n" + "\n".join(["0.1,0.2,nan"] * 6000) + "\n")
        (tmp_path / "bad.csv.json").write_text(json.dumps({"sample_rate_hz": 10.0}))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "correlate",
                     str(paths[0]), str(bad_csv)]) == 3
        assert (out / "manifest.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("data error: subject bad failed: bad: z[0] is non-finite")
        assert "Traceback" not in err
