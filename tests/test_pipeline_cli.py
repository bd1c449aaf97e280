import json

import numpy as np
import pytest

from actimetrics import PipelineConfig, SyntheticSpec, config_from_dict, synthesize
from actimetrics.cli import main
from actimetrics.config import SweepConfig, SyntheticConfig, load_config
from actimetrics.errors import ConfigError
from actimetrics.formats import write_recording_bin, write_recording_csv
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

    def test_non_integer_epoch_sample_count_rejected(self):
        from actimetrics.config import check_epoch_alignment

        config = config_from_dict({"epoch_s": 60.05})
        with pytest.raises(ConfigError):
            check_epoch_alignment(config, 10.0)
        assert check_epoch_alignment(config_from_dict({}), 10.0) == 600

    def test_both_integrations_flow_into_catalog(self):
        from actimetrics import catalog

        config = config_from_dict({"pim_integrations": ["riemann", "simpson38"]})
        labels = [v.label for v in catalog(config.catalog_options())]
        assert "PIM(UFNM)" in labels and "PIMs(UFNM)" in labels
        assert len(labels) == 102

    @pytest.mark.parametrize("kinds", [["BOGUS"], ["UFX"], ["HFEN_SPECIAL"], [7]])
    def test_bad_sweep_kind_rejected(self, kinds):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": {"kinds": kinds}})

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
        datasets = preprocess_all(rec)
        variant = VariantDescriptor(
            MetricId.TAT, DatasetKind.FY,
            threshold_policy=config.threshold_policy(),
        )
        out = compute_activity(variant, datasets, 60.0)
        mat = datasets[DatasetKind.FY].values[:6000].reshape(10, 600)
        np.testing.assert_array_equal(out.values, tat_values(mat, 0.15, 0.1))

    def test_ai_sigma_override_changes_only_ai(self, tmp_path):
        from actimetrics.pipeline import process_subject

        rec = corpus(1, duration_s=600.0)[0]
        base = process_subject(rec, small_config())
        bumped = process_subject(
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

    def test_jobs_parallel_matches_serial(self, tmp_path):
        config = small_config()
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        run_pipeline(config, corpus(), out1, jobs=1)
        run_pipeline(config, corpus(), out2, jobs=4)
        for rel in sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file()):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_sweep_csvs_match_threshold_sweep(self, tmp_path):
        from actimetrics import DatasetKind, MetricId, threshold_sweep
        from actimetrics.formats import write_sweep_csv

        config = small_config(sweep=SweepConfig(
            metrics=("ZCM", "TAT"), kinds=("UFM", "FMpost"), max_steps=40))
        # not in id order: both sides reduce in input order
        recordings = [corpus(3)[i] for i in (2, 0, 1)]
        manifest = run_pipeline(config, recordings, tmp_path / "bundle", jobs=2)
        assert len(manifest["sweeps"]) == 4
        for metric, kind in config.sweep_requests():
            curve = threshold_sweep(
                MetricId(metric), DatasetKind(kind), recordings, config.epoch_s,
                bandpass=config.bandpass_spec(10.0), hfen_spec=config.hfen_spec(10.0),
                zero_phase=config.zero_phase, step_g=config.sweep.step_g,
                max_steps=config.sweep.max_steps,
            )
            direct = tmp_path / f"direct_{metric}_{kind}.csv"
            write_sweep_csv(curve, direct)
            bundled = tmp_path / "bundle" / f"sweep_{metric}_{kind}.csv"
            assert direct.read_bytes() == bundled.read_bytes(), (metric, kind)

    def test_empty_catalog_aborts_before_work(self, tmp_path):
        config = small_config()
        config = dataclasses.replace(
            config, catalog=dataclasses.replace(config.catalog, include=("NOPE*",))
        )
        with pytest.raises(ConfigError):
            run_pipeline(config, corpus(1), tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_bad_subject_isolated(self, tmp_path):
        from actimetrics import RawRecording

        good = corpus(1)[0]
        bad = RawRecording("broken", 10.0, np.full(12000, np.nan),
                           np.zeros(12000), np.ones(12000))
        manifest = run_pipeline(small_config(), [good, bad], tmp_path)
        by_id = {s["subject_id"]: s for s in manifest["subjects"]}
        assert by_id["s00"]["status"] == "ok"
        assert by_id["broken"]["status"] == "failed"
        assert "non-finite" in by_id["broken"]["error"]


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

    def test_activity_subcommand(self, tmp_path):
        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "activity",
                     str(paths[0])])
        assert code == 0
        assert len(list((out / "s00" / "activity").glob("*.csv"))) == 83

    def test_preprocess_subcommand(self, tmp_path):
        paths = self._write_corpus(tmp_path, n=1)
        out = tmp_path / "out"
        assert main(["--out", str(out), "preprocess", str(paths[0])]) == 0
        names = sorted(p.name for p in (out / "s00" / "datasets").glob("*.csv"))
        assert len(names) == 11
        assert "FMpre.csv" in names

    def test_sweep_subcommand(self, tmp_path):
        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path)
        out = tmp_path / "out"
        code = main(["--config", str(config), "--out", str(out), "sweep",
                     *map(str, paths)])
        assert code == 0
        assert (out / "sweep_ZCM_UFM.csv").exists()

    def test_config_error_exit_code_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mystery": True}))
        assert main(["--config", str(bad), "catalog"]) == 1

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

    def test_data_error_exit_code_2(self, tmp_path):
        missing = tmp_path / "missing.actm"
        missing.write_bytes(b"XXXX" + b"\x00" * 12)
        assert main(["correlate", str(missing)]) == 2

    def test_mixed_sample_rates_design_filters_per_recording(self, tmp_path):
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
        swept = tmp_path / "swept"
        assert main(["--config", str(config), "--out", str(swept), "sweep",
                     *map(str, paths)]) == 0
        for rel in manifest["sweeps"]:
            assert (out / rel).read_bytes() == (swept / rel).read_bytes(), rel

    def test_partial_failure_exit_code_3(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        paths = self._write_corpus(tmp_path, n=1)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("x,y,z\n" + "\n".join(["0.1,0.2,nan"] * 6000) + "\n")
        (tmp_path / "bad.csv.json").write_text(json.dumps({"sample_rate_hz": 10.0}))
        code = main(["--config", str(config), "--out", str(tmp_path / "out"),
                     "correlate", str(paths[0]), str(bad_csv)])
        assert code == 3
