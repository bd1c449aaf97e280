import math

import numpy as np
import pytest

from actimetrics import (
    ActivitySignal,
    DatasetKind,
    Domain,
    MetricId,
    PsdParams,
    SyntheticSpec,
    correlation_matrix,
    pearson,
    preprocess_all,
    psd,
    synthesize,
    threshold_sweep,
)
from actimetrics.analysis import subject_sweep
from actimetrics.errors import DegenerateInput, LabelMismatch, SignalTooShort


def sig(values, label="sig", te=60.0):
    return ActivitySignal(label=label, epoch_length_s=te, values=values)


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negation_gives_minus_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # closed form: centered products sum 2.1, norms sqrt(2) and
        # sqrt(331/150); r = 2.1 / sqrt(2 * 331/150) = 0.9996220...
        expected = 2.1 / math.sqrt(2.0 * 331.0 / 150.0)
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.1]) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.99962, abs=1e-5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 80))
        base = pearson(x, y)
        assert pearson(3.7 * x + 11.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_result_clipped_to_valid_range(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        assert -1.0 <= pearson(x, 2 * x + 1e-9 * rng.normal(size=10)) <= 1.0


class TestCorrelationMatrix:
    def _subject(self, rng, labels, n=200):
        return {label: sig(rng.normal(size=n), label) for label in labels}

    def test_copy_pair_is_one_with_zero_sd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        subjects = {"s1": {"A": sig(x, "A"), "A-copy": sig(x.copy(), "A-copy")}}
        out = correlation_matrix(subjects)
        np.testing.assert_allclose(out.mean, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.sd, 0.0, atol=1e-12)

    def test_diagonal_exact(self):
        rng = np.random.default_rng(5)
        subjects = {f"s{i}": self._subject(rng, ["A", "B", "C"]) for i in range(3)}
        out = correlation_matrix(subjects)
        np.testing.assert_array_equal(np.diag(out.mean), 1.0)
        np.testing.assert_array_equal(np.diag(out.sd), 0.0)

    def test_symmetry_within_1e12(self):
        rng = np.random.default_rng(6)
        subjects = {f"s{i}": self._subject(rng, list("ABCDE")) for i in range(4)}
        out = correlation_matrix(subjects)
        np.testing.assert_allclose(out.mean, out.mean.T, atol=1e-12)
        np.testing.assert_allclose(out.sd, out.sd.T, atol=1e-12)
        assert (np.abs(out.mean[np.isfinite(out.mean)]) <= 1.0).all()

    def test_independent_noise_near_zero(self):
        # null bound ~ 2/sqrt(N) for N epochs
        rng = np.random.default_rng(7)
        n = 14400
        subjects = {"s1": {"A": sig(rng.normal(size=n), "A"),
                           "B": sig(rng.normal(size=n), "B")}}
        out = correlation_matrix(subjects)
        assert abs(out.mean[0, 1]) < 0.05

    def test_label_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        subjects = {
            "s1": self._subject(rng, ["A", "B"]),
            "s2": self._subject(rng, ["A", "C"]),
        }
        with pytest.raises(LabelMismatch):
            correlation_matrix(subjects)

    def test_degenerate_pairs_excluded_and_counted(self):
        rng = np.random.default_rng(9)
        subjects = {
            "s1": {"A": sig(np.ones(50), "A"), "B": sig(rng.normal(size=50), "B")},
            "s2": {"A": sig(rng.normal(size=50), "A"),
                   "B": sig(rng.normal(size=50), "B")},
        }
        out = correlation_matrix(subjects)
        assert out.excluded[0, 1] == 1
        assert np.isfinite(out.mean[0, 1])  # s2 still contributes

    def test_mean_and_sd_aggregate_across_subjects(self):
        # deterministic signals with known per-subject correlations
        base = np.array([1.0, 2.0, 3.0, 4.0])
        subjects = {
            "s1": {"A": sig(base, "A"), "B": sig(base * 2, "B")},      # r = 1
            "s2": {"A": sig(base, "A"), "B": sig(-base, "B")},         # r = -1
        }
        out = correlation_matrix(subjects)
        assert out.mean[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert out.sd[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_frequency_domain_uses_psd(self):
        rng = np.random.default_rng(10)
        n = 512
        t = np.arange(n)
        a = np.sin(2 * np.pi * t * 16 / 256) + 0.05 * rng.normal(size=n)
        b = np.sin(2 * np.pi * t * 16 / 256 + 1.0) + 0.05 * rng.normal(size=n)
        c = rng.normal(size=n)
        subjects = {"s1": {"A": sig(a, "A"), "B": sig(b, "B"), "C": sig(c, "C")}}
        out = correlation_matrix(subjects, Domain.FREQUENCY)
        # same spectral content correlates strongly even with phase offset
        assert out.mean[0, 1] > 0.95
        assert out.mean[0, 1] > out.mean[0, 2]
        assert out.domain is Domain.FREQUENCY


class TestPsd:
    def test_constant_signal_no_power_beyond_dc(self):
        out = psd(sig(np.full(512, 3.3)))
        assert np.all(out.power[1:] < 1e-20)

    def test_bin_centered_sinusoid_concentrates(self):
        n, seg = 1024, 256
        te = 60.0
        fs = 1.0 / te
        f0 = 32 * fs / seg
        t = np.arange(n) * te
        out = psd(sig(np.sin(2 * np.pi * f0 * t)))
        k = int(np.argmax(out.power))
        # direct oracle: the tone sits at bin 32 of the 256-point segment grid
        assert k == 32
        assert out.frequencies[k] == pytest.approx(f0, rel=1e-12)
        share = out.power[k - 1 : k + 2].sum() / out.power.sum()
        assert share >= 0.95

    def test_white_noise_flat_within_band_factor_3(self):
        rng = np.random.default_rng(11)
        out = psd(sig(rng.normal(size=4096)))
        power = out.power[1:]  # drop DC bin (detrended)
        bands = np.array_split(power, 10)
        means = [b.mean() for b in bands]
        assert max(means) / min(means) < 3.0

    def test_parseval_within_5pct(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=2048)
        out = psd(sig(x))
        df = out.frequencies[1] - out.frequencies[0]
        total = out.power.sum() * df
        assert total == pytest.approx(float(np.var(x)), rel=0.05)

    def test_too_short_signal_rejected(self):
        with pytest.raises(SignalTooShort):
            psd(sig(np.zeros(100)), PsdParams(segment_epochs=256))

    def test_frequency_grid_spans_zero_to_nyquist(self):
        out = psd(sig(np.random.default_rng(13).normal(size=512)))
        assert out.frequencies[0] == 0.0
        assert out.frequencies[-1] == pytest.approx(1.0 / (2 * 60.0))
        assert (np.diff(out.frequencies) > 0).all()
        assert (out.power >= 0).all()


def _sweep_corpus(n_subjects=2, duration_s=3600.0):
    return [
        synthesize(
            SyntheticSpec(
                subject_id=f"s{i}",
                duration_s=duration_s,
                rest_s=240.0,
                active_s=180.0,
                active_freq_hz=1.5,
                active_amp_g=0.5,
                amp_jitter=0.3,
                noise_sd_g=0.02,
                seed=100 + i,
            )
        )
        for i in range(n_subjects)
    ]


@pytest.fixture(scope="module")
def zcm_sweep_ufm():
    return threshold_sweep(
        MetricId.ZCM, DatasetKind.UFM, _sweep_corpus(1), 60.0, max_steps=60
    )


class TestThresholdSweep:
    def test_grid_starts_at_1g_for_ufm(self, zcm_sweep_ufm):
        assert zcm_sweep_ufm.thresholds[0] == pytest.approx(1.0)
        steps = np.diff(zcm_sweep_ufm.thresholds)
        np.testing.assert_allclose(steps, 0.05, rtol=1e-12)

    def test_grid_starts_at_0_for_axis(self):
        curve = threshold_sweep(
            MetricId.TAT, DatasetKind.FY, _sweep_corpus(1, 1800.0), 60.0, max_steps=30
        )
        assert curve.thresholds[0] == 0.0

    def test_single_subject_anchor_self_correlation_is_one(self, zcm_sweep_ufm):
        curve = zcm_sweep_ufm
        anchor = int(np.argmin(np.abs(curve.thresholds - curve.sd_marker)))
        assert curve.r_vs_sd_anchored[anchor] == pytest.approx(1.0, abs=1e-12)

    def test_r_values_in_valid_range(self, zcm_sweep_ufm):
        for arr in (zcm_sweep_ufm.r_vs_enmo, zcm_sweep_ufm.r_vs_hfen,
                    zcm_sweep_ufm.r_vs_sd_anchored):
            finite = arr[np.isfinite(arr)]
            assert (np.abs(finite) <= 1.0 + 1e-12).all()

    def test_sd_marker_on_grid_range(self, zcm_sweep_ufm):
        curve = zcm_sweep_ufm
        assert curve.thresholds[0] <= curve.sd_marker <= curve.thresholds[-1]

    def test_sd_threshold_near_optimal_on_bouts(self):
        recordings = _sweep_corpus(2)
        for metric in (MetricId.ZCM, MetricId.TAT):
            curve = threshold_sweep(
                metric, DatasetKind.UFM, recordings, 60.0, max_steps=60
            )
            best = np.nanmax(curve.r_vs_enmo)
            assert curve.sd_anchor_r_vs_enmo >= 0.97 * best

    def test_non_level_metric_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(MetricId.MAD, DatasetKind.UFM, _sweep_corpus(1))


class TestSubjectSweep:
    @pytest.mark.parametrize("active_s", [0.0, 180.0])
    def test_noise_free_ufm_on_grid_point_0_matches_the_oracle(self, active_s):
        from test_acceptance import _tat_oracle, _zcm_oracle

        # noise-free rest gives UFM == 1.0 exactly, the first UFM grid point
        rec = synthesize(SyntheticSpec(
            subject_id="still", duration_s=1200.0, rest_s=240.0, active_s=active_s,
            noise_sd_g=0.0, seed=3,
        ))
        datasets = preprocess_all(rec)
        ufm = datasets[DatasetKind.UFM].values
        assert (ufm == 1.0).any()
        epochs = ufm.reshape(-1, 600)
        oracles = {
            MetricId.ZCM: lambda row: _zcm_oracle(row, 1.0),
            MetricId.TAT: lambda row: _tat_oracle(row, 1.0, 0.1),
        }
        for metric, oracle in oracles.items():
            part = subject_sweep(metric, DatasetKind.UFM, datasets, 60.0, max_steps=10)
            expected = np.mean(np.array([oracle(row) for row in epochs], dtype=float))
            assert part.mean_activity[0] == expected, metric

    def test_one_epoch_is_a_typed_error(self):
        rec = synthesize(SyntheticSpec(subject_id="short", duration_s=60.0,
                                       noise_sd_g=0.02, seed=1))
        with pytest.raises(SignalTooShort):
            subject_sweep(MetricId.ZCM, DatasetKind.UFM, preprocess_all(rec), 60.0)
