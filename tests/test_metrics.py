import math

import numpy as np
import pytest

from actimetrics import (
    Applicability,
    DatasetKind,
    IntegrationMethod,
    MetricId,
    PreprocessedSeries,
    RawRecording,
    SyntheticSpec,
    ThresholdPolicy,
    applicability,
    estimate_noise_variance,
    sd_threshold,
    synthesize,
)
from actimetrics.errors import ConfigError, EmptySeries, InapplicableMetric, RecordingTooShort
from actimetrics.metrics import (
    ai_values,
    enmo_values,
    hfen_values,
    mad_values,
    pim_corrected_values,
    pim_values,
    tat_values,
    zcm_values,
)
from oracles import tat_oracle, zcm_oracle

RIEMANN = IntegrationMethod.RIEMANN_SUM
SIMPSON = IntegrationMethod.SIMPSON38

# Single epochs go through the kernels as one-row matrices, ``[x]``, with
# 0.1 s sampling unless a test says otherwise.
TS = 0.1


class TestPim:
    def test_simple_riemann_sum(self):
        assert pim_values([[0.1, 0.2, 0.3]], TS)[0] == pytest.approx(0.06)

    def test_zero_epoch(self):
        assert pim_values([[0.0, 0.0, 0.0]], TS)[0] == 0.0

    def test_both_rules_exact_on_constants(self):
        epoch = [np.ones(600)]
        assert pim_values(epoch, TS, RIEMANN)[0] == pytest.approx(60.0, abs=1e-9)
        assert pim_values(epoch, TS, SIMPSON)[0] == pytest.approx(60.0, abs=1e-9)

    def test_riemann_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        scaled = pim_values([4.2 * x], TS)[0]
        assert scaled == pytest.approx(4.2 * pim_values([x], TS)[0], rel=1e-12)

    def test_riemann_concatenation_sums(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 30))
        total = pim_values([np.concatenate([a, b])], TS)[0]
        halves = pim_values([a, b], TS)
        assert total == pytest.approx(halves[0] + halves[1], rel=1e-12)

    def test_simpson_beats_riemann_on_smooth_curve(self):
        # integral of sin on [0, pi]: exact value 2 after rescaling to the
        # n*Ts span is compared on the n-1 interval quadrature instead
        n = 601
        ts = math.pi / n
        x = np.sin(np.arange(n) * ts)
        exact = 1.0 - math.cos((n - 1) * ts)  # integral over the sampled span
        simpson = pim_values([x], ts, SIMPSON)[0] * (n - 1) / n
        riemann = pim_values([x], ts, RIEMANN)[0] * (n - 1) / n
        assert abs(simpson - exact) < abs(riemann - exact)
        assert simpson == pytest.approx(exact, abs=1e-8)

    def test_simpson_rows_match_an_exactly_rounded_weighted_sum(self):
        # each row is summed pairwise, not in the order of this loop; the
        # tolerance is a few float64 ulps
        from actimetrics.metrics import _simpson38_weights

        rng = np.random.default_rng(15)
        mat = rng.normal(size=(7, 600))
        w = _simpson38_weights(600)
        out = pim_values(mat, 0.1, SIMPSON)
        for i in range(7):
            exact = 0.1 * math.fsum(a * b for a, b in zip(mat[i], w))
            assert out[i] == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_simpson_tail_handles_all_remainders(self):
        for n in (4, 5, 6, 7, 99, 100, 101):
            assert pim_values([np.ones(n)], 0.5, SIMPSON)[0] == pytest.approx(0.5 * n, rel=1e-12)


class TestPimCorrected:
    def test_ufm_rest_gives_zero(self):
        out = pim_corrected_values([np.ones(600)], TS, DatasetKind.UFM)[0]
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_fmpost_abs_first(self):
        out = pim_corrected_values([[-0.2, 0.2, -0.2, 0.2]], TS, DatasetKind.FMPOST)[0]
        assert out == pytest.approx(0.08)

    def test_raw_axis_rejected(self):
        with pytest.raises(InapplicableMetric):
            pim_corrected_values([[0.1, 0.2]], TS, DatasetKind.UFX)

    def test_direct_kinds_equal_plain_pim(self):
        epoch = [[0.1, 0.4, 0.2]]
        for kind in (DatasetKind.UFNM, DatasetKind.FMPRE):
            assert pim_corrected_values(epoch, TS, kind)[0] == pim_values(epoch, TS)[0]

    def test_results_nonnegative_on_random_data(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(50, 40))
        # signed kinds take signed data; UFNM/FMpre are non-negative by construction
        for kind in (DatasetKind.UFM, DatasetKind.FMPOST, DatasetKind.FX):
            assert (pim_corrected_values(mat, 0.1, kind) >= 0).all()
        for kind in (DatasetKind.UFNM, DatasetKind.FMPRE):
            assert (pim_corrected_values(np.abs(mat), 0.1, kind) >= 0).all()

    def test_ufm_simpson_rest_zero_too(self):
        out = pim_corrected_values([np.ones(600)], TS, DatasetKind.UFM, SIMPSON)[0]
        assert out == pytest.approx(0.0, abs=1e-12)


class TestZcm:
    def test_constant_epoch_no_crossings(self):
        assert zcm_values([[0.3] * 10], 0.1)[0] == 0
        assert zcm_values([[0.3] * 10], 0.5)[0] == 0

    def test_alternating_crossings(self):
        assert zcm_values([[0.0, 0.2, 0.0, 0.2]], 0.1)[0] == 3

    def test_on_threshold_sample_takes_no_side(self):
        assert zcm_values([[0.05, 0.15, 0.1, 0.15, 0.05]], 0.1)[0] == 2

    def test_count_bounded_by_n_minus_1(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64)
        assert 0 <= zcm_values([x], 0.0)[0] <= 63

    def test_oracle_agreement_on_random_epochs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = rng.integers(2, 65)
            x = rng.uniform(-2.0, 2.0, n)
            t = rng.uniform(-2.0, 2.0)
            assert zcm_values([x], t)[0] == zcm_oracle(x, t)

    def test_oracle_agreement_with_exact_threshold_hits(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(2, 33))
            x = rng.choice([-0.2, -0.1, 0.0, 0.1, 0.2], size=n)
            t = float(rng.choice([-0.2, -0.1, 0.0, 0.1, 0.2]))
            assert zcm_values([x], t)[0] == zcm_oracle(x, t)


class TestTat:
    def test_counts_strictly_above(self):
        assert tat_values([[0.2, 0.05, 0.3, 0.3]], 0.1, TS)[0] == pytest.approx(0.3)

    def test_samples_equal_threshold_do_not_count(self):
        assert tat_values([[0.1, 0.1, 0.1]], 0.1, TS)[0] == 0.0

    def test_saturation(self):
        assert tat_values([[0.5] * 40], 0.1, TS)[0] == pytest.approx(4.0)

    def test_monotone_non_increasing_in_threshold(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        values = [tat_values([x], t, TS)[0] for t in np.linspace(-2, 2, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_oracle_agreement_on_random_epochs(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            n = rng.integers(2, 65)
            x = rng.uniform(-2.0, 2.0, n)
            t = rng.uniform(-2.0, 2.0)
            assert tat_values([x], t, TS)[0] == pytest.approx(tat_oracle(x, t, 0.1), rel=1e-12)

    def test_full_rectification_identity_exact(self):
        # exact when ts scales counts without rounding (ts = 1 s here);
        # at other rates the identity holds on the underlying counts
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = rng.integers(2, 65)
            x = rng.normal(size=n)
            t = float(rng.uniform(0.01, 2.0))
            epoch_abs = tat_values([np.abs(x)], t, 1.0)[0]
            signed = tat_values([x, -x], t, 1.0)
            assert epoch_abs == signed[0] + signed[1]

    def test_full_rectification_identity_at_10hz(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            x = rng.normal(size=60)
            t = float(rng.uniform(0.01, 2.0))
            lhs = tat_values([np.abs(x)], t, TS)[0]
            signed = tat_values([x, -x], t, TS)
            rhs = signed[0] + signed[1]
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMad:
    def test_constant_epoch(self):
        assert mad_values([[1.0, 1.0, 1.0, 1.0]])[0] == 0.0

    def test_two_points(self):
        assert mad_values([[0.0, 2.0]])[0] == pytest.approx(1.0)

    def test_hand_oracle(self):
        # mean 2.5, deviations 1.5, 0.5, 0.5, 1.5 -> mean 1.0
        assert mad_values([[1.0, 2.0, 3.0, 4.0]])[0] == pytest.approx(1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        shifted, plain = mad_values([x + 123.456, x])
        assert abs(shifted - plain) < 1e-12

    @pytest.mark.parametrize("mat", [
        np.random.default_rng(3).normal(1.0, 0.4, size=(40, 600)),
        np.random.default_rng(4).uniform(-8.0, 8.0, size=(7, 3)),
        np.full((5, 600), 0.3),
        np.zeros((2, 2)),
    ])
    def test_matrix_kernel_equals_two_temporary_formula_bitwise(self, mat):
        before = mat.copy()
        centered = mat - mat.mean(axis=1, keepdims=True)
        expected = np.abs(centered).mean(axis=1)
        assert mad_values(mat).tobytes() == expected.tobytes()
        assert mat.tobytes() == before.tobytes()


class TestEnmo:
    def test_rest(self):
        assert enmo_values([[1.0, 1.0, 1.0]])[0] == 0.0

    def test_only_positive_part_survives(self):
        assert enmo_values([[1.5, 0.5, 1.0]])[0] == pytest.approx(0.5 / 3.0)

    def test_free_fall_clamped(self):
        assert enmo_values([[0.8] * 10])[0] == 0.0

    def test_equals_mean_minus_one_when_all_above_1(self):
        rng = np.random.default_rng(3)
        x = 1.0 + rng.uniform(0.0, 1.0, 50)
        assert enmo_values([x])[0] == pytest.approx(float(x.mean()) - 1.0, rel=1e-12)

    def test_nonnegative_always(self):
        rng = np.random.default_rng(4)
        assert enmo_values([rng.normal(size=100)])[0] >= 0.0


class TestHfen:
    def test_zero_series(self):
        assert hfen_values([[0.0, 0.0]])[0] == 0.0

    def test_constant(self):
        assert hfen_values([[0.25] * 8])[0] == pytest.approx(0.25)

    def test_alternating(self):
        assert hfen_values([[0.0, 1.0, 0.0, 1.0]])[0] == pytest.approx(0.5)


class TestNoiseVariance:
    def test_constant_segment_gives_zero(self):
        # a still stretch of two window lengths always covers one full
        # non-overlapping window regardless of its offset
        rng = np.random.default_rng(6)
        n = 2400
        x = rng.normal(0, 0.1, n)
        x[500:1700] = 0.5
        rec = RawRecording("s", 10.0, x, x, x)
        est = estimate_noise_variance(rec, 60.0)
        assert est.sigma_bar_sq == 0.0
        assert est.source_window_index == 1

    def test_white_noise_estimates_3v_within_20pct(self):
        rng = np.random.default_rng(7)
        v = 0.0004  # per-axis variance
        n = 6000  # 10 windows of 60 s at 10 Hz
        rec = RawRecording(
            "s",
            10.0,
            rng.normal(0, math.sqrt(v), n),
            rng.normal(0, math.sqrt(v), n),
            rng.normal(0, math.sqrt(v), n),
        )
        est = estimate_noise_variance(rec, 60.0)
        assert est.sigma_bar_sq == pytest.approx(3 * v, rel=0.2)
        assert 0 <= est.source_window_index < 10

    def test_window_longer_than_recording_rejected(self):
        rec = RawRecording("s", 10.0, np.zeros(100), np.zeros(100), np.zeros(100))
        with pytest.raises(RecordingTooShort):
            estimate_noise_variance(rec, 60.0)


class TestAi:
    def test_constant_axes_zero_noise(self):
        assert ai_values([[0.25] * 10], [[0.5] * 10], [[0.75] * 10], 0.0)[0] == 0.0

    def test_noise_cancels_signal_variance(self):
        # per-axis variances 1, noise 3: max(0, (3-3)/3) = 0
        rng = np.random.default_rng(8)
        axes = [rng.normal(size=4000) for _ in range(3)]
        x, y, z = ([a / a.std()] for a in axes)  # exact unit population variance
        assert ai_values(x, y, z, 3.0)[0] == pytest.approx(0.0, abs=1e-7)

    def test_direct_formula_evaluation(self):
        # variances (4, 4, 4), noise 1: sqrt((12 - 1)/3) = sqrt(11/3)
        rng = np.random.default_rng(9)
        axes = [rng.normal(size=5000) for _ in range(3)]
        x, y, z = ([2.0 * a / a.std()] for a in axes)
        out = ai_values(x, y, z, 1.0)[0]
        assert out == pytest.approx(math.sqrt(11.0 / 3.0), rel=1e-9)

    def test_per_axis_subtraction_variant(self):
        rng = np.random.default_rng(10)
        axes = [rng.normal(size=5000) for _ in range(3)]
        x, y, z = ([2.0 * a / a.std()] for a in axes)
        out = ai_values(x, y, z, 1.0, subtract_per_axis=True)[0]
        assert out == pytest.approx(math.sqrt((12.0 - 3.0) / 3.0), rel=1e-9)

    def test_axis_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        x, y, z = ([rng.normal(size=100)] for _ in range(3))
        a = ai_values(x, y, z, 0.01)[0]
        b = ai_values(z, x, y, 0.01)[0]
        assert a == pytest.approx(b, rel=1e-12)


class TestSdThreshold:
    def test_constant_axis_series(self):
        series = PreprocessedSeries(DatasetKind.FY, [0.2] * 10, 10.0)
        assert sd_threshold(series) == 0.0

    def test_ufm_gets_1g_offset(self):
        series = PreprocessedSeries(DatasetKind.UFM, [1.0] * 10, 10.0)
        assert sd_threshold(series) == pytest.approx(1.0)

    def test_population_sd(self):
        series = PreprocessedSeries(DatasetKind.FMPOST, [-1.0, 1.0] * 50, 10.0)
        assert sd_threshold(series) == pytest.approx(1.0)

    def test_empty_series_rejected(self):
        series = PreprocessedSeries(DatasetKind.FY, [], 10.0)
        with pytest.raises(EmptySeries):
            sd_threshold(series)

    def test_policy_resolution(self):
        series = PreprocessedSeries(DatasetKind.FY, [-1.0, 1.0], 10.0)
        assert ThresholdPolicy.adaptive().resolve(series) == pytest.approx(1.0)
        assert ThresholdPolicy.fixed(0.15).resolve(series) == 0.15

    def test_fixed_policy_validation(self):
        for value, text in (
            (-0.1, "threshold: fixed threshold needs a finite fixed_g >= 0"),
            (math.nan, "threshold.fixed_g: expected a finite number, got nan"),
            (math.inf, "threshold.fixed_g: expected a finite number, got inf"),
            (None, "threshold: fixed threshold needs a finite fixed_g >= 0"),
        ):
            with pytest.raises(ConfigError) as info:
                ThresholdPolicy.fixed(value)
            assert str(info.value) == text


class TestApplicabilityTable:
    def test_mad_applies_everywhere(self):
        for kind in DatasetKind:
            if kind is DatasetKind.HFEN_SPECIAL:
                continue
            mode, _ = applicability(MetricId.MAD, kind)
            assert mode is Applicability.DIRECT

    def test_enmo_only_ufm(self):
        assert applicability(MetricId.ENMO, DatasetKind.UFM)[0] is Applicability.DIRECT
        for kind in (DatasetKind.UFNM, DatasetKind.FMPRE, DatasetKind.FMPOST,
                     DatasetKind.FX, DatasetKind.UFX):
            assert applicability(MetricId.ENMO, kind)[0] is Applicability.INAPPLICABLE

    def test_hfen_needs_its_dataset(self):
        assert applicability(MetricId.HFEN, DatasetKind.HFEN_SPECIAL)[0] is Applicability.DIRECT
        for kind in (DatasetKind.UFM, DatasetKind.FX, DatasetKind.FMPRE):
            assert applicability(MetricId.HFEN, kind)[0] is Applicability.INAPPLICABLE

    def test_inapplicable_cells_carry_reasons(self):
        mode, reason = applicability(MetricId.PIM, DatasetKind.UFY)
        assert mode is Applicability.INAPPLICABLE
        assert reason


class TestVectorKernelsMatchScalarOps:
    def test_zcm_matrix_matches_loop(self):
        rng = np.random.default_rng(12)
        mat = rng.uniform(-1, 1, size=(20, 30))
        out = zcm_values(mat, 0.2)
        for i in range(20):
            assert out[i] == zcm_oracle(mat[i], 0.2)

    def test_tat_matrix_matches_loop(self):
        rng = np.random.default_rng(13)
        mat = rng.uniform(-1, 1, size=(20, 30))
        out = tat_values(mat, 0.1, 0.1)
        for i in range(20):
            assert out[i] == pytest.approx(tat_oracle(mat[i], 0.1, 0.1))

    def test_pim_matrix_matches_scalar(self):
        # a row integrates the same whether alone or among other rows
        rng = np.random.default_rng(14)
        mat = rng.normal(size=(5, 25))
        for method in (RIEMANN, SIMPSON):
            out = pim_values(mat, 0.1, method)
            for i in range(5):
                alone = pim_values(mat[i : i + 1], 0.1, method)[0]
                assert out[i] == pytest.approx(alone, rel=1e-12)


class TestAdaptiveTatOnRest:
    def test_threshold_sits_above_noise(self):
        rec = synthesize(
            SyntheticSpec(
                subject_id="resty",
                duration_s=1200.0,
                rest_s=1200.0,
                active_s=0.0,
                noise_sd_g=0.005,
                seed=21,
            )
        )
        from actimetrics import compute_activity, preprocess_all
        from actimetrics.combine import VariantDescriptor

        datasets = dict(preprocess_all(rec))
        variant = VariantDescriptor(MetricId.TAT, DatasetKind.UFM)
        sig = compute_activity(variant, datasets, 60.0)

        # brute-force oracle at the same SD + 1 g threshold
        series = datasets[DatasetKind.UFM]
        threshold = sd_threshold(series)
        expected = [
            tat_oracle(series.values[i * 600 : (i + 1) * 600], threshold, 0.1)
            for i in range(sig.values.size)
        ]
        np.testing.assert_allclose(sig.values, expected, rtol=1e-12)
        # noise rarely exceeds SD + 1 g: activity stays a small fraction of Te
        assert sig.values.mean() < 0.25 * 60.0
