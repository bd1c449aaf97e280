import dataclasses
import math

import numpy as np
import pytest
from scipy import signal as spsignal

from actimetrics import (
    ActivitySignal,
    DatasetKind,
    Domain,
    MetricId,
    PsdParams,
    SweepCurve,
    SyntheticSpec,
    correlation_matrix,
    pearson,
    preprocess_all,
    psd,
    subject_correlation,
    synthesize,
    threshold_sweep,
)
from actimetrics.analysis import recording_sweep, subject_sweep
from actimetrics.core import epoch_matrix, epoch_sample_count
from actimetrics.errors import DegenerateInput, LabelMismatch, SignalTooShort
from actimetrics.metrics import enmo_values, hfen_values, tat_values, zcm_values
from oracles import tat_oracle, zcm_oracle


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


def matrix(subjects, domain=Domain.TIME):
    """The reduce over each subject's matrix, in subject-id order."""
    labels = tuple(next(iter(subjects.values())))
    per_subject = [subject_correlation(subjects[s], labels, domain)
                   for s in sorted(subjects)]
    return correlation_matrix(per_subject, domain, labels)


class TestCorrelationMatrix:
    def _subject(self, rng, labels, n=200):
        return {label: sig(rng.normal(size=n), label) for label in labels}

    def test_copy_pair_is_one_with_zero_sd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=100)
        subjects = {"s1": {"A": sig(x, "A"), "A-copy": sig(x.copy(), "A-copy")}}
        out = matrix(subjects)
        np.testing.assert_allclose(out.mean, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.sd, 0.0, atol=1e-12)

    def test_diagonal_exact(self):
        rng = np.random.default_rng(5)
        subjects = {f"s{i}": self._subject(rng, ["A", "B", "C"]) for i in range(3)}
        out = matrix(subjects)
        np.testing.assert_array_equal(np.diag(out.mean), 1.0)
        np.testing.assert_array_equal(np.diag(out.sd), 0.0)

    def test_symmetry_within_1e12(self):
        rng = np.random.default_rng(6)
        subjects = {f"s{i}": self._subject(rng, list("ABCDE")) for i in range(4)}
        out = matrix(subjects)
        np.testing.assert_allclose(out.mean, out.mean.T, atol=1e-12)
        np.testing.assert_allclose(out.sd, out.sd.T, atol=1e-12)
        assert (np.abs(out.mean[np.isfinite(out.mean)]) <= 1.0).all()

    def test_independent_noise_near_zero(self):
        # null bound ~ 2/sqrt(N) for N epochs
        rng = np.random.default_rng(7)
        n = 14400
        subjects = {"s1": {"A": sig(rng.normal(size=n), "A"),
                           "B": sig(rng.normal(size=n), "B")}}
        out = matrix(subjects)
        assert abs(out.mean[0, 1]) < 0.05

    def test_label_mismatch_rejected(self):
        # each subject's signals must carry exactly the labels, of one length
        rng = np.random.default_rng(8)
        subjects = {
            "s1": self._subject(rng, ["A", "B"]),
            "s2": self._subject(rng, ["A", "C"]),
        }
        with pytest.raises(LabelMismatch):
            matrix(subjects)
        uneven = {"A": sig(rng.normal(size=50), "A"), "B": sig(rng.normal(size=60), "B")}
        with pytest.raises(LabelMismatch, match="differ in length"):
            subject_correlation(uneven, ("A", "B"))

    def test_degenerate_pairs_excluded_and_counted(self):
        rng = np.random.default_rng(9)
        subjects = {
            "s1": {"A": sig(np.ones(50), "A"), "B": sig(rng.normal(size=50), "B")},
            "s2": {"A": sig(rng.normal(size=50), "A"),
                   "B": sig(rng.normal(size=50), "B")},
        }
        out = matrix(subjects)
        assert out.excluded[0, 1] == 1
        assert np.isfinite(out.mean[0, 1])  # s2 still contributes

    def test_mean_and_sd_aggregate_across_subjects(self):
        # deterministic signals with known per-subject correlations
        base = np.array([1.0, 2.0, 3.0, 4.0])
        subjects = {
            "s1": {"A": sig(base, "A"), "B": sig(base * 2, "B")},      # r = 1
            "s2": {"A": sig(base, "A"), "B": sig(-base, "B")},         # r = -1
        }
        out = matrix(subjects)
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
        out = matrix(subjects, Domain.FREQUENCY)
        # same spectral content correlates strongly even with phase offset
        assert out.mean[0, 1] > 0.95
        assert out.mean[0, 1] > out.mean[0, 2]
        assert out.domain is Domain.FREQUENCY

    def test_frequency_matrix_matches_per_label_welch_oracle(self):
        rng = np.random.default_rng(15)
        labels = ["A", "B", "C", "D"]
        n = 600
        t = np.arange(n)
        subjects = {}
        for s in range(3):
            tone = np.sin(2 * np.pi * t * (10 + 5 * s) / 256)
            values = {
                "A": tone + 0.3 * rng.normal(size=n),
                "B": tone ** 2 + 0.3 * rng.exponential(size=n),
                "C": rng.normal(size=n).cumsum(),
                "D": rng.normal(size=n),
            }
            subjects[f"s{s}"] = {k: sig(values[k], k) for k in labels}
        out = matrix(subjects, Domain.FREQUENCY)

        # oracle: one scipy.signal.welch per label, np.corrcoef per subject
        per_subject = []
        for subject in sorted(subjects):
            spectra = [
                spsignal.welch(subjects[subject][k].values, fs=1.0 / 60.0,
                               window="hann", nperseg=256, noverlap=128,
                               detrend="constant")[1]
                for k in labels
            ]
            per_subject.append(np.corrcoef(spectra))
        per_subject = np.array(per_subject)
        assert out.labels == tuple(labels)
        np.testing.assert_allclose(out.mean, per_subject.mean(axis=0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.sd, per_subject.std(axis=0),
                                   rtol=0, atol=1e-12)


class TestPsd:
    def test_constant_signal_no_power_beyond_dc(self):
        _, power = psd(np.full(512, 3.3), 60.0)
        assert np.all(power[1:] < 1e-20)

    def test_bin_centered_sinusoid_concentrates(self):
        n, seg = 1024, 256
        te = 60.0
        fs = 1.0 / te
        f0 = 32 * fs / seg
        t = np.arange(n) * te
        frequencies, power = psd(np.sin(2 * np.pi * f0 * t), te)
        k = int(np.argmax(power))
        # direct oracle: the tone sits at bin 32 of the 256-point segment grid
        assert k == 32
        assert frequencies[k] == pytest.approx(f0, rel=1e-12)
        share = power[k - 1 : k + 2].sum() / power.sum()
        assert share >= 0.95

    def test_white_noise_flat_within_band_factor_3(self):
        rng = np.random.default_rng(11)
        _, power = psd(rng.normal(size=4096), 60.0)
        power = power[1:]  # drop DC bin (detrended)
        bands = np.array_split(power, 10)
        means = [b.mean() for b in bands]
        assert max(means) / min(means) < 3.0

    def test_parseval_within_5pct(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=2048)
        frequencies, power = psd(x, 60.0)
        df = frequencies[1] - frequencies[0]
        total = power.sum() * df
        assert total == pytest.approx(float(np.var(x)), rel=0.05)

    def test_too_short_signal_rejected(self):
        with pytest.raises(SignalTooShort):
            psd(np.zeros(100), 60.0, PsdParams(segment_epochs=256))

    def test_frequency_grid_spans_zero_to_nyquist(self):
        frequencies, power = psd(np.random.default_rng(13).normal(size=512), 60.0)
        assert frequencies[0] == 0.0
        assert frequencies[-1] == pytest.approx(1.0 / (2 * 60.0))
        assert (np.diff(frequencies) > 0).all()
        assert (power >= 0).all()

    def test_stack_equals_each_row_alone(self):
        rng = np.random.default_rng(14)
        for n_epochs in (256, 360, 1440):
            rows = np.vstack([
                rng.normal(size=n_epochs),
                rng.exponential(size=n_epochs),
                np.full(n_epochs, 2.0),
                np.sin(np.arange(n_epochs) / 7.0),
            ])
            frequencies, power = psd(rows, 60.0)
            assert power.shape == (rows.shape[0], frequencies.size)
            for row, stacked in zip(rows, power):
                alone_frequencies, alone = psd(row, 60.0)
                assert np.array_equal(alone_frequencies, frequencies)
                assert np.array_equal(alone, stacked)


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


def _references(datasets, te_s=60.0):
    """(ENMO, HFEN) per-epoch values of a subject's UFM and HFEN_SPECIAL datasets."""
    ufm, hfen = datasets[DatasetKind.UFM], datasets[DatasetKind.HFEN_SPECIAL]
    n = epoch_sample_count(te_s, ufm.sample_rate_hz)
    return (enmo_values(epoch_matrix(ufm.values, n)),
            hfen_values(epoch_matrix(hfen.values, n)))


def _sweep(metric, kind, recordings, te_s=60.0, zero_phase=False, **kwargs):
    """The reduce over each recording's part, in the order given.

    Each part's references come from a build of that recording's own.
    """
    def part(rec):
        references = _references(dict(preprocess_all(
            rec, zero_phase=zero_phase, kinds=(DatasetKind.UFM, DatasetKind.HFEN_SPECIAL))),
            te_s)
        return recording_sweep(metric, kind, rec, te_s, references=references,
                               zero_phase=zero_phase, **kwargs)

    return threshold_sweep([part(rec) for rec in recordings])


@pytest.fixture(scope="module")
def zcm_sweep_ufm():
    return _sweep(MetricId.ZCM, DatasetKind.UFM, _sweep_corpus(1), 60.0, max_steps=60)


class TestThresholdSweep:
    def test_grid_starts_at_1g_for_ufm(self, zcm_sweep_ufm):
        assert zcm_sweep_ufm.thresholds[0] == pytest.approx(1.0)
        steps = np.diff(zcm_sweep_ufm.thresholds)
        np.testing.assert_allclose(steps, 0.05, rtol=1e-12)

    def test_grid_starts_at_0_for_axis(self):
        curve = _sweep(
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
            curve = _sweep(metric, DatasetKind.UFM, recordings, 60.0, max_steps=60)
            best = np.nanmax(curve.r_vs_enmo)
            assert curve.sd_anchor_r_vs_enmo >= 0.97 * best

    def test_non_level_metric_rejected(self):
        with pytest.raises(ValueError):
            _sweep(MetricId.MAD, DatasetKind.UFM, _sweep_corpus(1))

    @pytest.mark.parametrize("metric, kind, step_g, max_steps", [
        (MetricId.TAT, DatasetKind.UFM, 0.1, 20),
        (MetricId.TAT, DatasetKind.UFM, 0.05, 20),
        (MetricId.ZCM, DatasetKind.FMPOST, 0.05, 20),
        (MetricId.ZCM, DatasetKind.UFM, 0.1, 20),
        (MetricId.ZCM, DatasetKind.UFM, 0.05, 21),
    ])
    def test_parts_that_differ_are_rejected(
        self, sweep_corpus_datasets, metric, kind, step_g, max_steps
    ):
        datasets = sweep_corpus_datasets[1][False][0]
        references = _references(datasets)
        zcm = subject_sweep(MetricId.ZCM, datasets[DatasetKind.UFM], references=references,
                            max_steps=20)
        other = subject_sweep(metric, datasets[kind], references=references,
                              step_g=step_g, max_steps=max_steps)
        for parts in ([zcm, other], [other, zcm]):
            with pytest.raises(ValueError, match="sweep parts differ"):
                threshold_sweep(parts)

    def test_one_recordings_datasets_alive_at_a_time(self):
        import tracemalloc

        rec = _sweep_corpus(1, 7200.0)[0]

        def peak(recordings):
            tracemalloc.start()
            try:
                _sweep(MetricId.ZCM, DatasetKind.UFM, recordings, max_steps=20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # holding the previous recording's datasets while preprocessing the
        # next would double the peak
        assert peak([rec] * 3) < 1.5 * peak([rec])


class TestSubjectSweep:
    @pytest.mark.parametrize("active_s", [0.0, 180.0])
    def test_noise_free_ufm_on_grid_point_0_matches_the_oracle(self, active_s):
        # noise-free rest gives UFM == 1.0 exactly, the first UFM grid point
        rec = synthesize(SyntheticSpec(
            subject_id="still", duration_s=1200.0, rest_s=240.0, active_s=active_s,
            noise_sd_g=0.0, seed=3,
        ))
        datasets = dict(preprocess_all(rec))
        ufm = datasets[DatasetKind.UFM].values
        assert (ufm == 1.0).any()
        epochs = ufm.reshape(-1, 600)
        oracles = {
            MetricId.ZCM: lambda row: zcm_oracle(row, 1.0),
            MetricId.TAT: lambda row: tat_oracle(row, 1.0, 0.1),
        }
        for metric, oracle in oracles.items():
            part = subject_sweep(metric, datasets[DatasetKind.UFM], 60.0,
                                 references=_references(datasets), max_steps=10)
            expected = np.mean(np.array([oracle(row) for row in epochs], dtype=float))
            assert part.mean_activity[0] == expected, metric

    def test_one_epoch_is_a_typed_error(self):
        rec = synthesize(SyntheticSpec(subject_id="short", duration_s=60.0,
                                       noise_sd_g=0.02, seed=1))
        with pytest.raises(SignalTooShort):
            datasets = dict(preprocess_all(rec))
            subject_sweep(MetricId.ZCM, datasets[DatasetKind.UFM], 60.0,
                          references=_references(datasets))


_SWEEP_KINDS = (DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPRE, DatasetKind.FMPOST,
                DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ)


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.fixture(scope="module")
def sweep_corpus_datasets():
    """A short two-subject corpus and its full builds, causal and zero-phase."""
    recordings = _sweep_corpus(2, 1800.0)
    return recordings, {
        zero_phase: [dict(preprocess_all(rec, zero_phase=zero_phase)) for rec in recordings]
        for zero_phase in (False, True)
    }


class TestSweepReadsOnlyWhatItNeeds:
    @pytest.mark.parametrize("zero_phase", [False, True], ids=["causal", "zero-phase"])
    @pytest.mark.parametrize("metric", [MetricId.ZCM, MetricId.TAT], ids=str)
    @pytest.mark.parametrize("kind", _SWEEP_KINDS, ids=str)
    def test_threshold_sweep_equals_the_reduce_over_full_builds(
        self, sweep_corpus_datasets, kind, metric, zero_phase
    ):
        recordings, full = sweep_corpus_datasets
        curve = _sweep(metric, kind, recordings, zero_phase=zero_phase)
        expected = threshold_sweep([subject_sweep(metric, d[kind], references=_references(d))
                                    for d in full[zero_phase]])
        for field in dataclasses.fields(SweepCurve):
            got, want = getattr(curve, field.name), getattr(expected, field.name)
            if field.name in ("metric", "kind"):
                assert got is want
            else:
                assert _same_bits(got, want), field.name

    @pytest.mark.parametrize("metric", [MetricId.ZCM, MetricId.TAT], ids=str)
    @pytest.mark.parametrize("kind", [DatasetKind.UFM, DatasetKind.FX], ids=str)
    def test_rows_past_the_series_maximum_match_pearson_on_every_row(
        self, sweep_corpus_datasets, kind, metric
    ):
        datasets = sweep_corpus_datasets[1][False][0]
        step_g, max_steps = 0.05, 200
        part = subject_sweep(metric, datasets[kind], 60.0, references=_references(datasets),
                             step_g=step_g, max_steps=max_steps)
        series = datasets[kind]
        grid = (1.0 if kind is DatasetKind.UFM else 0.0) + step_g * np.arange(max_steps)
        assert series.values.max() < grid[max_steps // 4]

        def epochs(k):
            return epoch_matrix(datasets[k].values, 600)

        mat = epochs(kind)
        rows = [
            zcm_values(mat, thr) if metric is MetricId.ZCM else tat_values(mat, thr, series.ts)
            for thr in grid
        ]
        nearest_sd = int(np.clip(round((part.sd_marker - grid[0]) / step_g), 0, max_steps - 1))

        def every_row(reference):
            out = np.full(max_steps, np.nan)
            for i, row in enumerate(rows):
                try:
                    out[i] = pearson(row, reference)
                except DegenerateInput:
                    pass
            return out

        assert _same_bits(part.r_vs_enmo, every_row(enmo_values(epochs(DatasetKind.UFM))))
        assert _same_bits(
            part.r_vs_hfen, every_row(hfen_values(epochs(DatasetKind.HFEN_SPECIAL)))
        )
        assert _same_bits(part.r_vs_sd_anchored, every_row(rows[nearest_sd]))
        assert _same_bits(part.mean_activity, np.array(rows).mean(axis=1))
