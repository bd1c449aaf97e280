import math

import numpy as np
import pytest

from actimetrics import (
    Bandpass,
    DatasetKind,
    Highpass,
    PreprocessedSeries,
    RawRecording,
    apply_filter,
    design_filter,
    fmpre,
    hfen_preprocess,
    magnitude,
    normalize_magnitude,
    preprocess_all,
)
from actimetrics.errors import InvalidCutoffs, SeriesMismatch
from actimetrics.preprocess import filter_values

FS = 10.0


# --- independent oracle: analog Butterworth magnitude with bilinear prewarping


def prewarp(f_hz, fs):
    return 2.0 * fs * math.tan(math.pi * f_hz / fs)


def butter_bandpass_mag(f_hz, f_low, f_high, order, fs):
    w = prewarp(f_hz, fs)
    wl, wh = prewarp(f_low, fs), prewarp(f_high, fs)
    if w == 0.0:
        return 0.0
    x = (w * w - wl * wh) / (w * (wh - wl))
    return 1.0 / math.sqrt(1.0 + (x * x) ** order)


def butter_highpass_mag(f_hz, cutoff, order, fs):
    w = prewarp(f_hz, fs)
    wc = prewarp(cutoff, fs)
    if w == 0.0:
        return 0.0
    return 1.0 / math.sqrt(1.0 + (wc / w) ** (2 * order))


def to_db(x):
    return 20.0 * math.log10(x)


class TestMagnitude:
    def test_pythagorean_triple(self):
        series = magnitude([3.0], [4.0], [0.0], FS)
        assert series.values[0] == pytest.approx(5.0)
        assert series.kind is DatasetKind.UFM

    def test_rest_orientation_gives_1g(self):
        series = magnitude([0.0], [0.0], [1.0], FS)
        assert series.values[0] == pytest.approx(1.0)

    def test_fractional_triple(self):
        series = magnitude([0.6], [0.0], [0.8], FS)
        assert series.values[0] == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(SeriesMismatch):
            magnitude([1.0, 2.0], [1.0], [1.0, 2.0], FS)


class TestNormalizeMagnitude:
    @pytest.mark.parametrize("value,expected", [(1.0, 0.0), (1.3, 0.3), (0.7, 0.3)])
    def test_normalization(self, value, expected):
        ufm = PreprocessedSeries(DatasetKind.UFM, [value, value], FS)
        ufnm = normalize_magnitude(ufm)
        assert ufnm.kind is DatasetKind.UFNM
        np.testing.assert_allclose(ufnm.values, expected, atol=1e-15)

    def test_wrong_kind_rejected(self):
        fy = PreprocessedSeries(DatasetKind.FY, [0.1], FS)
        with pytest.raises(SeriesMismatch):
            normalize_magnitude(fy)

    def test_exact_identity_against_ufm(self, bout_datasets):
        ufm = bout_datasets[DatasetKind.UFM].values
        ufnm = bout_datasets[DatasetKind.UFNM].values
        np.testing.assert_array_equal(ufnm, np.abs(ufm - 1.0))


class TestDesignFilter:
    def test_bandpass_cutoffs_within_02db_of_oracle(self):
        filt = design_filter(Bandpass(), FS)
        for f in (0.25, 2.5):
            measured = to_db(float(filt.magnitude_response([f])[0]))
            oracle = to_db(butter_bandpass_mag(f, 0.25, 2.5, 3, FS))
            assert measured == pytest.approx(oracle, abs=0.2)
            assert oracle == pytest.approx(to_db(1 / math.sqrt(2)), abs=1e-9)

    def test_bandpass_matches_oracle_across_band(self):
        filt = design_filter(Bandpass(), FS)
        for f in (0.1, 0.25, 0.79, 2.5, 4.0):
            measured = to_db(float(filt.magnitude_response([f])[0]))
            oracle = to_db(butter_bandpass_mag(f, 0.25, 2.5, 3, FS))
            assert measured == pytest.approx(oracle, abs=0.2), f

    def test_bandpass_dc_gain_below_1e6(self):
        filt = design_filter(Bandpass(), FS)
        assert filt.dc_gain() < 1e-6

    def test_hfen_highpass_cutoff(self):
        filt = design_filter(Highpass(), FS)
        measured = to_db(float(filt.magnitude_response([0.2])[0]))
        oracle = to_db(butter_highpass_mag(0.2, 0.2, 4, FS))
        assert measured == pytest.approx(oracle, abs=0.2)
        assert oracle == pytest.approx(to_db(1 / math.sqrt(2)), abs=1e-9)

    def test_design_is_stable(self):
        for spec in (Bandpass(), Highpass(), Bandpass(order=30)):
            assert design_filter(spec, FS).max_pole_magnitude() < 1.0

    def test_design_is_deterministic(self):
        a = design_filter(Bandpass(), FS)
        b = design_filter(Bandpass(), FS)
        assert a.sos.tobytes() == b.sos.tobytes()

    @pytest.mark.parametrize(
        "low,high", [(0.0, 2.5), (2.5, 0.25), (0.25, 5.0), (0.25, 6.0)]
    )
    def test_invalid_cutoffs_rejected(self, low, high):
        with pytest.raises(InvalidCutoffs):
            design_filter(Bandpass(3, low, high), FS)


class TestApplyFilter:
    def test_constant_input_settles_below_1e3_after_60s(self):
        filt = design_filter(Bandpass(), FS)
        series = PreprocessedSeries(DatasetKind.UFM, np.ones(1200), FS)
        out = apply_filter(series, filt)
        assert out.kind is DatasetKind.FMPOST
        assert np.max(np.abs(out.values[600:])) < 1e-3
        # settling oracle: the slowest pole bounds the transient envelope
        rho = filt.max_pole_magnitude()
        assert rho ** 600 < 1e-6

    def test_zero_input_gives_zero_output(self):
        filt = design_filter(Bandpass(), FS)
        series = PreprocessedSeries(DatasetKind.UFX, np.zeros(100), FS)
        out = apply_filter(series, filt)
        np.testing.assert_array_equal(out.values, 0.0)
        assert out.kind is DatasetKind.FX

    def test_scaling_linearity_to_machine_precision(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        filt = design_filter(Bandpass(), FS)
        y = filter_values(x, filt)
        y_scaled = filter_values(3.5 * x, filt)
        np.testing.assert_allclose(y_scaled, 3.5 * y, rtol=1e-12, atol=1e-15)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 400))
        filt = design_filter(Bandpass(), FS)
        lhs = filter_values(2.0 * x + 0.5 * y, filt)
        rhs = 2.0 * filter_values(x, filt) + 0.5 * filter_values(y, filt)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_shift_invariance_on_zero_padded_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=300)
        filt = design_filter(Bandpass(), FS)
        y = filter_values(x, filt)
        shifted = filter_values(np.concatenate([np.zeros(7), x]), filt)
        np.testing.assert_allclose(shifted[7:], y, rtol=1e-9, atol=1e-12)

    def test_rate_mismatch_rejected(self):
        filt = design_filter(Bandpass(), 20.0)
        series = PreprocessedSeries(DatasetKind.UFX, np.zeros(10), FS)
        with pytest.raises(SeriesMismatch):
            apply_filter(series, filt)

    def test_zero_phase_squares_the_magnitude_response(self):
        # a tone at the low cutoff: causal passes |H| = 1/sqrt(2) of it,
        # forward-backward passes |H|^2 = 1/2 (amplitude via rms*sqrt(2)
        # over whole periods)
        t = np.arange(8000) / FS
        x = np.sin(2 * np.pi * 0.25 * t)
        filt = design_filter(Bandpass(), FS)

        def amplitude(y):
            tail = y[4000:]
            return math.sqrt(2.0 * float(np.mean(tail * tail)))

        causal = amplitude(filter_values(x, filt, zero_phase=False))
        both_ways = amplitude(filter_values(x, filt, zero_phase=True))
        gain = butter_bandpass_mag(0.25, 0.25, 2.5, 3, FS)
        assert causal == pytest.approx(gain, rel=0.02)
        assert both_ways == pytest.approx(gain * gain, rel=0.02)

    @pytest.mark.parametrize("zero_phase", [False, True])
    def test_frozen_series_filters_like_a_writable_copy(self, bout_recording, zero_phase):
        frozen = bout_recording.x
        assert not frozen.flags.writeable
        filt = design_filter(Bandpass(), FS)
        out = filter_values(frozen, filt, zero_phase)
        expected = filter_values(frozen.copy(), filt, zero_phase)
        assert out.tobytes() == expected.tobytes()
        assert out.flags.writeable and not np.shares_memory(out, frozen)
        assert not frozen.flags.writeable

    def test_kind_without_filtered_counterpart_rejected(self):
        filt = design_filter(Bandpass(), FS)
        series = PreprocessedSeries(DatasetKind.UFNM, np.zeros(10), FS)
        with pytest.raises(SeriesMismatch):
            apply_filter(series, filt)


class TestFmpre:
    def _axes(self, x, y, z):
        return (
            PreprocessedSeries(DatasetKind.FX, x, FS),
            PreprocessedSeries(DatasetKind.FY, y, FS),
            PreprocessedSeries(DatasetKind.FZ, z, FS),
        )

    def test_zero_axes(self):
        out = fmpre(*self._axes([0.0], [0.0], [0.0]))
        assert out.values[0] == 0.0
        assert out.kind is DatasetKind.FMPRE

    def test_triple(self):
        out = fmpre(*self._axes([3.0], [4.0], [0.0]))
        assert out.values[0] == pytest.approx(5.0)

    def test_norm_discards_sign(self):
        out = fmpre(*self._axes([-3.0], [-4.0], [0.0]))
        assert out.values[0] == pytest.approx(5.0)

    def test_wrong_kinds_rejected(self):
        fx = PreprocessedSeries(DatasetKind.UFX, [1.0], FS)
        fy = PreprocessedSeries(DatasetKind.FY, [1.0], FS)
        fz = PreprocessedSeries(DatasetKind.FZ, [1.0], FS)
        with pytest.raises(SeriesMismatch):
            fmpre(fx, fy, fz)

    def test_triangle_inequality(self, bout_datasets):
        pre = bout_datasets[DatasetKind.FMPRE].values
        total = sum(np.abs(bout_datasets[k].values) for k in
                    (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ))
        assert (pre >= 0).all()
        assert (pre <= total + 1e-12).all()


class TestHfenPreprocess:
    def test_rest_recording_decays_to_zero(self, rest_recording):
        out = hfen_preprocess(rest_recording)
        assert out.kind is DatasetKind.HFEN_SPECIAL
        assert np.max(out.values[600:]) < 1e-3

    def test_zero_recording_gives_zero(self):
        rec = RawRecording("z", FS, np.zeros(100), np.zeros(100), np.zeros(100))
        out = hfen_preprocess(rec)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_sinusoid_gain_matches_analytic_highpass(self):
        # one axis carries a 1 Hz tone; post-transient amplitude ~ A*|H(1 Hz)|,
        # estimated as rms*sqrt(2) over a whole number of periods
        amp = 0.4
        t = np.arange(6000) / FS
        x = amp * np.sin(2 * np.pi * 1.0 * t)
        rec = RawRecording("tone", FS, x, np.zeros_like(x), np.zeros_like(x))
        out = hfen_preprocess(rec)
        expected = amp * butter_highpass_mag(1.0, 0.2, 4, FS)
        tail = out.values[3000:]
        measured = math.sqrt(2.0 * float(np.mean(tail * tail)))
        assert measured == pytest.approx(expected, rel=0.01)


class TestMagnitudesMatchTheDirectFormula:
    """UFM, FMpre and the HFEN input equal sqrt(x*x + y*y + z*z) bit for bit."""

    @staticmethod
    def _norm(x, y, z):
        return np.sqrt(x * x + y * y + z * z)

    def test_ufm(self, bout_recording):
        rec = bout_recording
        out = magnitude(rec.x, rec.y, rec.z, FS).values
        assert out.tobytes() == self._norm(rec.x, rec.y, rec.z).tobytes()

    def test_fmpre(self, bout_datasets):
        fx, fy, fz = (bout_datasets[k].values for k in
                      (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ))
        expected = np.sqrt(fx ** 2 + fy ** 2 + fz ** 2)
        assert bout_datasets[DatasetKind.FMPRE].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zero_phase", [False, True])
    def test_hfen(self, bout_recording, zero_phase):
        rec = bout_recording
        filt = design_filter(Highpass(), FS)
        hx, hy, hz = (filter_values(a, filt, zero_phase) for a in (rec.x, rec.y, rec.z))
        out = hfen_preprocess(rec, zero_phase=zero_phase).values
        assert out.tobytes() == self._norm(hx, hy, hz).tobytes()

    def test_ufnm(self, bout_datasets):
        ufm = bout_datasets[DatasetKind.UFM].values
        expected = np.abs(ufm - 1.0)
        assert bout_datasets[DatasetKind.UFNM].values.tobytes() == expected.tobytes()


class TestPreprocessAll:
    def test_map_has_exactly_11_entries(self, bout_datasets):
        assert len(bout_datasets) == 11
        assert set(bout_datasets) == set(DatasetKind)

    def test_rest_recording_ufm_1_ufnm_0(self, rest_recording):
        datasets = preprocess_all(rest_recording)
        np.testing.assert_allclose(datasets[DatasetKind.UFM].values, 1.0, atol=1e-12)
        np.testing.assert_allclose(datasets[DatasetKind.UFNM].values, 0.0, atol=1e-12)

    def test_fmpre_nonnegative_fmpost_dips_negative(self, bout_datasets):
        assert (bout_datasets[DatasetKind.FMPRE].values >= 0).all()
        assert (bout_datasets[DatasetKind.FMPOST].values < 0).any()

    def test_magnitude_kinds_nonnegative(self, bout_datasets):
        for kind in (DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPRE):
            assert (bout_datasets[kind].values >= 0).all()

    def test_lengths_preserved(self, bout_recording, bout_datasets):
        n = bout_recording.n_samples
        assert all(s.n_samples == n for s in bout_datasets.values())

    def test_provenance_carries_filter_spec(self, bout_datasets):
        assert bout_datasets[DatasetKind.FX].provenance == Bandpass()
        assert bout_datasets[DatasetKind.HFEN_SPECIAL].provenance == Highpass()
        assert bout_datasets[DatasetKind.UFX].provenance is None
