import math

import numpy as np
import pytest
from scipy.signal import sosfreqz

from actimetrics import (
    Bandpass,
    DatasetKind,
    Highpass,
    RawRecording,
    SyntheticSpec,
    design_filter,
    preprocess_all,
    synthesize,
)
from actimetrics.errors import InvalidCutoffs, SeriesMismatch, UnstableDesign
from actimetrics.preprocess import filter_values

FS = 10.0


def datasets_of(x, y, z, **kwargs):
    """preprocess_all of a small recording built from the three axes."""
    return preprocess_all(RawRecording("t", FS, x, y, z), **kwargs)


def gain(sos, f_hz):
    """|H| of the cascade at one frequency."""
    return float(np.abs(sosfreqz(sos, worN=[f_hz], fs=FS)[1][0]))


def max_pole_magnitude(sos):
    return max(np.max(np.abs(np.roots(section[3:]))) for section in sos)


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
        series = datasets_of([3.0], [4.0], [0.0])[DatasetKind.UFM]
        assert series.values[0] == pytest.approx(5.0)
        assert series.kind is DatasetKind.UFM

    def test_rest_orientation_gives_1g(self):
        series = datasets_of([0.0], [0.0], [1.0])[DatasetKind.UFM]
        assert series.values[0] == pytest.approx(1.0)

    def test_fractional_triple(self):
        series = datasets_of([0.6], [0.0], [0.8])[DatasetKind.UFM]
        assert series.values[0] == pytest.approx(1.0)

    def test_length_mismatch(self):
        # numpy would broadcast the 1-sample axis; the check must fire first
        with pytest.raises(SeriesMismatch, match="x=2 y=1 z=2"):
            datasets_of([1.0, 2.0], [1.0], [1.0, 2.0])


class TestNormalizeMagnitude:
    @pytest.mark.parametrize("value,expected", [(1.0, 0.0), (1.3, 0.3), (0.7, 0.3)])
    def test_normalization(self, value, expected):
        datasets = datasets_of([value, value], [0.0, 0.0], [0.0, 0.0])
        assert datasets[DatasetKind.UFM].values.tolist() == [value, value]
        ufnm = datasets[DatasetKind.UFNM]
        assert ufnm.kind is DatasetKind.UFNM
        np.testing.assert_allclose(ufnm.values, expected, atol=1e-15)

    def test_exact_identity_against_ufm(self, bout_datasets):
        ufm = bout_datasets[DatasetKind.UFM].values
        ufnm = bout_datasets[DatasetKind.UFNM].values
        np.testing.assert_array_equal(ufnm, np.abs(ufm - 1.0))


class TestDesignFilter:
    def test_bandpass_cutoffs_within_02db_of_oracle(self):
        sos = design_filter(Bandpass(), FS)
        for f in (0.25, 2.5):
            measured = to_db(gain(sos, f))
            oracle = to_db(butter_bandpass_mag(f, 0.25, 2.5, 3, FS))
            assert measured == pytest.approx(oracle, abs=0.2)
            assert oracle == pytest.approx(to_db(1 / math.sqrt(2)), abs=1e-9)

    def test_bandpass_matches_oracle_across_band(self):
        sos = design_filter(Bandpass(), FS)
        for f in (0.1, 0.25, 0.79, 2.5, 4.0):
            measured = to_db(gain(sos, f))
            oracle = to_db(butter_bandpass_mag(f, 0.25, 2.5, 3, FS))
            assert measured == pytest.approx(oracle, abs=0.2), f

    def test_bandpass_dc_gain_below_1e6(self):
        assert gain(design_filter(Bandpass(), FS), 0.0) < 1e-6

    def test_hfen_highpass_cutoff(self):
        measured = to_db(gain(design_filter(Highpass(), FS), 0.2))
        oracle = to_db(butter_highpass_mag(0.2, 0.2, 4, FS))
        assert measured == pytest.approx(oracle, abs=0.2)
        assert oracle == pytest.approx(to_db(1 / math.sqrt(2)), abs=1e-9)

    def test_design_is_stable(self):
        for spec in (Bandpass(), Highpass(), Bandpass(order=30)):
            assert max_pole_magnitude(design_filter(spec, FS)) < 1.0

    def test_design_is_deterministic(self):
        a = design_filter(Bandpass(), FS)
        b = design_filter(Bandpass(), FS)
        assert a.tobytes() == b.tobytes()

    def test_design_is_a_fresh_writable_sos_array(self):
        a = design_filter(Bandpass(), FS)
        b = design_filter(Bandpass(), FS)
        assert a.shape == (3, 6) and a.dtype == np.float64  # order 3: 6 poles
        assert a.flags.writeable and not np.shares_memory(a, b)

    def test_each_spec_and_rate_is_designed_once(self, monkeypatch):
        import scipy.signal

        calls = []
        real = scipy.signal.butter

        def butter(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "butter", butter)
        spec = Highpass(order=3, cutoff_hz=0.37)  # designed by no other test
        first = design_filter(spec, 12.5)
        expected = first.tobytes()
        first[:] = 0.0  # a caller's copy is its own
        assert design_filter(spec, 12.5).tobytes() == expected
        design_filter(spec, 25.0)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "low,high", [(0.0, 2.5), (2.5, 0.25), (0.25, 5.0), (0.25, 6.0)]
    )
    def test_invalid_cutoffs_rejected(self, low, high):
        with pytest.raises(InvalidCutoffs):
            design_filter(Bandpass(3, low, high), FS)

    @pytest.mark.parametrize(
        "spec", [Bandpass(order=300), Bandpass(order=500), Highpass(order=1000)]
    )
    def test_non_finite_coefficients_rejected(self, spec):
        # the design overflows at these orders; its warnings must not escape
        with pytest.raises(UnstableDesign, match="non-finite"):
            design_filter(spec, FS)


class TestApplyFilter:
    """The bandpass as preprocess_all applies it, and filter_values itself."""

    def test_constant_input_settles_below_1e3_after_60s(self):
        filt = design_filter(Bandpass(), FS)
        zeros = np.zeros(1200)
        out = datasets_of(np.ones(1200), zeros, zeros)[DatasetKind.FMPOST]
        assert out.kind is DatasetKind.FMPOST
        assert np.max(np.abs(out.values[600:])) < 1e-3
        # settling oracle: the slowest pole bounds the transient envelope
        rho = max_pole_magnitude(filt)
        assert rho ** 600 < 1e-6

    def test_zero_input_gives_zero_output(self):
        zeros = np.zeros(100)
        out = datasets_of(zeros, zeros, zeros)[DatasetKind.FX]
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


class TestFmpre:
    @staticmethod
    def _fmpre(x, y, z):
        """FMpre of a one-sample recording over the bandpass's first gain.

        From zero state the cascade's first output is g * input, g the
        product of the sections' b0, so FMpre[0] = |g| * |(x, y, z)|.
        """
        g = np.prod(design_filter(Bandpass(), FS)[:, 0])
        out = datasets_of([x], [y], [z])[DatasetKind.FMPRE]
        assert out.kind is DatasetKind.FMPRE
        return out.values[0] / abs(g)

    def test_zero_axes(self):
        assert self._fmpre(0.0, 0.0, 0.0) == 0.0

    def test_triple(self):
        assert self._fmpre(3.0, 4.0, 0.0) == pytest.approx(5.0)

    def test_norm_discards_sign(self):
        assert self._fmpre(-3.0, -4.0, 0.0) == pytest.approx(5.0)

    def test_triangle_inequality(self, bout_datasets):
        pre = bout_datasets[DatasetKind.FMPRE].values
        total = sum(np.abs(bout_datasets[k].values) for k in
                    (DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ))
        assert (pre >= 0).all()
        assert (pre <= total + 1e-12).all()


class TestHfenPreprocess:
    def test_rest_recording_decays_to_zero(self, rest_recording):
        out = preprocess_all(rest_recording)[DatasetKind.HFEN_SPECIAL]
        assert out.kind is DatasetKind.HFEN_SPECIAL
        assert np.max(out.values[600:]) < 1e-3

    def test_zero_recording_gives_zero(self):
        zeros = np.zeros(100)
        out = datasets_of(zeros, zeros, zeros)[DatasetKind.HFEN_SPECIAL]
        np.testing.assert_array_equal(out.values, 0.0)

    def test_sinusoid_gain_matches_analytic_highpass(self):
        # one axis carries a 1 Hz tone; post-transient amplitude ~ A*|H(1 Hz)|,
        # estimated as rms*sqrt(2) over a whole number of periods
        amp = 0.4
        t = np.arange(6000) / FS
        x = amp * np.sin(2 * np.pi * 1.0 * t)
        out = datasets_of(x, np.zeros_like(x), np.zeros_like(x))[DatasetKind.HFEN_SPECIAL]
        expected = amp * butter_highpass_mag(1.0, 0.2, 4, FS)
        tail = out.values[3000:]
        measured = math.sqrt(2.0 * float(np.mean(tail * tail)))
        assert measured == pytest.approx(expected, rel=0.01)


class TestMagnitudesMatchTheDirectFormula:
    """Every kind equals its formula bit for bit: UFM, FMpre and the HFEN
    input are sqrt(x*x + y*y + z*z), UFNM is |UFM - 1|, and the bandpassed
    kinds are filter_values of their input."""

    @staticmethod
    def _norm(x, y, z):
        return np.sqrt(x * x + y * y + z * z)

    def test_ufm(self, bout_recording, bout_datasets):
        rec = bout_recording
        out = bout_datasets[DatasetKind.UFM].values
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
        out = preprocess_all(rec, zero_phase=zero_phase)[DatasetKind.HFEN_SPECIAL].values
        assert out.tobytes() == self._norm(hx, hy, hz).tobytes()

    def test_ufnm(self, bout_datasets):
        ufm = bout_datasets[DatasetKind.UFM].values
        expected = np.abs(ufm - 1.0)
        assert bout_datasets[DatasetKind.UFNM].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zero_phase", [False, True])
    @pytest.mark.parametrize("fs", [10.0, 20.0])
    def test_every_kind(self, fs, zero_phase):
        rec = synthesize(SyntheticSpec(
            subject_id="k", duration_s=300.0, sample_rate_hz=fs, rest_s=60.0,
            active_s=60.0, amp_jitter=0.3, noise_sd_g=0.02, seed=11,
        ))
        x, y, z = rec.x, rec.y, rec.z
        band = design_filter(Bandpass(), fs)
        high = design_filter(Highpass(), fs)
        fx, fy, fz = (filter_values(a, band, zero_phase) for a in (x, y, z))
        hx, hy, hz = (filter_values(a, high, zero_phase) for a in (x, y, z))
        ufm = self._norm(x, y, z)
        expected = {
            DatasetKind.UFX: x,
            DatasetKind.UFY: y,
            DatasetKind.UFZ: z,
            DatasetKind.FX: fx,
            DatasetKind.FY: fy,
            DatasetKind.FZ: fz,
            DatasetKind.UFM: ufm,
            DatasetKind.UFNM: np.abs(ufm - 1.0),
            DatasetKind.FMPRE: self._norm(fx, fy, fz),
            DatasetKind.FMPOST: filter_values(ufm, band, zero_phase),
            DatasetKind.HFEN_SPECIAL: self._norm(hx, hy, hz),
        }
        out = preprocess_all(rec, zero_phase=zero_phase)
        assert list(out) == list(expected)
        for kind, values in expected.items():
            assert out[kind].values.tobytes() == values.tobytes(), kind


class TestPreprocessAll:
    def test_map_has_exactly_11_entries(self, bout_datasets):
        assert len(bout_datasets) == 11
        assert list(bout_datasets) == list(DatasetKind)

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


# filter_values calls each kind needs: three bandpassed axes for FX, FY, FZ
# and FMpre (shared), one bandpass of UFM for FMpost, three highpasses for HFEN
_BANDPASSED_AXES = {DatasetKind.FX, DatasetKind.FY, DatasetKind.FZ, DatasetKind.FMPRE}


def _filter_calls(kinds):
    kinds = set(kinds)
    return (3 * bool(kinds & _BANDPASSED_AXES) + (DatasetKind.FMPOST in kinds)
            + 3 * (DatasetKind.HFEN_SPECIAL in kinds))


def _count_filter_calls(monkeypatch):
    import actimetrics.preprocess as preprocess

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return filter_values(*args, **kwargs)

    monkeypatch.setattr(preprocess, "filter_values", counted)
    return calls


class TestPreprocessKinds:
    @pytest.mark.parametrize("zero_phase", [False, True], ids=["causal", "zero-phase"])
    @pytest.mark.parametrize("kinds", [
        *[(kind,) for kind in DatasetKind],
        *[(kind, DatasetKind.UFM, DatasetKind.HFEN_SPECIAL) for kind in DatasetKind],
        (DatasetKind.FMPRE, DatasetKind.FMPOST),
    ], ids=lambda kinds: "+".join(map(str, kinds)))
    def test_requested_kinds_equal_the_full_build_and_nothing_else_is_filtered(
        self, bout_recording, monkeypatch, kinds, zero_phase
    ):
        full = preprocess_all(bout_recording, zero_phase=zero_phase)
        calls = _count_filter_calls(monkeypatch)
        out = preprocess_all(bout_recording, zero_phase=zero_phase, kinds=kinds)
        assert len(calls) == _filter_calls(kinds)
        assert list(out) == [kind for kind in DatasetKind if kind in kinds]
        for kind, series in out.items():
            assert series.values.tobytes() == full[kind].values.tobytes(), kind
            assert series.values.flags.c_contiguous

    def test_default_filters_seven_times_and_a_ufm_sweep_pass_three(
        self, bout_recording, monkeypatch
    ):
        """A UFM sweep part filters only to build its own ENMO/HFEN references."""
        from dataclasses import astuple

        from actimetrics import MetricId, recording_sweep, threshold_sweep
        from actimetrics.core import epoch_matrix
        from actimetrics.metrics import enmo_values, hfen_values

        calls = _count_filter_calls(monkeypatch)
        full = preprocess_all(bout_recording)
        assert len(calls) == 7
        n = int(60.0 * bout_recording.sample_rate_hz)
        references = (
            enmo_values(epoch_matrix(full[DatasetKind.UFM].values, n)),
            hfen_values(epoch_matrix(full[DatasetKind.HFEN_SPECIAL].values, n)),
        )
        calls.clear()
        given = recording_sweep(MetricId.ZCM, DatasetKind.UFM, bout_recording,
                                references=references, max_steps=20)
        assert len(calls) == 0
        part = recording_sweep(MetricId.ZCM, DatasetKind.UFM, bout_recording, max_steps=20)
        threshold_sweep([part])
        assert len(calls) == 3
        for a, b in zip(astuple(given), astuple(part)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
