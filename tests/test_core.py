import numpy as np
import pytest

from actimetrics import (
    DatasetKind,
    PreprocessedSeries,
    RawRecording,
    validate_recording,
)
from actimetrics.core import as_float_array, epoch_matrix, epoch_sample_count
from actimetrics.errors import EmptySeries, EpochTooShort

N_60S = epoch_sample_count(60.0, 10.0)  # 600 samples per 60 s epoch at 10 Hz


class TestSliceEpochs:
    def test_1200_samples_give_2_epochs(self):
        assert epoch_matrix(np.arange(1200.0), N_60S).shape == (2, 600)

    def test_trailing_partial_epoch_dropped(self):
        assert epoch_matrix(np.arange(1199.0), N_60S).shape == (1, 600)

    def test_identity_case(self):
        values = np.arange(600.0)
        mat = epoch_matrix(values, N_60S)
        assert len(mat) == 1
        np.testing.assert_array_equal(mat[0], values)

    def test_concatenation_recovers_prefix(self):
        values = np.random.default_rng(0).normal(size=1234)
        mat = epoch_matrix(values, epoch_sample_count(10.0, 10.0))  # n = 100
        np.testing.assert_array_equal(mat.ravel(), values[: 12 * 100])

    def test_epoch_count_monotone_in_te(self):
        values = np.zeros(5000)
        counts = [
            len(epoch_matrix(values, epoch_sample_count(te, 10.0)))
            for te in (10, 20, 30, 60, 120)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_epochs_are_contiguous_and_indexed(self):
        mat = epoch_matrix(np.arange(300.0), epoch_sample_count(10.0, 10.0))
        for i, row in enumerate(mat):
            assert row[0] == i * 100

    def test_too_short_epoch_rejected(self):
        with pytest.raises(EpochTooShort):
            epoch_sample_count(0.1, 10.0)

    def test_series_shorter_than_epoch_rejected(self):
        with pytest.raises(EmptySeries):
            epoch_matrix(np.zeros(10), N_60S)

    def test_sample_count_rounding(self):
        assert epoch_sample_count(60.0, 10.0) == 600
        assert epoch_sample_count(1.0, 2.0) == 2

    def test_epoch_matrix_shape(self):
        mat = epoch_matrix(np.arange(25.0), 10)
        assert mat.shape == (2, 10)


class TestValidateRecording:
    def test_clean_recording_passes(self):
        rec = RawRecording("s", 10.0, [0.1, 0.2], [0.0, 0.0], [1.0, 1.0])
        report = validate_recording(rec)
        assert report.ok
        assert report.findings == ()

    def test_nan_names_axis_and_index(self):
        rec = RawRecording("s", 10.0, [0.0, np.nan, 0.0], [0.0] * 3, [1.0] * 3)
        report = validate_recording(rec)
        assert not report.ok
        (finding,) = report.findings
        assert finding.code == "non-finite"
        assert finding.axis == "x"
        assert finding.index == 1

    def test_length_mismatch_reported(self):
        rec = RawRecording("s", 10.0, [0.0, 0.0], [0.0], [0.0, 0.0])
        report = validate_recording(rec)
        assert any(f.code == "length-mismatch" for f in report.findings)

    def test_out_of_range_reported_with_full_scale(self):
        rec = RawRecording("s", 10.0, [0.0, 9.5], [0.0, 0.0], [1.0, 1.0])
        report = validate_recording(rec)
        (finding,) = report.findings
        assert finding.code == "out-of-range"
        assert finding.axis == "x"
        assert finding.index == 1
        # a wider full scale admits the same sample
        assert validate_recording(rec, full_scale_g=16.0).ok

    def test_validation_is_pure(self):
        rec = RawRecording("s", 10.0, [0.0, np.nan], [0.0, 0.0], [9.0, 1.0])
        assert validate_recording(rec) == validate_recording(rec)


class TestTypes:
    def test_recording_arrays_read_only(self):
        rec = RawRecording("s", 10.0, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            rec.x[0] = 5.0

    def test_callers_arrays_stay_writeable(self):
        a = np.zeros(3)
        frozen = as_float_array(a)
        assert a.flags.writeable and not frozen.flags.writeable
        x = np.zeros(4)
        RawRecording("s", 10.0, x, x, x)
        PreprocessedSeries(DatasetKind.UFM, x, 10.0)
        x[0] = 1.0
        assert x.flags.writeable

    def test_recording_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            RawRecording("s", 0.0, [0.0], [0.0], [0.0])


def test_every_package_error_survives_pickling():
    # a worker process's exception reaches the parent pickled
    import inspect
    import pickle

    from actimetrics import errors

    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ActimetricsError)]
    assert errors.ParseError in classes and errors.WorkerDied in classes
    for cls in classes:
        exc = cls(3, "bad") if cls is errors.ParseError else cls("bad")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == str(exc)
    assert str(pickle.loads(pickle.dumps(errors.ParseError(3, "bad")))) == "line 3: bad"
