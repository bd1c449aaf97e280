import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actimetrics import RawRecording, SyntheticSpec, synthesize
from actimetrics import formats
from actimetrics.core import ActivitySignal
from actimetrics.errors import (
    ActimetricsError,
    BadMagic,
    MissingSampleRate,
    ParseError,
    TruncatedPayload,
    UnrepresentableSampleRate,
    UnusableSubjectId,
    VersionUnsupported,
)
from actimetrics.formats import (
    format_mean_sd,
    label_slug,
    read_recording,
    read_recording_bin,
    read_recording_csv,
    write_activity_csv,
    write_recording_bin,
    write_recording_csv,
)


class TestCsvReader:
    def test_header_and_two_samples(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        rec = read_recording_csv(path, sample_rate_hz=10.0)
        assert rec.n_samples == 2
        assert rec.subject_id == "rec"
        np.testing.assert_allclose(rec.y, [0.2, 0.5])

    def test_time_column_accepted_and_ignored(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,x,y,z\n0.0,0.1,0.2,0.3\n0.1,0.4,0.5,0.6\n")
        rec = read_recording_csv(path, sample_rate_hz=10.0)
        np.testing.assert_allclose(rec.x, [0.1, 0.4])

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n0.1,0.2,0.3\n0.1,0.2,0.3\n0.1,oops,0.3\n")
        with pytest.raises(ParseError) as err:
            read_recording_csv(path, sample_rate_hz=10.0)
        assert err.value.line == 5

    def test_undecodable_line_named_with_the_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"x,y,z\n0.1,0.2,0.3\n0.1,\xff\xfe,0.3\n")
        with pytest.raises(ParseError, match="rec.csv: not UTF-8") as err:
            read_recording_csv(path, sample_rate_hz=10.0)
        assert err.value.line == 3

    def test_bad_header_names_expected_columns(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError) as err:
            read_recording_csv(path, sample_rate_hz=10.0)
        assert err.value.line == 1
        assert "x,y,z" in str(err.value)

    def test_missing_sample_rate(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n")
        with pytest.raises(MissingSampleRate):
            read_recording_csv(path)

    @pytest.mark.parametrize("sidecar, shown", [
        ("{not json", "invalid JSON sidecar"),
        ("[10.0]", "expected a JSON object, got list"),
    ])
    def test_malformed_sidecar_names_the_sidecar(self, tmp_path, sidecar, shown):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n")
        (tmp_path / "r.csv.json").write_text(sidecar)
        with pytest.raises(ParseError) as err:
            read_recording_csv(path)
        assert "r.csv.json" in str(err.value) and shown in str(err.value)

    @pytest.mark.parametrize("rate", [0, -10.0, "fast", float("inf"), True, "10"])
    def test_unusable_sidecar_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n")
        (tmp_path / "r.csv.json").write_text(json.dumps({"sample_rate_hz": rate}))
        with pytest.raises(MissingSampleRate, match="r.csv"):
            read_recording_csv(path)

    def test_sidecar_supplies_rate_and_subject(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n")
        (tmp_path / "rec.csv.json").write_text(
            json.dumps({"sample_rate_hz": 25.0, "subject_id": "alpha"})
        )
        rec = read_recording_csv(path)
        assert rec.sample_rate_hz == 25.0
        assert rec.subject_id == "alpha"

    @pytest.mark.parametrize(
        "subject_id", ["../escaped", "a/b", "a\\b", "a\0b", "", ".", "..", 7, None, ["a"]]
    )
    def test_unusable_sidecar_subject_id_rejected(self, tmp_path, subject_id):
        # the id names the subject's output directory
        path = tmp_path / "r.csv"
        path.write_text("x,y,z\n0.1,0.2,0.3\n")
        (tmp_path / "r.csv.json").write_text(
            json.dumps({"sample_rate_hz": 10.0, "subject_id": subject_id})
        )
        with pytest.raises(UnusableSubjectId, match="r.csv.json: subject_id"):
            read_recording_csv(path)

    def test_roundtrip_via_writer(self, tmp_path):
        original = synthesize(SyntheticSpec(duration_s=30.0, noise_sd_g=0.01, seed=5))
        path = tmp_path / "roundtrip.csv"
        write_recording_csv(original, path)
        back = read_recording_csv(path)
        assert back.sample_rate_hz == original.sample_rate_hz
        np.testing.assert_array_equal(back.x, original.x)
        np.testing.assert_array_equal(back.z, original.z)


class TestBinaryFormat:
    def _recording(self, n=1000, seed=6):
        rng = np.random.default_rng(seed)
        # quantize to float32 so the round-trip is bitwise
        make = lambda: rng.normal(0, 0.5, n).astype("<f4").astype(float)
        return RawRecording("binsub", 10.0, make(), make(), make())

    def test_write_read_roundtrip_bitwise(self, tmp_path):
        rec = self._recording()
        path = tmp_path / "rec.actm"
        write_recording_bin(rec, path)
        back = read_recording_bin(path)
        assert back.sample_rate_hz == rec.sample_rate_hz
        for axis in "xyz":
            assert getattr(back, axis).tobytes() == getattr(rec, axis).tobytes()

    def test_each_axis_is_its_own_allocation(self, tmp_path):
        # more than one decode block, so that the blocks' seams are read back too
        rec = self._recording(n=(1 << 16) + 3)
        path = tmp_path / "rec.actm"
        write_recording_bin(rec, path)
        back = read_recording_bin(path)
        for axis in "xyz":
            assert getattr(back, axis).tobytes() == getattr(rec, axis).tobytes()
        for a, b in ((back.x, back.y), (back.x, back.z), (back.y, back.z)):
            assert not np.shares_memory(a, b)

    def test_payload_error_texts(self, tmp_path):
        path = tmp_path / "rec.actm"
        write_recording_bin(self._recording(100), path)
        path.write_bytes(path.read_bytes()[:-24])
        with pytest.raises(TruncatedPayload) as info:
            read_recording_bin(path)
        assert str(info.value) == (
            f"{path}: header declares 100 samples (1200 bytes), payload has 1176")
        path.write_bytes(b"ACTM\x01")
        with pytest.raises(TruncatedPayload) as info:
            read_recording_bin(path)
        assert str(info.value) == f"{path}: 5 bytes is too short for a header"
        # a payload that ends before its declared count (a file that shrank
        # after its size was read) gives no axes
        assert formats._read_axes(io.BytesIO(bytes(23)), 2) is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "rec.actm"
        write_recording_bin(self._recording(10), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            read_recording_bin(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "rec.actm"
        write_recording_bin(self._recording(10), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupported):
            read_recording_bin(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "rec.actm"
        write_recording_bin(self._recording(100), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 24])
        with pytest.raises(TruncatedPayload):
            read_recording_bin(path)

    def test_zero_sample_rate_names_the_file(self, tmp_path):
        path = tmp_path / "rec.actm"
        write_recording_bin(self._recording(10), path)
        blob = bytearray(path.read_bytes())
        blob[6:8] = (0).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(MissingSampleRate, match="rec.actm"):
            read_recording_bin(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "rec.actm"
        path.write_bytes(b"ACTM\x01")
        with pytest.raises(TruncatedPayload):
            read_recording_bin(path)

    def test_cross_format_equality_within_float32(self, tmp_path):
        rec = synthesize(SyntheticSpec(duration_s=20.0, noise_sd_g=0.02, seed=8))
        write_recording_csv(rec, tmp_path / "r.csv")
        write_recording_bin(rec, tmp_path / "r.actm")
        from_csv = read_recording(tmp_path / "r.csv")
        from_bin = read_recording(tmp_path / "r.actm")
        np.testing.assert_array_equal(from_csv.x, rec.x)
        np.testing.assert_allclose(from_bin.x, rec.x, atol=6e-8, rtol=1e-7)

    def test_non_deci_hz_rate_rejected_on_write(self, tmp_path):
        rec = RawRecording("s", 10.01, [0.0], [0.0], [0.0])
        with pytest.raises(UnrepresentableSampleRate, match="10.01 Hz"):
            write_recording_bin(rec, tmp_path / "r.actm")
        assert not (tmp_path / "r.actm").exists()


class TestRecordingSource:
    """open_recording reads the header (or sidecar); load() decodes."""

    def _actm(self, tmp_path, n=100):
        path = tmp_path / "sub7.actm"
        write_recording_bin(RawRecording("ignored", 12.5, *np.zeros((3, n))), path)
        return path

    def test_probe_never_decodes_and_load_reads_through_the_module(
        self, tmp_path, monkeypatch
    ):
        path = self._actm(tmp_path)
        calls = []
        real = formats.read_recording
        monkeypatch.setattr(formats, "read_recording",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        source = formats.open_recording(path)
        assert (source.path, source.subject_id, source.sample_rate_hz) == (path, "sub7", 12.5)
        assert calls == []
        rec = source.load()
        assert calls[0][0] == path  # the benchmark sizes each read by this argument
        assert (rec.subject_id, rec.sample_rate_hz, rec.n_samples) == ("sub7", 12.5, 100)

    def test_truncated_payload_opens_and_fails_on_load(self, tmp_path):
        path = self._actm(tmp_path)
        path.write_bytes(path.read_bytes()[:-24])
        source = formats.open_recording(path)
        with pytest.raises(TruncatedPayload, match="payload has"):
            source.load()

    @pytest.mark.parametrize("offset, patch, error", [
        (0, b"XXXX", BadMagic),
        (4, (99).to_bytes(2, "little"), VersionUnsupported),
        (6, (0).to_bytes(2, "little"), MissingSampleRate),
    ], ids=["magic", "version", "rate"])
    def test_header_errors_raise_on_open(self, tmp_path, offset, patch, error):
        path = self._actm(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(blob))
        with pytest.raises(error, match="sub7.actm"):
            formats.open_recording(path)

    def test_csv_is_known_by_its_sidecar_and_body_errors_wait_for_load(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y,z\n0.0,up,1.0\n")
        (tmp_path / "r.csv.json").write_text(json.dumps(
            {"sample_rate_hz": 25, "subject_id": "alice"}))
        source = formats.open_recording(path)
        assert (source.subject_id, source.sample_rate_hz) == ("alice", 25.0)
        with pytest.raises(ParseError, match="r.csv"):
            source.load()

    def test_in_memory_recording_is_its_own_source(self):
        rec = RawRecording("s", 10.0, [0.0], [0.0], [1.0])
        assert rec.load() is rec


class TestSynthesize:
    def test_noise_free_rest_ufm_is_exactly_1(self):
        rec = synthesize(SyntheticSpec(duration_s=60.0, rest_s=60.0, active_s=0.0))
        ufm = np.sqrt(rec.x ** 2 + rec.y ** 2 + rec.z ** 2)
        np.testing.assert_allclose(ufm, 1.0, atol=1e-12)

    def test_same_seed_identical(self):
        spec = SyntheticSpec(duration_s=120.0, noise_sd_g=0.05, amp_jitter=0.5, seed=9)
        a, b = synthesize(spec), synthesize(spec)
        for axis in "xyz":
            assert getattr(a, axis).tobytes() == getattr(b, axis).tobytes()

    def test_different_seed_differs(self):
        base = SyntheticSpec(duration_s=120.0, noise_sd_g=0.05, seed=1)
        other = SyntheticSpec(duration_s=120.0, noise_sd_g=0.05, seed=2)
        assert not np.array_equal(synthesize(base).x, synthesize(other).x)

    def test_bout_enmo_exceeds_rest_enmo(self):
        rec = synthesize(
            SyntheticSpec(
                duration_s=600.0, rest_s=300.0, active_s=300.0,
                active_amp_g=0.5, noise_sd_g=0.01, seed=10,
            )
        )
        ufm = np.sqrt(rec.x ** 2 + rec.y ** 2 + rec.z ** 2)
        rest_enmo = np.maximum(ufm[:3000] - 1, 0).mean()
        bout_enmo = np.maximum(ufm[3000:6000] - 1, 0).mean()
        assert bout_enmo > rest_enmo

    def test_non_unit_orientation_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(orientation=(1.0, 1.0, 0.0))

    def test_frequency_outside_band_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(active_freq_hz=4.0, active_s=10.0)


class TestResultFormatting:
    def test_mean_sd_cell_format(self):
        assert format_mean_sd(1.0, 0.0) == "1±0"
        assert format_mean_sd(0.98971, 0.004) == "0.98971±0"
        assert format_mean_sd(0.84771, 0.04) == "0.84771±0.04"
        assert format_mean_sd(float("nan"), 0.1) == "NA"

    def test_label_slugs_distinct_and_safe(self):
        sq = "\N{SUPERSCRIPT TWO}"
        labels = [
            "PIM(UFNM)", f"PIM(FX{sq})", f"PIM(FX){sq}",
            "SUM[ZCM,FXYZ]", f"SUM[ZCM,FXYZ{sq}]", "ENMO",
        ]
        slugs = [label_slug(l) for l in labels]
        assert len(set(slugs)) == len(slugs)
        for slug in slugs:
            assert "/" not in slug and " " not in slug and "²" not in slug


def _old_rows(*columns, index=False):
    """The per-row formula the writers used to apply, one value at a time."""
    r = lambda v: repr(float(v))  # noqa: E731
    rows = zip(*columns)
    if index:
        return "".join(f"{i},{r(row[0])}\n" for i, row in enumerate(rows))
    return "".join(",".join(r(v) for v in row) + "\n" for row in rows)


_floats = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 1e-5, 3.0]
) | st.floats(allow_nan=True, allow_infinity=True)
_fixture_ok = settings(
    database=None, deadline=None, max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRowWriter:
    @_fixture_ok
    @given(values=st.lists(_floats, max_size=30), epoch_s=_floats)
    def test_activity_csv_equals_per_row_formula(self, tmp_path, values, epoch_s):
        sig = ActivitySignal("PIM(UFNM)", epoch_s, np.array(values, dtype=float), "g*s")
        write_activity_csv(sig, tmp_path / "a.csv")
        head = (f"# label: PIM(UFNM)\n# units: g*s\n"
                f"# epoch_length_s: {float(epoch_s)!r}\nepoch_index,value\n")
        expected = head + _old_rows(values, index=True)
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == expected

    @_fixture_ok
    @given(rows=st.lists(st.tuples(_floats, _floats, _floats), max_size=30),
           block=st.integers(1, 8))
    def test_blocks_join_to_per_row_formula(self, tmp_path, monkeypatch, rows, block):
        monkeypatch.setattr(formats, "_ROWS_PER_WRITE", block)
        cols = [np.array(c, dtype=float) for c in zip(*rows)] or [np.empty(0)] * 3
        formats._write_rows(tmp_path / "r.csv", {}, "x,y,z", *cols)
        expected = "x,y,z\n" + _old_rows(*cols)
        assert (tmp_path / "r.csv").read_text(encoding="utf-8") == expected

    @_fixture_ok
    @given(values=st.lists(_floats, max_size=30), block=st.integers(1, 8))
    def test_numbered_blocks_join_to_per_row_formula(self, tmp_path, monkeypatch, values,
                                                     block):
        # each block's format holds its own row numbers
        monkeypatch.setattr(formats, "_ROWS_PER_WRITE", block)
        formats._write_rows(tmp_path / "n.csv", {}, "i,v", np.array(values, dtype=float),
                            index=True)
        expected = "i,v\n" + _old_rows(values, index=True)
        assert (tmp_path / "n.csv").read_text(encoding="utf-8") == expected

    def test_integer_values_print_as_floats(self, tmp_path):
        formats._write_rows(tmp_path / "i.csv", {}, "i,v", np.arange(3), index=True)
        assert (tmp_path / "i.csv").read_text() == "i,v\n0,0.0\n1,1.0\n2,2.0\n"

    def test_rows_stop_at_shortest_column(self, tmp_path):
        rec = RawRecording("s", 10.0, [1.0, 2.0, 3.0], [4.0, 5.0], [6.0, 7.0, 8.0])
        write_recording_csv(rec, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == "x,y,z\n1.0,4.0,6.0\n2.0,5.0,7.0\n"


_header = st.builds(
    struct.Struct("<4sHHQ").pack, st.just(b"ACTM"), st.sampled_from([1, 2]),
    st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 64 - 1) | st.integers(0, 8),
)
_actm_bytes = st.binary() | st.tuples(_header, st.binary()).map(b"".join)
_csv_bytes = st.binary() | st.binary().map(lambda b: b"x,y,z\n" + b)


def _probed_read(path, sample_rate_hz=None):
    """read_recording through open_recording, checking that the two agree.

    A probe error is one read_recording raises too; past the probe, the
    decoded recording has the id and rate the probe gave.
    """
    try:
        source = formats.open_recording(path, sample_rate_hz)
    except ActimetricsError as exc:
        with pytest.raises(type(exc)):
            read_recording(path, sample_rate_hz)
        raise
    rec = source.load()
    assert (rec.subject_id, rec.sample_rate_hz) == (source.subject_id, source.sample_rate_hz)
    return rec


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestReadersOnArbitraryBytes:
    """Any bytes read back as a recording or as a typed package error."""

    @settings(database=None, deadline=None, max_examples=300)
    @given(blob=_actm_bytes)
    def test_actm(self, fuzz_dir, blob):
        path = fuzz_dir / "f.actm"
        path.write_bytes(blob)
        try:
            assert isinstance(_probed_read(path), RawRecording)
        except ActimetricsError:
            pass

    @settings(database=None, deadline=None, max_examples=300)
    @given(blob=_csv_bytes)
    def test_csv(self, fuzz_dir, blob):
        path = fuzz_dir / "f.csv"
        path.write_bytes(blob)
        try:
            assert isinstance(_probed_read(path, sample_rate_hz=10.0), RawRecording)
        except ActimetricsError:
            pass
