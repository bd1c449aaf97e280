"""What one subject task holds, and that holding less changes no byte.

A 24 h recording at 10 Hz has 864,000 samples per axis, so one
full-length series is 6.9 MB. ``preprocess_subject`` builds 8 datasets
(the 3 raw axes pass through), and its peak must be those 8 series.
``process_subject`` evaluates each variant as soon as its datasets are
made and drops each dataset after its last reader. Given a recording its
caller holds, it allocates no more than the three filtered axes, FMpre's
running sum and one temporary; zero-phase filtering needs one more
series. Given a file, which it decodes and then drops after the sweep
parts, it holds at most five series in all, the decode included: the
three axes, UFM and UFNM or FMpost, since the build frees each axis
after its last use and the SD threshold centres no copy. Its peak may add
the catalog's signals and its row blocks. The ``preprocess`` dump frees
each subject's datasets as it writes them, so two subjects peak as one.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actimetrics import (
    DatasetKind,
    MetricId,
    PipelineConfig,
    PreprocessedSeries,
    SyntheticSpec,
    compute_activity,
    config_from_dict,
    estimate_noise_variance,
    preprocess_all,
    sd_threshold,
    synthesize,
)
from actimetrics import formats, metrics, pipeline
from actimetrics.cli import main
from actimetrics.pipeline import preprocess_subject, process_subject

MIB = 1 << 20
MAGNITUDES = {DatasetKind.UFM, DatasetKind.UFNM, DatasetKind.FMPRE,
              DatasetKind.FMPOST, DatasetKind.HFEN_SPECIAL}


@pytest.fixture(scope="module")
def day_recording():
    return synthesize(SyntheticSpec(
        subject_id="day", duration_s=86_400.0, amp_jitter=0.3, noise_sd_g=0.02, seed=3,
    ))


def _peak_bytes(fn, *args) -> int:
    """The most memory ``fn(*args)`` held at once, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preprocess_subject_peaks_at_its_eight_datasets(day_recording):
    series = day_recording.x.nbytes
    peak = _peak_bytes(preprocess_subject, day_recording, PipelineConfig())
    assert peak <= 8 * series + MIB // 2, f"{peak / series:.2f} series"


@pytest.mark.parametrize("filter_phase, held", [("causal", 5), ("zero-phase", 6)])
def test_process_subject_holds_a_few_series(day_recording, filter_phase, held):
    series = day_recording.x.nbytes
    config = PipelineConfig(filter_phase=filter_phase)
    peak = _peak_bytes(process_subject, day_recording, config)
    assert peak <= held * series + 2 * MIB, f"{peak / series:.2f} series"


@pytest.fixture(scope="module")
def day_file(day_recording, tmp_path_factory):
    path = tmp_path_factory.mktemp("day") / "day.actm"
    formats.write_recording_bin(day_recording, path)
    return path


def test_decode_holds_the_three_axes_alone(day_file):
    series = 8 * 86_400 * 10
    peak = _peak_bytes(formats.read_recording_bin, day_file)
    assert peak <= 3 * series + MIB, f"{peak / series:.2f} series"


@pytest.mark.parametrize("sweep", [{}, {"metrics": []}], ids=["default-sweeps", "no-sweeps"])
@pytest.mark.parametrize("filter_phase, held", [("causal", 5), ("zero-phase", 7)])
def test_subject_task_holds_a_few_series_with_its_decode(day_file, sweep, filter_phase, held):
    # the recording is decoded inside the traced region, as in a run; the
    # build frees each axis after its last use once the task drops the
    # recording, so the causal peak is the 3 axes, UFM and UFNM or FMpost
    config = config_from_dict({"filter_phase": filter_phase, "sweep": sweep})
    requests = [(MetricId(m), DatasetKind(k)) for m, k in config.sweep_requests()]
    source = formats.open_recording(day_file)
    series = 8 * 86_400 * 10
    peak = _peak_bytes(process_subject, source, config, requests)
    assert peak <= held * series + 2 * MIB, f"{peak / series:.2f} series"


@pytest.mark.parametrize("filter_phase", ["causal", "zero-phase"])
@pytest.mark.parametrize("kinds", [
    tuple(DatasetKind),
    (DatasetKind.FMPRE, DatasetKind.UFNM),
    (DatasetKind.FY, DatasetKind.FMPOST, DatasetKind.HFEN_SPECIAL),
], ids=["all", "fmpre+ufnm", "fy+fmpost+hfen"])
def test_each_kind_drawn_and_dropped_is_the_eager_maps_bytes(
    bout_recording, filter_phase, kinds
):
    config = PipelineConfig(filter_phase=filter_phase)
    eager = preprocess_subject(bout_recording, config)
    drawn = []
    for kind, series in preprocess_all(bout_recording, config.bandpass,
                                       config.hfen_highpass, config.zero_phase, kinds):
        assert series.values.tobytes() == eager[kind].values.tobytes(), kind
        drawn.append(kind)
        del series  # freed before the next kind is made
    assert sorted(drawn, key=list(DatasetKind).index) == [k for k in DatasetKind if k in kinds]


# --- the in-place SD is ndarray.std, bit for bit

_lengths = st.sampled_from([1, 2, 127, 128, 129, 1000, 4099]) | st.integers(1, 700)


@st.composite
def sd_inputs(draw):
    n = draw(_lengths)
    if draw(st.booleans()):
        values = np.full(n, draw(st.floats(-4.0, 4.0)))
    else:
        values = draw(arrays(np.float64, n, elements=st.floats(-4.0, 4.0)))
    return values + draw(st.sampled_from([0.0, 1.0, -3.5, 1e3, 1e6]))


@settings(database=None, deadline=None, max_examples=300)
@given(sd_inputs())
def test_sd_threshold_is_ndarray_std_bit_for_bit(values):
    values.setflags(write=False)
    before = values.tobytes()
    fx = PreprocessedSeries(DatasetKind.FX, values, 10.0)
    assert sd_threshold(fx).hex() == float(values.std()).hex()
    assert sd_threshold(fx, squared=True).hex() == float((values ** 2).std()).hex()
    ufm = PreprocessedSeries(DatasetKind.UFM, values, 10.0)
    assert sd_threshold(ufm).hex() == (float(values.std()) + 1.0).hex()
    assert values.tobytes() == before


@st.composite
def leaves_and_long_inputs(draw):
    """A leaf size of the SD's summation tree, and a series spanning up to 8 leaves."""
    leaf = draw(st.integers(128, 1024))
    n = draw(st.integers(1, 8 * leaf) | st.sampled_from([leaf, leaf + 1, 2 * leaf + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.normal(size=n) * draw(st.sampled_from([1e-3, 0.5, 4.0]))
    else:
        values = np.full(n, draw(st.floats(-4.0, 4.0)))
    return leaf, values + draw(st.sampled_from([0.0, 1.0, -3.5, 1e3, 1e6]))


@settings(database=None, deadline=None, max_examples=200)
@given(leaves_and_long_inputs())
def test_sd_threshold_is_ndarray_std_at_any_leaf_size(case):
    leaf, values = case
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(metrics, "_SD_LEAF", leaf)
        fx = PreprocessedSeries(DatasetKind.FX, values, 10.0)
        assert sd_threshold(fx).hex() == float(values.std()).hex()
        assert sd_threshold(fx, squared=True).hex() == float((values ** 2).std()).hex()
        ufm = PreprocessedSeries(DatasetKind.UFM, values, 10.0)
        assert sd_threshold(ufm).hex() == (float(values.std()) + 1.0).hex()


# --- evaluation order is not output order

@pytest.mark.parametrize("catalog", [
    {},
    {"exclude": ["HFEN", "*(UFM*", "*FXYZ*", "*(FZ*"]},
], ids=["default", "exclude"])
def test_process_subject_gives_each_signal_alone_in_catalog_order(bout_recording, catalog):
    config = config_from_dict({"catalog": catalog})
    signals, parts = process_subject(bout_recording, config)
    variants = config.variants()
    assert list(signals) == [v.label for v in variants] and parts == []
    datasets = preprocess_subject(bout_recording, config)
    noise = estimate_noise_variance(bout_recording, config.ai.noise_window_s)
    for variant in variants:
        alone = compute_activity(variant, datasets, config.epoch_s, noise=noise)
        assert signals[variant.label].values.tobytes() == alone.values.tobytes(), variant.label
        assert signals[variant.label].units == alone.units


def test_each_dataset_leaves_after_its_last_reader(bout_recording, monkeypatch):
    events = []  # ("made", kind) per yielded kind, ("read", variant, kinds in the map)

    def building(*args, **kwargs):
        for kind, series in preprocess_all(*args, **kwargs):
            events.append(("made", kind))
            yield kind, series

    def recording(variant, datasets, *args, **kwargs):
        events.append(("read", variant, set(datasets)))
        return compute_activity(variant, datasets, *args, **kwargs)

    monkeypatch.setattr(pipeline, "preprocess_all", building)
    monkeypatch.setattr(pipeline, "compute_activity", recording)

    def evaluations(config):
        events.clear()
        process_subject(bout_recording, config)
        reads = [event[1:] for event in events if event[0] == "read"]
        made, n_read = [], 0
        for event in events:
            if event[0] == "made":
                made.append(event[1])
                continue
            variant, held = event[1:]
            # evaluated once its last dataset is made, before the next kind is
            assert made[-1] in variant.datasets and set(variant.datasets) <= set(made)
            # holding only the kinds made so far that it or a later variant reads
            later = {kind for v, _ in reads[n_read:] for kind in v.datasets}
            assert held == set(made) & later, variant.label
            n_read += 1
        return reads

    reads = evaluations(PipelineConfig())
    assert (reads[0][0].label, reads[0][1]) == ("HFEN", {DatasetKind.HFEN_SPECIAL})
    assert len(reads) == 83
    # no magnitude is left once a squared axis is centred for its threshold
    squared = [kinds for variant, kinds in reads if variant.squared]
    assert len(squared) == 20
    assert all(kinds.isdisjoint(MAGNITUDES) for kinds in squared)

    config = config_from_dict({"catalog": {"include": ["PIM(UFNM)", "MAD(FX)"]}})
    assert [(variant.label, kinds) for variant, kinds in evaluations(config)] == [
        ("PIM(UFNM)", {DatasetKind.UFNM}),
        ("MAD(FX)", {DatasetKind.FX}),
    ]
    assert [event[1] for event in events if event[0] == "made"] == [
        DatasetKind.UFNM, DatasetKind.FX]


# --- the preprocess dump holds one subject at a time


def test_preprocess_dump_holds_one_subject_at_a_time(tmp_path, monkeypatch):
    paths = []
    for i in (1, 2):
        rec = synthesize(SyntheticSpec(subject_id=f"s{i}", duration_s=7_200.0,
                                       noise_sd_g=0.02, seed=i))
        paths.append(str(tmp_path / f"s{i}.actm"))
        formats.write_recording_bin(rec, paths[-1])
    series = rec.x.nbytes
    # the CSV text is the writer's own memory, and slow under tracemalloc
    monkeypatch.setattr(formats, "write_dataset_csv", lambda _, path: Path(path).touch())

    one = _peak_bytes(main, ["--out", str(tmp_path / "one"), "preprocess", paths[0]])
    two = _peak_bytes(main, ["--out", str(tmp_path / "two"), "preprocess", *paths])
    assert two <= one + series, f"{one / series:.2f} vs {two / series:.2f} series"
    names = sorted(p.name for p in (tmp_path / "two" / "s2" / "datasets").iterdir())
    assert names == sorted(f"{kind.value}.csv" for kind in DatasetKind)


# --- what the calling process keeps of each subject


def test_calling_process_keeps_two_matrices_per_subject(tmp_path, monkeypatch):
    # 12 h at 60 s epochs: 720 epochs per signal
    recordings = [synthesize(SyntheticSpec(subject_id=f"s{i}", duration_s=43_200.0,
                                           amp_jitter=0.3, noise_sd_g=0.02, seed=i))
                  for i in range(3)]
    config = config_from_dict({"psd": {"segment_epochs": 32},
                               "sweep": {"metrics": ["ZCM"], "max_steps": 30}})
    monkeypatch.setattr(formats, "write_activity_csv", lambda _, path: Path(path).touch())
    real_reduce, at_reduce = pipeline.correlation_matrix, []

    def correlation_matrix(per_subject, domain, labels):
        if not at_reduce:  # the run's first call
            at_reduce.append(tracemalloc.get_traced_memory()[0])
        return real_reduce(per_subject, domain, labels)

    def held_at_reduce(n, out):
        at_reduce.clear()
        tracemalloc.start()
        try:
            pipeline.run_pipeline(config, recordings[:n], tmp_path / out)
        finally:
            tracemalloc.stop()
        return at_reduce[0]

    monkeypatch.setattr(pipeline, "correlation_matrix", correlation_matrix)
    held_at_reduce(1, "warm-up")  # fills the caches the later runs share
    per_subject = (held_at_reduce(3, "three") - held_at_reduce(1, "one")) / 2
    matrices, signals = 2 * 83 * 83 * 8, 83 * 720 * 8
    assert matrices <= per_subject < matrices + signals / 8, f"{per_subject:.0f} B"
