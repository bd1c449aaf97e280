"""Row-blocked epoch kernels against their whole-matrix formulas.

Every ``*_values`` kernel reduces its matrix in blocks of rows. These
checks shrink the block budget so that small matrices span several blocks
and end in a partial one, put NaN rows and samples exactly on the
threshold on both sides of a block boundary, and require the blocked
result to equal the whole-matrix formula bit for bit. They also check
that ``squared=True`` equals the kernel run on ``mat * mat``, and that a
squared-input catalog variant allocates less than one series.
"""
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actimetrics import DatasetKind, IntegrationMethod, PreprocessedSeries, RawRecording
from actimetrics import metrics
from actimetrics.combine import catalog, compute_activity
from actimetrics.core import FILTERED_AXES
from actimetrics.metrics import (
    ai_values,
    enmo_values,
    estimate_noise_variance,
    mad_values,
    pim_corrected_values,
    tat_values,
    zcm_values,
)

TS = 0.1
T = 0.5  # the threshold; the value pool holds it exactly
RIEMANN = IntegrationMethod.RIEMANN_SUM
SIMPSON = IntegrationMethod.SIMPSON38

_settings = settings(database=None, deadline=None, max_examples=150)
_values = st.sampled_from([T, -T, 0.0, -0.0, 1.0, np.nan]) | st.floats(
    -3.0, 3.0, allow_nan=False
)


@st.composite
def blocked_matrices(draw, count=1):
    """(block rows, matrices): >= 2 full blocks plus a partial last block.

    Rows on both sides of the first block boundary are NaN in one matrix
    and hold a sample exactly on the threshold in another.
    """
    rows = draw(st.integers(2, 5))
    n = draw(st.integers(2, 20))  # past 8, numpy's row sums unroll
    m = rows * draw(st.integers(2, 4)) + draw(st.integers(1, rows - 1))
    mats = []
    for _ in range(count):
        mat = draw(arrays(np.float64, (m, n), elements=_values))
        mat[rows - 1, draw(st.integers(0, n - 1))] = T
        mat[rows, draw(st.integers(0, n - 1))] = T
        mats.append(mat)
    if draw(st.booleans()):
        mats[0][rows - 1 : rows + 1] = np.nan
    return rows, mats


def _blocked(rows, n, fn, *args, **kwargs):
    with mock.patch.object(metrics, "_BLOCK_BYTES", 8 * n * rows):
        return fn(*args, **kwargs)


def _same(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    finite = np.isfinite(expected)
    assert got[finite].tobytes() == expected[finite].tobytes()


def _whole_zcm(mat, threshold):
    above = mat > threshold
    counts = np.count_nonzero(above[:, 1:] != above[:, :-1], axis=1)
    on_threshold = ~(above | (mat < threshold)).all(axis=1)
    counts[on_threshold] = metrics._zcm_carry_forward(mat[on_threshold], threshold)
    return counts


def _whole_mad(mat):
    centered = mat - mat.mean(axis=1, keepdims=True)
    return np.abs(centered).mean(axis=1)


def _whole_pim(mat, kind, method):
    n = mat.shape[1]
    w = np.ones(n) if method is RIEMANN else metrics._simpson38_weights(n)
    if kind is DatasetKind.UFM:
        return np.abs(TS * (mat * w).sum(axis=1) - TS * (np.ones(n) * w).sum())
    if kind is DatasetKind.FX:
        mat = np.abs(mat)
    return TS * (mat * w).sum(axis=1)


@_settings
@given(blocked_matrices())
def test_level_crossing_kernels_equal_whole_matrix(case):
    rows, (mat,) = case
    n = mat.shape[1]
    _same(_blocked(rows, n, zcm_values, mat, T), _whole_zcm(mat, T))
    _same(_blocked(rows, n, tat_values, mat, T, TS), TS * (mat > T).sum(axis=1))


@_settings
@given(blocked_matrices())
def test_mad_and_enmo_equal_whole_matrix(case):
    rows, (mat,) = case
    n = mat.shape[1]
    _same(_blocked(rows, n, mad_values, mat), _whole_mad(mat))
    _same(_blocked(rows, n, enmo_values, mat), np.maximum(mat - 1.0, 0.0).mean(axis=1))


@_settings
@given(
    blocked_matrices(),
    st.sampled_from([DatasetKind.FX, DatasetKind.FMPOST, DatasetKind.UFM, DatasetKind.UFNM]),
    st.sampled_from([RIEMANN, SIMPSON]),
)
def test_pim_equals_whole_matrix(case, kind, method):
    rows, (mat,) = case
    if kind is DatasetKind.FMPOST:
        kind = DatasetKind.FX  # same correction: integrate |x|
    got = _blocked(rows, mat.shape[1], pim_corrected_values, mat, TS, kind, method)
    _same(got, _whole_pim(mat, kind, method))


@settings(database=None, deadline=None, max_examples=60)
@given(blocked_matrices(count=3), st.floats(0.0, 1.0), st.booleans())
def test_ai_and_noise_windows_equal_whole_matrix(case, sigma, per_axis):
    rows, (mx, my, mz) = case
    n = mx.shape[1]
    var_sum = mx.var(axis=1) + my.var(axis=1) + mz.var(axis=1)
    noise = 3.0 * sigma if per_axis else sigma
    expected = np.sqrt(np.maximum((var_sum - noise) / 3.0, 0.0))
    _same(_blocked(rows, n, ai_values, mx, my, mz, sigma, per_axis), expected)

    total = np.zeros(mx.shape[0])
    for mat in (mx, my, mz):
        total += mat.var(axis=1)
    rec = RawRecording("blocks", 1.0, mx.ravel(), my.ravel(), mz.ravel())
    est = _blocked(rows, n, estimate_noise_variance, rec, float(n))
    i = int(np.argmin(total))
    assert est.source_window_index == i
    assert np.array_equal(est.sigma_bar_sq, total[i], equal_nan=True)


@_settings
@given(blocked_matrices(), st.sampled_from([RIEMANN, SIMPSON]))
def test_squared_equals_kernel_on_squared_matrix(case, method):
    rows, (mat,) = case
    n = mat.shape[1]
    sq = mat * mat
    t2 = T * T
    _same(_blocked(rows, n, zcm_values, mat, t2, squared=True), zcm_values(sq, t2))
    _same(_blocked(rows, n, tat_values, mat, t2, TS, squared=True), tat_values(sq, t2, TS))
    _same(_blocked(rows, n, mad_values, mat, squared=True), mad_values(sq))
    for kind in (DatasetKind.FX, DatasetKind.UFM):
        got = _blocked(rows, n, pim_corrected_values, mat, TS, kind, method, squared=True)
        _same(got, pim_corrected_values(sq, TS, kind, method))


def test_squared_leaves_the_input_untouched():
    mat = np.random.default_rng(0).normal(size=(9, 4))
    before = mat.copy()
    for rows in (2, 100):
        _blocked(rows, 4, pim_corrected_values, mat, TS, DatasetKind.FX, squared=True)
        _blocked(rows, 4, mad_values, mat, squared=True)
    assert mat.tobytes() == before.tobytes()


def test_module_block_size_on_one_minute_epochs():
    # 2,000 one-minute epochs at 10 Hz span several blocks at the real budget
    rng = np.random.default_rng(1)
    mat = rng.normal(0.0, 0.3, size=(2_000, 600))
    mat[::97, ::5] = 0.25
    assert 2_000 > 4 * (metrics._BLOCK_BYTES // (8 * 600))
    _same(zcm_values(mat, 0.25), _whole_zcm(mat, 0.25))
    _same(mad_values(mat), _whole_mad(mat))
    _same(pim_corrected_values(mat, TS, DatasetKind.FX), TS * np.abs(mat).sum(axis=1))
    _same(mad_values(mat, squared=True), _whole_mad(mat ** 2))


def test_squared_variants_allocate_less_than_one_series():
    fs, te_s = 10.0, 60.0
    n = int(te_s * fs)
    epochs = 6 * (metrics._BLOCK_BYTES // (8 * n)) + 7
    rng = np.random.default_rng(2)
    datasets = {
        kind: PreprocessedSeries(kind, rng.normal(0.0, 0.2, epochs * n + 13), fs)
        for kind in FILTERED_AXES
    }
    series_bytes = datasets[DatasetKind.FX].values.nbytes
    squared = [v for v in catalog() if v.squared]
    assert len(squared) == 20
    memo = {}
    expected = [compute_activity(v, datasets, te_s, thresholds=memo).values for v in squared]
    assert len(memo) == 3  # one SD threshold per squared axis

    tracemalloc.start()
    try:
        for variant, values in zip(squared, expected):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = compute_activity(variant, datasets, te_s, thresholds=memo)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < series_bytes, (variant.label, peak, series_bytes)
            assert got.values.tobytes() == values.tobytes()
    finally:
        tracemalloc.stop()
