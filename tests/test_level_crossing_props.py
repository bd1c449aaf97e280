"""Property tests: the ZCM/TAT matrix kernels against the naive scans.

Acceptance criterion 1 draws uniform thresholds and so never puts a
sample exactly on one. These cases do: thresholds are drawn from the
rows' own values, rows can be constant or lie entirely on the threshold,
and one matrix mixes rows with and without exact hits, so the sign-change
count and the carry-forward fill both run in the same call.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from actimetrics.metrics import tat_values, zcm_values
from oracles import tat_oracle, zcm_oracle

TS = 0.1

_settings = settings(database=None, deadline=None, max_examples=200)

# few distinct values, so repeats and exact threshold hits are common
_values = st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0, 1.05, 2.0]) | st.floats(
    -2.0, 2.0, allow_nan=False
)
_rows = st.lists(_values, min_size=2, max_size=40)


def _check(mat, threshold):
    mat = np.asarray(mat, dtype=float)
    zcm = zcm_values(mat, threshold)
    tat = tat_values(mat, threshold, TS)
    for i, row in enumerate(mat):
        assert zcm[i] == zcm_oracle(row, threshold), (row, threshold)
        assert tat[i] == tat_oracle(row, threshold, TS), (row, threshold)


@_settings
@given(st.data(), _rows)
def test_threshold_from_the_row(data, row):
    _check([row], data.draw(st.sampled_from(row)))


@_settings
@given(_values, st.integers(2, 30), _values)
def test_constant_row(value, n, threshold):
    _check([[value] * n], threshold)


@_settings
@given(_values, st.integers(2, 30))
def test_row_entirely_on_the_threshold(value, n):
    _check([[value] * n], value)


@_settings
@given(st.data(), st.lists(_values, min_size=2, max_size=2))
def test_two_sample_row(data, row):
    threshold = data.draw(st.sampled_from(row) | _values)
    _check([row], threshold)


@_settings
@given(st.data(), st.integers(2, 25), st.integers(1, 6), st.integers(1, 6))
def test_rows_with_and_without_hits_in_one_matrix(data, n, n_hit, n_clean):
    threshold = data.draw(_values)
    off = _values.filter(lambda v: v != threshold)
    hit_rows = []
    for _ in range(n_hit):
        row = data.draw(st.lists(off, min_size=n - 1, max_size=n - 1))
        row.insert(data.draw(st.integers(0, n - 1)), threshold)
        hit_rows.append(row)
    clean_rows = [
        data.draw(st.lists(off, min_size=n, max_size=n)) for _ in range(n_clean)
    ]
    rows = data.draw(st.permutations(hit_rows + clean_rows))
    _check(rows, threshold)
