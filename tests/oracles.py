"""Brute-force scans of the paper's level-crossing metrics, as plain loops,
and the standard library's Pearson r and population SD.

Nothing here imports ``actimetrics``, so the kernels are checked against
definitions written apart from them. The correlation kernel is held to
:func:`pearson_oracle` within 1e-12 absolute, with exactly its NaN pattern,
and the cross-subject SD to :func:`sd_oracle` within 1e-15 absolute.
"""
import math
import statistics


def zcm_oracle(values, threshold):
    """Naive scan: strict sign changes of (x - T); on-threshold samples take no side."""
    count = 0
    last = 0
    for v in values:
        side = int(v > threshold) - int(v < threshold)
        if side != 0:
            if last != 0 and side != last:
                count += 1
            last = side
    return count


def tat_oracle(values, threshold, ts):
    """Time above threshold: ``ts`` per sample strictly above ``threshold``."""
    return ts * sum(1 for v in values if v > threshold)


def pearson_oracle(x, y):
    """Pearson r over Python floats by ``statistics.correlation``; NaN where an input is constant."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(set(x)) == 1 or len(set(y)) == 1:
        return math.nan
    return statistics.correlation(x, y)


def sd_oracle(values):
    """Population SD over Python floats by ``statistics.pstdev``."""
    return statistics.pstdev([float(v) for v in values])
