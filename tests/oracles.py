"""Brute-force scans of the paper's level-crossing metrics, as plain loops.

Nothing here imports ``actimetrics``, so the kernels are checked against
definitions written apart from them.
"""


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
