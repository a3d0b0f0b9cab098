"""Exact order statistics over raw samples.

Percentiles are nearest-rank order statistics of the samples themselves:
no buckets, no interpolation.  A tail percentile is only reported as
resolved when at least MIN_BEYOND samples lie above it.
"""

import math

MIN_BEYOND = 10
LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def rank(n, pct):
    """1-based nearest rank of percentile `pct` among `n` samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(sorted_xs, pct):
    return sorted_xs[rank(len(sorted_xs), pct) - 1]


def beyond(n, pct):
    """Samples strictly above the nearest-rank position of `pct`."""
    return n - rank(n, pct)


def summary(xs, pcts=(50.0, 98.0, 99.0)):
    """Order statistics of `xs`.

    Returns a dict with the sample count `n`; `p`, the value of each
    percentile in `pcts` whatever its support, and `beyond`, how many
    samples lie above each; and `top_pct`/`top`: the highest percentile
    of LADDER with at least MIN_BEYOND samples beyond it (None when
    there are too few samples for even the median to qualify).
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    top_pct = next((p for p in LADDER if beyond(n, p) >= MIN_BEYOND), None)
    return {
        "n": n,
        "p": {p: percentile(xs, p) for p in pcts},
        "beyond": {p: beyond(n, p) for p in pcts},
        "top_pct": top_pct,
        "top": percentile(xs, top_pct) if top_pct is not None else None,
    }
