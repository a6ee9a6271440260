"""End-to-end metric names and the percentile rule for per-job latency.

A tail percentile is reported only where at least ``MIN_ABOVE`` samples lie
above it. The level is fixed per workload from the samples a run is sure to
collect (jobs per pass times the minimum number of passes), so it does not
move with the number of passes that fit in the time budget: p90 where that
count is at least 100, otherwise the highest level that keeps ten above.
"""

from fractions import Fraction

MIN_ABOVE = 10
TARGET = Fraction(9, 10)

# name: unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_level(guaranteed_samples):
    """The tail level for a workload that always yields at least this many
    samples; a Fraction in (0, 0.9]."""
    if guaranteed_samples <= MIN_ABOVE:
        raise ValueError(f"need more than {MIN_ABOVE} samples for a tail percentile")
    return min(TARGET, Fraction(guaranteed_samples - MIN_ABOVE, guaranteed_samples))


def tail(samples, level):
    """(value, samples above it) at ``level`` by the nearest-rank rule."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-level.numerator * n // level.denominator)  # ceil(level * n)
    idx = min(max(rank, 1), n) - 1
    return ordered[idx], n - idx - 1
