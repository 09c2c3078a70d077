"""Summaries of one run's request records: tail percentile and failure
share."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples_beyond).  With fewer than
    2 * TAIL_BEYOND samples that percentile would sit at or below the median,
    so the maximum is reported instead, with 0 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latencies to summarize")
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def failed_frac(records):
    """Failed requests over attempted ones; a record fails when any of
    its checks failed, its exit code was non-zero or it raised."""
    if not records:
        raise ValueError("no requests were attempted")
    return sum(1 for r in records if not r["ok"]) / len(records)
