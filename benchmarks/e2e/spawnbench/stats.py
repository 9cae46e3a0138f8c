"""The harness's own arithmetic: percentiles, the tail rule, A/A spread.

Kept here (not imported from ``repro.bench.stats``) so a refactor of
the package under test cannot change how it is scored.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a tail metric may fall back to, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q of the set at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def p50(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def qualifying_tail(n: int, want: float) -> Optional[float]:
    """``want`` if ``n`` samples leave >= MIN_BEYOND beyond it, else the highest
    percentile of :data:`TAIL_LADDER` below ``want`` that does; ``None`` if none does."""
    for q in TAIL_LADDER:
        if q <= want and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def tail(samples: Sequence[float], want: float) -> Tuple[float, float]:
    """``(value, q)``: the ``want`` percentile under the ten-beyond rule.

    Falls back down the ladder when the sample is too small, and to the
    median (q = 0.5) when not even p75 qualifies, so a tail figure is
    never an extreme of a handful of samples.
    """
    q = qualifying_tail(len(samples), want)
    if q is None:
        return p50(samples), 0.5
    return percentile(samples, q), q


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's A/A statistic."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when it is better)."""
    if better == "higher":
        return (first - second) / first
    return (second - first) / first


class FloorClock:
    """The machine's speed over a run, read from the interleaved floor probes.

    ``probes`` are ``(end_ns, duration_ns)`` pairs.  The *local floor* at a
    moment is the median of the :data:`SMOOTH` probes around the nearest
    one — wide enough to shed a probe's own jitter, far narrower than the
    seconds-to-minutes for which the box keeps one speed.  Dividing each
    op by the floor *of its own moment* cancels the box's speed whether
    it changes between runs or in the middle of one.
    """

    SMOOTH = 5

    def __init__(self, probes: Sequence[Tuple[int, int]]):
        if not probes:
            raise ValueError("no floor probes")
        ordered = sorted(probes)
        self.times = [t for t, _ in ordered]
        raw = [d for _, d in ordered]
        half = self.SMOOTH // 2
        self.local = [statistics.median(raw[max(0, i - half):i + half + 1])
                      for i in range(len(raw))]
        # Probe j speaks for the time nearer to it than to its neighbours.
        self.edges = [(a + b) / 2 for a, b in zip(self.times, self.times[1:])]

    def at(self, t_ns: int) -> float:
        """Local floor (ns) at time ``t_ns``."""
        return self.local[bisect.bisect_left(self.edges, t_ns)]

    def elapsed(self, begin_ns: int, end_ns: int) -> float:
        """``[begin, end]`` measured in local floors: the integral of dt / floor(t)."""
        total = 0.0
        first = bisect.bisect_left(self.edges, begin_ns)
        last = bisect.bisect_left(self.edges, end_ns)
        for j in range(first, last + 1):
            lo = begin_ns if j == first else self.edges[j - 1]
            hi = end_ns if j == last else self.edges[j]
            total += (hi - lo) / self.local[j]
        return total
