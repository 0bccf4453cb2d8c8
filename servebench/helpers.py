"""Pure helpers of the serve benchmark: percentiles, windowed
throughput, span self time and run-to-run spread.

Nothing here touches a socket, a process or the ``repro`` package, so
``test_helpers.py`` exercises every rule in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    A tail (``q`` above 50) is refused with :class:`ValueError` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it: such a number
    describes a handful of outliers, not the distribution.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    beyond = samples_beyond(n, q)
    if q > 50 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted(values)[rank - 1], n


def fast_percentile(
    values: Sequence[float], q: float, higher_is_better: bool
) -> Tuple[float, int]:
    """The value the best ``q`` percent of ``values`` reach, and the count.

    With ``higher_is_better`` (rates) that is the ``(100 - q)``-th
    percentile counted from the top; otherwise (times) the ``q``-th.
    ``q`` is at most 50, so it is never refused as a tail.
    """
    if not 0 < q <= 50:
        raise ValueError(f"fast percentile must be in (0, 50], got {q}")
    if higher_is_better:
        value, n = percentile([-v for v in values], q)
        return -value, n
    return percentile(values, q)


def highest_supported_tail(
    values: Sequence[float], ladder: Sequence[float] = (99, 95, 90, 75, 50)
) -> Tuple[float, float, int]:
    """``(q, value, n)`` for the highest percentile in ``ladder`` the
    sample supports (the median is always supported)."""
    for q in ladder:
        try:
            value, n = percentile(values, q)
        except ValueError:
            continue
        return q, value, n
    value, n = percentile(values, 50)
    return 50, value, n


def windowed_throughput(times: Sequence[float], window: int) -> List[float]:
    """Rates over consecutive non-overlapping windows of ``window``
    reply intervals.

    ``times`` holds one arrival timestamp per reply, in order (replies
    read by one ``recv`` share its timestamp).  Window ``k`` spans
    replies ``k*window`` to ``(k+1)*window`` and yields
    ``window / elapsed``; a trailing partial window is dropped, so every
    rate covers the same amount of work.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    rates = []
    for start in range(0, len(times) - window, window):
        elapsed = times[start + window] - times[start]
        if elapsed <= 0:
            raise ValueError("reply timestamps must increase across a window")
        rates.append(window / elapsed)
    return rates


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def children_by_parent(spans: Sequence[Sequence]) -> Dict[int, List[int]]:
    """Index of each span's children; spans are ``(name, start, end,
    parent, ...)`` rows and ``parent`` is a row index or None."""
    children: Dict[int, List[int]] = {}
    for idx, span in enumerate(spans):
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append(idx)
    return children


def covered(spans: Sequence[Sequence], idx: int, child_ids: Iterable[int]) -> float:
    """How much of span ``idx`` the given child spans cover (clipped to it)."""
    start, end = spans[idx][1], spans[idx][2]
    return union_length(
        (max(start, spans[c][1]), min(end, spans[c][2]))
        for c in child_ids
        if spans[c][2] > start and spans[c][1] < end
    )


def self_time(
    spans: Sequence[Sequence], idx: int, children: Dict[int, List[int]]
) -> float:
    """A span's duration minus the part its direct children cover."""
    start, end = spans[idx][1], spans[idx][2]
    return (end - start) - covered(spans, idx, children.get(idx, ()))


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles``
    computes the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med) if med else math.inf
