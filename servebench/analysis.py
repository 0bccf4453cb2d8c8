"""Per-layer metrics from the traced daemon's spans.

Per-call costs come from the spans of timed requests; a layer that the
timed traffic never reaches (the oracle on ``hot-hits``, the trace
engine on the analytic workloads) is timed on the layer probe and the
set-up requests instead, so every metric has calls behind it.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from helpers import children_by_parent, covered, self_time
from workloads import KINDS, trace_class

#: Per-call metrics: name -> (span name, unit, scale from ns).
PER_CALL = {
    "protocol.decode_us": ("protocol.decode", "us", 1e-3),
    "protocol.normalize_us": ("protocol.normalize", "us", 1e-3),
    "protocol.key_us": ("protocol.key", "us", 1e-3),
    "protocol.encode_us": ("protocol.encode", "us", 1e-3),
    "protocol.canonical_us": ("protocol.canonical", "us", 1e-3),
    "protocol.trace_payload_us": ("protocol.trace_payload", "us", 1e-3),
    "cache.key_us": ("cache.key", "us", 1e-3),
    "cache.digest_us": ("cache.digest", "us", 1e-3),
    "lru.get_us": ("lru.get", "us", 1e-3),
    "lru.put_us": ("lru.put", "us", 1e-3),
    "daemon.handle_us": ("daemon.handle", "us", 1e-3),
    "compiled.build_ms": ("compiled.build", "ms", 1e-6),
    "runner.trace_ms": ("runner.trace", "ms", 1e-6),
    "runner.merge_ms": ("runner.merge", "ms", 1e-6),
    "batch.construct_ms": ("batch.construct", "ms", 1e-6),
}
PER_CALL.update(
    {f"oracle.predict_us.{k}": (f"oracle.predict.{k}", "us", 1e-3) for k in KINDS}
)

#: Spans that make up the trace engine's work inside ``runner.trace``.
ENGINE_SPANS = ("batch.construct", "batch.warm", "batch.access", "runner.merge")


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: Sequence[list],
    timed_ids: Set[int],
    traced_p50_ms: float,
    trace_sizes: Mapping[object, int],
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """``({metric: (value, unit)}, report lines)``.

    ``trace_sizes`` maps the id of every trace request the traced daemon
    served (timed and probe) to its working set.
    """
    # A span still open at the dump (none should be) counts as empty;
    # rows keep their positions because parents are row indices.
    rows = [s if s[2] is not None else s[:2] + [s[1]] + s[3:] for s in spans]
    children = children_by_parent(rows)
    by_name: Dict[str, List[int]] = {}
    for idx, row in enumerate(rows):
        by_name.setdefault(row[0], []).append(idx)

    def calls(name: str) -> List[int]:
        every = by_name.get(name, [])
        timed = [i for i in every if rows[i][4] in timed_ids]
        return timed or every

    def dur(i: int) -> float:
        return rows[i][2] - rows[i][1]

    out: Dict[str, Tuple[float, str]] = {}
    for metric, (span, unit, scale) in PER_CALL.items():
        out[metric] = (_median(dur(i) for i in calls(span)) * scale, unit)

    handles = [i for i in by_name.get("daemon.handle", []) if rows[i][4] in timed_ids]
    out["daemon.self_us"] = (
        _median(self_time(rows, i, children) for i in handles) * 1e-3, "us"
    )
    digests = [i for i in by_name.get("cache.digest", []) if rows[i][4] in timed_ids]
    out["cache.digest_per_req"] = (len(digests) / max(1, len(handles)), "count")

    warm = calls("batch.warm")
    out["batch.warm_ns_per_access"] = (
        sum(dur(i) for i in warm) / max(1, sum(rows[i][5] for i in warm)), "ns"
    )
    top_access = [
        i for i in by_name.get("batch.access", [])
        if rows[i][3] is not None
        and rows[rows[i][3]][0] != "batch.warm"
        and rows[i][4] in trace_sizes
    ]
    for cls in ("l1", "l2", "l3"):
        mine = [i for i in top_access if trace_class(trace_sizes[rows[i][4]]) == cls]
        timed = [i for i in mine if rows[i][4] in timed_ids] or mine
        out[f"batch.access_ns.{cls}"] = (
            sum(dur(i) for i in timed) / max(1, sum(rows[i][5] for i in timed)), "ns"
        )

    # Where the traced one-in-flight latency goes.
    lat_ns = traced_p50_ms * 1e6
    handle_ns = _median(dur(i) for i in handles)
    child_share = _median(
        covered(rows, i, children.get(i, ())) / dur(i) for i in handles if dur(i)
    )
    traces = [i for i in by_name.get("runner.trace", []) if rows[i][4] in timed_ids]
    trace_ns = _median(dur(i) for i in traces)
    engine_share = _median(
        covered(rows, i, [c for c in children.get(i, ()) if rows[c][0] in ENGINE_SPANS])
        / dur(i)
        for i in traces if dur(i)
    )
    out["attr.handle_of_lat"] = (handle_ns / lat_ns if lat_ns else 0.0, "ratio")
    out["attr.children_of_handle"] = (child_share, "ratio")
    out["attr.trace_of_lat"] = (trace_ns / lat_ns if lat_ns else 0.0, "ratio")
    out["attr.engine_of_trace"] = (engine_share, "ratio")

    lines = [
        f"traced lat_p50_ms {traced_p50_ms:.4f} over {len(handles)} timed requests",
        f"  inside handle_request: {handle_ns * 1e-6:.4f} ms "
        f"({out['attr.handle_of_lat'][0]:.1%} of lat_p50); the rest is the "
        "socket round trip, asyncio scheduling, decode and encode",
        f"  named child spans cover {child_share:.1%} of handle_request; "
        f"self time {out['daemon.self_us'][0]:.1f} us",
    ]
    # Median per-request total of each direct child of handle_request.
    per_child: Dict[str, List[float]] = {}
    for h in handles:
        totals: Dict[str, float] = {}
        for c in children.get(h, ()):
            totals[rows[c][0]] = totals.get(rows[c][0], 0.0) + dur(c)
        for name, total in totals.items():
            per_child.setdefault(name, []).append(total)
    for name, totals in sorted(per_child.items(), key=lambda kv: -_median(kv[1])):
        lines.append(
            f"    {name:28s} {_median(totals) * 1e-3:10.1f} us "
            f"in {len(totals)}/{len(handles)} requests"
        )
    if traces:
        lines.append(
            f"  runner.trace: {trace_ns * 1e-6:.2f} ms "
            f"({out['attr.trace_of_lat'][0]:.1%} of lat_p50); batch.* and "
            f"runner.merge cover {engine_share:.1%} of it"
        )
    return out, lines
