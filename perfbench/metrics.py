"""Metric names, units and the order statistics the workloads report.

The names and units here are the ones ``BENCHMARK.json`` lists; a test
keeps the two in step.  Every workload reports every end-to-end metric
from an untraced run and every per-layer metric from a traced run.
"""

from __future__ import annotations

import math

END_TO_END: dict[str, str] = {
    "throughput_eps": "edges/s",
    "slide_p50_ms": "ms",
    "slide_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checkpoint_s": "s",
    "restore_s": "s",
}

#: Operator classes the Q1-Q7 dataflows contain, in report order.
OPERATORS = ("WScanOp", "PatternOp", "SPathOp", "CoalesceOp", "UnionOp", "SinkOp")

PER_LAYER: dict[str, str] = {
    "frontend.plan_s": "s",
    "engine.register_s": "s",
    "engine.self_share": "ratio",
    "engine.operator_count": "count",
    "engine.sharing_savings": "count",
    "dataflow.self_share": "ratio",
    "dataflow.ingress_self_share": "ratio",
    "dataflow.emit_self_share": "ratio",
    "dataflow.watermark_self_share": "ratio",
    "dataflow.emit_calls_per_edge": "calls/edge",
    **{
        f"physical.{op}.{metric}": unit
        for op in OPERATORS
        for metric, unit in (
            ("self_share", "ratio"),
            ("calls_per_edge", "calls/edge"),
            ("rows_in_per_edge", "rows/edge"),
        )
    },
    "results.events_per_result": "ratio",
    "results.retraction_share": "ratio",
    "results.read_p50_ms": "ms",
    "results.read_max_ms": "ms",
    "state.tuples_peak": "count",
    "state.bytes_peak": "bytes",
    "checkpoint.bytes": "bytes",
    "checkpoint.blobs": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int, q: float = 99.0, beyond: int = 10) -> float:
    """The percentile to report as the tail of ``n`` samples: ``q`` when
    at least ``beyond`` samples lie above it, else the highest percentile
    that still leaves ``beyond`` samples above it."""
    if n * (100 - q) / 100 >= beyond:
        return q
    return max(0.0, 100.0 * (n - beyond) / n) if n else 0.0


def timing_summary(values: list[float], q: float = 99.0) -> dict:
    """Median and tail of a timing sample, with the sample count and the
    percentile the tail actually is (see :func:`tail_quantile`)."""
    tail_q = tail_quantile(len(values), q)
    return {
        "n": len(values),
        "p50": median(values),
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q > 0 else max(values),
    }
