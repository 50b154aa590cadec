"""Span records and the arithmetic that turns them into per-layer metrics.

Nothing here imports tailtest or reads a clock, so the self-test can
feed it synthetic spans.  A span is one call into a layer boundary:
its name, the index of the span that was open when it started, its
start and end in seconds, the peak of traced allocations above the
level at its start, and counts recorded by the wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MB = 1e6


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def median(values):
    """Median of a non-empty sequence; the mean of the middle two for even sizes."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    run_a = run_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_b is None or a > run_b:
            if run_b is not None:
                total += run_b - run_a
            run_a, run_b = a, b
        else:
            run_b = max(run_b, b)
    if run_b is not None:
        total += run_b - run_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


# Span names recorded by the tracer, one per wrapped boundary.
CLI = "cli.run_cli"
SAMPLE = "distributions.sample"
QUANTILE = "distributions.quantile"
FROM_SAMPLES = "empirical.from_samples"
VALIDATE = "empirical.validate"
SPLITS = ("harness.sample_splits", "harness.sample_single")
DECIDE = ("tester.run_full_test", "tester.run_weak_test")
PROXY = "proxy.proxy_value"
REPLICATE = "harness.replicate"
LOAD = "harness.load_samples"
SERIALIZE = "harness.serialize_report"

# Per-layer metric names and units, in the order they are reported.
LAYER_UNITS = {
    "distributions.sample_s": "s",
    "distributions.quantile_s": "s",
    "distributions.uniform_s": "s",
    "distributions.values": "count",
    "distributions.peak_mb": "MB",
    "empirical.sort_s": "s",
    "empirical.validate_s": "s",
    "empirical.values_sorted": "count",
    "empirical.order_stats_read": "count",
    "empirical.read_ratio": "ratio",
    "empirical.peak_mb": "MB",
    "tester.decide_s": "s",
    "tester.buckets": "count",
    "tester.degenerate_buckets": "count",
    "tester.us_per_bucket": "us",
    "proxy.overlay_s": "s",
    "proxy.calls": "count",
    "harness.split_self_s": "s",
    "harness.replicate_self_s": "s",
    "harness.load_s": "s",
    "harness.load_values_per_s": "1/s",
    "harness.load_peak_mb": "MB",
    "harness.serialize_s": "s",
    "harness.report_bytes": "B",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, *, untraced_wall_s: float, setup_s: float, calls: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass over a workload's calls.

    ``untraced_wall_s`` is the summed wall time of the same calls made as
    untraced CLI children, each of which also paid ``setup_s`` to start;
    the tracing overhead is what the traced in-process calls took beyond
    that.
    """
    own = self_times(spans)

    def of(*names):
        return [(s, t) for s, t in zip(spans, own) if s.name in names]

    def total(*names):
        return sum(s.duration for s, _ in of(*names))

    def self_total(*names):
        return sum(t for _, t in of(*names))

    def count(key, *names):
        return sum(s.counts.get(key, 0) for s, _ in of(*names))

    def peak_mb(*names):
        return max((s.peak_bytes for s, _ in of(*names)), default=0) / MB

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sample_s = total(SAMPLE)
    quantile_s = sum(s.duration for s in spans if s.name == QUANTILE
                     and s.parent is not None and spans[s.parent].name == SAMPLE)
    values_sorted = count("values", FROM_SAMPLES)
    reads = count("order_stats_read", *DECIDE)
    decide_s = total(*DECIDE)
    buckets = count("buckets", *DECIDE)
    load_s = self_total(LOAD)
    cli_s = total(CLI)
    return {
        "distributions.sample_s": sample_s,
        "distributions.quantile_s": quantile_s,
        "distributions.uniform_s": sample_s - quantile_s,
        "distributions.values": count("values", SAMPLE),
        "distributions.peak_mb": peak_mb(SAMPLE),
        "empirical.sort_s": self_total(FROM_SAMPLES),
        "empirical.validate_s": total(VALIDATE),
        "empirical.values_sorted": values_sorted,
        "empirical.order_stats_read": reads,
        "empirical.read_ratio": ratio(reads, values_sorted),
        "empirical.peak_mb": peak_mb(FROM_SAMPLES),
        "tester.decide_s": decide_s,
        "tester.buckets": buckets,
        "tester.degenerate_buckets": count("degenerate", *DECIDE),
        "tester.us_per_bucket": ratio(decide_s, buckets, 1e6),
        "proxy.overlay_s": total(PROXY),
        "proxy.calls": len(of(PROXY)),
        "harness.split_self_s": self_total(*SPLITS),
        "harness.replicate_self_s": self_total(REPLICATE),
        "harness.load_s": load_s,
        "harness.load_values_per_s": ratio(count("values", LOAD), load_s),
        "harness.load_peak_mb": peak_mb(LOAD),
        "harness.serialize_s": total(SERIALIZE),
        "harness.report_bytes": count("bytes", SERIALIZE),
        "cli.self_s": self_total(CLI),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": cli_s - (untraced_wall_s - calls * setup_s),
    }
