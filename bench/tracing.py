"""Spans around tailtest's layer boundaries, recorded from outside the package.

``install`` rebinds, at run time, the public names through which one
tailtest module calls the next, in every tailtest module that holds
them, to wrappers that record a span per call; ``uninstall`` puts the
originals back.  No file of the package changes, so the traced program
is the program as shipped: the benchmark checks that traced reports
are byte-identical to untraced CLI output.

Each span records its parent, its wall time and, while ``tracemalloc``
is tracing, the peak of traced allocations above the level at its
start.  Nested peaks work by resetting the peak at every span boundary
and folding each child's high-water mark back into its parent.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import spans as sp

MODULES = ("tailtest", "tailtest.distributions", "tailtest.empirical",
           "tailtest.tester", "tailtest.proxy", "tailtest.harness", "tailtest.cli")


def _n_values(result):
    """Sample count of a split or list of splits."""
    if isinstance(result, list):
        return sum(s.n for s in result)
    return result.n


def _decision_counts(outcome):
    # The full variant reads four order statistics per bucket, one from
    # each split; the weak variant reads three from its one split.
    per_bucket = 4 if outcome.config.variant.value == "full" else 3
    return {"buckets": len(outcome.records),
            "degenerate": sum(r.degenerate for r in outcome.records),
            "order_stats_read": per_bucket * len(outcome.records)}


# (module, attribute, span name, counts from the result) for each boundary.
FUNCTIONS = (
    ("tailtest.distributions", "sample", sp.SAMPLE, lambda r: {"values": len(r)}),
    ("tailtest.harness", "sample_splits", sp.SPLITS[0], None),
    ("tailtest.harness", "sample_single", sp.SPLITS[1], None),
    ("tailtest.tester", "run_full_test", sp.DECIDE[0], _decision_counts),
    ("tailtest.tester", "run_weak_test", sp.DECIDE[1], _decision_counts),
    ("tailtest.proxy", "proxy_value", sp.PROXY, None),
    ("tailtest.harness", "replicate", sp.REPLICATE, None),
    ("tailtest.harness", "load_samples", sp.LOAD, lambda r: {"values": _n_values(r)}),
    ("tailtest.harness", "serialize_report", sp.SERIALIZE, lambda r: {"bytes": len(r)}),
)


class Tracer:
    """Records spans; call ``install`` to wrap tailtest and ``call`` to open a root."""

    def __init__(self):
        self.spans: list[sp.Span] = []
        self._open: list[list] = []  # [span index, traced bytes at start, high-water mark]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans --------------------------------------------------------------

    def _memory(self):
        return tracemalloc.get_traced_memory() if tracemalloc.is_tracing() else (0, 0)

    def _enter(self, name: str) -> int:
        current, peak = self._memory()
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
        parent = self._open[-1][0] if self._open else None
        self.spans.append(sp.Span(name=name, parent=parent, start=time.perf_counter()))
        index = len(self.spans) - 1
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self._open.append([index, current, current])
        return index

    def _exit(self, index: int) -> None:
        end = time.perf_counter()
        _, peak = self._memory()
        frame = self._open.pop()
        high = max(frame[2], peak)
        span = self.spans[index]
        span.end = end
        span.peak_bytes = high - frame[1]
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], high)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn inside a span; counts(result) adds counts to the span."""
        index = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._exit(index)
        if counts is not None:
            self.spans[index].counts.update(counts(result))
        return result

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)
        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary; names a later tailtest no longer has go to ``missing``."""
        modules = [sys.modules[m] for m in MODULES]
        for module_name, attr, name, counts in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

        distributions = sys.modules["tailtest.distributions"]
        for cls in distributions.DistributionModel.__subclasses__():
            if "quantile" in cls.__dict__:
                self._rebind(cls, "quantile", self._wrap(sp.QUANTILE, cls.__dict__["quantile"], None))

        split_cls = sys.modules["tailtest.empirical"].SortedSampleSplit
        from_samples = split_cls.__dict__.get("from_samples")
        if isinstance(from_samples, classmethod):
            self._rebind(split_cls, "from_samples", classmethod(self._wrap(
                sp.FROM_SAMPLES, from_samples.__func__, lambda r: {"values": r.n})))
        else:
            self.missing.append("SortedSampleSplit.from_samples")
        self._rebind(split_cls, "__init__", self._wrap(sp.VALIDATE, split_cls.__init__, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
