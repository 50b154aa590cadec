"""The benchmark tracer's boundary names must resolve in the package.

``bench/tracing.py`` rebinds tailtest functions by name; a name that no
longer resolves would drop out of the benchmark's per-layer breakdown
silently (it lands in ``missing_boundaries``).  This test only reads
``bench/``.

``REMOVED_SAMPLERS`` are the two n-value samplers and the two per-variant
decision functions the package no longer has (``run_test`` decides
either variant); the tracer still names them, so they, and only they,
are missing until the benchmark drops them.
"""

import importlib
import sys
from pathlib import Path

import pytest

import tailtest.cli  # noqa: F401  (the tracer rebinds names in every module)
from tailtest import Exponential, HalfGaussian, Lomax, StretchedExponential
from tailtest.distributions import DistributionModel
from tailtest.empirical import SortedSampleSplit

BENCH = Path(__file__).resolve().parents[1] / "bench"
REMOVED_SAMPLERS = {"tailtest.harness.sample_splits", "tailtest.harness.sample_single",
                    "tailtest.tester.run_full_test", "tailtest.tester.run_weak_test"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("tracing")
    yield module
    for name in ("tracing", "spans"):
        sys.modules.pop(name, None)


def test_traced_functions_resolve(tracing):
    unresolved = {f"{module_name}.{attr}" for module_name, attr, _, _ in tracing.FUNCTIONS
                  if not callable(getattr(importlib.import_module(module_name), attr, None))}
    assert unresolved == REMOVED_SAMPLERS


def test_traced_methods_keep_their_shape():
    assert isinstance(SortedSampleSplit.__dict__["from_samples"], classmethod)
    families = set(DistributionModel.__subclasses__())
    assert families == {Exponential, Lomax, HalfGaussian, StretchedExponential}
    for cls in families:
        assert "quantile" in cls.__dict__, cls.__name__


def test_tracer_installs_without_missing_boundaries(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert sorted(tracer.missing) == sorted(REMOVED_SAMPLERS)
    finally:
        tracer.uninstall()
