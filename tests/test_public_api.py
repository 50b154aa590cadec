"""Every exported name resolves, and every package export is public in its module.

Pruning a function while leaving its name in an ``__all__`` list, or
re-exporting from the package a name its module keeps private, fails
here rather than at a user's import.
"""

import importlib

import pytest

import tailtest

MODULES = ["distributions", "empirical", "proxy", "tester", "harness", "cli"]


@pytest.mark.parametrize("module_name", ["tailtest"] + [f"tailtest.{m}" for m in MODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), "duplicate __all__ entry"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_module_exports():
    modules = [importlib.import_module(f"tailtest.{m}") for m in MODULES]
    for name in tailtest.__all__:
        obj = getattr(tailtest, name)
        homes = [m for m in modules if getattr(m, name, None) is obj and name in m.__all__]
        assert homes, f"{name} is exported by tailtest but by no module's __all__"


def test_package_exports_are_pinned():
    # Adding or dropping a public name is a deliberate change: update this list.
    assert tailtest.__all__ == [
        "DistributionModel", "Exponential", "Lomax", "HalfGaussian",
        "StretchedExponential", "TailParams", "WellBehavedBounds", "TailClass",
        "quantile", "sample", "classify_tail", "estimate_bounds", "model_from_name",
        "SortedSampleSplit", "DEGENERATE", "is_degenerate",
        "two_scale_statistic", "single_scale_statistic",
        "ProxyPoint", "proxy_value", "separation_gap", "discrete_proxy", "proxy_curve",
        "Variant", "Verdict", "TestConfig", "BucketRecord", "TestOutcome",
        "required_buckets", "required_samples", "run_full_test", "run_weak_test",
        "FileFormat", "ReplicationReport", "load_samples", "replicate",
        "run_sampled_test", "sample_single", "sample_splits",
    ]
