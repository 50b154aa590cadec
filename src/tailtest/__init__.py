"""tailtest: decide from samples whether a monotone continuous
distribution on [0, inf) is light-tailed (non-decreasing hazard rate)
or heavy-tailed (hazard rate dropping by at least alpha over mass rho).

The pipeline: analytic families and seeded sampling
(``distributions``), the exact tail proxy and its discretization
(``proxy``), order-statistic bucket statistics (``empirical``), the
decision procedures and budget calculators (``tester``), and experiment
replication plus file I/O (``harness``).  ``tailtest.cli`` wires it all
into a command-line tool.
"""

from .distributions import (
    DistributionModel,
    Exponential,
    HalfGaussian,
    Lomax,
    StretchedExponential,
    TailClass,
    TailParams,
    WellBehavedBounds,
    classify_tail,
    estimate_bounds,
    model_from_name,
    quantile,
    sample,
)
from .empirical import (
    DEGENERATE,
    SortedSampleSplit,
    is_degenerate,
    single_scale_statistic,
    two_scale_statistic,
)
from .harness import (
    FileFormat,
    ReplicationReport,
    load_samples,
    replicate,
    run_sampled_test,
    sample_single,
    sample_splits,
)
from .proxy import (
    ProxyPoint,
    discrete_proxy,
    proxy_curve,
    proxy_value,
    separation_gap,
)
from .tester import (
    BucketRecord,
    TestConfig,
    TestOutcome,
    Variant,
    Verdict,
    required_buckets,
    required_samples,
    run_full_test,
    run_weak_test,
)

__version__ = "0.1.0"

__all__ = [
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
