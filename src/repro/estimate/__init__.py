"""Error estimation: bootstrap, closed forms, intervals, variation ranges."""

from .bootstrap import PoissonWeightSource
from .closed_form import (
    count_variance,
    mean_variance,
    normal_intervals,
    normal_quantile,
    sum_variance,
    z_value,
)
from .intervals import (
    ConfidenceInterval,
    basic_interval,
    basic_intervals,
    percentile_interval,
    percentile_intervals,
    relative_sds,
    relative_stdev,
    relative_stdevs,
)
from .random_source import derive_rng, derive_seed
from .variation import (
    VariationRange,
    range_from_replicas,
    ranges_from_replica_matrix,
)

__all__ = [
    "ConfidenceInterval",
    "PoissonWeightSource",
    "VariationRange",
    "basic_interval",
    "basic_intervals",
    "count_variance",
    "derive_rng",
    "derive_seed",
    "mean_variance",
    "normal_intervals",
    "normal_quantile",
    "percentile_interval",
    "percentile_intervals",
    "range_from_replicas",
    "ranges_from_replica_matrix",
    "relative_sds",
    "relative_stdev",
    "relative_stdevs",
    "sum_variance",
    "z_value",
]
