"""Differentially private estimation of U-statistic parameters."""

from .applications import (
    GeometricGraph,
    PerturbedUniform,
    boosted_triangle_density,
    boosted_uniformity_test,
    collision_theta,
    private_collision_densities,
    private_collision_density,
    private_triangle_densities,
    private_triangle_density,
    sample_multinomial,
    sample_rgg,
)
from .boosting import BoostPlan, median_of_means
from .coinpress import (
    IntervalState,
    TailBounds,
    all_tuples_estimates,
    all_tuples_estimator,
    naive_estimates,
    naive_estimator,
    subsampled_estimates,
    subsampled_estimator,
    ustat_means,
)
from .dp import PrivacyBudget
from .hajek import (
    HajekParams,
    compute_weights,
    degenerate_xi,
    private_mean_local_hajek,
    private_means_local_hajek,
    smooth_bound_g,
    smooth_sensitivity,
    subgaussian_pipeline,
)
from .report import EstimateReport
from .ustat import (
    Bounded,
    Dataset,
    Kernel,
    SubGaussian,
    SubsetFamily,
    all_tuples,
    collision_kernel,
    equality_kernel,
    evaluate_ustat,
    identity_kernel,
    mean_kernel,
    subsample_family,
)

__version__ = "0.1.0"
