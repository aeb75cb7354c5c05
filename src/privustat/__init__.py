"""Differentially private estimation of U-statistic parameters."""

from .applications import (
    GeometricGraph,
    PerturbedUniform,
    boosted_triangle_density,
    boosted_uniformity_test,
    collision_theta,
    private_collision_density,
    private_triangle_density,
    sample_multinomial,
    sample_rgg,
    uniformity_test,
)
from .boosting import BoostPlan, median_of_means
from .coinpress import (
    IntervalState,
    TailBounds,
    all_tuples_estimator,
    naive_estimator,
    subsampled_estimator,
    ustat_mean,
    ustat_one_step,
)
from .dp import (
    NoiseSample,
    PrivacyBudget,
    global_sensitivity_release,
    laplace,
    quartic_noise,
    smooth_sensitivity_release,
)
from .hajek import (
    HajekParams,
    HajekState,
    compute_L,
    compute_weights,
    degenerate_xi,
    private_mean_local_hajek,
    reweighted_mean,
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
    VarianceProfile,
    all_tuples,
    collision_kernel,
    constant_kernel,
    empirical_zetas,
    equality_kernel,
    evaluate_ustat,
    hoeffding_deltas,
    identity_kernel,
    local_projections,
    mean_kernel,
    subsample_family,
    variance_leading_term,
    variance_of_ustat,
    zetas_from_deltas,
)

__version__ = "0.1.0"
