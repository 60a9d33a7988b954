"""Density-ratio estimation by regularized Fredholm inversion.

Core pieces: Gaussian kernel machinery (kernels), the family of regularized
solvers returning kernel-expansion ratio estimates (solvers), plug-in and
least-squares baselines with analytic densities (baselines), unsupervised
(t, lambda) selection by importance-transport scores (selection), covariate
shift resampling and simulation (data), importance-weighted learners
(downstream), and a JSON-config CLI (cli).
"""

from .baselines import (
    GaussianDensity,
    LsifRatio,
    MixtureDensity,
    TikdeRatio,
    TrueRatio,
    UniformDensity,
    lsif_unconstrained,
    tikde,
    tikde_epsilon_grid,
    true_ratio,
)
from .data import ResampleResult, first_pc, label_resample, load_csv, pca_resample, simulate
from .downstream import WeightedModel, eval_metrics, weighted_linear_svm, weighted_ols
from .kernels import KernelSpec, as_sample_matrix, bandwidth_grid, gaussian_kernel_matrix, kde
from .linalg import NumericalError, eigh_descending
from .selection import (
    LAMBDA_GRID,
    CVResult,
    ValidationSet,
    fit_factory,
    j_score,
    kfold_cv,
    make_validation_set,
)
from .solvers import (
    RatioEstimate,
    evaluate,
    solve_combined,
    solve_combined_path,
    solve_rkhs_loss,
    solve_rkhs_loss_path,
    solve_spectral,
    solve_type1,
    solve_type15,
    solve_type15_path,
    solve_type1_path,
    solve_type2,
    solve_type2_path,
)

__version__ = "0.1.0"
