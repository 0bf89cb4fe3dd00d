"""Matern fields on truncated boxes.

Covariance kernels, the exact folded covariances produced by solving the
Whittle SPDE on a bounded box with artificial boundary conditions, a-priori
window-size error bounds, and spectral sampling of the resulting Gaussian
fields.
"""

from .specfun import BesselEval, ConvergenceError, bessel_k, bessel_k_quadrature, ln_gamma, log_bessel_k
from .matern import (
    AnisoMetric,
    MaternParams,
    decay_factor,
    derive_params,
    matern_cov,
    matern_cov_aniso,
    radiation_residual,
    unit_matern,
)
from .spectral import (
    BoundarySpec,
    BoxDomain,
    RobinEigen1D,
    TruncationSpec,
    cov_spectral,
    cov_spectral_gram,
    eigenpair,
    robin_eigen_1d,
    spectral_tail_bound,
)
from .folded import (
    ImageSum,
    SignVector,
    cov_folded,
    cov_folded_dirichlet,
    cov_folded_gram,
    cov_folded_neumann,
    cov_folded_periodic,
    image_tail_bound,
    pick_radius,
)
from .bounds import (
    BoundReport,
    aniso_error_bound,
    dirichlet_error_bound,
    eulerian_number,
    lattice_error_bound,
    polylog_partial,
    power_sum_closed,
    window_error_bound,
)
from .sampler import (
    EmpiricalCov,
    FieldSample,
    empirical_cov,
    sample_ensemble,
    sample_field,
    sample_values,
)

__version__ = "0.1.0"

__all__ = [
    "AnisoMetric",
    "BesselEval",
    "BoundReport",
    "BoundarySpec",
    "BoxDomain",
    "ConvergenceError",
    "EmpiricalCov",
    "FieldSample",
    "ImageSum",
    "MaternParams",
    "RobinEigen1D",
    "SignVector",
    "TruncationSpec",
    "aniso_error_bound",
    "bessel_k",
    "bessel_k_quadrature",
    "cov_folded",
    "cov_folded_dirichlet",
    "cov_folded_gram",
    "cov_folded_neumann",
    "cov_folded_periodic",
    "cov_spectral",
    "cov_spectral_gram",
    "decay_factor",
    "derive_params",
    "dirichlet_error_bound",
    "eigenpair",
    "empirical_cov",
    "eulerian_number",
    "image_tail_bound",
    "lattice_error_bound",
    "ln_gamma",
    "log_bessel_k",
    "matern_cov",
    "matern_cov_aniso",
    "pick_radius",
    "polylog_partial",
    "power_sum_closed",
    "radiation_residual",
    "robin_eigen_1d",
    "sample_ensemble",
    "sample_field",
    "sample_values",
    "spectral_tail_bound",
    "unit_matern",
    "window_error_bound",
]
