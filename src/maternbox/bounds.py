"""A-priori bounds on the covariance error of the window technique.

Truncating the sampling domain changes the covariance by an aliasing sum of
kernel images.  Two certified upper bounds on the resulting max-norm error
over the domain of interest are provided: a lattice form

    (2^d - 1) C(delta) + 2^d sum_{k in N0^d \\ 0} C(||L.k||_2)

summed numerically over sup-norm shells of N0^d, one kernel call per shell
that also evaluates the anchor of the certified remainder past it, and a
closed form

    A * sigma^2 * M_nu(kappa * delta),
    A = (2^d - 1) (1 + 2^d d! f(ell) / (1 - f(ell))^d),

where f is the geometric decay factor of the kernel family and ell the size
of the domain of interest.  Dirichlet conditions admit the sharper
coefficient 2^(d-1) on the lattice form.  The Eulerian-number identities
behind the closed form are exposed for direct verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matern import AnisoMetric, MaternParams, as_integer, as_real, decay_factor, unit_matern
from .spectral import BoxDomain

__all__ = [
    "BoundReport",
    "aniso_error_bound",
    "dirichlet_error_bound",
    "eulerian_number",
    "lattice_error_bound",
    "lattice_kernel_sum",
    "polylog_partial",
    "power_sum_closed",
    "window_error_bound",
]

_LATTICE_REL_TOL = 1e-8


def eulerian_number(n: int, k: int) -> int:
    """Eulerian number A(n, k): permutations of n with k ascents (exact).

    The explicit alternating sum sum_{j=0}^{k} (-1)^j C(n+1, j) (k+1-j)^n in
    exact integers, with no recursion, so any n returns.
    """
    n, k = as_integer(n, "n", 0), as_integer(k, "k", 0)
    if k > max(n - 1, 0):
        return 0
    return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


def polylog_partial(s: float, z: float, terms: int) -> float:
    """Partial sum of the polylogarithm, sum_{k=1}^{terms} k^(-s) z^k."""
    if not abs(z) < 1.0:
        raise ValueError(f"polylog partial sums need |z| < 1, got {z!r}")
    terms = as_integer(terms, "terms", 1)
    k = np.arange(1, terms + 1, dtype=float)
    vals = k ** (-float(s)) * z ** k
    return math.fsum(vals.tolist())


def power_sum_closed(d: int, z: float) -> float:
    """Closed form of sum_{k>=1} k^(d-1) z^(k-1), via the Eulerian polynomial.

    Equals (sum_j A(d-1, j) z^(d-2-j)) / (1-z)^d for d >= 2 and 1/(1-z) for
    d = 1; bounded by (d-1)!/(1-z)^d.
    """
    d = as_integer(d, "d", 1)
    if not abs(z) < 1.0:
        raise ValueError(f"geometric closed form needs |z| < 1, got {z!r}")
    if d == 1:
        return 1.0 / (1.0 - z)
    num = sum(eulerian_number(d - 1, j) * z ** (d - 2 - j) for j in range(d - 1))
    return num / (1.0 - z) ** d


@dataclass(frozen=True)
class BoundReport:
    """Window-size error bounds for one (delta, ell) configuration.

    ``lattice_bound`` is the numerically summed lattice form (certified
    remainder included), ``window_bound`` the closed form A * sigma^2 *
    M(kappa delta), ``dirichlet_bound`` the sharper Dirichlet-only variant.
    The lattice form is tighter by construction: lattice <= window; and
    dirichlet <= lattice.
    """

    delta: float
    ell: float
    prefactor: float
    decay_ell: float
    lattice_bound: float
    window_bound: float
    dirichlet_bound: float


def _kernel_radial(params: MaternParams, r) -> np.ndarray:
    return params.sigma2 * unit_matern(params.nu, params.kappa * np.asarray(r, dtype=float))


def lattice_kernel_sum(params: MaternParams, lengths):
    """sum_{k in N0^d \\ 0} C(||L.k||_2) with a certified remainder.

    Returns (value, remainder_bound); sup-norm shells are summed exactly
    until the certified remainder is negligible both relative to the sum
    accumulated so far and on the absolute scale of the kernel (so the
    remainder never dominates comparisons against other bounds).
    """
    d = params.d
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (d,):
        raise ValueError(f"lengths must have {d} entries")
    lmin = float(np.min(lengths))
    f = float(decay_factor(params.nu, params.kappa, lmin))
    total_parts = []
    running = 0.0
    j = 1
    while True:
        faces = []
        for a in range(d):  # N0^d shell j face by face: [0..j-1]^a x {j} x [0..j]^(d-1-a)
            axes = [np.arange(j)] * a + [[j]] + [np.arange(j + 1)] * (d - 1 - a)
            faces.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d))
        kk = np.concatenate(faces)
        r = np.sqrt(np.sum((kk * lengths[None, :]) ** 2, axis=1))
        # the shell and the anchor of the remainder past it, in one kernel call
        vals = unit_matern(params.nu, np.append(params.kappa * r, params.kappa * lmin * (j + 1)))
        shell_vals = params.sigma2 * vals[:-1]
        total_parts.extend(shell_vals.tolist())
        running += float(np.sum(shell_vals))
        # shell i > j holds (i+1)^d - i^d <= d (i+1)^(d-1) indices at distance
        # >= lmin * i: the anchor at shell j + 1, then geometric closure
        closure = d * (2.0 * (j + 1)) ** (d - 1) * math.factorial(d - 1) / (1.0 - f) ** d
        rem = params.sigma2 * closure * float(vals[-1])
        if rem <= max(_LATTICE_REL_TOL * running, 1e-280 * params.sigma2) or j >= 400:
            break
        j += 1
    return math.fsum(total_parts), rem


def _lattice_bounds(params: MaternParams, delta: float, box: BoxDomain):
    """(lattice, dirichlet) error bounds from one lattice kernel sum."""
    delta = as_real(delta, "delta", zero=True)
    d = params.d
    s, rem = lattice_kernel_sum(params, box.lengths)
    c_delta = float(_kernel_radial(params, delta))
    return (2 ** d - 1) * c_delta + 2 ** d * (s + rem), 2 ** (d - 1) * (c_delta + s + rem)


def lattice_error_bound(params: MaternParams, delta: float, box: BoxDomain) -> float:
    """(2^d - 1) C(delta) + 2^d sum_{k != 0} C(||L.k||_2), remainder included."""
    return _lattice_bounds(params, delta, box)[0]


def dirichlet_error_bound(params: MaternParams, delta: float, box: BoxDomain) -> float:
    """Sharper Dirichlet variant 2^(d-1) (C(delta) + sum_{k != 0} C(||L.k||_2))."""
    return _lattice_bounds(params, delta, box)[1]


def _closed_form_prefactor(d: int, f_ell: float) -> float:
    # f_ell can underflow to 0 for huge kappa * ell; the limit value applies
    return (2 ** d - 1) * (1.0 + 2 ** d * math.factorial(d) * f_ell
                           / (1.0 - f_ell) ** d)


def window_error_bound(params: MaternParams, delta: float, ell: float) -> BoundReport:
    """Closed-form error bound A * sigma^2 * M_nu(kappa delta) with report.

    ``ell`` is the sup-norm size of the domain of interest; the cubic box
    with lengths delta + ell is implied for the lattice columns of the
    report.  delta = 0 is allowed and gives the finite value A * sigma^2.
    """
    delta, ell = as_real(delta, "delta", zero=True), as_real(ell, "ell")
    d = params.d
    f_ell = float(decay_factor(params.nu, params.kappa, ell))
    prefactor = _closed_form_prefactor(d, f_ell)
    window = prefactor * params.sigma2 * float(unit_matern(params.nu, params.kappa * delta))
    lattice, dirich = _lattice_bounds(params, delta, BoxDomain.cubic(delta, ell, d))
    return BoundReport(delta=delta, ell=ell, prefactor=prefactor,
                       decay_ell=f_ell, lattice_bound=lattice,
                       window_bound=window, dirichlet_bound=dirich)


def aniso_error_bound(sigma2: float, nu: float, metric: AnisoMetric,
                      delta: float, ell: float, d: int) -> float:
    """Closed-form bound for the anisotropic kernel via the largest scale.

    The metric norm dominates the Euclidean norm divided by the largest
    correlation scale, so the isotropic argument applies with the effective
    rate sqrt(2 nu) / rho_max.
    """
    if d != metric.d:
        raise ValueError(f"dimension mismatch: d={d}, metric is {metric.d}-dimensional")
    sigma2, nu = as_real(sigma2, "sigma2"), as_real(nu, "nu")
    delta, ell = as_real(delta, "delta", zero=True), as_real(ell, "ell")
    kappa_eff = math.sqrt(2.0 * nu) / metric.scale_max
    f_ell = float(decay_factor(nu, kappa_eff, ell))
    prefactor = _closed_form_prefactor(d, f_ell)
    return prefactor * sigma2 * float(unit_matern(nu, kappa_eff * delta))
