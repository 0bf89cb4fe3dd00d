"""Matern covariance kernel and its SPDE-side parameters.

The kernel is sigma^2 * M_nu(kappa * r) with the unit function
M_nu(t) = t^nu K_nu(t) / (2^(nu-1) Gamma(nu)), kappa = sqrt(2 nu) / rho.
Everything funnels through a log-space evaluation of M_nu so that large
smoothness orders (nu = 50 and beyond) neither overflow nor lose digits.
Every entry point that takes points reads them through ``as_points``, and
every one that takes a kernel and a box matches them by ``check_dimension``.
Every integer argument (radius, kmax, count, index, seed, ...) is read by
``as_integer``, and every real one (sigma2, nu, delta, ell, beta, ...) by
``as_real``: both refuse bools and name the argument in their ``ValueError``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .specfun import _log_bessel_k, ln_gamma, log_bessel_k

__all__ = [
    "AnisoMetric",
    "MaternParams",
    "decay_factor",
    "derive_params",
    "matern_cov",
    "matern_cov_aniso",
    "radiation_residual",
    "unit_matern",
]

_LN2 = math.log(2.0)
_LOG4PI = math.log(4.0 * math.pi)


@dataclass(frozen=True)
class MaternParams:
    """Kernel parameters plus the derived SPDE constants.

    kappa = sqrt(2 nu)/rho, alpha = nu + d/2, and eta2 normalizes the white
    noise so the marginal variance of the solution equals sigma2.
    """

    sigma2: float
    rho: float
    nu: float
    d: int
    kappa: float
    alpha: float
    eta2: float


def derive_params(sigma2: float, rho: float, nu: float, d: int) -> MaternParams:
    """Populate MaternParams from the three kernel parameters and dimension."""
    sigma2, rho, nu = float(sigma2), float(rho), float(nu)
    if not all(0 < v < math.inf for v in (sigma2, rho, nu)):
        raise ValueError(f"sigma2, rho, nu must be finite and positive, got {(sigma2, rho, nu)}")
    d = as_dimension(d)
    kappa = math.sqrt(2.0 * nu) / rho
    alpha = nu + d / 2.0
    eta2 = sigma2 * math.exp(0.5 * d * _LOG4PI + ln_gamma(nu + d / 2.0)
                             - ln_gamma(nu) - d * math.log(kappa))
    return MaternParams(sigma2=sigma2, rho=rho, nu=nu, d=d,
                        kappa=kappa, alpha=alpha, eta2=eta2)


def unit_matern(nu: float, t):
    """Unit Matern function M_nu(t), elementwise; M_nu(0) = 1 by its limit.

    Returns values in (0, 1]; underflows cleanly to 0.0 for huge t.
    """
    nu = as_real(nu, "nu")
    ta = np.asarray(t, dtype=float)
    squeeze = ta.ndim == 0
    ta = np.atleast_1d(ta)
    if ta.size and (np.any(ta < 0) or not np.all(np.isfinite(ta))):
        raise ValueError("unit_matern requires finite t >= 0")
    out = _unit_matern(nu, ta, log_bessel_k)
    return float(out[0]) if squeeze else out


def _unit_matern(nu: float, ta: np.ndarray, log_k=_log_bessel_k) -> np.ndarray:
    """``unit_matern`` of checked arguments: nu > 0 and an array of finite
    t >= 0.  Pooled code calls this, with the private ``log_k``; the public
    name passes the public ``log_bessel_k``, so a traced call shows its
    kernel call."""
    out = np.ones_like(ta)
    pos = ta > 0
    if np.any(pos):
        tp = ta[pos]
        logm = (nu * np.log(tp) + log_k(nu, tp)
                - (nu - 1.0) * _LN2 - math.lgamma(nu))
        # the exact value never exceeds 1; shave off rounding in the exponent
        out[pos] = np.exp(np.minimum(logm, 0.0))
    return out


def as_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int if it is an integer (numpy's included, bools not)
    of at least ``least``, else ``ValueError`` naming it."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def as_dimension(d) -> int:
    """``d`` as an int if it is 1, 2 or 3, read by ``as_integer``, else ``ValueError``."""
    d = as_integer(d, "d", 1)
    if d > 3:
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    return d


def as_real(value, name: str, zero: bool = False) -> float:
    """``value`` as a float if ``float`` takes it and it is finite and > 0
    (>= 0 with ``zero``), bools not, else ``ValueError`` naming it."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(value, (bool, np.bool_)) or not (math.isfinite(x) and (x > 0 or zero and x == 0)):
        bound = ">= 0" if zero else "> 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return x


def as_points(points, d: int, n: int | None = None, name: str = "points") -> np.ndarray:
    """The points as a finite float array of shape (n, d), n >= 1, else ``ValueError``.

    1-D input is n points when d = 1 and one point otherwise; ``n``, when
    given, is the required count (1 for each point of a pair).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if d == 1 else pts[None, :]
    if (pts.ndim != 2 or pts.shape[1] != d or pts.shape[0] == 0
            or n is not None and pts.shape[0] != n):
        want = f"(n, {d}) with n >= 1" if n is None else f"({n}, {d})"
        raise ValueError(f"{name} must have shape {want}, got shape {np.shape(points)}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {pts[~finite][0]}")
    return pts


def check_dimension(params: MaternParams, box) -> None:
    """Raise ``ValueError`` unless the kernel and the box have the same dimension."""
    if params.d != box.d:
        raise ValueError(f"kernel dimension {params.d} does not match box dimension {box.d}")


def matern_cov(params: MaternParams, x, y) -> float:
    """Covariance sigma^2 M_nu(kappa ||x - y||_2) between two points."""
    dx = as_points(x, params.d, 1, "x")[0] - as_points(y, params.d, 1, "y")[0]
    r = math.sqrt(float(np.dot(dx, dx)))
    return params.sigma2 * unit_matern(params.nu, params.kappa * r)


def matern_gram(params: MaternParams, points) -> np.ndarray:
    """Kernel matrix over a point set, with deduplicated Bessel evaluations."""
    pts = as_points(points, params.d)
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    uniq, inv = np.unique(r.ravel(), return_inverse=True)
    vals = params.sigma2 * unit_matern(params.nu, params.kappa * uniq)
    return vals[inv].reshape(r.shape)


@dataclass(frozen=True)
class AnisoMetric:
    """SPD metric Theta = R diag(scales^2) R^T for the anisotropic kernel.

    The factored form (rotation, scales) is authoritative; the assembled
    matrix is derived from it, which keeps the rotation exactly orthogonal
    for invariance checks.
    """

    rotation: np.ndarray
    scales: np.ndarray
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        s = np.asarray(self.scales, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rotation must be a square matrix")
        d = r.shape[0]
        if s.shape != (d,):
            raise ValueError("scales must be a vector matching the rotation size")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("scales must be positive and finite")
        if np.max(np.abs(r @ r.T - np.eye(d))) > 1e-12:
            raise ValueError("rotation must be orthogonal to 1e-12")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "scales", s)
        th = r @ np.diag(s ** 2) @ r.T
        object.__setattr__(self, "theta", 0.5 * (th + th.T))

    @property
    def d(self) -> int:
        return self.rotation.shape[0]

    @property
    def scale_max(self) -> float:
        return float(np.max(self.scales))

    def metric_distance(self, u) -> float:
        """||u||_{Theta^{-1}} computed through the factored form."""
        w = (self.rotation.T @ np.asarray(u, dtype=float)) / self.scales
        return math.sqrt(float(np.dot(w, w)))


def matern_cov_aniso(sigma2: float, nu: float, metric: AnisoMetric, x, y) -> float:
    """Anisotropic covariance sigma^2 M_nu(sqrt(2 nu) ||x - y||_{Theta^-1})."""
    sigma2, nu = as_real(sigma2, "sigma2"), as_real(nu, "nu")
    dx = as_points(x, metric.d, 1, "x")[0] - as_points(y, metric.d, 1, "y")[0]
    t = math.sqrt(2.0 * nu) * metric.metric_distance(dx)
    return sigma2 * unit_matern(nu, t)


def decay_factor(nu: float, kappa: float, x) -> float:
    """Geometric decay factor f(x) = M_{max(nu, 1/2)}(kappa x), for x > 0.

    This is the per-step ratio in the geometric domination of lattice tails:
    M_nu(a + b) <= M_nu(a) * f_unit(b) for the kernel family.  Every
    geometric closure of the package, 1 / (1 - f)^d, takes f from here, so
    where f rounds to 1 (rho far beyond x) this raises ``ValueError``.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0):
        raise ValueError("decay_factor requires x > 0")
    t = float(kappa) * xa
    out = unit_matern(max(float(nu), 0.5), t)
    if np.any(out >= 1.0):
        raise ValueError(f"decay factor M(kappa x) rounds to 1 at kappa x = {np.min(t):g}: "
                         "rho is too far beyond the box for a geometric tail to close")
    return out


def radiation_residual(nu: float, kappa: float, r) -> float:
    """Scaled radial residual of the outgoing-wave condition at distance r.

    (kappa r)^(1/2 - nu) * (d/dr + kappa) applied to M_nu(kappa r); decays
    like exp(-kappa r) as r grows, which motivates beta = kappa as a Robin
    coefficient.
    """
    nu, kappa = float(nu), float(kappa)
    ra = np.asarray(r, dtype=float)
    squeeze = ra.ndim == 0
    ra = np.atleast_1d(ra)
    if np.any(ra <= 0):
        raise ValueError("radiation_residual requires r > 0")
    t = kappa * ra
    lognorm = (nu - 1.0) * _LN2 + ln_gamma(nu)
    knu = np.exp(log_bessel_k(nu, t) - lognorm)
    knum1 = np.exp(log_bessel_k(nu - 1.0, t) - lognorm)
    out = kappa * np.sqrt(t) * (knu - knum1)
    return float(out[0]) if squeeze else out

