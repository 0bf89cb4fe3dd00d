"""Log-gamma and the modified Bessel function of the second kind.

Two independent evaluation routes for ``K_nu(x)`` live here on purpose:

* a fast production path: a small-argument series for ``x <= 2`` plus a
  continued fraction for ``x > 2``, followed by stable upward recurrence in
  the order.  In the continued fraction each point stops at its own
  convergence step, so a batch costs the sum of its points' steps rather
  than its slowest point's steps times its size, and each point's value is
  exactly its single-point evaluation; every other step is elementwise.
  The series stops when its whole batch has converged, past each point's
  own step by terms below 1e-17 of its sum; tests pin that batched and
  single evaluations are bitwise equal across both branches;
* a slow quadrature route built on the integral representation

      K_nu(x) = (1/2) (x/2)^(-nu) * int_0^inf t^(nu-1) exp(-t - x^2/(4t)) dt,

  which shares no code with the production path and serves as its
  anti-regression oracle.

All interesting magnitudes are tracked in log space: ``K_nu(x)`` overflows
double precision for large orders at small arguments (already around
``nu = 50, x = 1e-6``), so extreme regimes must consume ``log_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BesselEval",
    "ConvergenceError",
    "bessel_k",
    "bessel_k_quadrature",
    "ln_gamma",
    "log_bessel_k",
]

_LN2 = math.log(2.0)
_EULER = 0.57721566490153286061
# zeta(3), zeta(5), zeta(7), zeta(9)
_ZETA_ODD = (1.20205690315959428540, 1.03692775514336992633,
             1.00834927738192282684, 1.00200839282608221442)
# zeta(2), zeta(4), zeta(6), zeta(8)
_ZETA_EVEN = (1.64493406684822643647, 1.08232323371113819152,
              1.01734306198444913971, 1.00407735619794433938)

_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_SERIES_MAX = 600
_CF_MAX = 30000
_QUAD_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An internal series, continued fraction or quadrature did not converge."""


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of K_nu(x).

    ``value`` is ``exp(log_value)`` and may overflow to ``inf`` for large
    orders at small arguments; ``log_value`` is always finite.
    """

    order: float
    argument: float
    value: float
    log_value: float


def _reflection_coeffs(mu: float):
    """Auxiliary gamma combinations for the small-argument series.

    Returns (g1, g2, 1/Gamma(1+mu), 1/Gamma(1-mu)) with
    g1 = [1/Gamma(1-mu) - 1/Gamma(1+mu)]/(2 mu) and
    g2 = [1/Gamma(1-mu) + 1/Gamma(1+mu)]/2, stable for |mu| <= 1/2.
    """
    gampl = 1.0 / math.gamma(1.0 + mu)
    gammi = 1.0 / math.gamma(1.0 - mu)
    if abs(mu) >= 0.05:
        g1 = (gammi - gampl) / (2.0 * mu)
    else:
        # direct subtraction cancels badly near mu = 0; use the expansion
        # 1/Gamma(1 -+ mu) = exp(-+w - v) with w odd and v even in mu
        mu2 = mu * mu
        w = mu * (_EULER + mu2 * (_ZETA_ODD[0] / 3 + mu2 * (_ZETA_ODD[1] / 5
                + mu2 * (_ZETA_ODD[2] / 7 + mu2 * (_ZETA_ODD[3] / 9)))))
        v = mu2 * (_ZETA_EVEN[0] / 2 + mu2 * (_ZETA_EVEN[1] / 4
                + mu2 * (_ZETA_EVEN[2] / 6 + mu2 * (_ZETA_EVEN[3] / 8))))
        sinhc = 1.0 + w * w / 6.0 if abs(w) < 1e-8 else math.sinh(w) / w
        g1 = -math.exp(-v) * sinhc * (w / mu) if mu != 0.0 else -_EULER
    g2 = 0.5 * (gammi + gampl)
    return g1, g2, gampl, gammi


def _kmu_series(mu: float, x: np.ndarray):
    """K_mu(x) and K_{mu+1}(x) for 0 < x <= 2 and |mu| <= 1/2."""
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu != 0.0 else 1.0
    d0 = -np.log(x2)
    e = mu * d0
    small_e = np.abs(e) < 1e-12
    safe_e = np.where(small_e, 1.0, e)
    fact2 = np.where(small_e, 1.0 + e * e / 6.0, np.sinh(safe_e) / safe_e)
    g1, g2, gampl, gammi = _reflection_coeffs(mu)
    ff = fact * (g1 * np.cosh(e) + g2 * fact2 * d0)
    ksum = ff.copy()
    ee = np.exp(e)
    p = np.full_like(x, 0.5) * ee / gampl
    q = np.full_like(x, 0.5) / (ee * gammi)
    c = np.ones_like(x)
    dd = x2 * x2
    ksum1 = p.copy()
    for i in range(1, _SERIES_MAX + 1):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c = c * dd / i
        p = p / (i - mu)
        q = q / (i + mu)
        delt = c * ff
        ksum = ksum + delt
        ksum1 = ksum1 + c * (p - i * ff)
        if np.all(np.abs(delt) < np.abs(ksum) * 1e-17):
            return ksum, ksum1 * (2.0 / x)
    raise ConvergenceError(
        f"series for K_mu stalled after {_SERIES_MAX} terms "
        f"(mu={mu}, x in [{x.min()}, {x.max()}])")


def _kmu_cf2(mu: float, x: np.ndarray):
    """exp(x) K_mu(x) and exp(x) K_{mu+1}(x) for x > 2 and |mu| <= 1/2.

    Each point stops at its own convergence step and keeps the values of
    that step, so a batch returns exactly what each point returns alone.
    Stopped points leave the working arrays once they are half of them, so
    a batch no longer runs every point as long as its slowest one.
    """
    mu2 = mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25 - mu2
    q = np.full_like(x, a1)
    c = a1
    a = -a1
    s = 1.0 + q * delh
    h_out = np.empty_like(x)
    s_out = np.empty_like(x)
    where = np.arange(x.size)  # position in x of each working entry
    live = np.ones(x.size, dtype=bool)
    for i in range(2, _CF_MAX + 1):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        stop = live & (np.abs(dels) <= np.abs(s) * 1e-16)
        if not stop.any():
            continue
        h_out[where[stop]] = h[stop]
        s_out[where[stop]] = s[stop]
        live &= ~stop
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if 2 * n_live <= live.size:
            b, d, h, delh, q1, q2, q, s, where = (
                v[live] for v in (b, d, h, delh, q1, q2, q, s, where))
            live = np.ones(n_live, dtype=bool)
    else:
        stalled = x[where[live]]
        raise ConvergenceError(
            f"continued fraction for K_mu stalled after {_CF_MAX} steps "
            f"(mu={mu}, x in [{stalled.min()}, {stalled.max()}])")
    h = a1 * h_out
    kmu = math.sqrt(math.pi / 2.0) / np.sqrt(x) / s_out
    kmu1 = kmu * (mu + x + 0.5 - h) / x
    return kmu, kmu1


def log_bessel_k(nu: float, x) -> np.ndarray:
    """log K_nu(x), elementwise over x, on the fast production path.

    Negative orders are reflected to |nu| (K is even in the order).
    """
    nu = float(nu)
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu!r}")
    nu = abs(nu)
    xa = np.asarray(x, dtype=float)
    squeeze = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if xa.size and (not np.all(np.isfinite(xa)) or np.any(xa <= 0.0)):
        raise ValueError("bessel argument must be finite and > 0")

    n = int(nu + 0.5)
    mu = nu - n  # |mu| <= 1/2
    out = np.empty_like(xa)
    small = xa <= 2.0
    for mask in (small, ~small):
        if not np.any(mask):
            continue
        xs = xa[mask]
        if xs[0] <= 2.0:
            klo, khi = _kmu_series(mu, xs)
            logscale = np.zeros_like(xs)
        else:
            klo, khi = _kmu_cf2(mu, xs)
            logscale = -xs.copy()
        xi2 = 2.0 / xs
        for i in range(1, n + 1):
            knext = klo + (mu + i) * xi2 * khi
            klo = khi
            khi = knext
            big = khi > _RESCALE
            if np.any(big):
                klo[big] /= _RESCALE
                khi[big] /= _RESCALE
                logscale[big] += _LOG_RESCALE
        out[mask] = np.log(klo) + logscale
    if not np.all(np.isfinite(out)):
        bad = xa[~np.isfinite(out)]
        raise ConvergenceError(f"non-finite K evaluation (nu={nu}, x={bad[:5]})")
    return out[0] if squeeze else out


def bessel_k(nu: float, x: float) -> BesselEval:
    """K_nu(x) for real order (reflected to |nu|) and x > 0."""
    logv = float(log_bessel_k(nu, x))
    value = math.exp(logv) if logv < 709.0 else math.inf
    return BesselEval(order=abs(float(nu)), argument=float(x),
                      value=value, log_value=logv)


def bessel_k_quadrature(nu: float, x: float) -> BesselEval:
    """K_nu(x) by adaptive quadrature of the integral representation.

    The integrand t^(nu-1) exp(-t - x^2/(4t)) is integrated in u = log t
    after factoring out its peak value, so the route stays usable where
    K itself overflows.  Deliberately independent of the production path.
    """
    from scipy.integrate import quad  # only this oracle needs it; slow to import

    nu = float(nu)
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu!r}")
    nu = abs(nu)
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"bessel argument must be finite and > 0, got {x!r}")
    xsq4 = 0.25 * x * x

    def phi(u):
        if u > 700.0 or u < -700.0:
            return -1e308
        eu = math.exp(u)
        return nu * u - eu - xsq4 / eu

    tstar = 0.5 * (nu + math.hypot(nu, x))
    ustar = math.log(tstar)
    m = phi(ustar)
    lo, step = ustar - 1.0, 1.0
    while phi(lo) - m > -60.0:
        step *= 2.0
        lo -= step
    hi, step = ustar + 1.0, 1.0
    while phi(hi) - m > -60.0:
        step *= 2.0
        hi += step

    val, err = quad(lambda u: math.exp(phi(u) - m), lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=500)
    if not (val > 0.0 and math.isfinite(val)) or err > 100.0 * _QUAD_REL_TOL * val:
        raise ConvergenceError(
            f"quadrature for K failed (nu={nu}, x={x}): value={val}, err={err}")
    log_value = m + math.log(val) - _LN2 - nu * (math.log(x) - _LN2)
    value = math.exp(log_value) if log_value < 709.0 else math.inf
    return BesselEval(order=nu, argument=x, value=value, log_value=log_value)
