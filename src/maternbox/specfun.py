"""Log-gamma and the modified Bessel function of the second kind.

Two independent evaluation routes for ``K_nu(x)`` live here on purpose:

* a fast production path: at order mu = nu - floor(nu + 1/2), |mu| <= 1/2, a
  small-argument series for ``x <= 2``, the trapezoid rule for
  ``2 < x < 20`` and the Hankel expansion for ``x >= 20`` (all ``x > 2`` at
  |mu| = 1/2, where it is exact) give K_mu and K_{mu+1}, and upward
  recurrence in the order gives K_nu.  The last two branches have a fixed
  cost per point and a truncation error certified below 2^-53 relative
  (derived in their docstrings, checked by a test from this module's
  constants).  The series stops when its whole batch has converged, past
  each point's own step by terms below 1e-17 of its sum; every other step
  is elementwise, and tests pin that batched and single evaluations are
  bitwise equal across all three branches.  A large batch is split into
  fixed blocks of ``_POINT_BLOCK`` points that run on the block pool
  (``_blocks``), which that equality makes invisible in the result;
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

from ._blocks import _map_blocks

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
_HANKEL_FROM, _HANKEL_TERMS = 20.0, 22
_TRAP_STEP, _TRAP_NODES = 0.16, 26
_QUAD_REL_TOL = 1e-12
# points per block of a pooled batch, fixed so the blocks do not follow the
# thread count; 2^13 and 2^16 ran slower on the folded Gram's 50k distances
_POINT_BLOCK = 2 ** 14


class ConvergenceError(RuntimeError):
    """The series for x <= 2 or the oracle's quadrature did not converge, or
    a K value is not finite."""


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


def _kmu_hankel(mu: float, x: np.ndarray):
    """exp(x) K_mu(x) and exp(x) K_{mu+1}(x) for x >= 20 (x > 2 at |mu| = 1/2)
    and |mu| <= 1/2.

    Hankel's expansion exp(x) K_nu(x) ~ sqrt(pi/(2x)) sum_{k<l} a_k(nu) x^(-k),
    a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k), l = ``_HANKEL_TERMS``,
    by Horner's rule at both orders on one (2, points) array.  As |nu| <= 3/2
    <= l + 1/2, the remainder is at most the first neglected term (DLMF
    10.40(ii)); max |a_22| = 4.0e12 on |nu| <= 3/2, so at x >= 20 it is at
    most 9.6e-17 of the sum, which is >= 1 - 1/(8x) (l = 1 at nu = 0).  At
    |nu| = 1/2 and 3/2 the series ends early: a_k = 0 for k > |nu|.
    """
    orders = (mu, mu + 1.0)
    coef = [(1.0, 1.0)]
    for k in range(1, _HANKEL_TERMS):
        coef.append(tuple(a * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8 * k)
                          for a, nu in zip(coef[-1], orders)))
    while coef[-1] == (0.0, 0.0):  # |mu| = 1/2: the terms past |nu| are 0
        coef.pop()
    coef = np.array(coef)[:, :, None]
    y = 1.0 / x
    acc = np.repeat(coef[-1], x.size, axis=1)
    for a in coef[-2::-1]:
        acc *= y
        acc += a
    acc *= np.sqrt(0.5 * math.pi / x)
    return acc[0], acc[1]


def _kmu_trapezoid(mu: float, x: np.ndarray):
    """exp(x) K_mu(x) and exp(x) K_{mu+1}(x) for 2 < x < 20 and |mu| <= 1/2.

    exp(x) K_nu(x) = int_0^inf f(t) dt, f(t) = exp(-x (cosh t - 1)) cosh(nu t)
    (DLMF 10.32.9), by the trapezoid rule h (f(0)/2 + f(h) + ... + f(T)) with
    h = ``_TRAP_STEP``, T = (``_TRAP_NODES`` - 1) h = 4, adding one node at a
    time from the far end, at both orders on one (2, points) array.
    Relative error for |nu| <= 3/2: f is even and entire, and on the strip
    |Im t| < a < pi/2, c = cos a, int |f| dt <= M = 2 exp(x) K_nu(cx), so the
    rule errs by at most 2M / (exp(2 pi a / h) - 1) (Trefethen & Weideman,
    SIAM Rev. 56(3), 2014, Thm. 5.1).  By K_nu(cx) <= K_{3/2}(cx) and
    K_nu(x) >= K_0(x) >= sqrt(pi/(2x)) exp(-x) (1 - 1/(8x)) that is at most
        2 (1 + 1/(cx)) exp(x (1 - c)) / (sqrt(c) (1 - 1/(8x)) (exp(2 pi a/h) - 1)).
    f decreases past T, so the dropped nodes sum to at most int_T^inf f dt
    <= exp(|nu| T - x (cosh T - 1)) / (x sinh T - |nu|), as cosh t - 1 lies
    above its tangent at T.  Over the same bound on exp(x) K_0(x), with c
    chosen per x, the total is at most 3.8e-17 on (2, 20], below 2^-53.
    """
    t = _TRAP_STEP * np.arange(_TRAP_NODES)
    decay = 2.0 * np.sinh(0.5 * t) ** 2  # cosh t - 1 without cancellation
    weight = np.cosh(np.array([[mu], [mu + 1.0]]) * t)
    acc = np.zeros((2, x.size))
    for j in range(_TRAP_NODES - 1, 0, -1):
        acc += weight[:, j:j + 1] * np.exp(-decay[j] * x)
    acc = _TRAP_STEP * (acc + 0.5)
    return acc[0], acc[1]


def _log_k_block(n: int, mu: float, xa: np.ndarray) -> np.ndarray:
    """log K_{n + mu}(x) for a block of arguments x > 0: series, trapezoid
    rule or Hankel expansion at order mu, then upward recurrence to n + mu."""
    out = np.empty_like(xa)
    # at |mu| = 1/2 the Hankel expansion is exact (one term), so it serves all x > 2
    small = xa <= 2.0
    large = ~small & (xa >= (2.0 if abs(mu) == 0.5 else _HANKEL_FROM))
    for branch, mask in ((_kmu_series, small), (_kmu_trapezoid, ~(small | large)),
                         (_kmu_hankel, large)):
        if not np.any(mask):
            continue
        xs = xa[mask]
        klo, khi = branch(mu, xs)
        logscale = np.zeros_like(xs) if branch is _kmu_series else -xs
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
    return out


def log_bessel_k(nu: float, x) -> np.ndarray:
    """log K_nu(x), elementwise over x, on the fast production path.

    Negative orders are reflected to |nu| (K is even in the order).  A batch
    of more than ``_POINT_BLOCK`` points is evaluated in blocks of that many
    on the block pool; each point's value is its single-point value, so the
    blocking does not show in the result.
    """
    nu = float(nu)
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu!r}")
    xa = np.asarray(x, dtype=float)
    squeeze = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if xa.size and (not np.all(np.isfinite(xa)) or np.any(xa <= 0.0)):
        raise ValueError("bessel argument must be finite and > 0")
    out = _log_bessel_k(abs(nu), xa)
    return out[0] if squeeze else out


def _log_bessel_k(nu: float, xa: np.ndarray) -> np.ndarray:
    """``log_bessel_k`` of checked arguments: a finite order nu >= 0 and an
    array of finite x > 0.  Pooled code calls this, not the public name."""
    n = int(nu + 0.5)
    mu = nu - n  # |mu| <= 1/2
    flat = xa.ravel()
    starts = range(0, flat.size, _POINT_BLOCK)
    out = np.empty_like(flat)
    for i, part in zip(starts, _map_blocks(
            lambda i: _log_k_block(n, mu, flat[i:i + _POINT_BLOCK]), starts)):
        out[i:i + _POINT_BLOCK] = part
    out = out.reshape(xa.shape)
    if not np.all(np.isfinite(out)):
        bad = xa[~np.isfinite(out)]
        raise ConvergenceError(f"non-finite K evaluation (nu={nu}, x={bad[:5]})")
    return out


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
