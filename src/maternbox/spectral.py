"""Eigenpairs of (I - kappa^-2 Lap) on a box and the truncated covariance.

The covariance of the SPDE solution on the extended box admits the modal
expansion  C(x, y) = eta^2 * sum_k lambda_k^(-alpha) w_k(x) w_k(y)  over the
eigenpairs of the shifted Laplacian with the chosen boundary conditions.
This module builds those eigenpairs for Dirichlet, Neumann, periodic and
Robin conditions, sums the expansion with a certified truncation-tail bound
(Robin in d = 1 accelerated by the exact folded Neumann covariance), and
exposes the per-mode system of the plain sum used by the sampler.

One per-axis mode-table builder (``_axis_mode_blocks``) serves every
route.  Its D/N/P rows take trig at O(n sqrt(kmax)) anchor and offset
angles only and combine them by angle addition.  It gives the table as
consecutive row blocks of about ``_BLOCK_VALUES`` = 2^16 values: a D/N/P
block is a run of whole anchors, a Robin block a run of roots, and every
value is formed elementwise, so each row has the same bits however the
table is blocked.  The blocks are evaluated on the package's block pool,
one thread per CPU in the process's affinity mask, and consumed in order
(``_blocks._map_blocks``, which the sampler's draw blocks and the folded
Gram's row runs use too), so each block has the bits it has on one thread.
In the d = 1 modal sum each block forms its partial Gram V_b^T (w_b V_b)
on the pool and the partials are added in block order, so it holds
O(threads * block + points^2) values whatever kmax is;
``mode_system``, ``eigenpair`` and the d >= 2 sums read the blocks stacked
(``_axis_mu_values``).  In d >= 2 each axis forms its pair-product columns
w(x) w(y) once per distinct unordered coordinate pair, one row per
eigenvalue (``_axis_pair_columns``), and the modal sum contracts them axis
by axis (``_plain_gram``), so its memory grows like kmax times the distinct
columns, not kmax times the pairs.  Periodic complex exponentials are
realized as real cosine/sine pairs with matching normalization, so all
arithmetic stays real.

Each Robin root is found by Newton's method climbing monotonically from
below it (``robin_eigen_1d``), so it depends on beta L and its index alone;
blocks of roots run on the pool, each returning its roots checked against a
residual bound relative to their size.  The roots are all the Robin state
(``RobinEigen1D``).  Points (``matern.as_points``) must lie in the closed box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from ._blocks import _map_blocks
from .folded import _gram
from .matern import MaternParams, as_dimension, as_integer, as_points, as_real, check_dimension
from .specfun import ConvergenceError

__all__ = [
    "BoundarySpec",
    "BoxDomain",
    "RobinEigen1D",
    "TruncationSpec",
    "cov_spectral",
    "cov_spectral_gram",
    "eigenpair",
    "mode_system",
    "plain_spectral_gram",
    "robin_eigen_1d",
    "spectral_tail_bound",
]

# surface measure of the unit sphere in R^m, m = 1, 2, 3
_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
# values per block of a mode table, of a d >= 2 weight matrix and of sampler noise
_BLOCK_VALUES = 2 ** 16
# the largest index cap of a mode table: its indices are formed as floats
_MAX_KMAX = 2 ** 53


@dataclass(frozen=True)
class BoxDomain:
    """Window geometry: domain of interest D inside the extended box.

    Coordinates are chosen so D starts at delta/2 on every axis; the box is
    the product of (0, L_i).  ``ell`` is the sup-norm diameter of D; in the
    cubic default every L_i equals delta + ell.
    """

    delta: float
    ell: float
    lengths: tuple
    d: int

    def __post_init__(self):
        delta, ell = as_real(self.delta, "delta", zero=True), as_real(self.ell, "ell")
        d = as_dimension(self.d)
        lengths = tuple(as_real(v, f"lengths[{i}]") for i, v in enumerate(self.lengths))
        if len(lengths) != d:
            raise ValueError("lengths must have one entry per axis")
        for L in lengths:
            if L + 1e-12 < delta + ell:
                raise ValueError(
                    f"axis length {L} cannot hold the domain plus margin {delta + ell}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "ell", ell)

    @classmethod
    def cubic(cls, delta: float, ell: float, d: int) -> "BoxDomain":
        delta, ell, d = as_real(delta, "delta", zero=True), as_real(ell, "ell"), as_dimension(d)
        return cls(delta=delta, ell=ell, lengths=(delta + ell,) * d, d=d)

    @property
    def length_max(self) -> float:
        return max(self.lengths)

    @property
    def length_min(self) -> float:
        return min(self.lengths)


_BC_KINDS = ("dirichlet", "neumann", "periodic", "robin")


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition on the extended box; Robin carries a coefficient."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in _BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}, "
                             f"expected one of {_BC_KINDS}")
        if self.kind == "robin":
            object.__setattr__(self, "beta", as_real(self.beta, "beta"))
        elif self.beta is not None:
            raise ValueError(f"beta is only meaningful for robin, got kind={self.kind!r}")

    @classmethod
    def dirichlet(cls) -> "BoundarySpec":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "BoundarySpec":
        return cls("neumann")

    @classmethod
    def periodic(cls) -> "BoundarySpec":
        return cls("periodic")

    @classmethod
    def robin(cls, beta: float) -> "BoundarySpec":
        return cls("robin", beta)


@dataclass(frozen=True)
class TruncationSpec:
    """Per-axis spectral index cap; the resolution rule is ceil(L/h) + 1."""

    kmax: int

    def __post_init__(self):
        object.__setattr__(self, "kmax", as_integer(self.kmax, "kmax", 0))

    @classmethod
    def from_resolution(cls, h: float, L: float) -> "TruncationSpec":
        h, L = as_real(h, "h"), as_real(L, "L")
        if not math.isfinite(L / h):
            raise ValueError(f"L / h must be finite, got h = {h!r}, L = {L!r}")
        return cls(kmax=int(math.ceil(L / h)) + 1)


def _robin_residual(a, c: float):
    """Normalized residual sin(a - 2 arctan(c / a)) of the Robin frequency equation, c = h * ell.

    Formed as ((1 - t^2) sin a - 2 t cos a) / (1 + t^2), t = c / a, which
    neither underflows at tiny c nor overflows before t^2 does.
    """
    t = c / a
    return ((1.0 - t * t) * np.sin(a) - 2.0 * t * np.cos(a)) / (1.0 + t * t)


@dataclass(frozen=True)
class RobinEigen1D:
    """First eigenpairs of -u'' on (0, ell_axis) with u'.n + h u = 0.

    ``alphas``, the only stored state, are the ascending dimensionless roots
    (frequency times interval length); root n lies inside ((n-1) pi, n pi),
    and its computed value within rounding of that: at extreme beta L it can
    equal fl((n-1) pi) or lie one float past fl(n pi).  With w = alpha /
    ell_axis and t = h / w = c / alpha, c = h ell_axis, the eigenfunction
    u(x) = cos(w x) + t sin(w x) = sqrt(1 + t^2) cos(w x - arctan t)
    (``evaluate``) has the squared L2 norm ``norms``, and the orthonormal
    mode is A cos(w x - arctan t) (``_robin_amplitude``).
    """

    h: float
    ell_axis: float
    alphas: np.ndarray

    @property
    def omegas(self) -> np.ndarray:
        return self.alphas / self.ell_axis

    @property
    def norms(self) -> np.ndarray:
        """Squared L2 norms ell/2 (1 + (h/w)^2) + h/w^2 of the eigenfunctions u."""
        omegas = self.omegas
        return self.ell_axis / 2.0 * (1.0 + (self.h / omegas) ** 2) + self.h / omegas ** 2

    def eigenvalue_residual(self) -> np.ndarray:
        """Normalized residual of the frequency equation at the roots."""
        return _robin_residual(self.alphas, self.h * self.ell_axis)

    def evaluate(self, x) -> np.ndarray:
        """Values of the eigenfunctions u, shape (count, len(x))."""
        c, x = self.h * self.ell_axis, np.atleast_1d(np.asarray(x, float))
        return _robin_modes(self.alphas, self.ell_axis, c, x, np.hypot(1.0, c / self.alphas))


def _robin_modes(alphas, ell_axis: float, c: float, x, amp) -> np.ndarray:
    """amp cos(w x - arctan(c / alpha)), w = alpha / ell_axis: a row per root, a column per x."""
    ang = np.multiply.outer(x, alphas / ell_axis)
    ang -= np.arctan(c / alphas)
    np.cos(ang, out=ang)
    ang *= amp
    return ang.T


def _robin_amplitude(alphas, ell_axis: float, c: float) -> np.ndarray:
    """A^2 = (1 + (c/a)^2) / ||u||^2 = (2/L) / (1 + 2c / (a^2 + c^2)); an inf c^2 is harmless."""
    return np.sqrt(2.0 / ell_axis / (1.0 + 2.0 * c / (alphas * alphas + c * c)))


# Newton steps a Robin root may take (it takes at most 10 from beta L = 1e-315 to 1e154)
_NEWTON_STEPS = 32
# fl(pi) = _PI_HEAD + _PI_TAIL, each of 24 bits, so k _PI_HEAD and k _PI_TAIL are
# exact for integers k < 2^29; _PI_REST = fl(pi - fl(pi))
_PI_HEAD, _PI_TAIL = 3.1415926218032837, 3.1786509424591713e-08
_PI_REST = 1.2246467991473532e-16
# roots per block of robin_eigen_1d on the block pool
_ROOT_BLOCK = 2 ** 14


def _robin_newton(a, lo, err, c: float):
    """Newton's method on F(a) = a - lo - err - 2 arctan(c / a), lo + err = (n-1) pi.

    Each root climbs from below (``robin_eigen_1d``) to its first step that
    does not increase it, or ``_NEWTON_STEPS``.  Updates ``a`` in place and returns it."""
    for _ in range(_NEWTON_STEPS):
        new = a - (a - lo - err - 2.0 * np.arctan(c / a)) / (1.0 + 2.0 * c / (a * a + c * c))
        grow = new > a
        if not grow.any():
            break
        np.copyto(a, new, where=grow)
    return a


def robin_eigen_1d(h: float, ell_axis: float, count: int) -> RobinEigen1D:
    """Solve the 1-d Robin eigenvalue problem for the first ``count`` modes.

    The frequency equation (a^2 - c^2) sin a = 2 c a cos a, c = h*ell, is
    derived from u'(0) = h u(0), u'(ell) = -h u(ell).  Its normalized
    residual is sin(a - 2 arctan(c / a)), so root n lies in ((n-1) pi, n pi)
    and solves F(a) = a - (n-1) pi - 2 arctan(c / a) = 0.

    F is increasing and concave on a > 0 (F' = 1 + 2c / (a^2 + c^2),
    F'' < 0), so Newton's method started below a root stays below it and
    climbs to it monotonically (``_robin_newton``).  Root n >= 2 starts at
    lo = fl((n-1) pi), root 1 at 0.1 sqrt(2c / (1 + c)), below its root
    (about sqrt(2c) for small c, pi for large).  F takes (n-1) pi as lo plus
    its rounding error (from a three-part split of pi), so a root does not
    inherit the half ulp by which lo misses (n-1) pi.  Each root stops at
    its first step that does not increase it, and every step is
    elementwise, so a root depends on c and n alone, in any block, count or
    thread.  Against 40-digit references the roots err by at most 0.86 ulp.

    One rule refuses: a root whose normalized residual r (``_robin_residual``)
    misses |r(a)| <= min(max(1e-12, 2 ulp(a)), 4 ulp(a)) raises
    ``ConvergenceError``, naming the root, or saying "not finite" where r is
    (beta L above about 4e154, where (beta L / a)^2 overflows at root 1, or
    beta L of 0 or a few subnormals).  Roots return for beta L from 2.2e-308
    (and into the subnormals, while they pass) to 4e154.  They run in blocks of
    ``_ROOT_BLOCK`` on the block pool, each returning its roots; the rest is
    closed form in them (``RobinEigen1D``).
    """
    h, ell_axis = as_real(h, "h"), as_real(ell_axis, "ell_axis")
    count, c = as_integer(count, "count", 1), h * ell_axis

    def block(first):
        """The roots n = first + 1, ... of one block, checked."""
        k = np.arange(first, min(first + _ROOT_BLOCK, count), dtype=float)
        lo = k * math.pi
        err = k * _PI_HEAD - lo  # exact, and k pi - lo to about 2^-53 of itself below
        err += k * _PI_TAIL
        err += k * _PI_REST
        with np.errstate(all="ignore"):  # a non-finite value is refused below
            alphas = lo.copy()
            if not first:
                alphas[0] = 0.1 * math.sqrt(2.0 * c / (1.0 + c))
            alphas = _robin_newton(alphas, lo, err, c)
            resid = np.abs(_robin_residual(alphas, c))
        if not np.all(np.isfinite(resid)):
            raise ConvergenceError(f"Robin frequency equation not finite for h*ell = {c}")
        ulp = np.spacing(alphas)
        fail = ~(resid <= np.minimum(np.maximum(1e-12, 2.0 * ulp), 4.0 * ulp))
        if np.any(fail):
            raise ConvergenceError(f"Robin root {first + 1 + int(np.argmax(fail))} fails its "
                                   f"residual check for h*ell = {c}")
        return alphas

    blocks = _map_blocks(block, range(0, count, _ROOT_BLOCK))
    return RobinEigen1D(h=h, ell_axis=ell_axis, alphas=np.concatenate(list(blocks)))


# 8 bytes a root (0.8 MB at kmax 1e5), reused by a modal sum or sampler check on every axis
@lru_cache(maxsize=8)
def _robin_cached(h: float, ell_axis: float, count: int) -> RobinEigen1D:
    return robin_eigen_1d(h, ell_axis, count)


def _axis_mode_blocks(bc: BoundarySpec, L: float, kmax: int, coords: np.ndarray):
    """Per-axis squared frequencies and orthonormal mode values at coords.

    Returns (block, starts): ``block(s)`` gives the row block (mu, V) of the
    table that starts at s, V of shape (modes, coordinates), and the blocks
    of ``starts``, in order, make up the table.  Each holds about
    ``_BLOCK_VALUES`` values (at least one anchor or one root).  Mode order
    along one axis: Dirichlet k = 1..kmax; Neumann k = 0..kmax; periodic
    [const, cos_1, sin_1, ..., cos_kmax, sin_kmax]; Robin n = 1..kmax+1.
    Each block is a transposed view: the modes of one coordinate are
    contiguous.

    D/N/P values are amp * trig(k t), t = freq x / L, by angle addition.
    With k = q B + r, B = isqrt(kmax) + 1, cos and sin are taken at the
    anchors b = q B t and the offsets a = r t alone, each angle formed as
    fl(fl(fl(k x) freq) / L) like the direct one: trig on
    2 n (B + kmax // B + 1) arguments instead of n kmax.  Then
    cos(b + a) = cos b cos a - sin b sin a, sin(b + a) = sin b cos a +
    cos b sin a, and amp last.  Rows k < B and k = q B keep the bits of
    amp * trig(fl(fl(fl(k x) freq) / L)), since cos 0 = 1 and sin 0 = 0
    exactly; the others move by rounding only (README, numerical notes).
    Robin values are A cos(w x - theta), one cosine and one amplitude each
    (``RobinEigen1D``).  A D/N/P block is a run of whole anchors q, a Robin
    block a run of roots; every value is formed elementwise, so no row
    depends on the blocking.  Callers map ``block`` over ``starts`` on the
    block pool (``_blocks._map_blocks``).
    """
    if kmax > _MAX_KMAX:
        raise ValueError(f"kmax {kmax} exceeds 2^53, the largest index cap a mode table "
                         "forms exactly")
    x = np.asarray(coords, dtype=float)
    n = max(x.size, 1)
    if bc.kind == "robin":
        eig = _robin_cached(bc.beta, L, kmax + 1)
        c = eig.h * eig.ell_axis
        rows = max(1, _BLOCK_VALUES // n)

        def robin_block(i):
            a = eig.alphas[i:i + rows]
            return (a / L) ** 2, _robin_modes(a, L, c, x, _robin_amplitude(a, L, c))

        return robin_block, range(0, kmax + 1, rows)
    freq = 2.0 * math.pi if bc.kind == "periodic" else np.pi
    step = math.isqrt(kmax) + 1

    def cos_sin(m, axis):
        ang = np.multiply.outer(x, m)
        ang *= freq
        ang /= L
        return np.expand_dims(np.cos(ang), axis), np.expand_dims(np.sin(ang), axis)

    # [:, q, r] holds k = q step + r, so the combination runs along the long
    # offset axis r; each block takes its own anchors
    ca, sa = cos_sin(np.arange(step, dtype=float), 1)
    multiples = np.arange(0, kmax + 1, step, dtype=float)
    # periodic: cos_k and sin_k at offsets 2k and 2k + 1 of a coordinate's row
    pair = 2 if bc.kind == "periodic" else 1
    anchors = max(1, _BLOCK_VALUES // (n * step * pair))

    def anchor_block(q):
        cb, sb = cos_sin(multiples[q:q + anchors], 2)
        width = cb.shape[1]
        flat = np.empty((x.size, width * step * pair))
        grid = flat.reshape(x.size, width, step, pair)
        cos_k, sin_k = grid[..., 0], grid[..., pair - 1]
        t = np.empty(cos_k.shape)
        if bc.kind != "dirichlet":
            np.multiply(cb, ca, out=cos_k)
            cos_k -= np.multiply(sb, sa, out=t)
        if bc.kind != "neumann":
            np.multiply(sb, ca, out=sin_k)
            sin_k += np.multiply(cb, sa, out=t)
        k = np.arange(q * step, min((q + width) * step, kmax + 1), dtype=float)
        # block 0 drops sin 0 (Dirichlet) or cos 0 (periodic: the constant takes sin 0's row)
        cut = 0 if q or bc.kind == "neumann" else 1
        vals = flat[:, cut:pair * k.size].T
        vals *= math.sqrt(2.0 / L)
        if q == 0 and bc.kind != "dirichlet":
            vals[0] = math.sqrt(1.0 / L)  # the constant mode (periodic: in place of sin 0)
        return np.repeat((freq * k / L) ** 2, pair)[cut:], vals

    return anchor_block, range(0, multiples.size, anchors)


def _axis_mu_values(bc: BoundarySpec, L: float, kmax: int, coords: np.ndarray):
    """The whole per-axis table (mu, V) of ``_axis_mode_blocks``, its blocks copied in turn."""
    block, starts = _axis_mode_blocks(bc, L, kmax, coords)
    rows = {"dirichlet": kmax, "periodic": 2 * kmax + 1}.get(bc.kind, kmax + 1)
    mu, V = np.empty(rows), np.empty((rows, np.size(coords)), order="F")  # the blocks' layout
    i = 0
    for m, v in _map_blocks(block, starts):
        mu[i:i + m.size], V[i:i + m.size] = m, v
        i += m.size
    return mu, V


def eigenpair(bc: BoundarySpec, k, box: BoxDomain, kappa: float):
    """Eigenvalue of (I - kappa^-2 Lap) and its orthonormal eigenfunction.

    ``k`` is a per-axis multi-index: positive integers for Dirichlet and
    Robin, nonnegative for Neumann.  For periodic conditions the complex
    exponential pair is realized as real modes: index j >= 0 selects the
    cosine mode of frequency j (j = 0 the constant), j < 0 the sine mode of
    frequency |j|.  Each axis factor is one row of the per-axis mode table
    that the modal sums use.
    """
    kt = tuple(np.atleast_1d(np.asarray(k, dtype=object)))  # each entry of its own type
    if len(kt) != box.d:
        raise ValueError(f"multi-index must have {box.d} entries, got {kt}")
    kappa = as_real(kappa, "kappa")
    least = {"neumann": 0, "periodic": None}.get(bc.kind, 1)
    mu_total = 0.0
    rows = []
    for i, L in enumerate(box.lengths):
        ki = as_integer(kt[i], f"k[{i}]", least)
        if bc.kind == "neumann":
            kmax, row = ki, ki
        elif bc.kind == "periodic":
            kmax, row = abs(ki), (2 * ki - 1 if ki > 0 else -2 * ki)
        else:
            # the Robin table holds kmax + 1 modes, the Dirichlet one kmax
            kmax, row = (ki - 1 if bc.kind == "robin" else ki), ki - 1
        mu_total += float(_axis_mu_values(bc, L, kmax, np.empty(0))[0][row])
        rows.append((L, kmax, row))
    lam = 1.0 + mu_total / kappa ** 2

    def w_fn(point):
        p = as_points(point, box.d)
        out = np.ones(p.shape[0])
        for i, (L, kmax, row) in enumerate(rows):
            out = out * _axis_mu_values(bc, L, kmax, p[:, i])[1][row]
        return out if out.size > 1 else float(out[0])

    return lam, w_fn


def spectral_tail_bound(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                        kmax: int) -> float:
    """Certified bound on the modal mass discarded beyond the index cap.

    Uses |w_k(x) w_k(y)| <= prod_i (2/L_i) and an integral majorant of the
    lattice sum of lambda^(-alpha) over the discarded indices; the majorant
    is valid because the summand decreases radially and each discarded index
    owns a unit cell no closer to the origin than radius kmax.  The radial
    integrand (1 + (b r)^2)^(-alpha) r^(j-1) is bounded by its value at the
    cap K up to the knee R = max(K, 1/b) and by (b r)^(-2 alpha) r^(j-1)
    beyond, which integrate in closed form.  The first part is empty where
    K >= 1/b, so (b K)^2 is formed only below the knee; the second,
    b^(-2 alpha) R^(j - 2 alpha), is formed as one exp of a log sum where
    its powers leave the normal float range (huge kmax, large nu), so any
    kmax gives a finite tail that is 0 only below the float range.
    """
    kmax = as_integer(kmax, "kmax", 0)
    check_dimension(params, box)
    d = box.d
    amp = 1.0
    for L in box.lengths:
        amp *= 2.0 / L
    freq = 2.0 * math.pi if bc.kind == "periodic" else math.pi
    mult = 2.0 ** d if bc.kind == "periodic" else 1.0
    b = freq / (params.kappa * box.length_max)
    alpha = params.alpha
    K = max(kmax, 1)
    R = max(K, 1.0 / b)
    total = 0.0
    for j in range(1, d + 1):
        try:
            radial = b ** (-2.0 * alpha) * R ** (j - 2.0 * alpha)
        except OverflowError:  # b^(-2 alpha), or a kmax past the float range
            radial = 0.0
        if not radial >= np.finfo(float).tiny:
            radial = math.exp(-2.0 * alpha * math.log(b) + (j - 2.0 * alpha) * math.log(R))
        radial /= 2.0 * alpha - j
        if R > K:
            radial += (1.0 + (b * K) ** 2) ** (-alpha) * (R ** j - K ** j) / j
        total += math.comb(d, j) * _SPHERE_SURFACE[j] / 2.0 ** j * radial
    if kmax == 0:
        # the cells of the first shell are not covered by the radial
        # integral from K = 1; add them explicitly (lambda >= 1 + b^2)
        total += (3 ** d - 1) * (1.0 + b * b) ** (-alpha)
    return params.eta2 * amp * mult * total


def _check_points(params: MaternParams, box: BoxDomain, points) -> np.ndarray:
    """The points as ``as_points`` reads them, checked to lie in the closed box."""
    check_dimension(params, box)
    pts = as_points(points, box.d)
    for i, L in enumerate(box.lengths):
        if np.any(pts[:, i] < -1e-12) or np.any(pts[:, i] > L + 1e-12):
            raise ValueError(f"points must lie in the closed box, axis {i} "
                             f"range [0, {L}]")
    return pts


def _axis_pair_columns(bc: BoundarySpec, L: float, kmax: int, coords: np.ndarray,
                       iu) -> tuple:
    """One axis of the d >= 2 modal sum: (mu, G, col).

    G[:, c] holds the products w(x) w(y) of the axis modes, summed over each
    group of modes that share an eigenvalue mu (periodic cos_k and sin_k),
    for the c-th distinct unordered pair of coordinates.  Gram pair p,
    (iu[0][p], iu[1][p]), reads column col[p].
    """
    xs, inv = np.unique(coords, return_inverse=True)
    a, b = inv[iu[0]], inv[iu[1]]
    pairs, col = np.unique(np.minimum(a, b) * xs.size + np.maximum(a, b),
                           return_inverse=True)
    mu, V = _axis_mu_values(bc, L, kmax, xs)
    G = V[:, pairs // xs.size] * V[:, pairs % xs.size]
    if bc.kind == "periodic":  # [const, sin_1 + cos_1, ..., sin_kmax + cos_kmax]
        G[2::2] += G[1::2]
        return mu[::2], G[::2], col
    return mu, G, col


def _plain_gram(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                pts: np.ndarray, kmax: int) -> np.ndarray:
    """The truncated modal sum itself, contracted axis by axis.

    In d = 1 each block of the mode table forms its partial Gram
    V_b^T (w_b V_b) on the block pool and the partials are added in block
    order, so the table never exists whole; one triangle is mirrored.
    In d >= 2 the weights of the first two axes are formed in row blocks on
    the pool, each multiplied into its rows of W @ G2; each distinct pair of
    axis 1 and axis 2 columns is dotted once and scattered to the Gram pairs.
    """
    n = pts.shape[0]
    kappa2 = params.kappa ** 2
    alpha = params.alpha
    if box.d == 1:
        block, starts = _axis_mode_blocks(bc, box.lengths[0], kmax, pts[:, 0])

        def partial_gram(start):
            w, V = block(start)
            # eta2 (1 + mu / kappa2)^(-alpha) in place of mu
            w /= kappa2
            w += 1.0
            w **= -alpha
            w *= params.eta2
            # one coordinate's modes contiguous (a block in another layout is
            # copied and freed): on OpenBLAS this layout rounds about 4 times
            # less at kmax 1e5
            Vt = np.ascontiguousarray(V.T)
            del V
            # np.matmul's bits; two threads' np.matmul calls of these shapes
            # ran one after the other (numpy 2.4), np.dot's at once
            return np.dot(Vt, (w * Vt).T)

        gram = np.zeros((n, n))
        for part in _map_blocks(partial_gram, starts):
            gram += part
        iu = np.triu_indices(n, 1)
        gram.T[iu] = gram[iu]
        return gram
    iu = np.triu_indices(n)
    axes = [_axis_pair_columns(bc, box.lengths[i], kmax, pts[:, i], iu)
            for i in range(box.d)]
    (mu1, G1, col1), (mu2, G2, col2) = axes[:2]
    # the distinct (col1, col2) combinations the pairs read, combo[inv] per pair
    combo, inv = np.unique(col1 * G2.shape[1] + col2, return_inverse=True)
    c1, c2 = np.divmod(combo, G2.shape[1])
    WG = np.empty((mu1.size, G2.shape[1]))
    rows = max(1, _BLOCK_VALUES // max(mu2.size, 1))
    cols = max(1, _BLOCK_VALUES // max(mu1.size, 1))
    dots = np.empty(combo.size)
    vals = np.zeros(iu[0].size)
    # axes 1 and 2 contracted as a matrix product over their distinct
    # columns, axes 3.. summed eigenvalue by eigenvalue
    for idx in product(*(range(mu.size) for mu, _, _ in axes[2:])):
        shift = sum(mu[c] for (mu, _, _), c in zip(axes[2:], idx))

        def weight_rows(i, shift=shift):
            # eta2 (1 + mu / kappa2)^(-alpha) in place, a block of rows at a time
            W = mu1[i:i + rows, None] + mu2[None, :] + shift
            W /= kappa2
            W += 1.0
            W **= -alpha
            W *= params.eta2
            np.matmul(W, G2, out=WG[i:i + rows])

        for _ in _map_blocks(weight_rows, range(0, mu1.size, rows)):
            pass  # each block writes its own rows of WG
        # gathered columns are Fortran-ordered, so each dot runs down its own
        # column and has the same bits in any chunk
        for j in range(0, combo.size, cols):
            part = slice(j, j + cols)
            np.einsum("ip,ip->p", G1[:, c1[part]], WG[:, c2[part]], out=dots[part])
        term = dots[inv]
        for (_, g, col), c in zip(axes[2:], idx):
            term *= g[c, col]
        vals += term
    gram = np.empty((n, n))
    gram[iu] = vals
    gram.T[iu] = vals
    return gram


def plain_spectral_gram(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                        points, trunc: TruncationSpec) -> np.ndarray:
    """The plain truncated modal sum between all point pairs.

    eta^2 sum_k lambda_k^(-alpha) w_k(x) w_k(y) over the per-axis index cap,
    the covariance of the fields the sampler draws from the modes of
    ``mode_system``.  No tail: ``cov_spectral_gram`` certifies the error.
    """
    return _plain_gram(params, bc, box, _check_points(params, box, points), trunc.kmax)


def _robin_neumann_remainder(params: MaternParams, beta: float, L: float,
                            kmax: int) -> float:
    """Certified bound on sum_{k > kmax} |R_{k+1}(x, y) - N_k(x, y)| on (0, L).

    R_n and N_k are the d = 1 Robin and Neumann modal terms
    eta^2 lambda^(-alpha) w(x) w(y), paired as in ``cov_spectral_gram``.
    With c = beta L, the Robin root of mode k + 1 is a = k pi + 2 theta,
    theta = arctan(c / a) in (0, pi/2): the problem is symmetric about L/2,
    and u(x) = cos(a x / L - theta) meets both boundary conditions.  The
    orthonormal Robin mode is therefore (``_robin_amplitude``)
        A cos(k pi x / L + theta s),  s = 2x/L - 1 in [-1, 1],
        A^2 = (2/L) / (1 + 2c / (a^2 + c^2)),
    and, with f(t) = (1 + (t / (kappa L))^2)^(-alpha), for k >= 1
        |R_{k+1} - N_k| <= eta^2 (2/L) f(k pi) min(2, g_k),
        g_k = min(2, 2 theta_k) + min(1, 4 alpha theta_k / (k pi))
              + 2c / ((k pi)^2 + c^2 + 2c),  theta_k = arctan(c / (k pi)).
    The three parts of g_k bound the phase shift (|cos(u + t) - cos u| <= |t|
    per factor, |t| <= theta <= theta_k, with f(a) <= f(k pi) and
    A^2 <= 2/L), the eigenvalue shift (d ln f / dt >= -2 alpha / t gives
    f(a) >= f(k pi) (1 + 2 theta / (k pi))^(-2 alpha), then Bernoulli) and
    the amplitude deficit 2/L - A^2; the cap 2 is |R_{k+1}| + |N_k|.  Both
    f and g_k are nonincreasing in k, so the bound e_k is too: blocks
    [s, s + max(1, floor(s/32))) are bounded by their width times e_s, up to
    s >= min(64 (kmax + 1 + (kappa L + c) / pi), 2^62).  Beyond, e_k <= P(k)
    with the decreasing power majorant (theta_k <= c / (k pi),
    f(t) <= (kappa L / t)^(2 alpha))
        P(x) = eta^2 (2/L) (kappa L / (pi x))^(2 alpha)
               (2c / (pi x) + (4 alpha + 2) c / (pi x)^2),
    whose integral from s - 1 closes the sum.  The terms fall like
    k^(-2 alpha - 1), so the bound falls like kmax^(-2 alpha) once
    kmax pi exceeds c and kappa L.
    """
    alpha = params.alpha
    b = params.kappa * L
    c = beta * L
    amp = params.eta2 * 2.0 / L

    def bound(k):
        t = np.arctan(c / (math.pi * k))
        g = (np.minimum(2.0, 2.0 * t) + np.minimum(1.0, 4.0 * alpha * t / (math.pi * k))
             + 2.0 * c / ((math.pi * k) ** 2 + c * c + 2.0 * c))
        return amp * (1.0 + (math.pi * k / b) ** 2) ** (-alpha) * np.minimum(2.0, g)

    # any stop keeps the bound valid; the cap keeps the loop finite for huge c
    stop = min(64.0 * (kmax + 1 + (b + c) / math.pi), 2.0 ** 62)
    starts = [kmax + 1]
    while starts[-1] < stop:
        starts.append(starts[-1] + max(1, starts[-1] // 32))
    s = np.asarray(starts, dtype=float)
    total = float(np.dot(np.diff(s), bound(s[:-1])))
    y = s[-1] - 1.0
    scale = math.exp(2.0 * alpha * math.log(b / (math.pi * y)))
    total += amp * scale * (2.0 * c / math.pi / (2.0 * alpha)
                            + (4.0 * alpha + 2.0) * c / math.pi ** 2
                            / ((2.0 * alpha + 1.0) * y))
    return total


def cov_spectral_gram(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                      points, trunc: TruncationSpec):
    """Modal covariance between all point pairs, with a certified tail.

    Returns (gram, tail_bound): the symmetric n x n matrix of covariance
    values and the certified bound on its error (a single number valid
    uniformly over the box).  Dirichlet, Neumann and periodic conditions,
    and Robin in d = 2, 3, give the plain sum over the per-axis index cap
    with the truncation tail of ``spectral_tail_bound``.

    Robin in d = 1 is accelerated with the exact Neumann covariance:
        C_R = C_N^folded + sum_{k <= kmax} (R_{k+1} - N_k),
    the folded image sum plus the Robin-minus-Neumann modal differences
    over the same index cap (Robin modes n = 1..kmax+1 against Neumann
    k = 0..kmax).  Its tail is the folded sum's certified remainder plus
    ``_robin_neumann_remainder``, which falls like kmax^(-2 alpha) instead
    of the plain kmax^(1 - 2 alpha).  Of the two routes the one with the
    smaller tail is returned.  The Neumann image radius is the smallest
    whose folded remainder meets the Robin remainder where that is below
    1e-8 sigma^2 (``folded._gram``'s ``tol``), so the accelerated tail keeps
    falling past the default image tolerance; where no radius up to 128
    brings the folded remainder down to the Robin remainder, the default
    radius is kept.  The plain sum wins where beta L is far above kmax pi
    (the remainder charges up to twice each omitted Neumann term), at the
    smallest kmax, and where the default radius's folded remainder, near
    1e-8 sigma^2, lies above the plain tail (rho far beyond the box at
    large kmax).  In d >= 2 the per-index pairing leaves O(1)
    differences whenever one axis index is large and another small, so it
    would not shrink the remainder.  The samplers draw from the plain sum;
    ``plain_spectral_gram`` and ``mode_system`` give it.
    """
    pts = _check_points(params, box, points)
    kmax = trunc.kmax
    gram = _plain_gram(params, bc, box, pts, kmax)
    tail = spectral_tail_bound(params, bc, box, kmax)
    if bc.kind == "robin" and box.d == 1:
        rest = _robin_neumann_remainder(params, bc.beta, box.lengths[0], kmax)
        if rest < tail:
            try:  # the Neumann image radius for rest, capped at the default tolerance
                fold, fold_tail = _gram(params, box, "neumann", pts, tol=rest)
            except ValueError:  # no image radius certifies the Neumann sum
                fold, fold_tail = None, math.inf
            if fold_tail + rest < tail:
                diff = gram - _plain_gram(params, BoundarySpec.neumann(), box, pts, kmax)
                return fold + diff, fold_tail + rest
    return gram, tail


def cov_spectral(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                 x, y, trunc: TruncationSpec) -> float:
    """Modal covariance between two points of the closed box.

    The pair's entry of ``cov_spectral_gram``: the plain truncated sum, or
    for Robin in d = 1 the Neumann-accelerated sum where its tail is smaller.
    """
    pts = np.concatenate([as_points(x, box.d, 1, "x"), as_points(y, box.d, 1, "y")])
    gram, _ = cov_spectral_gram(params, bc, box, pts, trunc)
    return float(gram[0, 1])


def mode_system(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                points, trunc: TruncationSpec):
    """Explicit tensor-product mode system at the given points.

    Returns (lam, W): eigenvalues lam (m,) of (I - kappa^-2 Lap) and the
    matrix W (m, n) of orthonormal eigenfunction values, modes enumerated
    lexicographically with axis 0 slowest (per-axis order as documented in
    the axis builder).  Intended for sampling; memory grows like the product
    of per-axis mode counts.
    """
    pts = _check_points(params, box, points)
    kmax = trunc.kmax
    axes = [_axis_mu_values(bc, box.lengths[i], kmax, pts[:, i])
            for i in range(box.d)]
    sizes = [a[0].size for a in axes]
    m_total = int(np.prod(sizes))
    if m_total * pts.shape[0] > 2 * 10 ** 8:
        raise ValueError(f"mode system too large: {m_total} modes at "
                         f"{pts.shape[0]} points")
    mu_total = np.zeros(1)
    W = np.ones((1, pts.shape[0]))
    for mu, V in axes:
        mu_total = (mu_total[:, None] + mu[None, :]).reshape(-1)
        W = (W[:, None, :] * V[None, :, :]).reshape(-1, pts.shape[0])
    lam = 1.0 + mu_total / params.kappa ** 2
    return lam, W
