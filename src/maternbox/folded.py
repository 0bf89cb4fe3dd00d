"""Exact covariances on the truncated box as lattice image sums.

Truncating the sampling domain aliases the free-space kernel: the periodic
covariance is the kernel summed over the translation lattice, and the
Neumann / Dirichlet covariances add sign-reflected copies with twice the
period.  These closed forms are exact, so they serve both as the
independent oracle for the spectral expansion and as the fast path for
error curves.

Every sum carries a certified bound on the images it omitted, built from
the geometric domination M(a + b) <= M(a) * f(b) of the kernel family; a
sum without a quantified remainder is not usable as a reference value.

One engine sums the images of a list of point pairs: the Gram passes its
upper-triangle pairs, the pair functions the single pair (x, y).  Images
are formed once per distinct |x - eps.y| row (componentwise); that is
exact because the lattice offsets are symmetric, IEEE negation is exact
and every sum is exactly rounded: long rows are summed by exact integer
bucket sums per binary exponent (``_row_fsums``), whose ``math.fsum`` is
the ``math.fsum`` of the row, bit for bit.  Where the first two axes share
a period, rows (a, b, ...) and (b, a, ...) have the same image distances bit
for bit (axis 1 is added to axis 0 first, and addition commutes), so they
share one row.  The rows are split into one run per thread of the block pool
(``_blocks``), and each run is one pool block: it forms its distances,
evaluates the kernel once per distinct image distance of its own and
returns its row sums, streaming its rows in chunks of at most
``_CHUNK_IMAGES`` images.  The tail adds, over the reflection families,
the remainder at that family's largest pair separation, so a one-point Gram
certifies exactly what the pair function does.  The default radius is the
smallest whose tail, that same per-family sum, meets the tolerance; the
search and the returned tail read one shell table (``_Tails``).  Points
(``matern.as_points``) may lie outside the box: a periodic sum takes any
finite point, while pair separations stay within ``_MAX_SHELLS`` smallest
periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from ._blocks import _block_pool, _map_blocks
from .matern import (MaternParams, _unit_matern, as_integer, as_points, check_dimension,
                     decay_factor, unit_matern)

if TYPE_CHECKING:
    from .spectral import BoxDomain

__all__ = [
    "ImageSum",
    "SignVector",
    "cov_folded",
    "cov_folded_dirichlet",
    "cov_folded_gram",
    "cov_folded_neumann",
    "cov_folded_periodic",
    "image_tail_bound",
    "pick_radius",
    "sign_vectors",
]

_DEFAULT_TAIL_FACTOR = 1e-8
_MAX_RADIUS = 128
_CLOSURE_SHELLS = 48
# shells per kernel call of a radius search: radii up to 47 take one call
_TAIL_BLOCK = 2 * _CLOSURE_SHELLS
# magnitudes whose bucket sums scale exactly (see _row_fsums)
_SUM_MIN = 2.0 ** -960
_SUM_MAX = 2.0 ** 960
# images in one chunk of a run's rows, so the most one row may have (d = 3 up
# to radius 63); 16 MB of squared distances per pool thread
_CHUNK_IMAGES = 2 ** 21
# pair separations, in smallest periods, the image sums take: shell indices
# stay exact integers, and their powers in the tail stay finite
_MAX_SHELLS = 2.0 ** 53


@dataclass(frozen=True)
class ImageSum:
    """Value of a truncated image sum plus a certified remainder bound."""

    radius: int
    value: float
    tail_bound: float


@dataclass(frozen=True)
class SignVector:
    """One reflection pattern eps in {-1, +1}^d."""

    eps: tuple

    def __post_init__(self):
        if not all(e in (-1, 1) for e in self.eps):
            raise ValueError(f"sign entries must be -1 or +1, got {self.eps}")
        object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))

    @property
    def parity(self) -> int:
        return int(np.prod(self.eps))


def sign_vectors(d: int):
    """All 2^d reflection patterns, identity first."""
    return [SignVector(eps) for eps in product((1, -1), repeat=d)]


def _families(params: MaternParams, box: BoxDomain, kind: str):
    """Reflection signs (F, d), identity first, and per-axis periods.

    Periodic: the identity with periods L; Neumann, Dirichlet: all 2^d with 2L.
    """
    check_dimension(params, box)
    lengths = np.asarray(box.lengths, dtype=float)
    if kind == "periodic":
        return np.ones((1, box.d)), lengths
    if kind in ("neumann", "dirichlet"):
        return np.array([s.eps for s in sign_vectors(box.d)], dtype=float), 2.0 * lengths
    raise ValueError(f"no closed image sum for boundary kind {kind!r}")


class _Tails:
    """Certified bounds on the kernel mass of all images beyond a radius.

    ``seps`` holds one sup-norm separation per reflection family, whose image
    j shell sits at distance >= j * period_min - sep.  The first shells are
    summed with exact counts, the rest closed at the next shell (the anchor)
    with the geometric factor f(period_min) and the count (3j)^(d-1).

    Shells at a nonpositive distance read 1.  Per family these are shells
    1 .. ``dead``; those beyond the radius have counts (2j+1)^d - (2j-1)^d
    that telescope to one closed form, so only the 49 shells from the
    first one past both the radius and ``dead`` meet the kernel, and the
    anchor is the first of radius + 1 + 48 t, t >= 1, among them.  A tail
    thus costs O(radius + 48) at any finite separation.

    f(period_min) is evaluated once per instance, and the kernel once per
    block of 96 shells, so a radius search (``pick``) and the tail it returns
    read one table.  The search evaluates the candidate radii the table
    holds at once; each radius gets the same terms, summed as one row of
    families x shells, so its tail does not depend on which radii were
    asked before or are evaluated with it.
    """

    def __init__(self, params: MaternParams, period_min: float, seps):
        self.params = params
        self.period_min = period_min
        self.seps = np.asarray(seps, dtype=float)
        self.f = float(decay_factor(params.nu, params.kappa, period_min))
        # per family the last shell j with fl(j * period_min) - sep <= 0, 0 if none;
        # a shell count past the float range reads the largest float, and the
        # tails, whose counts of such shells then overflow, inf
        with np.errstate(over="ignore"):
            dead = np.floor(np.minimum(self.seps / period_min, np.finfo(float).max))
        dead += (dead + 1.0) * period_min - self.seps <= 0
        dead -= (dead >= 1) & (dead * period_min - self.seps > 0)
        self.dead = dead
        self.kernel = np.ones((self.seps.size, 0))  # column k holds shell dead + 1 + k

    def _table(self, need: int) -> np.ndarray:
        """The kernel table, grown by blocks of 96 shells to hold ``need`` per family."""
        have = self.kernel.shape[1]
        if need > have:
            ks = np.arange(have, max(need, have + _TAIL_BLOCK), dtype=float)
            dist = (self.dead[:, None] + 1.0 + ks) * self.period_min - self.seps[:, None]
            vals = np.ones(dist.shape)
            live = dist > 0  # false only beyond 2^53 periods, where dead + 1 + k rounds
            vals[live] = unit_matern(self.params.nu, self.params.kappa * dist[live])
            self.kernel = np.concatenate([self.kernel, vals], axis=1)
        return self.kernel

    def _skips(self, radii: np.ndarray):
        """Per radius and family the first shell past both the radius and
        ``dead``, and its column in the table."""
        first = np.maximum(radii[:, None], self.dead) + 1.0
        return first, first - self.dead - 1.0

    def _needs(self, radii: np.ndarray) -> np.ndarray:
        """The table columns each radius reads."""
        return self._skips(radii)[1].max(axis=1).astype(int) + _CLOSURE_SHELLS + 1

    def _tails(self, radii: np.ndarray) -> np.ndarray:
        """The tail of each integer radius in ``radii``; the table must hold
        their shells.  Each radius's terms are summed as one row, as one
        radius alone sums them.  A shell count or closure beyond the float
        range (a far separation in d >= 2) makes the tail inf."""
        d = self.params.d
        r = radii[:, None]
        first, skip = self._skips(radii)
        js = first[..., None] + np.arange(_CLOSURE_SHELLS + 1.0)
        cols = skip.astype(int)[..., None] + np.arange(_CLOSURE_SHELLS + 1)
        vals = self.kernel[np.arange(self.seps.size)[:, None], cols]
        # an overflowed count reads inf, and inf - inf or inf * 0 NaN, made inf below
        with np.errstate(over="ignore", invalid="ignore"):
            j_close = r + 1 + _CLOSURE_SHELLS * np.maximum(
                1.0, np.ceil((first - r - 1) / _CLOSURE_SHELLS))
            # sum_{j >= J} 2d (3j)^(d-1) f^(j-J) <= 2d (3J)^(d-1) (d-1)! / (1-f)^d
            closure = ((3.0 * j_close) ** (d - 1) * 2.0 * d * math.factorial(d - 1)
                       / (1.0 - self.f) ** d)
            weight = np.where(js < j_close[..., None], (2 * js + 1) ** d - (2 * js - 1) ** d, 0.0)
            weight = np.where(js == j_close[..., None], closure[..., None], weight)
            ones = (2 * first - 1) ** d - (2 * r + 1) ** d  # shells radius + 1 .. dead
            terms = (weight * vals).reshape(len(radii), -1)
            tails = self.params.sigma2 * (np.sum(ones, axis=1) + np.sum(terms, axis=1))
        return np.where(np.isnan(tails), np.inf, tails)

    def __call__(self, radius: int) -> float:
        radii = np.array([radius])
        self._table(self._needs(radii)[0])
        return float(self._tails(radii)[0])

    def pick(self, tol: float, fallback: float = -math.inf) -> int:
        """Smallest radius up to 128 whose tail is <= tol, else the smallest
        whose tail is <= ``fallback``, else ``ValueError``.

        The radii are evaluated in runs that the table holds, and the table
        grows when the next radius needs it, as a radius-by-radius search
        grows it."""
        radii = np.arange(1, _MAX_RADIUS + 1)
        need = self._needs(radii)
        backup = None
        lo = 0
        while lo < radii.size:
            have = self._table(need[lo]).shape[1]
            hi = int(np.searchsorted(need, have, side="right"))
            tails = self._tails(radii[lo:hi])
            hits = np.flatnonzero(tails <= tol)
            if hits.size:
                return int(radii[lo + hits[0]])
            if backup is None and np.any(tails <= fallback):
                backup = int(radii[lo + np.argmax(tails <= fallback)])
            lo = hi
        if backup is None:
            raise ValueError(f"no radius up to {_MAX_RADIUS} certifies a tail below {tol}; "
                             "pass an explicit radius")
        return backup


def _family_tails(params: MaternParams, box: BoxDomain, bc: str, separation_inf) -> _Tails:
    """Tails at one separation per reflection family, or one for all; None: the largest period."""
    families, periods = _families(params, box, bc)
    if separation_inf is None:
        separation_inf = periods.max()
    seps = np.broadcast_to(np.asarray(separation_inf, dtype=float), (len(families),))
    # below 0 the tail bounds no pair; at inf no shell is left to close the sum at
    if not np.all(np.isfinite(seps) & (seps >= 0)):
        raise ValueError(f"separation_inf must be finite and >= 0, got {separation_inf!r}")
    return _Tails(params, float(periods.min()), seps)


def image_tail_bound(params: MaternParams, box: BoxDomain, radius: int, *,
                     bc: str = "periodic", separation_inf=0.0) -> float:
    """Certified bound on the omitted images of a folded covariance.

    ``separation_inf`` is the sup-norm of x - eps.y for the pair in question,
    one value per reflection family or one for all; the default 0 covers
    coincident points.  Periodic folding has the box lengths as periods,
    Neumann/Dirichlet the 2^d reflection families with doubled periods.
    """
    return _family_tails(params, box, bc, separation_inf)(as_integer(radius, "radius", 1))


def pick_radius(params: MaternParams, box: BoxDomain, bc: str = "periodic", *,
                separation_inf=None, tol: float | None = None) -> int:
    """Smallest image radius whose certified tail is below the tolerance.

    ``separation_inf`` as in ``image_tail_bound``, by default the largest
    period; each candidate's tail is the one ``image_tail_bound`` returns.
    """
    if tol is None:
        tol = _DEFAULT_TAIL_FACTOR * params.sigma2
    return _family_tails(params, box, bc, separation_inf).pick(tol)


def _row_fsums(values: np.ndarray, inv: np.ndarray, counts: np.ndarray, row: np.ndarray,
               n_rows: int) -> np.ndarray:
    """``math.fsum`` of each row's images, bit for bit.

    Row ``row[e]`` holds ``counts[e]`` images of value ``values[inv[e]]``;
    ``row`` is nondecreasing and every row has the same number of images.
    Each value is m * 2^(e-53) with an integer significand |m| < 2^53,
    split as m = hi * 2^26 + lo into integers below 2^27.  Per (row,
    exponent) the hi and the lo times their counts are summed with
    ``np.bincount``, one bucket per exponent from the smallest to the
    largest (zero reads exponent 0 and adds nothing); with fewer than 2^26
    images per row every such sum is an integer below 2^53, so it is exact
    in float64, and so is its scaling by 2^(e-27) or 2^(e-53) while every
    nonzero |value| lies in [2^-960, 2^960].  The row's exact sum is then
    the sum of these scaled bucket sums, and ``math.fsum`` rounds either
    list to the same correctly rounded number.  Rows with no more images
    than bucket terms, or values out of that range, go straight to
    ``math.fsum``.  Only the distinct values are decomposed.
    """
    n_images = int(counts.sum()) // n_rows
    frac, exps = np.frexp(values)
    low = int(exps.min())
    n_buckets = int(exps.max()) - low + 1
    mag = np.abs(values)
    scalable = np.all((mag == 0.0) | ((mag >= _SUM_MIN) & (mag <= _SUM_MAX)))
    if not (scalable and 2 * n_buckets < n_images < 2 ** 26):
        images = np.repeat(values[inv], counts).reshape(n_rows, n_images)
        return np.array([math.fsum(k.tolist()) for k in images])
    m = np.ldexp(frac, 53)
    hi = np.floor(np.ldexp(m, -26))
    lo = m - np.ldexp(hi, 26)
    key = exps[inv] - low
    key += row * n_buckets
    bucket_exps = np.arange(low, low + n_buckets)
    sums = []
    for half, scale in ((hi, 27), (lo, 53)):
        weights = half[inv]
        weights *= counts
        sums.append(np.ldexp(np.bincount(key, weights, n_rows * n_buckets).reshape(n_rows, -1),
                             bucket_exps - scale))
    terms = np.concatenate(sums, axis=1)
    return np.array([math.fsum(t.tolist()) for t in terms])


def _row_distances(rows: np.ndarray, periods: np.ndarray, radius: int, dropped: np.ndarray):
    """Distinct squared image distances of each row, deduplicated across rows.

    Returns (dist2, inv, counts, row): row ``row[e]`` has ``counts[e]``
    images at squared distance ``dist2[inv[e]]``, and ``row`` is
    nondecreasing.  A row's squared distances are per-axis outer sums of
    (u_a + k_a P_a)^2 over |k_a| <= radius, added in axis order as
    ``np.sum`` adds them.  The zero shift of each ``dropped`` row gets
    squared distance -1, below every real one.
    """
    n_rows = len(rows)
    shifts = np.arange(-radius, radius + 1, dtype=float)
    r2 = np.zeros(n_rows)
    for a in range(len(periods)):  # ((0 + s_0) + s_1) + s_2
        t = rows[:, a, None] + shifts * periods[a]
        r2 = r2[..., None] + (t * t).reshape((n_rows,) + (1,) * a + (shifts.size,))
    r2 = r2.reshape(n_rows, -1)  # the zero shift sits in the middle
    r2[dropped, r2.shape[1] // 2] = -1.0
    r2.sort(axis=1)
    first = np.ones(r2.shape, dtype=bool)
    first[:, 1:] = r2[:, 1:] != r2[:, :-1]
    starts = np.flatnonzero(first)
    entries = r2.ravel()[starts]
    n_images, size = r2.shape[1], r2.size
    del r2, first  # freed before the sort inside np.unique
    dist2, inv = np.unique(entries, return_inverse=True)
    return dist2, inv, np.diff(np.append(starts, size)), starts // n_images


def _run_sums(params: MaternParams, rows: np.ndarray, periods: np.ndarray, radius: int,
              dropped: np.ndarray) -> np.ndarray:
    """The exactly rounded image sum of each row of a run, in row order.

    The rows go in chunks of at most ``_CHUNK_IMAGES`` images; each chunk
    forms its distances (``_row_distances``), evaluates the kernel once per
    distinct distance (distinct squared distances with one rounded square
    root share one value; the dropped zero shifts read 0) and is reduced to
    its row sums (``_row_fsums``) before the next begins.  The kernel goes
    through ``matern._unit_matern``: a block on the pool calls no public
    name.
    """
    per_chunk = _CHUNK_IMAGES // (2 * radius + 1) ** len(periods)
    sums = []
    for lo in range(0, len(rows), per_chunk):
        chunk = slice(lo, lo + per_chunk)
        dist2, inv, counts, row = _row_distances(rows[chunk], periods, radius, dropped[chunk])
        # dist2 is sorted, so equal square roots are adjacent: one kernel value each
        kept = dist2 >= 0.0
        r = np.sqrt(dist2[kept])
        first = np.ones(r.size, dtype=bool)
        first[1:] = r[1:] != r[:-1]
        mvals = np.zeros(dist2.size)
        mvals[kept] = (params.sigma2 * _unit_matern(params.nu, params.kappa * r[first]))[
            np.cumsum(first) - 1]
        del r, first  # freed before the row sums
        sums.append(_row_fsums(mvals, inv, counts, row, len(rows[chunk])))
    return np.concatenate(sums)


def _image_sums(params: MaternParams, box: BoxDomain, kind: str, pts: np.ndarray,
                pairs, radius: int | None, drop_identity: bool = False,
                tol: float | None = None):
    """Folded covariance of the point pairs (pts[i], pts[j]), (i, j) in ``pairs``.

    Returns (values, radius, tail).  Reflection eps contributes the images
    of u = x - eps.y, formed once per distinct |u| row: the offsets are
    symmetric per axis and IEEE negation is exact, so u and |u| have images
    at the same distances, bit for bit; with equal periods on axes 0 and 1
    the first two components are sorted, as (a, b, ...) and (b, a, ...)
    have the same distances too.  The rows are split into one run per pool
    thread, and each run is one pool block (``_run_sums``): it forms its
    rows' distinct image squared distances with their counts, evaluates
    the kernel once per distinct distance of its own and returns its
    exactly rounded row sums; the caller only concatenates them.  Each
    row's images, then each pair's signed family sums, are summed exactly
    rounded (``_row_fsums`` equals ``math.fsum`` of the row's images), and
    a kernel value does not depend on its batch, so neither the runs nor
    their chunks show in the result.  A row of more than ``_CHUNK_IMAGES``
    images raises ``ValueError``, as does a separation beyond
    ``_MAX_SHELLS`` smallest periods.  The tail sums, over the reflections,
    the certified remainder at that reflection's largest separation, which
    for a single pair is the pair's own remainder.  One ``_Tails`` table
    serves the radius search and the returned tail: the default radius is
    the smallest this tail certifies below ``tol`` capped at the default
    tolerance (``pick_radius``'s, and the tolerance itself when None), or
    below the default tolerance where no radius up to 128 meets that.  An
    explicit radius must be an integer >= 0.
    """
    d = params.d
    eps, periods = _families(params, box, kind)
    if radius is not None:
        radius = as_integer(radius, "radius", 0)
    i, j = (np.asarray(idx, dtype=int) for idx in pairs)
    with np.errstate(over="ignore"):  # an overflow reads inf, refused below
        u = np.abs(pts[i] - eps[:, None, :] * pts[j])  # (families, pairs, d)
    seps = u.max(axis=(1, 2))
    far = _MAX_SHELLS * float(periods.min())
    if not np.all(seps <= far):
        raise ValueError(f"pair separation {float(seps.max()):g} exceeds {far:g}, the largest "
                         "the image sums take (2^53 smallest periods)")
    tails = _Tails(params, float(periods.min()), seps)
    default = _DEFAULT_TAIL_FACTOR * params.sigma2
    if radius is None:
        radius = tails.pick(default if tol is None else min(tol, default), default)
    n_images = (2 * radius + 1) ** d
    if n_images > _CHUNK_IMAGES:
        raise ValueError(f"radius {radius} needs {n_images} images per row, above the "
                         f"{_CHUNK_IMAGES} the image sums hold at once")
    keys = u.reshape(-1, d)
    if d >= 2 and periods[0] == periods[1]:  # rows (a, b, ...) and (b, a, ...) share images
        keys = np.column_stack([np.sort(keys[:, :2], axis=1), keys[:, 2:]])
    if drop_identity:  # identity rows apart: only their zero shift is dropped
        keys = np.column_stack([keys, np.arange(len(keys)) < i.size])
    rows, row_of = np.unique(keys, axis=0, return_inverse=True)
    dropped = rows[:, -1] == 1 if drop_identity else np.zeros(len(rows), dtype=bool)
    # one run of rows per pool worker, each one block from distances to row sums
    runs = np.array_split(np.arange(len(rows)), min(_block_pool()[0], len(rows)))
    row_sums = np.concatenate(list(_map_blocks(
        lambda run: _run_sums(params, rows[run, :d], periods, radius, dropped[run]), runs)))
    sign = np.prod(eps, axis=1, keepdims=True) if kind == "dirichlet" else 1.0
    family_sums = sign * row_sums[row_of.reshape(u.shape[:2])]
    vals = np.array([math.fsum(col) for col in family_sums.T.tolist()])
    return vals, radius, tails(radius)


def cov_folded_periodic(params: MaternParams, box: BoxDomain, x, y,
                        radius: int | None = None) -> ImageSum:
    """Kernel summed over the translation lattice of the box (period L_i)."""
    return cov_folded(params, box, "periodic", x, y, radius)


def cov_folded_neumann(params: MaternParams, box: BoxDomain, x, y,
                       radius: int | None = None) -> ImageSum:
    """All 2^d reflected image families with period 2L, every term positive."""
    return cov_folded(params, box, "neumann", x, y, radius)


def cov_folded_dirichlet(params: MaternParams, box: BoxDomain, x, y,
                         radius: int | None = None) -> ImageSum:
    """Reflected image families weighted by the parity of the reflection.

    The tail certificate bounds the omitted images by absolute value; no
    cancellation credit is taken.
    """
    return cov_folded(params, box, "dirichlet", x, y, radius)


def cov_folded(params: MaternParams, box: BoxDomain, kind: str, x, y,
               radius: int | None = None) -> ImageSum:
    """Folded covariance for a Dirichlet/Neumann/periodic boundary."""
    pair = np.concatenate([as_points(x, params.d, 1, "x"), as_points(y, params.d, 1, "y")])
    vals, radius, tail = _image_sums(params, box, kind, pair, ([0], [1]), radius)
    return ImageSum(radius=radius, value=float(vals[0]), tail_bound=tail)


def cov_folded_gram(params: MaternParams, box: BoxDomain, kind: str, points,
                    radius: int | None = None, *, drop_identity: bool = False):
    """Folded covariance between all point pairs, vectorized.

    Returns (gram, tail_bound) with the tail a certified remainder valid for
    every pair: per reflection family, the remainder at the family's largest
    pair separation.  Kernel evaluations are deduplicated across pairs and
    images, and each pair's images are summed exactly rounded: the result
    is bitwise ``math.fsum`` of the images, whether long rows go through
    exact per-exponent bucket sums or straight to ``math.fsum``.

    With ``drop_identity`` the bare-kernel term (identity reflection, zero
    shift) is excluded, which yields the aliasing error C_folded - C directly;
    summing the non-identity images avoids the cancellation that otherwise
    floors tiny errors at the resolution of O(sigma^2) values.
    """
    return _gram(params, box, kind, as_points(points, params.d), radius, drop_identity)


def _gram(params: MaternParams, box: BoxDomain, kind: str, pts: np.ndarray,
          radius: int | None = None, drop_identity: bool = False, tol: float | None = None):
    """``cov_folded_gram`` of checked points, its default radius picked for ``tol``
    as in ``_image_sums``."""
    n = pts.shape[0]
    iu = np.triu_indices(n)
    vals, _, tail = _image_sums(params, box, kind, pts, iu, radius, drop_identity, tol)
    gram = np.empty((n, n))
    gram[iu] = vals
    gram.T[iu] = vals
    return gram, tail
