"""Image sums: structure, oracle agreement, tail certificates."""

import math
import re
import warnings
from itertools import permutations, product

import numpy as np
import pytest

from maternbox import _blocks, folded
from maternbox.folded import (
    ImageSum,
    SignVector,
    cov_folded,
    cov_folded_dirichlet,
    cov_folded_gram,
    cov_folded_neumann,
    cov_folded_periodic,
    image_tail_bound,
    pick_radius,
    sign_vectors,
)
from maternbox.matern import derive_params, matern_cov, unit_matern
from maternbox.spectral import BoundarySpec, BoxDomain, TruncationSpec, cov_spectral


def _p1():
    return derive_params(1.0, 0.1, 1.0, 1)


def test_sign_vectors():
    svs = sign_vectors(2)
    assert len(svs) == 4
    assert {s.parity for s in svs} == {-1, 1}
    assert SignVector((1, -1)).parity == -1
    with pytest.raises(ValueError):
        SignVector((0, 1))


def test_radius_zero_is_bare_kernel():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    got = cov_folded_periodic(p, box, [0.3], [0.8], radius=0)
    assert got.value == pytest.approx(matern_cov(p, [0.3], [0.8]), rel=1e-15)
    assert got.radius == 0


def test_periodic_diagonal_structure():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    L = box.lengths[0]
    for radius in (1, 3, 6):
        got = cov_folded_periodic(p, box, [0.4], [0.4], radius=radius)
        k = np.arange(1, radius + 1)
        ref = p.sigma2 * (1.0 + 2.0 * np.sum(unit_matern(p.nu, p.kappa * k * L)))
        assert got.value == pytest.approx(ref, rel=1e-14)


def test_periodic_matches_spectral_example():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    fold = cov_folded_periodic(p, box, [0.1], [0.6])
    spec = cov_spectral(p, BoundarySpec.periodic(), box, [0.1], [0.6],
                        TruncationSpec(20000))
    assert abs(fold.value - spec) <= 1e-6


def test_neumann_d1_decomposition():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    doubled = BoxDomain(delta=box.delta, ell=box.ell,
                        lengths=(2.0 * box.lengths[0],), d=1)
    x, y = 0.15, 0.7
    radius = 6
    got = cov_folded_neumann(p, box, [x], [y], radius=radius)
    parts = (cov_folded_periodic(p, doubled, [x], [y], radius=radius).value
             + cov_folded_periodic(p, doubled, [x], [-y], radius=radius).value)
    assert got.value == pytest.approx(parts, abs=1e-14)


def test_dirichlet_d1_decomposition():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    doubled = BoxDomain(delta=box.delta, ell=box.ell,
                        lengths=(2.0 * box.lengths[0],), d=1)
    x, y = 0.15, 0.7
    got = cov_folded_dirichlet(p, box, [x], [y], radius=6)
    parts = (cov_folded_periodic(p, doubled, [x], [y], radius=6).value
             - cov_folded_periodic(p, doubled, [x], [-y], radius=6).value)
    assert got.value == pytest.approx(parts, abs=1e-14)


def test_neumann_resummation_identity_2d():
    p = derive_params(1.0, 0.1, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    doubled = BoxDomain(delta=box.delta, ell=box.ell,
                        lengths=tuple(2.0 * L for L in box.lengths), d=2)
    x = np.array([0.3, 0.5])
    y = np.array([0.9, 0.4])
    got = cov_folded_neumann(p, box, x, y, radius=4)
    total = sum(cov_folded_periodic(p, doubled, x, np.array(s.eps) * y,
                                    radius=4).value
                for s in sign_vectors(2))
    assert got.value == pytest.approx(total, abs=1e-14)


def test_overestimation_strict():
    for d in (1, 2):
        p = derive_params(1.0, 0.1, 1.0, d)
        box = BoxDomain.cubic(0.1, 1.0, d)
        rng = np.random.default_rng(17)
        pts = rng.uniform(box.delta / 2, box.delta / 2 + 1.0, size=(6, d))
        for i in range(6):
            for j in range(6):
                exact = matern_cov(p, pts[i], pts[j])
                assert cov_folded_periodic(p, box, pts[i], pts[j]).value > exact
                assert cov_folded_neumann(p, box, pts[i], pts[j]).value > exact


def test_dirichlet_vanishes_toward_boundary():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    vals = [abs(cov_folded_dirichlet(p, box, [x], [0.6], radius=8).value)
            for x in (0.2, 1e-3, 1e-6, 1e-9)]
    assert vals[-1] < 1e-8
    assert vals[-1] < vals[0]
    near_zero = cov_folded_dirichlet(p, box, [0.0], [0.6], radius=8)
    assert near_zero.value == pytest.approx(0.0, abs=1e-15)


def test_periodic_stationarity_mod_L():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    shift = 0.3 * box.lengths[0]
    a = cov_folded_periodic(p, box, [0.1], [0.5], radius=8).value
    b = cov_folded_periodic(p, box, [0.1 + shift], [0.5 + shift], radius=8).value
    assert abs(a - b) <= 1e-12


def test_tail_bound_monotone_and_bracketing():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    tails = [image_tail_bound(p, box, r) for r in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    # positive folding: truncated value + tail brackets any finer truncation
    for kind in ("periodic", "neumann"):
        small = cov_folded(p, box, kind, [0.3], [0.3], radius=2)
        big = cov_folded(p, box, kind, [0.3], [0.3], radius=30)
        assert small.value <= big.value <= small.value + small.tail_bound


def test_tail_geometric_check_d1():
    from maternbox.matern import decay_factor

    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    L = box.lengths[0]
    for radius in (1, 2, 3, 5):
        bound = image_tail_bound(p, box, radius)
        geo = (2.0 * p.sigma2 * unit_matern(p.nu, p.kappa * (radius + 1) * L)
               / (1.0 - decay_factor(p.nu, p.kappa, L)))
        assert bound <= geo * (1.0 + 1e-12)


def test_tail_dominates_brute_force():
    p = _p1()
    box = BoxDomain(delta=0.2, ell=1.0, lengths=(1.2,), d=1)
    radius = 3
    L = box.lengths[0]
    k = np.arange(radius + 1, radius + 1 + 10000, dtype=float)
    omitted = 2.0 * p.sigma2 * np.sum(unit_matern(p.nu, p.kappa * k * L))
    bound = image_tail_bound(p, box, radius)
    assert omitted <= bound
    assert bound <= 50.0 * omitted  # sane, not absurdly loose


def test_tail_accounts_for_pair_separation():
    p = _p1()
    box = BoxDomain.cubic(0.0, 1.0, 1)
    x, y = [0.0], [1.0]
    got = cov_folded_periodic(p, box, x, y, radius=2)
    # brute-force omitted images for this pair
    k = np.arange(-3000, 3001)
    k = k[np.abs(k) > 2]
    dist = np.abs(0.0 - 1.0 + k * box.lengths[0])
    omitted = p.sigma2 * np.sum(unit_matern(p.nu, p.kappa * dist))
    assert omitted <= got.tail_bound


def test_pick_radius_default_tolerance():
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    r = pick_radius(p, box, "periodic")
    assert 1 <= r <= 6
    assert image_tail_bound(p, box, r, separation_inf=box.length_max) <= 1e-8
    # one separation per reflection family, all equal, means the single float
    for d, kind in ((1, "periodic"), (1, "neumann"), (2, "dirichlet")):
        q = derive_params(1.0, 0.5, 1.0, d)
        bx = BoxDomain.cubic(0.2, 1.0, d)
        fams = 1 if kind == "periodic" else 2 ** d
        assert (pick_radius(q, bx, kind, separation_inf=[0.7] * fams)
                == pick_radius(q, bx, kind, separation_inf=0.7))


def test_gram_radius_is_smallest_that_certifies():
    from maternbox.experiments import grid_points

    p = derive_params(1.0, 1.98, 1.0, 2)
    box = BoxDomain.cubic(0.105, 1.0, 2)
    pts = grid_points(2, 0.105, 5)
    for kind in ("dirichlet", "neumann"):
        gram, tail = cov_folded_gram(p, box, kind, pts)
        gram17, tail17 = cov_folded_gram(p, box, kind, pts, radius=17)
        _, tail16 = cov_folded_gram(p, box, kind, pts, radius=16)
        assert np.array_equal(gram, gram17) and tail == tail17
        assert tail == pytest.approx(8.706e-9, rel=1e-3) and tail <= 1e-8
        assert tail16 == pytest.approx(3.876e-8, rel=1e-3) and tail16 > 1e-8


def test_gram_matches_pairwise():
    for d, kind in ((1, "periodic"), (2, "neumann"), (2, "dirichlet")):
        p = derive_params(1.0, 0.1, 1.0, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        rng = np.random.default_rng(23)
        pts = rng.uniform(0.1, 1.1, size=(5, d))
        gram, tail = cov_folded_gram(p, box, kind, pts, radius=4)
        for i in range(5):
            for j in range(5):
                ref = cov_folded(p, box, kind, pts[i], pts[j], radius=4)
                assert gram[i, j] == ref.value
                assert tail >= ref.tail_bound


@pytest.mark.parametrize("kind", ["periodic", "neumann", "dirichlet"])
@pytest.mark.parametrize("radius", [None, 2])
def test_one_point_gram_is_the_pair_sum(kind, radius):
    # same images, same certificate: the Gram charges each reflection
    # family its own separation, as the pair functions do
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.1, 1.0, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        x = np.linspace(0.15, 0.95, d)
        gram, tail = cov_folded_gram(p, box, kind, x[None, :], radius)
        ref = cov_folded(p, box, kind, x, x, radius)
        assert gram[0, 0] == ref.value
        assert tail == ref.tail_bound


def _reference_gram(p, box, kind, pts, radius, drop_identity, canonical=True):
    # the direct form: per family and pair, fsum over the images of
    # u = x - eps.y; then fsum across the families with the Dirichlet parities.
    # canonical: |u| sorted within each group of equal-period axes before the
    # offsets are added, the engine's row order; else the signed u in axis order
    lengths = np.asarray(box.lengths)
    if kind == "periodic":
        families, periods = [(1,) * p.d], lengths
    else:
        families, periods = list(product((1, -1), repeat=p.d)), 2.0 * lengths
    offs = np.array(list(product(range(-radius, radius + 1), repeat=p.d))) * periods
    eps = np.array(families, dtype=float)
    x, y = pts[None, :, None, None, :], pts[None, None, :, None, :]
    u = x - eps[:, None, None, None, :] * y  # (family, i, j, 1, axis)
    if canonical:
        u = np.abs(u)
        for period in set(periods.tolist()):
            group = periods == period
            u[..., group] = np.sort(u[..., group], axis=-1)
    diff = u + offs
    kernel = p.sigma2 * unit_matern(p.nu, p.kappa * np.sqrt(np.sum(diff * diff, axis=-1)))
    if drop_identity:
        kernel[0, :, :, np.all(offs == 0, axis=1)] = 0.0
    n = len(pts)
    gram, mass = np.empty((n, n)), np.empty((n, n))
    for i in range(n):
        for j in range(n):
            partials = []
            for f, e in enumerate(families):
                part = math.fsum(kernel[f, i, j].tolist())
                partials.append(math.prod(e) * part if kind == "dirichlet" else part)
            gram[i, j] = math.fsum(partials)
            mass[i, j] = math.fsum(abs(part) for part in partials)
    return gram, mass


def _family_seps(box, kind, pts):
    # per reflection family, the largest sup-norm separation over all pairs
    eps = np.array([(1,) * box.d] if kind == "periodic"
                   else list(product((1, -1), repeat=box.d)), dtype=float)
    u = np.abs(pts[None, :, None, :] - eps[:, None, None, :] * pts[None, None, :, :])
    return u.max(axis=(1, 2, 3))


def test_gram_bitwise_equals_direct_reference():
    rng = np.random.default_rng(5)
    # cubic boxes, one rectangular box per dimension and a (P, Q, P) box,
    # whose equal-period axes 0 and 2 are not adjacent
    for d, shapes in ((1, [(1.3,)]), (2, [(1.2, 1.45)]),
                      (3, [(1.1, 1.2, 1.35), (1.1, 1.2, 1.1)])):
        p = derive_params(1.5, 0.4, 0.8, d)
        for box in [BoxDomain.cubic(0.1, 1.0, d)] + [
                BoxDomain(delta=0.1, ell=1.0, lengths=lengths, d=d) for lengths in shapes]:
            # off-grid points in the box, so x - eps.y takes both signs
            pts = rng.uniform(0.0, 1.0, size=(4, d)) * np.array(box.lengths)
            for kind in ("periodic", "neumann", "dirichlet"):
                for drop in (False, True):
                    gram, _ = cov_folded_gram(p, box, kind, pts, 2, drop_identity=drop)
                    ref, _ = _reference_gram(p, box, kind, pts, 2, drop)
                    assert np.array_equal(gram, ref), (d, box.lengths, kind, drop)
    # default radius with rho at or beyond the box: rows of 89 to 59,319
    # images, long enough for the bucketed exact sums in every dimension
    for d, rho, n, kind in ((1, 6.0, 4, "dirichlet"), (2, 1.5, 3, "neumann"),
                            (3, 1.0, 2, "periodic")):
        p = derive_params(1.0, rho, 1.0, d)
        box = BoxDomain(delta=0.1, ell=1.0, lengths=(1.1, 1.25, 1.2)[:d], d=d)
        pts = rng.uniform(0.0, 1.0, size=(n, d)) * np.array(box.lengths)
        radius = pick_radius(p, box, kind, separation_inf=_family_seps(box, kind, pts))
        assert (2 * radius + 1) ** d >= 81, (d, radius)
        for drop in (False, True):
            gram, tail = cov_folded_gram(p, box, kind, pts, drop_identity=drop)
            ref, _ = _reference_gram(p, box, kind, pts, radius, drop)
            assert np.array_equal(gram, ref), (d, kind, drop)
            assert tail == cov_folded_gram(p, box, kind, pts, radius)[1]


def test_d3_gram_within_rounding_of_the_axis_order_image_sum():
    # an oracle that does not share the canonical row order: per family and
    # pair the signed x - eps.y with the offsets added in axis order.  The
    # canonical order adds the same exact squared terms in another order, so
    # each entry may move by rounding only: at most 8 u sum_f |F_f| (u = 2^-53,
    # F_f the entry's family sums; up to 1.7 u here, and more where kappa r,
    # the kernel's log-derivative, is large at the images that carry the mass:
    # 5.8 u at rho 0.3).  The axis-order sum itself moves by as much when the
    # axes of the points are permuted: it defines no entry more closely
    u = 2.0 ** -53
    rng = np.random.default_rng(17)
    moved = []
    for nu, rho in ((1.5, 0.5), (1.0, 1.0), (2.5, 0.8)):
        p = derive_params(1.0, rho, nu, 3)
        box = BoxDomain.cubic(0.1, 1.0, 3)
        pts = rng.uniform(0.0, 1.0, size=(4, 3)) * np.array(box.lengths)
        for kind in ("periodic", "neumann", "dirichlet"):
            for drop in (False, True):
                gram, _ = cov_folded_gram(p, box, kind, pts, 4, drop_identity=drop)
                ref, mass = _reference_gram(p, box, kind, pts, 4, drop, canonical=False)
                perm, _ = _reference_gram(p, box, kind, pts[:, [2, 0, 1]], 4, drop,
                                          canonical=False)
                case = (nu, rho, kind, drop)
                assert np.all(np.abs(gram - ref) <= 8 * u * mass), case
                assert np.all(np.abs(perm - ref) <= 8 * u * mass), case
                moved.append(not np.array_equal(perm, ref))
    assert any(moved)


def test_cubic_gram_invariant_under_axis_swap():
    # rows that differ by a permutation of equal-period axes share one row, so
    # permuting those axes of the points leaves every Gram entry's bits: all
    # axis orders of a cubic box, the swap of axes 0 and 2 in a (P, Q, P) box;
    # a permutation reorders the reflection families, whose tails sum in
    # another order
    rng = np.random.default_rng(41)
    for lengths, rho, perms in (((1.1,) * 2, 0.8, [(1, 0)]),
                                ((1.1,) * 3, 0.5, list(permutations(range(3)))[1:]),
                                ((1.1, 1.3, 1.1), 0.5, [(2, 1, 0)])):
        d = len(lengths)
        p = derive_params(1.0, rho, 1.0, d)
        box = BoxDomain(delta=0.1, ell=1.0, lengths=lengths, d=d)
        pts = rng.uniform(0.0, 1.1, size=(6, d))
        for kind in ("periodic", "neumann", "dirichlet"):
            for drop in (False, True):
                for radius in (None, 3):
                    gram, tail = cov_folded_gram(p, box, kind, pts, radius, drop_identity=drop)
                    for perm in perms:
                        got, got_tail = cov_folded_gram(p, box, kind, pts[:, list(perm)],
                                                        radius, drop_identity=drop)
                        assert np.array_equal(got, gram), (lengths, perm, kind, drop, radius)
                        assert got_tail == pytest.approx(tail, rel=1e-15)


def test_axis_swap_shares_rows_in_square_axes_only(monkeypatch):
    # the bench's d = 3 grid: 125 distinct |u| rows; sorted within the axes
    # that share a period, 35 in a cubic box and 75 where two axes share one,
    # adjacent or not
    from maternbox.experiments import grid_points

    rows = []
    row_distances = folded._row_distances

    def counted(rs, *args):
        rows.append(len(rs))
        return row_distances(rs, *args)

    monkeypatch.setattr(folded, "_row_distances", counted)
    p = derive_params(1.0, 1.0, 1.0, 3)
    pts = grid_points(3, 0.1, 2)
    for lengths, want in (((1.1, 1.1, 1.1), 35), ((1.1, 1.1, 1.2), 75), ((1.1, 1.2, 1.1), 75),
                          ((1.1, 1.2, 1.3), 125)):
        rows.clear()
        cov_folded_gram(p, BoxDomain(delta=0.1, ell=1.0, lengths=lengths, d=3), "neumann", pts, 2)
        assert sum(rows) == want, (lengths, rows)


def test_run_block_bitwise_at_any_worker_count_and_chunking(block_pool, monkeypatch):
    # each run of rows is one pool block that forms its distances, its kernel
    # values and its exact row sums, chunk by chunk: the Gram is the same at
    # 1 and 3 workers, and with runs split into chunks of one or two rows
    seen = []
    row_distances = folded._row_distances

    def recorded(rs, periods, radius, dropped):
        seen.append((len(rs), radius))
        return row_distances(rs, periods, radius, dropped)

    monkeypatch.setattr(folded, "_row_distances", recorded)
    serial, pooled = block_pool(1), block_pool(3)
    limit0 = folded._CHUNK_IMAGES
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.5, 1.5, d)
        pts = rng.uniform(0.05, 1.15, size=(4, d))
        for lengths, kind, radius, drop in product(((1.2,) * d, (1.2, 1.4, 1.3)[:d]),
                                                   ("dirichlet", "neumann", "periodic"),
                                                   (None, 2), (False, True)):
            box = BoxDomain(delta=0.1, ell=1.0, lengths=lengths, d=d)
            case = (d, lengths, kind, radius, drop)
            monkeypatch.setattr(_blocks, "_pool", (1, serial))
            gram, tail = cov_folded_gram(p, box, kind, pts, radius, drop_identity=drop)
            monkeypatch.setattr(_blocks, "_pool", (3, pooled))
            seen.clear()
            got = cov_folded_gram(p, box, kind, pts, radius, drop_identity=drop)
            assert np.array_equal(got[0], gram) and got[1] == tail, case
            (n_rows, used), runs = seen[0], len(seen)
            assert runs == 3 and all(r == used for _, r in seen), case
            per_row = (2 * used + 1) ** d
            for limit, per_chunk in ((per_row, 1), (2 * per_row + 1, 2)):
                monkeypatch.setattr(folded, "_CHUNK_IMAGES", limit)
                seen.clear()
                got = cov_folded_gram(p, box, kind, pts, radius, drop_identity=drop)
                assert np.array_equal(got[0], gram) and got[1] == tail, (case, limit)
                assert max(n for n, _ in seen) == per_chunk and len(seen) > runs, (case, seen)
            monkeypatch.setattr(folded, "_CHUNK_IMAGES", limit0)
    assert pooled.submitted > 0 and serial.submitted == 0


def test_row_beyond_the_image_limit_raises_before_allocating():
    # the edge rows that asked for 15-23 GiB: d = 3 Neumann on a 3^3 grid,
    # radius 108 (10.2M images a row) and 124 (15.4M); the radius search
    # alone runs before the refusal
    import tracemalloc

    box = BoxDomain.cubic(0.2, 1.0, 3)
    axis = np.linspace(0.1, 1.1, 3)
    pts = np.array(list(product(axis, axis, axis)))
    for nu, rho, radius in ((1.0, 10.0, 108), (0.05, 3.0, 124)):
        p = derive_params(1.0, rho, nu, 3)
        images = (2 * radius + 1) ** 3
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^radius {radius} needs {images} images per "
                                                 rf"row, above the 2097152 the image sums"):
                cov_folded_gram(p, box, "neumann", pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, (nu, rho, peak)
    # an explicit radius is checked the same way, in the pair function too
    p = derive_params(1.0, 1.0, 1.0, 3)
    with pytest.raises(ValueError, match=r"^radius 64 needs 2146689 images per row"):
        cov_folded(p, box, "neumann", pts[0], pts[1], 64)
    assert cov_folded(p, box, "neumann", pts[0], pts[1], 63).radius == 63


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_points_raise_value_error():
    # (1e300, 0) in d = 2: the tail's shell powers overflowed (a
    # RuntimeWarning, else NaN tails); a pair separation past 2^53 smallest
    # periods is refused, for the default and an explicit radius, and a sum
    # that overflows the separation itself reads as too far too
    p = derive_params(1.0, 0.5, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    far = 2.0 ** 53 * 2.4
    message = (r"^pair separation \S+ exceeds " + re.escape(f"{far:g}")
               + r", the largest the image sums take \(2\^53 smallest periods\)$")
    for x, y in (([0.1, 0.2], [1e300, 0.0]), ([1.7e308, 0.5], [1.7e308, 0.5]),
                 ([0.1, 0.2], [0.1 + 1.001 * far, 0.2])):
        for radius in (None, 3):
            for call in (lambda: cov_folded_gram(p, box, "neumann", [x, y], radius),
                         lambda: cov_folded(p, box, "neumann", x, y, radius)):
                with pytest.raises(ValueError, match=message):
                    call()
    with pytest.raises(ValueError, match=r"^pair separation 1e\+300 exceeds "):
        cov_folded(p, box, "periodic", [0.1, 0.2], [1e300, 0.0])
    # a far pair within the limit: no radius certifies by default, and an
    # explicit radius returns a finite tail
    x, y = [0.1, 0.2], [0.1 + 0.999 * far, 0.2]
    with pytest.raises(ValueError, match=r"^no radius up to 128 certifies"):
        cov_folded(p, box, "neumann", x, y)
    s = cov_folded(p, box, "neumann", x, y, 2)
    assert math.isfinite(s.value) and math.isfinite(s.tail_bound) and s.tail_bound > 1e30
    # periodic points far outside the box but close to each other still sum
    near = cov_folded(p, box, "periodic", [1e300, 0.2], [1e300, 0.3])
    assert near.value == cov_folded(p, box, "periodic", [0.1, 0.2], [0.1, 0.3]).value


def _reference_row_fsums(values, index):
    return np.array([math.fsum(values[row].tolist()) for row in index])


@pytest.mark.parametrize("case", ["zeros", "ones", "subnormal", "span", "span_zeros", "single",
                                  "long", "long_mixed"])
def test_row_sums_equal_fsum_bitwise(case):
    # math.fsum is the reference on rows built to break a non-exact sum:
    # cancellation of huge and tiny terms, ties, subnormals, empty buckets
    rng = np.random.default_rng(29)
    long = 4096  # far more images than buckets: the bucketed path
    if case == "zeros":
        values = np.array([0.0, 0.0, 1.0])
        index = np.array([[0, 1, 0, 1], [0, 2, 1, 0], [2, 2, 2, 2]])
    elif case == "ones":
        values = np.array([1.0, 0.0])
        index = rng.integers(0, 2, size=(7, long))
    elif case == "subnormal":
        values = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 0.0, 3e-300])
        index = rng.integers(0, values.size, size=(5, long))
    elif case == "span":
        # exponents over 1900 binades, plus ulps that set the ties
        values = np.ldexp(1.0 + rng.integers(0, 2 ** 52, 64) * 2.0 ** -52,
                          rng.integers(-955, 955, 64))
        values = np.concatenate([values, [1.0, 2.0 ** -53, 2.0 ** -54, 3.0 * 2.0 ** -54]])
        index = rng.integers(0, values.size, size=(6, long))
    elif case == "span_zeros":
        # one bucket per exponent from the smallest to the largest: values
        # over 500 binades far below 1, and zeros, whose exponent 0 widens
        # the range to 700 buckets (the bucketed path: 1402 < 4096 images)
        values = np.ldexp(1.0 + rng.integers(0, 2 ** 52, 200) * 2.0 ** -52,
                          rng.integers(-700, -200, 200))
        values = np.concatenate([values, [0.0, 0.0]])
        index = rng.integers(0, values.size, size=(6, long))
        index[:, :50] = values.size - 1
    elif case == "single":
        values = rng.random(9) * np.ldexp(1.0, rng.integers(-40, 40, 9))
        index = np.arange(9)[:, None]
    else:
        # kernel-like rows: values over ~100 binades, and for "long_mixed" a
        # 1.0 with a run of ulp-scale values whose total decides the rounding
        values = np.exp(-rng.uniform(0.0, 70.0, 3000))
        if case == "long_mixed":
            values = np.concatenate([values, [1.0, 2.0 ** -53, 2.0 ** -53 + 2.0 ** -105]])
        index = rng.integers(0, values.size, size=(40, long))
        index[:, -3:] = values.size - np.arange(1, 4)
    ref = _reference_row_fsums(values, index)
    n_rows, n_images = index.shape
    # one entry per image, and one per distinct value of a row with its count
    srt = np.sort(index, axis=1)
    first = np.ones(srt.shape, dtype=bool)
    first[:, 1:] = srt[:, 1:] != srt[:, :-1]
    starts = np.flatnonzero(first)
    for inv, counts, row in (
            (index.ravel(), np.ones(index.size, dtype=int), np.arange(index.size) // n_images),
            (srt.ravel()[starts], np.diff(np.append(starts, srt.size)), starts // n_images)):
        got = folded._row_fsums(values, inv, counts, row, n_rows)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_pick_radius_equals_per_radius_tail_loop():
    # the search over one kernel table picks the radius, and returns the
    # tails, of evaluating each candidate on its own
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.6, 1.0, d)
        box = BoxDomain(delta=0.1, ell=1.0, lengths=(1.1, 1.3, 1.2)[:d], d=d)
        pts = np.linspace(0.05, 1.0, 3 * d).reshape(3, d)
        for kind in ("periodic", "neumann", "dirichlet"):
            seps = _family_seps(box, kind, pts)
            for tol in (1e-4, 1e-8, 1e-14):
                radius = pick_radius(p, box, kind, separation_inf=seps, tol=tol)
                loop = next(r for r in range(1, 129)
                            if _reference_tail(p, box, kind, seps, r) <= tol)
                assert radius == loop, (d, kind, tol)
                for r in (radius - 1, radius, radius + 1):
                    if r >= 1:
                        assert (image_tail_bound(p, box, r, bc=kind, separation_inf=seps)
                                == _reference_tail(p, box, kind, seps, r))
            _, tail = cov_folded_gram(p, box, kind, pts)
            radius = pick_radius(p, box, kind, separation_inf=seps)
            assert tail == _reference_tail(p, box, kind, seps, radius)
    # a tolerance that needs more shells than one table block (radii up to 47)
    p = derive_params(1.0, 6.0, 1.0, 1)
    box = BoxDomain.cubic(0.05, 1.0, 1)
    radius = pick_radius(p, box, "neumann", tol=1e-12)
    assert radius > 47
    assert _reference_tail(p, box, "neumann", [box.length_max * 2] * 2, radius) <= 1e-12
    assert _reference_tail(p, box, "neumann", [box.length_max * 2] * 2, radius - 1) > 1e-12
    with pytest.raises(ValueError, match=r"^no radius up to 128 certifies a tail below "
                                         r"1e-300; pass an explicit radius$"):
        pick_radius(p, box, "neumann", tol=1e-300)


def _per_radius_tail(tails, radius):
    # one radius at a time, as the search once evaluated each candidate
    d = tails.params.d
    first = np.maximum(radius, tails.dead) + 1.0
    js = first[:, None] + np.arange(49.0)
    j_close = radius + 1 + 48 * np.maximum(1.0, np.ceil((first - radius - 1) / 48))
    closure = (3.0 * j_close) ** (d - 1) * 2.0 * d * math.factorial(d - 1) / (1.0 - tails.f) ** d
    weight = np.where(js < j_close[:, None], (2 * js + 1) ** d - (2 * js - 1) ** d, 0.0)
    weight = np.where(js == j_close[:, None], closure[:, None], weight)
    cols = (first - tails.dead - 1.0).astype(int)[:, None] + np.arange(49)
    vals = np.take_along_axis(tails.kernel, cols, axis=1)
    ones = (2 * first - 1) ** d - (2 * radius + 1) ** d
    return tails.params.sigma2 * float(np.sum(ones) + np.sum(weight * vals))


def test_radius_search_reads_each_radius_tail_bitwise():
    # the search evaluates runs of radii at once; each radius's tail is the
    # one-radius-at-a-time evaluation bit for bit, and the tail
    # image_tail_bound returns, with dead shells (separations of up to 97
    # periods) on no family, some or all
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.8, 1.5, d)
        box = BoxDomain(delta=0.1, ell=1.0, lengths=(1.1, 1.3, 1.2)[:d], d=d)
        for kind in ("periodic", "neumann", "dirichlet"):
            families = 1 if kind == "periodic" else 2 ** d
            period = min(box.lengths) * (1.0 if kind == "periodic" else 2.0)
            for seps in ([0.3] + [97.0 * period] * (families - 1),
                         list(np.linspace(0.0, 1.2, families)), [40.5 * period] * families):
                tails = folded._family_tails(p, box, kind, seps)
                radii = np.arange(1, 129)
                tails._table(200)
                block = tails._tails(radii)
                for radius, tail in zip(radii.tolist(), block):
                    assert tail == _per_radius_tail(tails, radius), (d, kind, seps, radius)
                    if seps[0] == 0.3:  # a fresh table per radius: the slow path
                        assert tail == image_tail_bound(p, box, radius, bc=kind,
                                                        separation_inf=seps)
                # the search picks the first radius whose tail meets the tolerance,
                # else the first that meets the fallback
                for tol in (block[0] * 2, block[5], block[40], block[100], block[127] / 2):
                    want = next((r for r, t in zip(radii, block) if t <= tol), None)
                    for fallback in (-math.inf, block[64]):
                        if want is None and fallback < 0:
                            with pytest.raises(ValueError, match=r"^no radius up to 128"):
                                folded._family_tails(p, box, kind, seps).pick(tol, fallback)
                            continue
                        got = folded._family_tails(p, box, kind, seps).pick(tol, fallback)
                        assert got == (want if want is not None else 65), (d, kind, tol)


def test_pick_radius_fails_fast_on_unclosable_separation(monkeypatch):
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    # a separation of 129 periods leaves every candidate's shell R + 1 at
    # distance <= 0, so each tail is at least 2 sigma^2
    sep = 129 * box.length_max
    for radius in (1, 64, 128):
        assert _reference_tail(p, box, "periodic", [sep], radius) >= 2.0 * p.sigma2
    points = []

    def counted(nu, t):
        points.append(np.size(t))
        return unit_matern(nu, t)

    monkeypatch.setattr(folded, "unit_matern", counted)
    # all 128 candidates read one block of 96 shells past the nonpositive ones
    for call, work in ((lambda: cov_folded_periodic(p, box, [0.1], [1e5]), [96]),
                       (lambda: pick_radius(p, box, "periodic", separation_inf=sep), [96]),
                       # beyond 2^53 periods every shell rounds to distance <= 0
                       (lambda: pick_radius(p, box, "periodic", separation_inf=1e300), [0])):
        points.clear()
        with pytest.raises(ValueError, match=r"^no radius up to 128 certifies"):
            call()
        assert points == work
    # a tolerance of 2 sigma^2 or more is still searched
    assert pick_radius(p, box, "periodic", separation_inf=sep, tol=1e300) == 1


def test_tail_counts_nonpositive_shells_in_closed_form():
    # shells at distance <= 0 read 1, and their counts (2j+1)^d - (2j-1)^d
    # telescope: the tail equals the direct shell-by-shell sum up to rounding,
    # whether all, some or none of a tail's families start at such shells
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.3, 1.5, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        period = box.length_max
        for kind, seps in (("periodic", [40.5 * period]),
                           ("neumann", [0.3] + [97.0 * period] * (2 ** d - 1))):
            for radius in (1, 5, 47, 48, 60, 200):
                got = image_tail_bound(p, box, radius, bc=kind, separation_inf=seps)
                ref = _reference_tail(p, box, kind, seps, radius)
                assert abs(got - ref) <= 1e-14 * ref, (d, kind, radius)


def test_far_separation_bounds_or_fails_in_every_dimension():
    # shells 4 .. sep / period read 1: the tail is at least 2 sigma^2, inf
    # from d = 2 on where their counts pass the float range, and no radius
    # certifies, without a warning
    for d, kind, sep in product((1, 2, 3), ("periodic", "neumann"), (1e16, 1e200, 1e300)):
        p = derive_params(1.0, 0.1, 1.0, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = image_tail_bound(p, box, 3, bc=kind, separation_inf=sep)
            with pytest.raises(ValueError, match=r"^no radius up to 128 certifies"):
                pick_radius(p, box, kind, separation_inf=sep)
        assert tail >= 2.0 * p.sigma2, (d, kind, sep)
        assert (tail == math.inf) == (d >= 2 and sep >= 1e200), (d, kind, sep, tail)


def test_separation_beyond_the_float_range_of_periods_bounds_or_fails():
    # in a box of length 1e-10 a separation of 1e300 is 5e309 periods, past
    # the float range: the shells at distance <= 0 alone make the tail inf in
    # every dimension, and no radius certifies, without a warning
    for d, kind in product((1, 2, 3), ("periodic", "neumann")):
        p = derive_params(1.0, 1e-11, 1.0, d)
        box = BoxDomain.cubic(0.0, 1e-10, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert image_tail_bound(p, box, 3, bc=kind, separation_inf=1e300) == math.inf
            with pytest.raises(ValueError, match=r"^no radius up to 128 certifies"):
                pick_radius(p, box, kind, separation_inf=1e300)


def test_tail_cost_independent_of_separation(monkeypatch):
    import maternbox.folded as folded

    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    points = []

    def counted(nu, t):
        points.append(np.size(t))
        return unit_matern(nu, t)

    monkeypatch.setattr(folded, "unit_matern", counted)
    work = []
    for sep in (1e3, 1e5, 1e6):
        points.clear()
        tail = image_tail_bound(p, box, 3, separation_inf=sep)
        # a tolerance of 2 sigma^2 or more searches all 128 radii
        with pytest.raises(ValueError, match=r"^no radius up to 128 certifies"):
            pick_radius(p, box, "periodic", separation_inf=sep, tol=3.0)
        work.append(list(points))
        # shells 4 .. floor(sep / 1.2) read 1, two images each; 49 more close the sum
        dead = math.floor(sep / 1.2)
        assert 2 * (dead - 3) * p.sigma2 <= tail <= (2 * (dead - 3) + 100) * p.sigma2
    # one block of 96 shells per tail instance, not one shell per period
    assert work[0] == work[1] == work[2] == [96, 96], work


def test_gram_search_and_tail_read_one_shell_table(monkeypatch):
    from maternbox.matern import decay_factor
    from maternbox.spectral import cov_spectral_gram

    points, decays, picks, image_calls, runs = [], [], [], [], []

    def counted(nu, t):
        points.append(np.size(t))
        return unit_matern(nu, t)

    def counted_decay(nu, kappa, x):
        decays.append(x)
        return decay_factor(nu, kappa, x)

    pick = folded._Tails.pick

    def recorded(tails, tol, fallback=-math.inf):
        radius = pick(tails, tol, fallback)
        picks.append((tails, tol, fallback, radius))
        return radius

    image_kernel = folded._unit_matern

    def counted_image_kernel(nu, t):
        image_calls.append(np.size(t))
        return image_kernel(nu, t)

    row_distances = folded._row_distances

    def counted_rows(rs, *args):
        runs.append(len(rs))
        return row_distances(rs, *args)

    monkeypatch.setattr(folded, "unit_matern", counted)
    monkeypatch.setattr(folded, "decay_factor", counted_decay)
    monkeypatch.setattr(folded._Tails, "pick", recorded)
    monkeypatch.setattr(folded, "_unit_matern", counted_image_kernel)
    monkeypatch.setattr(folded, "_row_distances", counted_rows)
    # a default radius: one decay factor and one 96-shell block per family;
    # the images take one private kernel call per run of rows, one run per
    # pool worker
    for d, kind in ((1, "periodic"), (2, "neumann"), (2, "dirichlet")):
        p = derive_params(1.0, 0.3, 1.0, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        pts = np.linspace(0.1, 1.1, 4 * d).reshape(4, d)
        for log in (points, decays, picks, image_calls, runs):
            log.clear()
        _, tail = cov_folded_gram(p, box, kind, pts)
        families = 1 if kind == "periodic" else 2 ** d
        assert len(decays) == 1 and points == [96 * families], (d, kind, points)
        assert len(image_calls) == len(runs) == min(folded._block_pool()[0], sum(runs))
        ((tails, _, _, radius),) = picks
        assert tail == tails(radius) and radius <= 47
    # the d = 1 Robin route whose remainder no radius up to 128 meets: the
    # search falls back to the default tolerance on the same table, which
    # holds the 128 + 49 shells of the whole search in two blocks
    p = derive_params(1.0, 10.0, 2.5, 1)
    box = BoxDomain.cubic(0.1, 1.0, 1)
    pts = np.linspace(0.1, 1.0, 5)
    for log in (points, decays, picks, image_calls, runs):
        log.clear()
    cov_spectral_gram(p, BoundarySpec.robin(1.0), box, pts, TruncationSpec(2000))
    assert len(decays) == 1 and points == [2 * 96, 2 * 96], points
    assert len(image_calls) == len(runs) == min(folded._block_pool()[0], sum(runs))
    ((tails, tol, fallback, radius),) = picks
    assert fallback == 1e-8 * p.sigma2 and tails(128) > tol
    assert tails(radius) <= fallback < tails(radius - 1)


def _reference_tail(p, box, kind, seps, radius):
    # the per-radius tail in its direct form: one kernel call over the live
    # shells of this radius only, the decay factor evaluated here
    from maternbox.matern import decay_factor

    periods = np.asarray(box.lengths) * (1.0 if kind == "periodic" else 2.0)
    period = float(periods.min())
    seps = np.asarray(seps, dtype=float)
    d = p.d
    j_close = np.full(seps.shape, radius + 1 + 48)
    while np.any(j_close * period - seps <= 0):
        j_close += 48 * (j_close * period - seps <= 0)
    js = np.arange(radius + 1, j_close.max() + 1, dtype=float)
    f = float(decay_factor(p.nu, p.kappa, period))
    closure = (3.0 * j_close) ** (d - 1) * 2.0 * d * math.factorial(d - 1) / (1.0 - f) ** d
    weight = np.where(js < j_close[:, None], (2 * js + 1) ** d - (2 * js - 1) ** d, 0.0)
    weight[js == j_close[:, None]] = closure
    dist = js * period - seps[:, None]
    vals = np.ones(dist.shape)
    live = (weight > 0) & (dist > 0)
    vals[live] = unit_matern(p.nu, p.kappa * dist[live])
    return p.sigma2 * float(np.sum(weight * vals))


def test_imagesum_type():
    s = ImageSum(radius=2, value=1.5, tail_bound=1e-9)
    assert s.radius == 2 and s.value == 1.5 and s.tail_bound == 1e-9
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    with pytest.raises(ValueError):
        cov_folded(p, box, "robin", [0.1], [0.2])
