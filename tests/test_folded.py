"""Image sums: structure, oracle agreement, tail certificates."""

import math
from itertools import product

import numpy as np
import pytest

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


def _reference_gram(p, box, kind, pts, radius, drop_identity):
    # the direct form: per family and pair, fsum over the images of the signed
    # u = x - eps.y; then fsum across the families with the Dirichlet parities
    lengths = np.asarray(box.lengths)
    if kind == "periodic":
        families, periods = [(1,) * p.d], lengths
    else:
        families, periods = list(product((1, -1), repeat=p.d)), 2.0 * lengths
    offs = np.array(list(product(range(-radius, radius + 1), repeat=p.d))) * periods
    eps = np.array(families, dtype=float)
    x, y = pts[None, :, None, None, :], pts[None, None, :, None, :]
    diff = x - eps[:, None, None, None, :] * y + offs  # (family, i, j, image, axis)
    kernel = p.sigma2 * unit_matern(p.nu, p.kappa * np.sqrt(np.sum(diff * diff, axis=-1)))
    if drop_identity:
        kernel[0, :, :, np.all(offs == 0, axis=1)] = 0.0
    n = len(pts)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            partials = []
            for f, e in enumerate(families):
                part = math.fsum(kernel[f, i, j].tolist())
                partials.append(math.prod(e) * part if kind == "dirichlet" else part)
            gram[i, j] = math.fsum(partials)
    return gram


def test_gram_bitwise_equals_direct_reference():
    rng = np.random.default_rng(5)
    for d, lengths in ((1, (1.3,)), (2, (1.2, 1.45)), (3, (1.1, 1.2, 1.35))):
        p = derive_params(1.5, 0.4, 0.8, d)
        for box in (BoxDomain.cubic(0.1, 1.0, d),
                    BoxDomain(delta=0.1, ell=1.0, lengths=lengths, d=d)):
            # off-grid points in the box, so x - eps.y takes both signs
            pts = rng.uniform(0.0, 1.0, size=(4, d)) * np.array(box.lengths)
            for kind in ("periodic", "neumann", "dirichlet"):
                for drop in (False, True):
                    gram, _ = cov_folded_gram(p, box, kind, pts, 2, drop_identity=drop)
                    ref = _reference_gram(p, box, kind, pts, 2, drop)
                    assert np.array_equal(gram, ref), (d, box.lengths, kind, drop)


def test_imagesum_type():
    s = ImageSum(radius=2, value=1.5, tail_bound=1e-9)
    assert s.radius == 2 and s.value == 1.5 and s.tail_bound == 1e-9
    p = _p1()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    with pytest.raises(ValueError):
        cov_folded(p, box, "robin", [0.1], [0.2])
