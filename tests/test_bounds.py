"""A-priori bounds: combinatorial identities, lattice oracles, domination."""

import math
import warnings

import numpy as np
import pytest

from maternbox.bounds import (
    BoundReport,
    aniso_error_bound,
    dirichlet_error_bound,
    eulerian_number,
    lattice_error_bound,
    lattice_kernel_sum,
    polylog_partial,
    power_sum_closed,
    window_error_bound,
)
from maternbox.folded import cov_folded_gram, image_tail_bound, pick_radius
from maternbox.matern import AnisoMetric, decay_factor, derive_params, unit_matern
from maternbox.spectral import BoxDomain


def test_eulerian_values():
    assert eulerian_number(1, 0) == 1
    assert eulerian_number(0, 0) == 1
    assert eulerian_number(2, 0) == 1 and eulerian_number(2, 1) == 1
    assert eulerian_number(3, 1) == 4
    assert eulerian_number(4, 1) == 11 and eulerian_number(4, 2) == 11
    assert eulerian_number(5, 2) == 66
    assert eulerian_number(3, 5) == 0
    with pytest.raises(ValueError):
        eulerian_number(-1, 0)


def test_eulerian_row_sums():
    for n in range(1, 9):
        assert sum(eulerian_number(n, k) for k in range(n)) == math.factorial(n)


def test_polylog_partial_domain():
    with pytest.raises(ValueError):
        polylog_partial(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        polylog_partial(1.0, 0.5, 0)


def test_power_sum_closed_matches_partial_sums():
    for d in (1, 2, 3):
        for z in (0.1, 0.5, 0.9):
            closed = power_sum_closed(d, z)
            partial = polylog_partial(-(d - 1), z, 10 ** 6) / z
            assert abs(closed - partial) <= 1e-10 * abs(closed)
            # the Eulerian polynomial is the constant (d-1)! for d <= 2,
            # so the factorial bound is an equality there and strict for d = 3
            bound = math.factorial(d - 1) / (1.0 - z) ** d
            if d <= 2:
                assert closed == pytest.approx(bound, rel=1e-15)
            else:
                assert closed < bound


def _brute_lattice(params, lengths, cap=200):
    rng = np.arange(0, cap + 1)
    grids = np.meshgrid(*([rng] * params.d), indexing="ij")
    kk = np.stack([g.ravel() for g in grids], axis=-1).astype(float)
    kk = kk[np.any(kk > 0, axis=1)]
    r = np.sqrt(np.sum((kk * np.asarray(lengths)[None, :]) ** 2, axis=1))
    return params.sigma2 * float(np.sum(unit_matern(params.nu, params.kappa * r)))


def test_lattice_sum_matches_brute_force():
    p = derive_params(1.0, 0.1, 1.0, 2)
    s, rem = lattice_kernel_sum(p, (1.2, 1.2))
    brute = _brute_lattice(p, (1.2, 1.2))
    # fast kernel decay: remainder is negligible and the sums agree tightly
    assert s == pytest.approx(brute, rel=1e-12)
    assert brute <= s + rem
    # slow decay: the partial sum brackets the (effectively exact) oracle
    p1 = derive_params(2.0, 0.5, 0.75, 1)
    s1, rem1 = lattice_kernel_sum(p1, (1.1,))
    brute1 = _brute_lattice(p1, (1.1,), cap=3000)
    assert s1 <= brute1 * (1 + 1e-14) <= s1 + rem1
    assert s1 == pytest.approx(brute1, rel=1e-6)


def test_lattice_bound_structure_d1():
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    got = lattice_error_bound(p, 0.2, box)
    s, rem = lattice_kernel_sum(p, box.lengths)
    c_delta = p.sigma2 * float(unit_matern(p.nu, p.kappa * 0.2))
    assert got == pytest.approx(c_delta + 2.0 * (s + rem), rel=1e-14)


def test_lattice_bound_large_box_limit():
    p = derive_params(1.0, 0.1, 1.0, 2)
    delta = 0.15
    big = BoxDomain(delta=delta, ell=1.0, lengths=(50.0, 50.0), d=2)
    got = lattice_error_bound(p, delta, big)
    limit = (2 ** 2 - 1) * p.sigma2 * float(unit_matern(p.nu, p.kappa * delta))
    assert got == pytest.approx(limit, rel=1e-10)


def test_lattice_bound_d2_value_against_oracle():
    p = derive_params(1.0, 0.1, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    got = lattice_error_bound(p, 0.2, box)
    brute = (3.0 * p.sigma2 * float(unit_matern(p.nu, p.kappa * 0.2))
             + 4.0 * _brute_lattice(p, box.lengths))
    assert got == pytest.approx(brute, rel=1e-10)
    assert got >= brute


def test_window_bound_exponential_case():
    p = derive_params(1.0, 0.1, 0.5, 1)
    report = window_error_bound(p, 0.3, 1.0)
    assert report.decay_ell == pytest.approx(math.exp(-10.0), rel=1e-12)
    a_ref = 1.0 * (1.0 + 2.0 * report.decay_ell / (1.0 - report.decay_ell))
    assert report.prefactor == pytest.approx(a_ref, rel=1e-14)
    assert report.window_bound == pytest.approx(a_ref * math.exp(-3.0), rel=1e-12)


def test_window_bound_large_ell_limit():
    for d in (1, 2, 3):
        p = derive_params(1.0, 0.1, 1.0, d)
        r1 = window_error_bound(p, 0.2, 4.0)
        assert r1.prefactor == pytest.approx(2 ** d - 1, rel=1e-8)


def test_window_bound_d2_independent_reimplementation():
    p = derive_params(1.0, 0.1, 1.0, 2)
    delta, ell = 0.2, 1.0
    report = window_error_bound(p, delta, ell)
    f = float(unit_matern(max(p.nu, 0.5), p.kappa * ell))
    a = (2 ** 2 - 1) * (1.0 + 2 ** 2 * math.factorial(2) * f / (1.0 - f) ** 2)
    ref = a * p.sigma2 * float(unit_matern(p.nu, p.kappa * delta))
    assert report.window_bound == pytest.approx(ref, rel=1e-13)


def test_report_orderings():
    for d in (1, 2):
        for nu in (0.25, 1.0, 50.0):
            for rho in (0.1, 1.0):
                p = derive_params(1.0, rho, nu, d)
                for delta in (0.0, 0.5 * rho, 2.0 * rho, 6.0 * rho):
                    r = window_error_bound(p, delta, 1.0)
                    assert r.lattice_bound <= r.window_bound * (1 + 1e-12) + 1e-270
                    assert r.dirichlet_bound <= r.lattice_bound * (1 + 1e-12)
                    assert r.dirichlet_bound <= r.window_bound * (1 + 1e-12) + 1e-270
                    assert r.prefactor >= 2 ** d - 1


def test_prefactor_monotone_decreasing_in_ell():
    p = derive_params(1.0, 0.3, 1.0, 2)
    ells = np.linspace(0.4, 5.0, 12)
    pre = [window_error_bound(p, 0.1, e).prefactor for e in ells]
    assert all(a > b for a, b in zip(pre, pre[1:]))
    assert pre[-1] > 2 ** 2 - 1


def test_geometric_domination_chain():
    # C(kL) <= C(L) f(L)^(k-1) for the image-sum bound machinery
    rng = np.random.default_rng(31)
    for _ in range(30):
        nu = rng.uniform(0.1, 8.0)
        rho = rng.uniform(0.05, 1.0)
        L = rng.uniform(0.5, 3.0)
        p = derive_params(1.0, rho, nu, 1)
        f = float(decay_factor(nu, p.kappa, L))
        base = float(unit_matern(nu, p.kappa * L))
        ks = np.arange(1, 51)
        lhs = unit_matern(nu, p.kappa * L * ks)
        rhs = base * f ** (ks - 1.0)
        assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-300)


def test_delta_zero_finite():
    p = derive_params(1.0, 0.1, 1.0, 2)
    r = window_error_bound(p, 0.0, 1.0)
    assert r.window_bound == pytest.approx(r.prefactor * p.sigma2, rel=1e-14)
    box = BoxDomain.cubic(0.0, 1.0, 2)
    assert lattice_error_bound(p, 0.0, box) >= 3.0 * p.sigma2


def test_aniso_reduces_to_isotropic():
    rho = 0.2
    m = AnisoMetric(rotation=np.eye(2), scales=np.array([rho, rho]))
    p = derive_params(1.0, rho, 1.0, 2)
    got = aniso_error_bound(1.0, 1.0, m, 0.3, 1.0, 2)
    ref = window_error_bound(p, 0.3, 1.0).window_bound
    assert got == pytest.approx(ref, rel=1e-13)


def test_aniso_monotone_in_scale_max():
    m1 = AnisoMetric(rotation=np.eye(2), scales=np.array([0.1, 0.2]))
    m2 = AnisoMetric(rotation=np.eye(2), scales=np.array([0.1, 0.4]))
    b1 = aniso_error_bound(1.0, 1.0, m1, 0.3, 1.0, 2)
    b2 = aniso_error_bound(1.0, 1.0, m2, 0.3, 1.0, 2)
    assert b2 >= b1


def test_aniso_concrete_value():
    m = AnisoMetric(rotation=np.eye(2), scales=np.array([0.1, 0.2]))
    got = aniso_error_bound(1.0, 1.0, m, 0.3, 1.0, 2)
    kap = math.sqrt(2.0) / 0.2
    f = float(unit_matern(1.0, kap * 1.0))
    a = 3.0 * (1.0 + 8.0 * f / (1.0 - f) ** 2)
    ref = a * float(unit_matern(1.0, kap * 0.3))
    assert got == pytest.approx(ref, rel=1e-13)
    with pytest.raises(ValueError):
        aniso_error_bound(1.0, 1.0, m, 0.3, 1.0, 1)


def test_report_type_fields():
    p = derive_params(1.0, 0.1, 1.0, 1)
    r = window_error_bound(p, 0.2, 1.0)
    assert isinstance(r, BoundReport)
    assert r.delta == 0.2 and r.ell == 1.0
    assert 0.0 < r.decay_ell < 1.0


def _reference_lattice_kernel_sum(params, lengths):
    # the two-call form: the Z^d sup-norm shell filtered to N0^d and one kernel
    # call for it, then one for the anchor of the remainder past it
    d = params.d
    lengths = np.asarray(lengths, dtype=float)
    lmin = float(np.min(lengths))
    f = float(decay_factor(params.nu, params.kappa, lmin))
    parts, running, j = [], 0.0, 1
    while True:
        full = np.arange(-j, j + 1)
        inner, face = full[1:-1], np.array([-j, j])
        shell = []
        for a in range(d):
            grids = np.meshgrid(*([inner] * a + [face] + [full] * (d - 1 - a)), indexing="ij")
            shell.append(np.stack([g.ravel() for g in grids], axis=-1))
        kk = np.concatenate(shell)
        kk = kk[np.all(kk >= 0, axis=1)]
        r = np.sqrt(np.sum((kk * lengths[None, :]) ** 2, axis=1))
        vals = params.sigma2 * unit_matern(params.nu, params.kappa * r)
        parts.extend(vals.tolist())
        running += float(np.sum(vals))
        anchor = float(unit_matern(params.nu, params.kappa * lmin * (j + 1)))
        closure = d * (2.0 * (j + 1)) ** (d - 1) * math.factorial(d - 1) / (1.0 - f) ** d
        rem = params.sigma2 * closure * anchor
        if rem <= max(1e-8 * running, 1e-280 * params.sigma2) or j >= 400:
            return math.fsum(parts), rem
        j += 1


def test_lattice_kernel_sum_equals_two_call_form_bitwise():
    # the N0^d shell in the filtered Z^d shell's order, and the remainder
    # anchor in the shell's kernel call: unit_matern is batch invariant
    for d in (1, 2, 3):
        for nu in (0.25, 1.0, 50.0):
            for rho in (0.1, 1.0):
                p = derive_params(1.3, rho, nu, d)
                for lengths in ((1.2,) * d, (1.1, 0.7, 1.6)[:d]):
                    got = lattice_kernel_sum(p, lengths)
                    ref = _reference_lattice_kernel_sum(p, lengths)
                    assert np.array_equal(np.array(got).view(np.int64),
                                          np.array(ref).view(np.int64)), (d, nu, rho, lengths)


def test_lattice_kernel_sum_one_kernel_call_per_shell(monkeypatch):
    import maternbox.bounds as bounds

    sizes = []

    def counted(nu, t):
        sizes.append(np.size(t))
        return unit_matern(nu, t)

    monkeypatch.setattr(bounds, "unit_matern", counted)
    p = derive_params(1.0, 0.5, 1.0, 2)
    lattice_kernel_sum(p, (1.2, 1.2))
    # shell j of N0^2 holds 2j + 1 indices, plus its remainder anchor
    assert sizes == [2 * j + 2 for j in range(1, len(sizes) + 1)]


def test_rho_far_beyond_the_box_raises_one_clear_error(monkeypatch):
    # at rho = 1e9 the decay factor M(kappa x) of every closure rounds to 1,
    # so no geometric tail closes: each entry point raises the same
    # ValueError, with no warning or ZeroDivisionError on the way, and the
    # lattice bounds raise it before their kernel sums any shell
    import maternbox.bounds as bounds

    shells = []

    def counted(nu, t):
        shells.append(np.size(t))
        return unit_matern(nu, t)

    monkeypatch.setattr(bounds, "unit_matern", counted)
    p = derive_params(1.0, 1e9, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    metric = AnisoMetric(np.eye(2), np.array([1e9, 2e9]))
    for call in (lambda: cov_folded_gram(p, box, "neumann", [[0.3, 0.4], [0.5, 0.9]]),
                 lambda: image_tail_bound(p, box, 3, bc="neumann"),
                 lambda: pick_radius(p, box, "neumann"),
                 lambda: lattice_error_bound(p, 0.2, box),
                 lambda: dirichlet_error_bound(p, 0.2, box),
                 lambda: window_error_bound(p, 0.2, 1.0),
                 lambda: aniso_error_bound(1.0, 1.0, metric, 0.2, 1.0, 2)):
        with pytest.raises(ValueError, match=r"^decay factor M\(kappa x\) rounds to 1 "), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            call()
    assert shells == []
