"""Bessel/log-gamma core: closed forms, symmetry, and the quadrature oracle."""

import math
import subprocess
import sys

import numpy as np
import pytest

from maternbox.specfun import (
    BesselEval,
    bessel_k,
    bessel_k_quadrature,
    ln_gamma,
    log_bessel_k,
)


def test_ln_gamma_exact_points():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    assert abs(ln_gamma(5.0) - math.log(24.0)) < 1e-14


def test_ln_gamma_against_factorials_and_half_integers():
    # Gamma(n) = (n-1)!, Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
    for n in range(1, 90):
        ref = math.log(math.factorial(n - 1)) if n > 1 else 0.0
        assert abs(ln_gamma(float(n)) - ref) <= 1e-13 * max(abs(ref), 1.0)
    for n in range(0, 60):
        ref = (math.lgamma(2 * n + 1) - n * math.log(4.0)
               - math.lgamma(n + 1) + 0.5 * math.log(math.pi))
        # reference assembled from integer factorials only
        ref2 = (math.log(math.factorial(2 * n)) - n * math.log(4.0)
                - math.log(math.factorial(n)) + 0.5 * math.log(math.pi))
        assert abs(ref - ref2) < 1e-11 * max(1.0, abs(ref2))
        assert abs(ln_gamma(n + 0.5) - ref2) <= 1e-12 * max(abs(ref2), 1.0)


def test_ln_gamma_domain():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ln_gamma(bad)


def test_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    for x in np.geomspace(1e-5, 40.0, 40):
        ref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        got = bessel_k(0.5, x)
        assert got.value == pytest.approx(ref, rel=1e-12)
        assert got.log_value == pytest.approx(math.log(ref), abs=1e-12)


def test_spot_value_k05_of_2():
    ref = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    assert bessel_k(0.5, 2.0).value == pytest.approx(ref, rel=1e-13)


def test_order_reflection():
    got_neg = bessel_k(-1.0, 1.0)
    got_pos = bessel_k(1.0, 1.0)
    assert got_neg.value == got_pos.value
    assert got_neg.order == 1.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        nu = rng.uniform(0.0, 3.0)
        x = rng.uniform(1e-6, 20.0)
        a = bessel_k(nu, x).value
        b = bessel_k(-nu, x).value
        assert abs(a - b) <= 1e-12 * a


def test_oracle_value_frozen():
    # adaptive quadrature of the integral representation, frozen once
    assert bessel_k_quadrature(1.0, 1.0).value == pytest.approx(
        6.0190723019723458e-01, rel=1e-12)
    assert bessel_k(1.0, 1.0).value == pytest.approx(0.601907, abs=5e-7)


def test_monotone_decreasing_in_argument():
    rng = np.random.default_rng(11)
    for nu in (0.1, 0.5, 1.0, 2.5, 10.0, 50.0):
        x1 = rng.uniform(1e-5, 30.0, size=2000)
        x2 = x1 + rng.uniform(1e-6, 10.0, size=2000)
        l1 = log_bessel_k(nu, x1)
        l2 = log_bessel_k(nu, x2)
        assert np.all(l1 > l2)


def test_value_positive_and_log_consistent():
    rng = np.random.default_rng(3)
    nus = rng.uniform(0.0, 12.0, size=50)
    xs = rng.uniform(1e-6, 45.0, size=50)
    for nu, x in zip(nus, xs):
        ev = bessel_k(nu, x)
        assert isinstance(ev, BesselEval)
        assert ev.value > 0
        assert ev.value == pytest.approx(math.exp(ev.log_value), rel=1e-15)


def test_production_matches_oracle_dense():
    # tighter, smaller-grid version of the acceptance sweep
    for nu in (0.0, 0.3, 0.5, 1.0, 2.7, 9.0, 25.0, 60.0):
        for x in np.geomspace(1e-6, 50.0, 12):
            prod = float(log_bessel_k(nu, x))
            orac = bessel_k_quadrature(nu, x).log_value
            assert prod == pytest.approx(orac, abs=1e-10), (nu, x)


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 2.5, 50.0])
def test_batch_equals_single_point_evaluation(nu):
    # each point's value must not depend on the batch it rides in: mixed x
    # across the series/continued-fraction split at 2, just above 2 (the
    # slowest continued fraction) and far out, in shuffled orders
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(1e-4, 2.0, 60), [2.0, np.nextafter(2.0, 3.0)],
                        2.0 + rng.uniform(0.0, 1e-3, 30), rng.uniform(2.0, 60.0, 60),
                        rng.uniform(60.0, 700.0, 30)])
    single = np.array([log_bessel_k(nu, v) for v in x])
    for order in (np.arange(x.size), rng.permutation(x.size), rng.permutation(x.size)):
        batch = log_bessel_k(nu, x[order])
        assert np.array_equal(batch, single[order])


def test_log_value_survives_large_order_small_argument():
    ev = bessel_k(50.0, 1e-6)
    assert math.isinf(ev.value)
    assert math.isfinite(ev.log_value)
    assert ev.log_value == pytest.approx(bessel_k_quadrature(50.0, 1e-6).log_value,
                                         abs=1e-10)


def test_product_identity_via_quadrature():
    # K_nu(x) K_nu(y) = 1/2 int_0^inf exp(-t/2 - (x^2+y^2)/(2t)) K_nu(xy/t) dt/t
    from scipy.integrate import quad

    for nu, x, y in ((0.75, 1.3, 2.1), (1.5, 0.7, 0.9), (0.25, 2.0, 3.0)):
        def integrand(u):
            t = math.exp(u)
            inner = bessel_k(nu, x * y / t).value
            return 0.5 * math.exp(-0.5 * t - (x * x + y * y) / (2.0 * t)) * inner

        val, _ = quad(integrand, -12.0, 12.0, limit=300)
        ref = bessel_k(nu, x).value * bessel_k(nu, y).value
        assert val == pytest.approx(ref, rel=1e-9)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_k(float("nan"), 1.0)
    with pytest.raises(ValueError):
        bessel_k_quadrature(1.0, -1.0)
    with pytest.raises(ValueError):
        log_bessel_k(1.0, [1.0, float("inf")])


def test_import_leaves_quadrature_unloaded():
    # only the quadrature oracle needs scipy.integrate and only sampling draws
    # need scipy.special; both are slow to import
    code = ("import sys, maternbox; "
            "print([m in sys.modules for m in ('scipy.integrate', 'scipy.special')])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[False, False]"
