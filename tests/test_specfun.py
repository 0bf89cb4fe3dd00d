"""Bessel/log-gamma core: closed forms, symmetry, and the quadrature oracle."""

import math
import subprocess
import sys

import numpy as np
import pytest

from maternbox import specfun
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


@pytest.mark.parametrize("nu", [0.25, 0.5, 1.0, 1.5, 2.5, 50.0])
def test_batch_equals_single_point_evaluation(nu):
    # each point's value must not depend on the batch it rides in: mixed x
    # across the series/trapezoid cut at 2 and the trapezoid/Hankel cut at
    # 20, just beside both cuts and far out, in shuffled orders (at nu = 0.5
    # and 1.5, |mu| = 1/2, the Hankel expansion is exact and serves all x > 2)
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.uniform(1e-4, 2.0, 60), [2.0, np.nextafter(2.0, 3.0)],
                        2.0 + rng.uniform(0.0, 1e-3, 30), rng.uniform(2.0, 60.0, 60),
                        rng.uniform(60.0, 700.0, 30),
                        [20.0, np.nextafter(20.0, 0.0), np.nextafter(20.0, 30.0)],
                        20.0 + rng.uniform(-1e-3, 1e-3, 30)])
    single = np.array([log_bessel_k(nu, v) for v in x])
    for order in (np.arange(x.size), rng.permutation(x.size), rng.permutation(x.size)):
        batch = log_bessel_k(nu, x[order])
        assert np.array_equal(batch, single[order])


# log K_nu(x) from mpmath.besselk at 40 digits, rounded to double; x spans
# the series (x <= 2), the trapezoid rule (2 < x < 20) and the Hankel
# expansion (x >= 20; x > 2 at half-integer nu), with the doubles on either
# side of both cuts
_REF_X = (1e-3, 0.3, 1.5, 2.0, 2.0000000000000004, 2.5, 7.0, 13.0,
          19.999999999999996, 20.0, 20.000000000000004, 35.0, 150.0, 700.0)
_REF_LOG_K = {
    0.05: (1.9716690035148845, 0.31876006305626836, -1.542028532098706,
           -2.171969953908093, -2.1719699539080937, -2.774603372994533,
           -7.7637346759033905, -14.065862708730029, -21.278115079672784,
           -21.278115079672787, -21.27811507967279, -36.555369321588785,
           -152.2803485632972, -703.0499254745032),
    0.25: (2.464404260830156, 0.37021273462639426, -1.5262087930047017,
           -2.1595391849082106, -2.159539184908211, -2.7643482246177804,
           -7.75971652732865, -14.063637230988713, -21.276650714713227,
           -21.27665071471323, -21.276650714713234, -36.554524064616565,
           -152.28014922524738, -703.0498826479258),
    0.5: (3.678668992135796, 0.5277777548076955, -1.4769412014093548,
          -2.1207822376352454, -2.120782237635246, -2.7323540132923503,
          -7.747163721882929, -14.056683326086041, -21.272074784132265,
          -21.27207478413227, -21.272074784132272, -36.55188267809998,
          -152.2795262944034, -703.0497488148769),
    1.0: (6.907751517131147, 1.1171042644479068, -1.2823387502341412,
          -1.967071302560514, -1.9670713025605144, -2.6051667300933747,
          -7.6970114871936275, -14.028878495147499, -21.253774240365896,
          -21.2537742403659, -21.253774240365903, -36.541317761009545,
          -152.27703457953749, -703.0492134827668),
    1.5: (10.587423771451016, 1.9941148236011226, -0.9661155776433641,
          -1.7153171295270808, -1.7153171295270815, -2.3958817766711373,
          -7.613632329258406, -13.982575353932319, -21.223284619962833,
          -21.223284619962836, -21.22328461996284, -36.52371180113328,
          -152.27288175168474, -703.0483212628858),
    2.5: (18.593791672101542, 4.3195145943613396, -0.010604132615927714,
          -0.9421272412935991, -0.9421272412935998, -1.746537218769585,
          -7.348524578845165, -13.834723907533048, -21.12581227715401,
          -21.125812277154015, -21.12581227715402, -36.4673914809001,
          -152.25959295669594, -703.0454661618064),
    50.0: (523.917719737787, 238.72813682860186, 158.24522216880948,
           143.85219293848002, 143.85219293848002, 132.6835420273711,
           80.98509481165294, 49.427804388902516, 26.743587991783556,
           26.74358799178355, 26.74358799178354, -5.138592687230562,
           -144.04789960239995, -701.266241357182),
    80.0: (876.6701472306619, 420.36726445172377, 291.60539633838494,
           268.5852932695068, 268.5852932695068, 250.7266903910694,
           168.22200341961283, 118.32078290586162, 83.13537307238026,
           83.13537307238025, 83.13537307238023, 35.83571780804245,
           -131.47652204156302, -698.4866942179133),
}


@pytest.mark.parametrize("nu", sorted(_REF_LOG_K))
def test_log_bessel_k_against_reference_values(nu):
    ref = np.array(_REF_LOG_K[nu])
    got = log_bessel_k(nu, np.array(_REF_X))
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert np.all(err <= 32 * 2.0 ** -53), (nu, np.array(_REF_X)[err > 32 * 2.0 ** -53])


def _hankel_term_bound(terms: int) -> float:
    """max of |a_terms(nu)| over |nu| <= 3/2: each factor |4 nu^2 - (2j-1)^2|
    is convex in s = 4 nu^2, so on a piece of [0, 9] it peaks at an end."""
    edges = np.linspace(0.0, 9.0, 4001)
    prod = np.ones(edges.size - 1)
    for j in range(1, terms + 1):
        c = (2 * j - 1) ** 2
        prod *= np.maximum(np.abs(edges[:-1] - c), np.abs(edges[1:] - c))
    return prod.max() / math.factorial(terms) / 8.0 ** terms


def test_hankel_and_trapezoid_certificates():
    # the truncation bounds derived in specfun._kmu_hankel and
    # specfun._kmu_trapezoid, evaluated from the module's constants, for the
    # orders the branches serve (|mu| <= 1/2 and mu + 1, so |nu| <= 3/2)
    u = 2.0 ** -53
    x0, terms = specfun._HANKEL_FROM, specfun._HANKEL_TERMS
    assert terms >= 3 / 2 - 1 / 2  # the remainder bound needs l >= nu - 1/2
    # first neglected Hankel term at x0 over the sum's lower bound 1 - 1/(8x)
    hankel = _hankel_term_bound(terms) / x0 ** terms / (1.0 - 1.0 / (8.0 * x0))
    assert hankel <= u, hankel

    h, top, nu = specfun._TRAP_STEP, (specfun._TRAP_NODES - 1) * specfun._TRAP_STEP, 1.5
    worst = 0.0
    edges = np.linspace(2.0, x0, 721)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # exp(x) K_0(x) >= sqrt(pi/(2x)) (1 - 1/(8x)) on [lo, hi]
        floor = math.sqrt(math.pi / (2.0 * hi)) * (1.0 - 1.0 / (8.0 * lo))
        strip = min(2.0 * (1.0 + 1.0 / (c * lo)) * math.exp(hi * (1.0 - c))
                    / (math.sqrt(c) * (1.0 - 1.0 / (8.0 * lo))
                       * math.expm1(2.0 * math.pi * math.acos(c) / h))
                    for c in np.linspace(0.01, 0.5, 50))
        tail = (math.exp(nu * top - lo * (math.cosh(top) - 1.0))
                / (lo * math.sinh(top) - nu) / floor)
        worst = max(worst, strip + tail)
    assert worst <= u, worst


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
