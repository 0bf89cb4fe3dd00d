"""Box eigenpairs, Robin roots, and the truncated modal covariance."""

import importlib
import math
import multiprocessing
import sys
import threading
import warnings
from itertools import product

import numpy as np
import pytest

from maternbox import _blocks, specfun, spectral
from maternbox.folded import cov_folded_gram
from maternbox.sampler import sample_ensemble
from maternbox.matern import derive_params, matern_cov, matern_gram
from maternbox.specfun import ConvergenceError, log_bessel_k
from maternbox.spectral import (
    BoundarySpec,
    BoxDomain,
    RobinEigen1D,
    TruncationSpec,
    _robin_neumann_remainder,
    cov_spectral,
    cov_spectral_gram,
    eigenpair,
    mode_system,
    plain_spectral_gram,
    robin_eigen_1d,
    spectral_tail_bound,
)


def test_box_domain_construction():
    box = BoxDomain.cubic(0.2, 1.0, 2)
    assert box.lengths == (1.2, 1.2)
    assert box.length_max == 1.2
    rect = BoxDomain(delta=0.1, ell=1.0, lengths=(1.1, 2.5), d=2)
    assert rect.length_min == 1.1
    with pytest.raises(ValueError):
        BoxDomain(delta=0.2, ell=1.0, lengths=(1.0,), d=1)  # too short
    with pytest.raises(ValueError):
        BoxDomain(delta=-0.1, ell=1.0, lengths=(1.0,), d=1)
    with pytest.raises(ValueError):
        BoxDomain(delta=0.0, ell=1.0, lengths=(1.0, 1.0), d=1)


def test_boundary_spec_validation():
    assert BoundarySpec.dirichlet().kind == "dirichlet"
    assert BoundarySpec.robin(3.0).beta == 3.0
    with pytest.raises(ValueError):
        BoundarySpec("robin")
    with pytest.raises(ValueError):
        BoundarySpec("neumann", beta=1.0)
    with pytest.raises(ValueError):
        BoundarySpec("absorbing")


def test_truncation_rule():
    t = TruncationSpec.from_resolution(1e-3, 1.2)
    assert t.kmax == math.ceil(1.2 / 1e-3) + 1
    with pytest.raises(ValueError):
        TruncationSpec(-1)
    with pytest.raises(ValueError):
        TruncationSpec.from_resolution(0.0, 1.0)


def test_eigenpair_examples():
    box = BoxDomain.cubic(0.0, 1.0, 1)
    lam, w = eigenpair(BoundarySpec.dirichlet(), (1,), box, kappa=10.0)
    assert lam == pytest.approx(1.0 + (math.pi / 10.0) ** 2, rel=1e-15)
    assert lam == pytest.approx(1.0986960440108936, rel=1e-12)

    lam0, w0 = eigenpair(BoundarySpec.neumann(), (0,), box, kappa=10.0)
    assert lam0 == 1.0
    xs = np.linspace(0.0, 1.0, 7)
    assert np.allclose([w0([x]) for x in xs], 1.0)

    box2 = BoxDomain.cubic(0.0, 1.0, 2)
    lam2, _ = eigenpair(BoundarySpec.neumann(), (0, 0), box2, kappa=10.0)
    assert lam2 == 1.0
    with pytest.raises(ValueError):
        eigenpair(BoundarySpec.dirichlet(), (0,), box, 10.0)
    with pytest.raises(ValueError):
        eigenpair(BoundarySpec.robin(2.0), (0,), box, 10.0)


@pytest.mark.parametrize("bc,indices", [
    (BoundarySpec.dirichlet(), [(1,), (2,), (3,), (6,)]),
    (BoundarySpec.neumann(), [(0,), (1,), (2,), (5,)]),
    (BoundarySpec.periodic(), [(0,), (1,), (-1,), (2,), (-3,)]),
    (BoundarySpec.robin(7.0), [(1,), (2,), (3,), (4,)]),
])
def test_eigenfunctions_orthonormal_1d(bc, indices):
    box = BoxDomain.cubic(0.3, 1.0, 1)
    nodes, weights = np.polynomial.legendre.leggauss(260)
    L = box.lengths[0]
    xs = 0.5 * L * (nodes + 1.0)
    ws = 0.5 * L * weights
    fns = [eigenpair(bc, k, box, kappa=5.0)[1] for k in indices]
    vals = np.array([[float(f([x])) for x in xs] for f in fns])
    gram = (vals * ws[None, :]) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(indices)))) < 1e-10


def test_eigenfunctions_orthonormal_2d():
    box = BoxDomain.cubic(0.1, 1.0, 2)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    L = box.lengths[0]
    xs = 0.5 * L * (nodes + 1.0)
    ws = 0.5 * L * weights
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W2 = np.outer(ws, ws).ravel()
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    bc = BoundarySpec.neumann()
    ks = [(0, 0), (1, 0), (1, 2), (3, 3)]
    fns = [eigenpair(bc, k, box, kappa=5.0)[1] for k in ks]
    vals = np.array([f(pts) for f in fns])
    gram = (vals * W2[None, :]) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(ks)))) < 1e-10


def _direct_table(kind, L, kmax, x):
    """The D/N/P mode table by one trig call per value, and each row's k."""
    freq = 2.0 * math.pi if kind == "periodic" else math.pi
    amp = math.sqrt(2.0 / L)
    k = np.arange(0 if kind == "neumann" else 1, kmax + 1, dtype=float)
    mu = (freq * k / L) ** 2
    if kind == "dirichlet":
        return mu, amp * np.sin(freq * np.outer(k, x) / L), k
    if kind == "neumann":
        vals = amp * np.cos(freq * np.outer(k, x) / L)
        vals[0] = math.sqrt(1.0 / L)
        return mu, vals, k
    vals = np.empty((2 * kmax + 1, x.size))
    vals[0] = math.sqrt(1.0 / L)
    vals[1::2] = amp * np.cos(freq * np.outer(k, x) / L)
    vals[2::2] = amp * np.sin(freq * np.outer(k, x) / L)
    return np.concatenate([[0.0], np.repeat(mu, 2)]), vals, np.concatenate([[0.0], np.repeat(k, 2)])


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "periodic"])
def test_mode_table_by_angle_addition(kind):
    # kmax + 1 a perfect square (0, 3, 8) and kmax one (1, 9) are the edges
    # of the split k = q B + r, B = isqrt(kmax) + 1
    L = 1.2
    x = np.concatenate([np.linspace(0.0, L, 13), [0.3337, 1.1999]])
    amp = math.sqrt(2.0 / L)
    freq = 2.0 * math.pi if kind == "periodic" else math.pi
    for kmax in (0, 1, 2, 3, 8, 9, 100000):
        mu, vals = spectral._axis_mu_values(BoundarySpec(kind), L, kmax, x)
        ref_mu, ref, k = _direct_table(kind, L, kmax, x)
        assert np.array_equal(mu, ref_mu) and vals.shape == ref.shape
        step = math.isqrt(kmax) + 1
        exact = (k < step) | (k % step == 0)
        assert np.array_equal(vals[exact], ref[exact]), kmax
        bound = 4.0 * amp * (np.spacing(freq * k * x.max() / L) + np.finfo(float).eps)
        assert np.all(np.abs(vals - ref) <= bound[:, None]), kmax


def test_modal_gram_by_angle_addition_near_direct_trig():
    # d = 1 at kmax 1e5 on 15 points: the Grams from the angle-addition
    # tables against the same sums over one-trig-call-per-value tables
    p = derive_params(1.0, 0.1, 0.5, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    L = box.lengths[0]
    pts = np.linspace(0.1, 1.1, 15)[:, None]
    trunc = TruncationSpec(100000)

    def direct_gram(kind):
        mu, V, _ = _direct_table(kind, L, trunc.kmax, pts[:, 0])
        w = p.eta2 * (1.0 + mu / p.kappa ** 2) ** (-p.alpha)
        return V.T @ (w[:, None] * V)

    for kind in ("dirichlet", "neumann", "periodic"):
        ref = direct_gram(kind)
        got = plain_spectral_gram(p, BoundarySpec(kind), box, pts, trunc)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), kind
    bc = BoundarySpec.robin(p.kappa)
    gram, tail = cov_spectral_gram(p, bc, box, pts, trunc)
    assert tail < spectral_tail_bound(p, bc, box, trunc.kmax)  # the accelerated route
    from maternbox.folded import cov_folded_gram
    ref = (cov_folded_gram(p, box, "neumann", pts)[0]
           + plain_spectral_gram(p, bc, box, pts, trunc) - direct_gram("neumann"))
    assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_robin_roots_bracketing_and_residuals():
    for c_over_l, ell in ((7.0, 1.2), (0.3, 0.8), (40.0, 2.0)):
        eig = robin_eigen_1d(c_over_l, ell, 60)
        n = np.arange(1, 61)
        assert np.all(eig.alphas > (n - 1) * math.pi)
        assert np.all(eig.alphas < n * math.pi)
        assert np.max(np.abs(eig.eigenvalue_residual())) <= 1e-12
        # no skipped eigenvalues: a fine sign scan finds exactly one root per bracket
        c = c_over_l * ell
        for i in (0, 1, 7, 42):
            a = np.linspace((n[i] - 1) * math.pi + 1e-9, n[i] * math.pi - 1e-9, 4001)
            f = (a * a - c * c) * np.sin(a) - 2 * c * a * np.cos(a)
            crossings = np.sum(np.sign(f[1:]) != np.sign(f[:-1]))
            assert crossings == 1


def _bisection_reference(h, ell, count):
    """Robin roots by bisection alone, each bracket to its fixed point or 90
    steps, on the frequency equation's residual in its own form."""
    c = h * ell

    def residual(a):
        return ((a * a - c * c) * np.sin(a) - 2.0 * c * a * np.cos(a)) / (a * a + c * c)

    n = np.arange(1, count + 1, dtype=float)
    lo = (n - 1.0) * math.pi
    hi = n * math.pi
    lo[0] = min(1e-9, 0.1 * math.sqrt(2.0 * c / (1.0 + c)))
    flo, fhi = residual(lo), residual(hi)
    assert not np.any(np.sign(flo) == np.sign(fhi))
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        fm = residual(mid)
        move_lo = np.sign(fm) == np.sign(flo)
        new_lo = np.where(move_lo, mid, lo)
        new_hi = np.where(move_lo, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
        flo = np.where(move_lo, fm, flo)
        fhi = np.where(move_lo, fhi, fm)
    denom = fhi - flo
    secant = np.where(denom != 0.0, lo - flo * (hi - lo) / np.where(denom == 0, 1.0, denom),
                      0.5 * (lo + hi))
    return np.where((secant > lo) & (secant < hi), secant, 0.5 * (lo + hi))


def _norms(eig):
    """The closed-form norms of an eigensystem's own roots."""
    omegas = eig.alphas / eig.ell_axis
    return eig.ell_axis / 2.0 * (1.0 + (eig.h / omegas) ** 2) + eig.h / omegas ** 2


def test_robin_roots_within_two_ulps_of_bisection():
    ell = 1.2
    configs = [(bl, count) for bl in (1e-4, 1e-2, 1.0, 12.0, 1e3, 1e6)
               for count in (1, 6, 7, 11, 12, 13, 1001, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1)]
    # roots near n pi, and a root 12 within an ulp of fl(11 pi)
    for bl, count in configs + [(12.0, 100001), (1e16, 1001), (1e-20, 12)]:
        eig = robin_eigen_1d(bl / ell, ell, count)
        ref = _bisection_reference(bl / ell, ell, count)
        assert np.all(np.abs(eig.alphas - ref) <= 2.0 * np.spacing(ref)), (bl, count)
        assert np.array_equal(eig.norms, _norms(eig)), (bl, count)


def _root_reference(c, n):
    """Root n of the rule of robin_eigen_1d, alone in one-element arrays: Newton's
    method on a - (n-1) pi - 2 arctan(c / a) from below, to its first step that
    does not increase it."""
    k = np.array([n - 1.0])
    lo = k * math.pi
    err = k * 3.1415926218032837 - lo  # pi's three parts, so k pi - lo
    err += k * 3.1786509424591713e-08
    err += k * 1.2246467991473532e-16
    a = np.array([0.1 * math.sqrt(2.0 * c / (1.0 + c))]) if n == 1 else lo.copy()
    for _ in range(32):
        new = a - (a - lo - err - 2.0 * np.arctan(c / a)) / (1.0 + 2.0 * c / (a * a + c * c))
        if not new[0] > a[0]:
            break
        a = new
    return a[0]


def test_robin_roots_bitwise_equal_per_root_reference(block_pool):
    # each root is its own Newton climb: the same bits alone as in a block
    # of any count, on one worker or three
    rng = np.random.default_rng(7)
    edge = spectral._ROOT_BLOCK
    for workers in (1, 3):
        block_pool(workers)
        for bl in (1e-300, 1e-200, 1e-100, 1e-60, 1e-20, 1e-6, 0.3, 12.0, 1e4, 1e16, 1e19,
                   1e100, 1e153):
            for count in (1, 12, 13, edge - 1, edge + 1):
                eig = robin_eigen_1d(bl, 1.0, count)
                some = set(range(1, min(count, 13) + 1)) | set(range(max(1, count - 2), count + 1))
                if count > 13:
                    some |= set(rng.integers(14, count - 2, 20).tolist())
                for n in sorted(some):
                    assert eig.alphas[n - 1] == _root_reference(bl, n), (workers, bl, count, n)
                assert np.array_equal(eig.norms, _norms(eig))


# root n of a = (n-1) pi + 2 arctan(c / a) at c = beta L, for n = 1, 2, 13, 39
# and 16385, to 40 digits (mpmath at 60 digits; c is the exact value of the
# float); fl(38 pi) misses 38 pi by 0.83 ulp
_ROOTS_40 = {
    1e-300: ("1.414213562373095066521142491262258037508e-150",
             "3.141592653589793238462643383279502884197",
             "37.69911184307751886155172059935403461037",
             "119.3805208364121430615804485646211095995",
             "51471.85403641517241897194919165137525469"),
    1e-200: ("1.414213562373095036144662885141293775617e-100",
             "3.141592653589793238462643383279502884197",
             "37.69911184307751886155172059935403461037",
             "119.3805208364121430615804485646211095995",
             "51471.85403641517241897194919165137525469"),
    1e-100: ("1.414213562373095062938096643432197881768e-50",
             "3.141592653589793238462643383279502884197",
             "37.69911184307751886155172059935403461037",
             "119.3805208364121430615804485646211095995",
             "51471.85403641517241897194919165137525469"),
    1e-60: ("1.41421356237309502789499056099016063375e-30",
            "3.141592653589793238462643383279502884197",
            "37.69911184307751886155172059935403461037",
            "119.3805208364121430615804485646211095995",
            "51471.85403641517241897194919165137525469"),
    1e-40: ("1.414213562373094998804204269689920007722e-20",
            "3.141592653589793238462643383279502884197",
            "37.69911184307751886155172059935403461037",
            "119.3805208364121430615804485646211095995",
            "51471.85403641517241897194919165137525469"),
    1e-20: ("0.0000000001414213562373095010018016532281517646027",
            "3.141592653589793238469009581003178697279",
            "37.69911184307751886155225111583100759479",
            "119.3805208364121430615806160961401536998",
            "51471.85403641517241897194919203993712747"),
    1e-6: ("0.001414213444521975622065530857971618775974",
           "3.141593290209436599937008038896714899476",
           "37.69911189612916648419382151587809962986",
           "119.3805208531652949636394451130310697099",
           "51471.8540364152112751592274863799935344"),
    0.01: ("0.1413036130776464653931113603481535655253",
           "3.147945981392604978282186856100377683307",
           "37.69964235207662696578811236275874678371",
           "119.3806883676956922197506153633283994995",
           "51471.85403680373429175195864809627051197"),
    1.0: ("1.306542374188806202228727831923118284841",
          "3.673194406304251445502605004882020631637",
          "37.75207667597170651357490734838026786977",
          "119.3972712463352448647699478481622842128",
          "51471.85407527135966304534265479150323857"),
    12.0: ("2.699105647433228363047626030937575103709",
           "5.432919495372254650468441556272570424007",
           "38.30627443896577969853454454841020908127",
           "119.5805527023505191329805899001958246215",
           "51471.85450268940708682665730398385316928"),
    1e3: ("3.135322030076839238074253962855173398082",
          "6.270644183187909273835810558886251879095",
          "40.75923113207144497640029993278827237147",
          "122.2787640250425638252950632373892792768",
          "51471.89288768547316183437702516461909171"),
    1e6: ("3.14158637041705242502852042170551092228",
          "6.283172740834104974081155365045337466948",
          "40.84062281542172667014840724683750034817",
          "122.5218684462662699343527624965500738732",
          "51474.89277006640568331310987644737106307"),
    1e16: ("3.141592653589792610144112665320980855375",
           "6.283185307179585220288225330641961710749",
           "40.84070449666730393187346464917275111987",
           "122.5221134900019117956203939475182533596",
           "51474.9956290687519172112860212842713154"),
    1e19: ("3.14159265358979323783432485256154423663",
           "6.283185307179586475668649705123088473261",
           "40.84070449666731209184622308330007507619",
           "122.5221134900019362755386692499002252286",
           "51474.99562906876220191541270922090231719"),
    1e100: ("3.141592653589793238462643383279502884197",
            "6.283185307179586476925286766559005768394",
            "40.84070449666731210001436398263353749456",
            "122.5221134900019363000430919479006124837",
            "51474.99562906876221221041183503465475757"),
    1e153: ("3.141592653589793238462643383279502884197",
            "6.283185307179586476925286766559005768394",
            "40.84070449666731210001436398263353749456",
            "122.5221134900019363000430919479006124837",
            "51474.99562906876221221041183503465475757"),
}


def test_robin_roots_match_40_digit_references():
    from fractions import Fraction

    for bl, refs in _ROOTS_40.items():
        eig = robin_eigen_1d(bl, 1.0, 16385)
        for n, ref in zip((1, 2, 13, 39, 16385), refs):
            a = eig.alphas[n - 1]
            ulps = abs(Fraction(a) - Fraction(ref)) / Fraction(np.spacing(a))
            assert ulps <= Fraction(11, 10), (bl, n, float(ulps))


def test_robin_roots_do_not_depend_on_count():
    # each root is its own Newton climb, so a short solve gives the first
    # roots of a long one, bit for bit, at the edges too
    ell = 1.2
    edges = [1e-300, 1e-100, 1e-40, 1e-30, 1e-20, 1e-12, 1e-9, 1e16, 1e17, 1e19, 1e100]
    for bl in list(np.geomspace(1e-8, 1e8, 41)) + edges:
        full = robin_eigen_1d(bl / ell, ell, 16400)
        for count in range(1, 14):
            eig = robin_eigen_1d(bl / ell, ell, count)
            assert np.array_equal(eig.alphas, full.alphas[:count]), (bl, count)
            assert np.array_equal(eig.norms, full.norms[:count]), (bl, count)


def test_eigenpair_robin_rows_match_mode_system():
    # each axis factor of eigenpair is one row of the mode table that the
    # modal sums use, bit for bit, however few modes it asks for; at the
    # edges (beta L of 1e-40, 1e-20, 1e17 and 1e19, box length 1.2) roots lie
    # within rounding of a multiple of pi
    edges = [bl / 1.2 for bl in (1e-40, 1e-20, 1e17, 1e19)]
    for d, kmax, betas in ((1, 20, list(np.geomspace(1e-3, 1e3, 17)) + edges),
                           (1, 16400, edges), (2, 8, np.geomspace(1e-3, 1e3, 5))):
        p = derive_params(1.0, 0.3, 1.5, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        pts = np.random.default_rng(d).uniform(0.0, box.lengths[0], (9, d))
        for beta in betas:
            bc = BoundarySpec.robin(beta)
            lam, W = mode_system(p, bc, box, pts, TruncationSpec(kmax))
            for k in product(range(1, 14 if d == 1 else 7), repeat=d):
                row = np.ravel_multi_index(np.subtract(k, 1), (kmax + 1,) * d)
                lam_k, w = eigenpair(bc, k, box, p.kappa)
                assert lam_k == lam[row], (beta, k)
                assert np.array_equal(w(pts), W[row]), (beta, k)

def _check_edge_roots(bl, count):
    """Roots where the bisection has no answer: ascending, within rounding of
    their intervals and passing the residual check of robin_eigen_1d.

    A correctly rounded root may equal fl((n-1) pi) or lie one float beyond
    fl(n pi), which are themselves rounded.
    """
    eig = robin_eigen_1d(bl / 1.2, 1.2, count)
    a = eig.alphas
    n = np.arange(1, count + 1)
    assert np.all(np.diff(a) > 0)
    assert np.all(a[1:] >= np.nextafter((n[1:] - 1) * math.pi, -np.inf))
    assert np.all(a <= np.nextafter(n * math.pi, np.inf))
    ulp = np.spacing(a)
    limit = np.minimum(np.maximum(1e-12, 2.0 * ulp), 4.0 * ulp)
    assert np.all(np.abs(eig.eigenvalue_residual()) <= limit)
    with pytest.raises(AssertionError):  # the bisection alone has no answer
        _bisection_reference(bl / 1.2, 1.2, count)


def test_robin_roots_hold_no_count_size_brackets(block_pool):
    # each block returns its roots and norms finished: four count-size
    # bracket arrays and a secant step over them would add more than 3 MB at
    # this count
    import tracemalloc

    for workers in (1, 3):
        block_pool(workers)
        robin_eigen_1d(2.5, 1.2, 100_001)  # the pool's threads exist
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            robin_eigen_1d(2.5, 1.2, 100_001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6.5e6, (workers, peak)

def test_robin_single_root_block_runs_in_the_caller(block_pool):
    # one block of roots runs in the caller; only two or more go to the pool
    pool = block_pool(3)
    edge = spectral._ROOT_BLOCK
    for count, submitted in ((1001, 0), (edge, 0), (edge + 1, 2)):
        pool.submitted = 0
        robin_eigen_1d(2.5, 1.2, count)
        assert pool.submitted == submitted, count


def test_robin_root_block_error_leaves_no_queued_work(block_pool, monkeypatch):
    # (beta L)^2 overflows: the first root block raises on the pool, the error
    # reaches the caller, and the blocks not yet started are cancelled
    pool = block_pool(3)
    futures = []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit", lambda *args: futures.append(submit(*args)) or futures[-1])
    count = 6 * spectral._ROOT_BLOCK
    with pytest.raises(ConvergenceError, match="not finite") as err:
        robin_eigen_1d(1e155 / 1.2, 1.2, count)
    assert any(entry.name == "_run_block" for entry in err.traceback)
    assert all(f.done() or f.running() for f in futures)
    assert len(futures) == 4  # three workers' blocks and the one queued behind the first


def test_robin_roots_for_tiny_beta_and_many_modes():
    # roots within rounding of fl((n-1) pi), where the computed residual at
    # the bracket ends can have the wrong sign
    for bl, count in ((1.2e-6, 120002), (1e-6, 100001), (1e-9, 10001), (1e-30, 1000)):
        _check_edge_roots(bl, count)


@pytest.mark.parametrize("bl,count,n,factor", [
    (1e-100, 3, 1, 10.0),  # root 1 ten times too large at tiny beta L
    (12.0, 2 ** 14 + 20, 2 ** 14 + 5, 1.0 + 1e-9),  # in the second root block
    (1e19, 11, 7, 1.0 + 1e-14),  # 53 ulp off: within 1e-12, not within 4 ulp
])
def test_robin_root_failing_its_residual_check_raises(monkeypatch, bl, count, n, factor):
    # every root passes a residual check relative to its size: one root moved
    # off by a patched Newton method raises, naming the root
    newton = spectral._robin_newton

    def one_root_moved(a, lo, err, c):
        a = newton(a, lo, err, c)
        a[lo == (n - 1) * math.pi] *= factor
        return a

    monkeypatch.setattr(spectral, "_robin_newton", one_root_moved)
    with pytest.raises(ConvergenceError, match=rf"Robin root {n} fails its residual check"):
        robin_eigen_1d(bl, 1.0, count)


def test_robin_roots_for_huge_beta():
    # the stiff limit: roots within rounding of fl(n pi), up to where
    # (beta L)^2 overflows, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bl, count in ((1e17, 1), (1e17, 1001), (1e19, 11), (1e19, 100001),
                          (1e100, 3), (1e100, 13), (1.2e150, 1001)):
            _check_edge_roots(bl, count)


def test_robin_roots_warn_nowhere_and_refuse_beyond_their_range():
    # beta L from the smallest normal float to 1.3e154: roots and finite
    # norms, no warning; beta L of 0 (h ell underflows), 5e-324 or 1e155: an
    # error, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bl in np.geomspace(2.2250738585072014e-308, 1.3e154, 60):
            eig = robin_eigen_1d(bl, 1.0, 50)
            assert np.all(np.isfinite(eig.norms)) and np.all(np.diff(eig.alphas) > 0), bl
        for h, ell in ((1e-200, 1e-200), (5e-324, 1.0), (1e155, 1.0)):
            with pytest.raises(ConvergenceError):
                robin_eigen_1d(h, ell, 50)


@pytest.mark.parametrize("d,kmax", [(1, 1000), (2, 200)])
def test_robin_gram_at_tiny_beta_is_the_neumann_gram(d, kmax):
    # beta -> 0 is the Neumann limit: the Robin Gram lies within its tail plus
    # the folded tail of the exact Neumann Gram (with root 1 ten times too
    # large the d = 1 Gram missed by 0.54 and the d = 2 Gram by 2.29)
    p = derive_params(1.0, 0.3, 1.0, d)
    box = BoxDomain.cubic(0.2, 1.0, d)
    axis = np.linspace(0.1, 1.1, 5 if d == 1 else 3)
    pts = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), -1).reshape(-1, d)
    ref, ref_tail = cov_folded_gram(p, box, "neumann", pts)
    for beta in (1e-60, 1e-100, 1e-200, 1e-300):
        gram, tail = cov_spectral_gram(p, BoundarySpec.robin(beta), box, pts,
                                       TruncationSpec(kmax))
        assert np.max(np.abs(gram - ref)) <= tail + ref_tail, (d, beta)


def test_robin_limits():
    # stiff limit: clamped endpoints
    eig = robin_eigen_1d(1e6, 1.0, 3)
    assert abs(eig.alphas[0] - math.pi) <= 1e-3
    # soft limit: first root collapses like sqrt(2 h ell)
    eig = robin_eigen_1d(1e-6, 1.0, 3)
    assert eig.alphas[0] ** 2 == pytest.approx(2e-6, rel=0.05)
    # bisection oracle for the same root
    c = 1e-6

    def f(a):
        return (a * a - c * c) * math.sin(a) - 2 * c * a * math.cos(a)

    lo, hi = 1e-9, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, f(mid)) == math.copysign(1.0, f(lo)):
            lo = mid
        else:
            hi = mid
    assert eig.alphas[0] == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_robin_norms_match_quadrature():
    eig = robin_eigen_1d(5.0, 1.3, 12)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    xs = 0.5 * 1.3 * (nodes + 1.0)
    ws = 0.5 * 1.3 * weights
    vals = eig.evaluate(xs)
    quad_norms = (vals * vals) @ ws
    assert np.max(np.abs(quad_norms / eig.norms - 1.0)) < 1e-10
    # corrected reference-convention norm differs by the (w/h)^2 parameterization factor
    alt = (eig.alphas ** 2 + 2 * 5.0 * 1.3 + (5.0 * 1.3) ** 2) / (2 * 5.0 ** 2 * 1.3)
    assert np.allclose(eig.norms * (eig.omegas / 5.0) ** 2, alt, rtol=1e-12)


def test_robin_count_validation():
    with pytest.raises(ValueError):
        robin_eigen_1d(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        robin_eigen_1d(-1.0, 1.0, 5)
    # a count that is not an integer: an error, not 13 roots for 12.5
    for count in (2.5, 3.0, 12.5):
        with pytest.raises(ValueError, match="integer"):
            robin_eigen_1d(2.0, 1.0, count)
    # (h ell)^2 overflows: an error, not roots with NaN residuals, nor a warning
    for h in (1e200, 1e300):
        with pytest.raises(ConvergenceError), warnings.catch_warnings():
            warnings.simplefilter("error")
            robin_eigen_1d(h, 1.2, 3)


def test_dirichlet_vanishes_on_boundary():
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    t = TruncationSpec(500)
    # sin(0) is exactly zero; sin(pi k) at the far face is float noise
    assert cov_spectral(p, BoundarySpec.dirichlet(), box, [0.0], [0.5], t) == 0.0
    far = cov_spectral(p, BoundarySpec.dirichlet(), box, [box.lengths[0]], [0.5], t)
    assert abs(far) <= 1e-12


def test_periodic_translation_invariance():
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    t = TruncationSpec(800)
    bc = BoundarySpec.periodic()
    shift = 0.3 * box.lengths[0]
    a = cov_spectral(p, bc, box, [0.1], [0.5], t)
    b = cov_spectral(p, bc, box, [0.1 + shift], [0.5 + shift], t)
    assert abs(a - b) <= 1e-12


def test_spectral_symmetry_and_determinism():
    p = derive_params(1.5, 0.2, 0.8, 2)
    box = BoxDomain.cubic(0.1, 1.0, 2)
    t = TruncationSpec(60)
    bc = BoundarySpec.neumann()
    a = cov_spectral(p, bc, box, [0.2, 0.3], [0.7, 0.9], t)
    b = cov_spectral(p, bc, box, [0.7, 0.9], [0.2, 0.3], t)
    assert a == b
    assert a == cov_spectral(p, bc, box, [0.2, 0.3], [0.7, 0.9], t)


def test_neumann_matches_folded_oracle():
    from maternbox.folded import cov_folded_neumann

    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    spec = cov_spectral(p, BoundarySpec.neumann(), box, [0.1], [0.6],
                        TruncationSpec(20000))
    fold = cov_folded_neumann(p, box, [0.1], [0.6])
    assert abs(spec - fold.value) <= 1e-6


def test_gram_positive_semidefinite():
    p = derive_params(1.0, 0.1, 0.5, 2)
    box = BoxDomain.cubic(0.1, 1.0, 2)
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, box.lengths[0], size=(18, 2))
    for bc in (BoundarySpec.dirichlet(), BoundarySpec.periodic(),
               BoundarySpec.robin(p.kappa)):
        gram, _ = cov_spectral_gram(p, bc, box, pts, TruncationSpec(40))
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-8 * p.sigma2


def test_tail_bound_certifies_truncation():
    p = derive_params(1.0, 0.1, 0.5, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    pts = np.linspace(0.1, 1.1, 5)[:, None]
    ref, _ = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                               TruncationSpec(400000))
    for kmax in (50, 200, 1000, 5000):
        gram, tail = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                       TruncationSpec(kmax))
        actual = float(np.max(np.abs(gram - ref)))
        assert actual <= tail
        # the certificate should not be absurdly loose either
        assert tail <= 500.0 * max(actual, 1e-12)


def test_tail_bound_decreases_in_resolved_regime():
    # once the cap is past the spectral knee (b * kmax >= 1) the certificate
    # must shrink as more modes are kept
    p = derive_params(1.0, 0.1, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    for bc in (BoundarySpec.neumann(), BoundarySpec.periodic(),
               BoundarySpec.robin(p.kappa)):
        tails = [spectral_tail_bound(p, bc, box, k) for k in (8, 32, 128, 512)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert all(t > 0 for t in tails)


def test_tail_bound_positive_where_its_powers_underflow():
    # nu = 50: past the knee the d = 1 tail is c kmax^(1 - 2 alpha) exactly,
    # so it falls by (1000 / kmax)^100 from kmax 1000 (4.2e-147).  At kmax
    # 2402 that is about 4e-185, but R^(1 - 2 alpha) alone underflowed and
    # the tail read 0, a certificate of no truncation at all
    p = derive_params(1.0, 0.1, 50.0, 1)
    box = BoxDomain.cubic(0.1, 1.0, 1)
    for bc in (BoundarySpec.neumann(), BoundarySpec.periodic()):
        ref = spectral_tail_bound(p, bc, box, 1000)
        for kmax in (2402, 5000):
            want = ref * (1000 / kmax) ** (2 * p.alpha - 1)
            assert spectral_tail_bound(p, bc, box, kmax) == pytest.approx(want, rel=1e-12, abs=0)


def test_robin_exact_for_exponential_kernel():
    # with beta = kappa the modal route reproduces the kernel up to truncation
    p = derive_params(1.0, 0.1, 0.5, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    bc = BoundarySpec.robin(p.kappa)
    trunc = TruncationSpec(30000)
    pts = np.linspace(0.1, 1.1, 6)[:, None]
    gram, tail = cov_spectral_gram(p, bc, box, pts, trunc)
    for i in range(6):
        for j in range(6):
            err = abs(gram[i, j] - matern_cov(p, pts[i], pts[j]))
            assert err <= tail
    # off-diagonal entries converge far below the uniform tail
    assert abs(gram[0, 3] - matern_cov(p, pts[0], pts[3])) <= 1e-8


@pytest.mark.parametrize("nu", [0.5, 1.5])
def test_robin_accelerated_tail_certifies(nu):
    # beta L from below pi (the first Neumann gap) to far above every kmax pi
    p = derive_params(1.0, 0.1, nu, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    L = box.lengths[0]
    pts = np.linspace(0.1, 1.1, 7)[:, None]
    for beta in (1.0, p.kappa, 1e7):
        bc = BoundarySpec.robin(beta)
        if nu == 0.5 and beta == p.kappa:
            ref, ref_tail = matern_gram(p, pts), 0.0
        else:
            ref, ref_tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(20000))
        big = (plain_spectral_gram(p, bc, box, pts, TruncationSpec(20000))
               - plain_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                     TruncationSpec(20000)))
        for kmax in (0, 10, 1000):
            gram, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(kmax))
            assert np.max(np.abs(gram - ref)) <= tail + ref_tail, (beta, kmax)
            # the derived remainder alone covers the differences it omits
            small = (plain_spectral_gram(p, bc, box, pts, TruncationSpec(kmax))
                     - plain_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                           TruncationSpec(kmax)))
            rest = _robin_neumann_remainder(p, beta, L, kmax)
            assert np.max(np.abs(big - small)) <= rest + 1e-12, (beta, kmax)


def test_robin_tail_never_above_plain_tail():
    # long-range kernels: no image radius up to 128 certifies the Neumann sum
    # below the Robin remainder, the default radius leaves a folded remainder
    # near 1e-8 sigma^2, and the plain sum is returned with its smaller tail
    box = BoxDomain.cubic(0.2, 1.0, 1)
    pts = np.linspace(0.1, 1.1, 7)[:, None]
    for nu, rho in ((2.5, 1.0), (1.5, 1.0), (0.5, 0.1)):
        p = derive_params(1.0, rho, nu, 1)
        for beta in (1.0, p.kappa, 1e7):
            bc = BoundarySpec.robin(beta)
            for kmax in (0, 10, 1000):
                _, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(kmax))
                assert tail <= spectral_tail_bound(p, bc, box, kmax), (nu, beta, kmax)
    p = derive_params(1.0, 15.0, 2.5, 1)
    bc = BoundarySpec.robin(p.kappa)
    gram, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(1000))
    assert tail == spectral_tail_bound(p, bc, box, 1000) < 1e-12
    assert np.array_equal(gram, plain_spectral_gram(p, bc, box, pts,
                                                    TruncationSpec(1000)))


def test_robin_image_radius_meets_the_remainder():
    # smooth kernels: the Neumann image radius is picked for the Robin
    # remainder, so the accelerated tail keeps falling like kmax^(-2 alpha)
    # past the default 1e-8 sigma^2 folded remainder
    from maternbox.folded import cov_folded_gram

    box = BoxDomain.cubic(0.2, 1.0, 1)
    pts = np.linspace(0.1, 1.1, 7)[:, None]
    p = derive_params(1.0, 1.0, 2.5, 1)
    _, default_tail = cov_folded_gram(p, box, "neumann", pts)
    for beta in (1.0, p.kappa):
        bc = BoundarySpec.robin(beta)
        ref, ref_tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(4000))
        for kmax in (100, 1000):
            gram, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(kmax))
            rest = _robin_neumann_remainder(p, beta, box.lengths[0], kmax)
            assert rest < tail <= 2.0 * rest < 1e-2 * default_tail, (beta, kmax)
            assert tail < 0.1 * spectral_tail_bound(p, bc, box, kmax)
            assert np.max(np.abs(gram - ref)) <= tail + ref_tail + 1e-15, (beta, kmax)
    # at rest >= 1e-8 sigma^2 the default radius stays: the route is unchanged
    p = derive_params(1.0, 0.1, 0.5, 1)
    bc = BoundarySpec.robin(p.kappa)
    rest = _robin_neumann_remainder(p, p.kappa, box.lengths[0], 100)
    fold, fold_tail = cov_folded_gram(p, box, "neumann", pts)
    assert rest >= 1e-8 * p.sigma2
    gram, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(100))
    assert tail == fold_tail + rest
    diff = (plain_spectral_gram(p, bc, box, pts, TruncationSpec(100))
            - plain_spectral_gram(p, BoundarySpec.neumann(), box, pts, TruncationSpec(100)))
    assert np.array_equal(gram, fold + diff)


def test_tail_bound_certifies_below_the_knee():
    # kmax below the spectral knee: the plain truncation tail still bounds
    # what the cap discards (the exact folded sums are the reference)
    from maternbox.folded import cov_folded_gram

    for d, nu in ((1, 0.5), (1, 1.5), (2, 3.0)):
        p = derive_params(1.0, 0.1, nu, d)
        box = BoxDomain.cubic(0.2, 1.0, d)
        g = np.linspace(0.1, 1.1, 7 if d == 1 else 4)
        pts = g[:, None] if d == 1 else np.array([[a, b] for a in g for b in g])
        for kind in ("neumann", "dirichlet", "periodic"):
            fold, ftail = cov_folded_gram(p, box, kind, pts)
            for kmax in (0, 1, 2, 5):
                gram, tail = cov_spectral_gram(p, BoundarySpec(kind), box, pts,
                                               TruncationSpec(kmax))
                assert np.max(np.abs(gram - fold)) <= tail + ftail, (d, nu, kind, kmax)


def test_robin_plain_sum_when_images_cannot_certify():
    # rho far beyond the box: no image radius certifies the Neumann sum
    p = derive_params(1.0, 100.0, 0.5, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    bc = BoundarySpec.robin(p.kappa)
    pts = np.array([[0.1], [0.6]])
    gram, tail = cov_spectral_gram(p, bc, box, pts, TruncationSpec(50))
    assert tail == spectral_tail_bound(p, bc, box, 50)
    assert np.array_equal(gram, plain_spectral_gram(p, bc, box, pts,
                                                    TruncationSpec(50)))


def test_points_outside_box_rejected():
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    with pytest.raises(ValueError):
        cov_spectral(p, BoundarySpec.neumann(), box, [-0.5], [0.5],
                     TruncationSpec(10))


def test_robin_interpolates_between_neumann_and_dirichlet():
    # the Robin coefficient sweeps the covariance from the Neumann limit
    # (beta -> 0) to the Dirichlet limit (beta -> inf)
    p = derive_params(1.0, 0.1, 1.0, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    pts = np.linspace(0.1, 1.1, 6)[:, None]
    tr = TruncationSpec(4000)
    g_n, _ = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts, tr)
    g_d, _ = cov_spectral_gram(p, BoundarySpec.dirichlet(), box, pts, tr)
    g_soft, _ = cov_spectral_gram(p, BoundarySpec.robin(1e-6), box, pts, tr)
    g_stiff, _ = cov_spectral_gram(p, BoundarySpec.robin(1e7), box, pts, tr)
    assert np.max(np.abs(g_soft - g_n)) <= 1e-6
    assert np.max(np.abs(g_stiff - g_d)) <= 1e-5


def test_spectral_equals_folded_d3():
    from maternbox.folded import cov_folded_gram

    p = derive_params(1.0, 0.2, 0.5, 3)
    box = BoxDomain.cubic(0.2, 1.0, 3)
    ax = np.linspace(0.1, 1.1, 2)
    pts = np.stack([a.ravel() for a in np.meshgrid(ax, ax, ax, indexing="ij")],
                   axis=-1)
    spec, stail = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                    TruncationSpec(60))
    fold, ftail = cov_folded_gram(p, box, "neumann", pts)
    assert np.max(np.abs(spec - fold)) <= stail + ftail


def test_spectral_equals_folded_rectangular_box():
    from maternbox.folded import cov_folded_gram

    p = derive_params(1.0, 0.1, 1.0, 2)
    rect = BoxDomain(delta=0.2, ell=1.0, lengths=(1.2, 1.8), d=2)
    ax = np.linspace(0.1, 1.1, 3)
    pts = np.stack([a.ravel() for a in np.meshgrid(ax, ax, indexing="ij")],
                   axis=-1)
    for kind in ("dirichlet", "neumann", "periodic"):
        spec, stail = cov_spectral_gram(p, BoundarySpec(kind), rect, pts,
                                        TruncationSpec(900))
        fold, ftail = cov_folded_gram(p, rect, kind, pts)
        assert np.max(np.abs(spec - fold)) <= 1e-6 + stail + ftail, kind


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "periodic", "robin"])
def test_modal_gram_matches_mode_by_mode_sum(d, kind):
    # the sum streamed through mode blocks (d = 1, kmax spanning several
    # blocks) and the contraction over distinct pair columns and eigenvalue
    # groups (d >= 2; at kmax 300 in d = 2, W spans two row blocks) against
    # eta^2 sum_k lambda_k^(-alpha) w_k(x) w_k(y) over the explicit modes
    p = derive_params(1.0, 0.2, 1.0, d)
    bc = BoundarySpec(kind, 2.5 if kind == "robin" else None)
    tr = TruncationSpec({1: 30000, 2: 300, 3: 6}[d])
    rng = np.random.default_rng(d)
    for box in (BoxDomain.cubic(0.2, 1.0, d),
                BoxDomain(delta=0.2, ell=1.0, lengths=(1.2, 1.7, 1.45)[:d], d=d)):
        lengths = np.asarray(box.lengths)
        ax = np.linspace(0.0, 1.2, 4 if d == 2 else 3)  # boundary and repeated coordinates
        grid = np.stack([a.ravel() for a in np.meshgrid(*[ax] * d, indexing="ij")], axis=-1)
        scattered = rng.uniform(0.0, 1.0, (10, d)) * lengths
        mixed = np.concatenate([grid[:5], scattered[:4], grid[2:3]])  # a repeated point
        for pts in (grid, scattered, mixed):
            lam, W = mode_system(p, bc, box, pts, tr)
            ref = W.T @ (p.eta2 * lam[:, None] ** (-p.alpha) * W)
            got = plain_spectral_gram(p, bc, box, pts, tr)
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), box.lengths


def test_d1_modal_gram_memory_independent_of_kmax(block_pool):
    # the d = 1 table streams through blocks of about 2^16 values, each
    # block with its partial Gram on the pool: at kmax 1e5 on 15 points the
    # whole periodic table would be 24 MB.  Each Gram is made once before
    # the count, so the pool's threads exist and the Robin roots (16 bytes
    # a root) are cached: the count sees the blocks alone
    import tracemalloc

    p = derive_params(1.0, 0.1, 0.5, 1)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    pts = np.linspace(0.1, 1.1, 15)[:, None]
    trunc = TruncationSpec(100000)
    for workers in (1, 4):
        block_pool(workers)
        for bc, bound in ((BoundarySpec.periodic(), 4 * 2 ** 20),
                          (BoundarySpec.robin(3.0), 5 * 2 ** 20)):
            plain_spectral_gram(p, bc, box, pts, trunc)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                plain_spectral_gram(p, bc, box, pts, trunc)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= bound, (workers, bc.kind, peak)


def _pair_gather_reference(p, bc, box, pts, kmax):
    # the d >= 2 contraction as each Gram pair gathering its own columns:
    # the same W row blocks and the same einsum over Fortran-ordered gathers
    n = pts.shape[0]
    iu = np.triu_indices(n)
    axes = [spectral._axis_pair_columns(bc, box.lengths[i], kmax, pts[:, i], iu)
            for i in range(box.d)]
    (mu1, G1, col1), (mu2, G2, col2) = axes[:2]
    G1 = G1[:, col1]
    WG = np.empty((mu1.size, G2.shape[1]))
    rows = max(1, spectral._BLOCK_VALUES // max(mu2.size, 1))
    vals = np.zeros(iu[0].size)
    for idx in product(*(range(mu.size) for mu, _, _ in axes[2:])):
        shift = sum(mu[c] for (mu, _, _), c in zip(axes[2:], idx))
        for i in range(0, mu1.size, rows):
            W = mu1[i:i + rows, None] + mu2[None, :] + shift
            W /= p.kappa ** 2
            W += 1.0
            W **= -p.alpha
            W *= p.eta2
            np.matmul(W, G2, out=WG[i:i + rows])
        term = np.einsum("ip,ip->p", G1, WG[:, col2])
        for (_, g, col), c in zip(axes[2:], idx):
            term *= g[c, col]
        vals += term
    gram = np.empty((n, n))
    gram[iu] = vals
    gram.T[iu] = vals
    return gram


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "periodic", "robin"])
def test_distinct_column_contraction_equals_pair_gathers_bitwise(kind):
    # chunks of distinct (col1, col2) combinations, scattered to the pairs,
    # give each pair the bits of its own gathered columns; kmax 300 takes
    # several chunks, the one- and three-point sets one
    bc = BoundarySpec(kind, 2.5 if kind == "robin" else None)
    for d, kmax, n in ((2, 300, 5), (2, 30, 10), (3, 6, 4)):
        p = derive_params(1.0, 0.1, 1.0, d)
        box = BoxDomain(delta=0.2, ell=1.0, lengths=(1.2, 1.7, 1.45)[:d], d=d)
        ax = np.linspace(0.1, 1.1, n)
        grid = np.stack([a.ravel() for a in np.meshgrid(*[ax] * d, indexing="ij")], axis=-1)
        for pts in (grid, grid[:1], grid[[0, 0, 3]]):
            ref = _pair_gather_reference(p, bc, box, pts, kmax)
            assert np.array_equal(plain_spectral_gram(p, bc, box, pts, TruncationSpec(kmax)),
                                  ref), (d, kmax, len(pts))


def test_d2_modal_gram_memory_not_per_pair():
    # a 10 x 10 grid has 5050 pairs; gathering two (1001 x 5050) column
    # arrays per pair peaked at 82.7 MB, chunks of distinct columns at 2.9 MB
    import tracemalloc

    p = derive_params(1.0, 0.1, 1.0, 2)
    box = BoxDomain.cubic(0.2, 1.0, 2)
    ax = np.linspace(0.1, 1.1, 10)
    pts = np.stack([a.ravel() for a in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plain_spectral_gram(p, BoundarySpec.neumann(), box, pts, TruncationSpec(1000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


def _joined(fn, timeout=120.0):
    """fn() run in a thread joined with a timeout, so a deadlock fails instead of hanging."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:  # handed back to the test below
            out.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "no result within the timeout: deadlock?"
    ok, value = out[0]
    if not ok:
        raise value
    return value


# d = 1 Grams at kmax 20000 on 15 points: Robin over 5 mode blocks (4369
# roots a block), Neumann over 5 (30 anchors of 142 modes), periodic over 10
# (15 anchors); d = 2 periodic and Robin Grams at kmax 500 over 4 weight row
# blocks (130 rows); Robin roots over 3 and 4 root blocks, one below, at and
# one above a block edge, and at tiny and huge beta L; a periodic ensemble
# over 3 draw blocks (201 modes: 256 draws a block); folded Grams whose rows
# split into one run per worker (d = 2 Neumann, d = 3 Dirichlet); and a
# kernel batch of 3 point blocks, which run in the caller
_P1 = derive_params(1.0, 0.1, 0.5, 1)
_BOX1 = BoxDomain.cubic(0.2, 1.0, 1)
_PTS1 = np.linspace(0.1, 1.1, 15)[:, None]
_P2, _P3 = derive_params(1.0, 1.0, 1.0, 2), derive_params(1.0, 0.5, 1.0, 3)
_PTS2 = np.linspace(0.1, 1.1, 12).reshape(6, 2)
_PTS3 = np.linspace(0.1, 1.1, 12).reshape(4, 3)
_X = np.linspace(0.01, 60.0, 3 * specfun._POINT_BLOCK)
_EDGE = 3 * spectral._ROOT_BLOCK
_ROOTS = [(2.5, _EDGE - 1), (2.5, _EDGE), (2.5, _EDGE + 1), (1e-30, _EDGE + 1),
          (1e150, _EDGE + 1)]


def _pooled_work():
    grams = [cov_spectral_gram(_P1, BoundarySpec(kind, beta), _BOX1, _PTS1,
                               TruncationSpec(20000))
             for kind, beta in (("robin", 3.0), ("neumann", None), ("periodic", None))]
    grams += [cov_spectral_gram(_P2, bc, BoxDomain(0.1, 1.0, (1.1, 1.3), 2), _PTS2,
                                TruncationSpec(500))
              for bc in (BoundarySpec.periodic(), BoundarySpec.robin(2.0))]
    roots = [robin_eigen_1d(bl / 1.2, 1.2, count) for bl, count in _ROOTS]
    ens = sample_ensemble(_P1, BoundarySpec.periodic(), _BOX1, _PTS1[::2], TruncationSpec(100),
                          77, 700)
    return (grams, [(eig.alphas, eig.norms) for eig in roots],
            np.stack([s.values for s in ens]),
            cov_folded_gram(_P2, BoxDomain.cubic(0.1, 1.0, 2), "neumann", _PTS2),
            cov_folded_gram(_P3, BoxDomain.cubic(0.1, 1.0, 3), "dirichlet", _PTS3),
            log_bessel_k(1.5, _X))


def _assert_same_work(a, b):
    """Equal bits in every array and every tail of two _pooled_work results."""
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for part_a, part_b in zip(a, b):
            _assert_same_work(part_a, part_b)
    else:
        assert np.array_equal(a, b)


def test_map_blocks_keeps_order_and_bounds_work_in_flight(block_pool):
    pool = block_pool(3)
    for i, value in enumerate(_joined(lambda: list(_blocks._map_blocks(
            lambda b: (b * b, pool.submitted), range(20))))):
        # block i ran with at most 3 blocks submitted beyond it
        assert value[0] == i * i and value[1] <= i + 1 + 3
    assert pool.submitted == 20
    pool = block_pool(1)
    assert _joined(lambda: list(_blocks._map_blocks(lambda b: -b, range(5)))) == [0, -1, -2, -3, -4]
    assert pool.submitted == 0  # one worker: the caller runs every block


def test_one_and_three_worker_pools_agree_bitwise(block_pool):
    serial_pool = block_pool(1)
    serial = _joined(_pooled_work)
    pool = block_pool(3)
    pooled = _joined(_pooled_work)
    # Robin, Neumann and periodic mode blocks, twice 4 weight row blocks,
    # root blocks, draw blocks and 3 row runs per folded Gram (each from
    # distances to row sums)
    assert serial_pool.submitted == 0
    assert pool.submitted >= 5 + 5 + 10 + 2 * 4 + (3 + 3 + 4 * 3) + 3 + 2 * 3
    _assert_same_work(serial, pooled)


def test_pool_blocks_call_no_public_layer_name(block_pool, monkeypatch):
    # bench/spans.py wraps every __all__ function of the layer modules, in
    # every namespace that binds it, and its span stack is not thread-safe:
    # every such call must come from the main thread, never from a block
    import maternbox

    layers = [importlib.import_module(f"maternbox.{name}") for name in
              ("specfun", "matern", "folded", "bounds", "spectral", "sampler", "experiments")]
    public = {}
    for mod in layers:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not isinstance(obj, type):
                public[id(obj)] = f"{mod.__name__}.{name}"
    strays = []

    def main_thread_only(fn, name):
        def wrapped(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                strays.append(name)
                raise AssertionError(f"{name} called from a pool block")
            return fn(*args, **kwargs)
        return wrapped

    for mod in [maternbox] + layers:
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in public:
                monkeypatch.setattr(mod, attr, main_thread_only(value, public[id(value)]))
    assert threading.current_thread() is threading.main_thread()
    pool = block_pool(3)
    for (d, p, pts), kind, drop in product(((2, _P2, _PTS2), (3, _P3, _PTS3)),
                                           ("dirichlet", "neumann", "periodic"), (False, True)):
        maternbox.cov_folded_gram(p, BoxDomain.cubic(0.1, 1.0, d), kind, pts, drop_identity=drop)
    assert pool.submitted == 2 * 3 * 2 * 3  # 3 row runs per Gram
    maternbox.cov_spectral_gram(_P1, BoundarySpec.robin(3.0), _BOX1, _PTS1, TruncationSpec(20000))
    maternbox.sample_ensemble(_P1, BoundarySpec.periodic(), _BOX1, _PTS1[::2],
                              TruncationSpec(100), 77, 700)
    # the Robin Gram's mode blocks and Neumann row runs, and 3 draw blocks
    assert pool.submitted >= 36 + 5 + 3 + 3
    assert not strays, strays


def test_concurrent_callers_get_the_serial_results(block_pool):
    block_pool(1)
    serial = _joined(_pooled_work)
    block_pool(3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = [None] * 4
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, _pooled_work()),
                                    daemon=True) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(240.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads), "deadlock?"
    for result in results:
        _assert_same_work(serial, result)


def _work_in_child(conn):
    conn.send(_pooled_work())
    conn.close()


def test_forked_child_draws_what_the_parent_drew(block_pool):
    block_pool(3)
    parent = _joined(_pooled_work)  # the pool's threads now exist
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_work_in_child, args=(send,), daemon=True)
    child.start()
    send.close()
    try:
        assert recv.poll(120.0), "no work from the child within the timeout: deadlock?"
        done = recv.recv()
    finally:
        child.join(30.0)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    _assert_same_work(done, parent)


def test_block_that_maps_blocks_runs_them_itself(block_pool):
    # a block on the pool that maps blocks would wait on its own pool: it
    # runs them in its own thread, in order, and gets the serial result
    pool = block_pool(2)

    def outer(b):
        here = threading.get_ident()
        return [(b, k, ident == here) for k, ident in _blocks._map_blocks(
            lambda k: (k * k, threading.get_ident()), range(4))]

    got = _joined(lambda: list(_blocks._map_blocks(outer, range(5))), timeout=30.0)
    assert got == [[(b, k * k, True) for k in range(4)] for b in range(5)]
    assert pool.submitted == 5
