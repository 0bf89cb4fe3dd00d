"""One input contract: finite point sets, matching dimensions, valid separations
and scalars."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from maternbox import specfun
from maternbox.bounds import (
    aniso_error_bound,
    dirichlet_error_bound,
    eulerian_number,
    lattice_error_bound,
    lattice_kernel_sum,
    polylog_partial,
    power_sum_closed,
    window_error_bound,
)
from maternbox.folded import (
    cov_folded,
    cov_folded_dirichlet,
    cov_folded_gram,
    cov_folded_neumann,
    cov_folded_periodic,
    image_tail_bound,
    pick_radius,
)
from maternbox.matern import (
    AnisoMetric,
    decay_factor,
    derive_params,
    matern_cov,
    matern_cov_aniso,
    matern_gram,
    radiation_residual,
    unit_matern,
)
from maternbox.sampler import empirical_cov, sample_ensemble, sample_field, sample_values
from maternbox.specfun import bessel_k, bessel_k_quadrature, ln_gamma, log_bessel_k
from maternbox.spectral import (
    BoundarySpec,
    BoxDomain,
    TruncationSpec,
    cov_spectral,
    cov_spectral_gram,
    eigenpair,
    mode_system,
    plain_spectral_gram,
    robin_eigen_1d,
    spectral_tail_bound,
)

P1 = derive_params(1.0, 0.1, 1.0, 1)
P2 = derive_params(1.0, 0.1, 1.0, 2)
BOX1 = BoxDomain.cubic(0.2, 1.0, 1)
BOX2 = BoxDomain.cubic(0.2, 1.0, 2)
NEUMANN = BoundarySpec.neumann()
ROBIN = BoundarySpec.robin(P1.kappa)
TRUNC = TruncationSpec(50)

# entry points taking a point set, as functions of the points (d = 1)
SETS = {
    "matern_gram": lambda pts: matern_gram(P1, pts),
    "cov_folded_gram": lambda pts: cov_folded_gram(P1, BOX1, "neumann", pts),
    "cov_folded_gram_radius": lambda pts: cov_folded_gram(P1, BOX1, "periodic", pts, 3),
    "cov_spectral_gram": lambda pts: cov_spectral_gram(P1, NEUMANN, BOX1, pts, TRUNC),
    "cov_spectral_gram_robin": lambda pts: cov_spectral_gram(P1, ROBIN, BOX1, pts, TRUNC),
    "plain_spectral_gram": lambda pts: plain_spectral_gram(P1, NEUMANN, BOX1, pts, TRUNC),
    "mode_system": lambda pts: mode_system(P1, NEUMANN, BOX1, pts, TRUNC),
    "eigenfunction": lambda pts: eigenpair(NEUMANN, (1,), BOX1, P1.kappa)[1](pts),
    "sample_field": lambda pts: sample_field(P1, NEUMANN, BOX1, pts, TRUNC, 3),
    "sample_ensemble": lambda pts: sample_ensemble(P1, NEUMANN, BOX1, pts, TRUNC, 3, 2),
    "sample_values": lambda pts: sample_values(P1, NEUMANN, BOX1, pts, TRUNC, 3, 2),
}
# entry points taking a pair of points, as functions of the first point (d = 1)
PAIRS = {
    "matern_cov": lambda x: matern_cov(P1, x, [0.5]),
    "matern_cov_aniso": lambda x: matern_cov_aniso(
        1.0, 1.0, AnisoMetric(np.eye(1), np.array([0.1])), x, [0.5]),
    "cov_folded": lambda x: cov_folded(P1, BOX1, "neumann", x, [0.5]),
    "cov_folded_periodic": lambda x: cov_folded_periodic(P1, BOX1, x, [0.5]),
    "cov_folded_neumann": lambda x: cov_folded_neumann(P1, BOX1, x, [0.5]),
    "cov_folded_dirichlet": lambda x: cov_folded_dirichlet(P1, BOX1, x, [0.5]),
    "cov_spectral": lambda x: cov_spectral(P1, NEUMANN, BOX1, x, [0.5], TRUNC),
    "cov_spectral_robin": lambda x: cov_spectral(P1, ROBIN, BOX1, x, [0.5], TRUNC),
}
# (case, bad point set, bad point, message after the argument's name); the
# infinite ones come last; a bad coordinate is named by its index in the input
_NOT_FINITE = r"\[[0-9, ]+\] must be a finite number, got "
BAD = [
    ("nan", [[0.1], [math.nan]], [math.nan], _NOT_FINITE),
    ("wrong_width", [[0.1, 0.2]], [[0.1, 0.2]], " must have shape"),
    ("three_dims", [[[0.1]], [[0.2]]], [[[0.1]]], " must have shape"),
    ("empty", np.empty((0, 1)), [], " must have shape"),
    ("two_points", None, [0.1, 0.2], " must have shape"),
    ("inf", [[0.1], [math.inf]], [math.inf], _NOT_FINITE),
    ("minus_inf", [[-math.inf], [0.1]], [-math.inf], _NOT_FINITE),
]
CASES = [(f"{name}-{case}", fn, bad, f"{arg}{msg}")
         for case, pts, x, msg in BAD
         for entries, bad, arg in ((SETS, pts, "points"), (PAIRS, x, "x")) if bad is not None
         for name, fn in entries.items()]


@pytest.mark.parametrize("fn,bad,msg", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_points_raise(fn, bad, msg):
    with pytest.raises(ValueError, match=msg):
        fn(bad)


@pytest.mark.parametrize("params,box", [(P1, BOX2), (P2, BOX1)], ids=["d1_on_box2", "d2_on_box1"])
def test_dimension_mismatch_raises(params, box):
    kernel_pts = np.full((2, params.d), 0.3)  # valid for the kernel
    box_pts = np.full((2, box.d), 0.3)  # valid for the box
    calls = [
        lambda: cov_folded_gram(params, box, "neumann", kernel_pts),
        lambda: cov_spectral_gram(params, NEUMANN, box, box_pts, TRUNC),
        lambda: cov_spectral_gram(params, BoundarySpec.robin(1.0), box, box_pts, TRUNC),
        lambda: plain_spectral_gram(params, NEUMANN, box, box_pts, TRUNC),
        lambda: mode_system(params, NEUMANN, box, box_pts, TRUNC),
        lambda: sample_field(params, NEUMANN, box, box_pts, TRUNC, 3),
        lambda: spectral_tail_bound(params, NEUMANN, box, 40),
        lambda: image_tail_bound(params, box, 3, bc="neumann"),
        lambda: pick_radius(params, box, "neumann"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="dimension"):
            call()


@pytest.mark.parametrize("sep", [math.nan, -5.0, [0.1, -1e-300], [0.1, math.nan], math.inf])
def test_bad_separation_raises(sep):
    for call in (lambda: image_tail_bound(P1, BOX1, 3, bc="neumann", separation_inf=sep),
                 lambda: pick_radius(P1, BOX1, "neumann", separation_inf=sep)):
        with pytest.raises(ValueError, match="separation_inf"):
            call()


def test_one_dim_points_are_a_column():
    x = np.linspace(0.1, 1.1, 10)
    col = x[:, None]
    for kind in ("periodic", "neumann", "dirichlet"):
        for radius in (None, 3):
            g1, t1 = cov_folded_gram(P1, BOX1, kind, x, radius)
            g2, t2 = cov_folded_gram(P1, BOX1, kind, col, radius)
            assert np.array_equal(g1, g2) and t1 == t2
    assert np.array_equal(matern_gram(P1, x), matern_gram(P1, col))
    s1 = sample_field(P1, NEUMANN, BOX1, x, TRUNC, 5)
    s2 = sample_field(P1, NEUMANN, BOX1, col, TRUNC, 5)
    assert s1.grid.shape == (10, 1) and s1.values.shape == (10,)
    assert np.array_equal(s1.grid, col) and np.array_equal(s1.values, s2.values)


@pytest.mark.parametrize("radius", [2.5, 3.0, -1, "3", None, True, False])
def test_bad_radius_raises(radius):
    # an explicit radius is an integer >= 0 (>= 1 for image_tail_bound): a
    # fractional one would sum a wrong image set under a valid-looking tail,
    # and a bool is no radius (True was taken as radius 1)
    x, y = [0.3], [0.7]
    calls = [lambda: image_tail_bound(P1, BOX1, radius, bc="neumann")]
    if radius is not None:
        calls += [lambda: cov_folded_gram(P1, BOX1, "periodic", [x, y], radius),
                  lambda: cov_folded_periodic(P1, BOX1, x, y, radius),
                  lambda: cov_folded(P1, BOX1, "dirichlet", x, y, radius)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^radius must be an integer >= [01], got "):
            call()
    with pytest.raises(ValueError, match=r"^radius must be an integer >= 1, got 0$"):
        image_tail_bound(P1, BOX1, 0)


def test_integer_radius_types_agree():
    pts = [[0.3], [0.7]]
    ref = cov_folded_gram(P1, BOX1, "neumann", pts, 3)
    got = cov_folded_gram(P1, BOX1, "neumann", pts, np.int64(3))
    assert np.array_equal(ref[0], got[0]) and ref[1] == got[1]
    assert cov_folded(P1, BOX1, "neumann", [0.3], [0.7], np.int32(0)).radius == 0
    for radius in (np.int64(3), np.uint8(3)):
        assert _bits(image_tail_bound(P1, BOX1, radius)) == _bits(image_tail_bound(P1, BOX1, 3))


@pytest.mark.parametrize("bc,k", [(NEUMANN, (1.7,)), (ROBIN, (1.7,)), (ROBIN, (2.0,)),
                                  (BoundarySpec.periodic(), np.array([-1.5])),
                                  (NEUMANN, ("1",))])
def test_eigenpair_index_must_be_integer(bc, k):
    # a fractional index was truncated: (1.7,) gave mode 1 under a valid-looking pair
    with pytest.raises(ValueError, match=r"^k\[0\] must be an integer"):
        eigenpair(bc, k, BOX1, P1.kappa)


def test_eigenpair_integer_index_types_agree():
    for bc in (NEUMANN, ROBIN):
        lam, w = eigenpair(bc, (2,), BOX1, P1.kappa)
        for k in (2, np.int64(2), np.array([2], dtype=np.int32)):
            for kappa in (P1.kappa, np.float64(P1.kappa)):
                lam_k, w_k = eigenpair(bc, k, BOX1, kappa)
                assert _bits((lam_k, w_k([0.3]))) == _bits((lam, w([0.3])))


@pytest.mark.parametrize("bad", [(math.inf, 0.1, 1.0), (1.0, math.inf, 1.0), (1.0, 0.1, math.inf),
                                 (math.nan, 0.1, 1.0), (1.0, -math.inf, 1.0), (1.0, 0.1, 0.0)])
def test_derive_params_needs_finite_positive_values(bad):
    # sigma2 = inf gave inf folded Grams and tails, rho = inf a math domain error;
    # each value is read by as_real, so the message names the first bad one
    name, value = next((name, v) for name, v in zip(("sigma2", "rho", "nu"), bad)
                       if not 0 < v < math.inf)
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number > 0, "
                                         rf"got {re.escape(repr(value))}$"):
        derive_params(*bad, 1)


def _bits(out):
    """An output as comparable bits: dataclasses and tuples flattened, floats
    and arrays by their bytes, everything else by type and value."""
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (tuple, list)):
        return [b for part in out for b in _bits(part)]
    if isinstance(out, (float, np.ndarray)):
        return [(type(out), np.asarray(out).dtype, np.asarray(out).tobytes())]
    return [(type(out), out)]


M1 = AnisoMetric(np.eye(1), np.array([0.1]))
DIRICHLET, PERIODIC = BoundarySpec.dirichlet(), BoundarySpec.periodic()


def _pair(bc, k, box, kappa):
    lam, w = eigenpair(bc, k, box, kappa)
    return lam, w([0.3] * box.d)


# every integer argument the package reads: id -> (argument, least value or
# None, a valid value, the call of one value)
INTEGERS = {
    "image_tail_bound": ("radius", 1, 3, lambda v: image_tail_bound(P1, BOX1, v, bc="neumann")),
    "cov_folded_gram": ("radius", 0, 3,
                        lambda v: cov_folded_gram(P1, BOX1, "periodic", [[0.3], [0.7]], v)),
    "cov_folded": ("radius", 0, 2, lambda v: cov_folded(P1, BOX1, "dirichlet", [0.3], [0.7], v)),
    "TruncationSpec": ("kmax", 0, 50, lambda v: TruncationSpec(v)),
    "spectral_tail_bound": ("kmax", 0, 40, lambda v: spectral_tail_bound(P1, NEUMANN, BOX1, v)),
    "robin_eigen_1d": ("count", 1, 13, lambda v: robin_eigen_1d(2.0, 1.2, v)),
    "eigenpair_neumann": ("k[0]", 0, 2, lambda v: _pair(NEUMANN, (v,), BOX1, P1.kappa)),
    "eigenpair_dirichlet": ("k[0]", 1, 2, lambda v: _pair(DIRICHLET, (v,), BOX1, P1.kappa)),
    "eigenpair_robin": ("k[0]", 1, 2, lambda v: _pair(ROBIN, (v,), BOX1, P1.kappa)),
    "eigenpair_periodic": ("k[0]", None, -2, lambda v: _pair(PERIODIC, (v,), BOX1, P1.kappa)),
    "eigenpair_axis1": ("k[1]", 0, 2, lambda v: _pair(NEUMANN, (1, v), BOX2, P2.kappa)),
    "sample_values_seed": ("seed", None, 7,
                           lambda v: sample_values(P1, NEUMANN, BOX1, [0.3, 0.7], TRUNC, v, 2)),
    "sample_values_n": ("n", 1, 3,
                        lambda v: sample_values(P1, NEUMANN, BOX1, [0.3, 0.7], TRUNC, 7, v)),
    "polylog_partial": ("terms", 1, 20, lambda v: polylog_partial(1.0, 0.5, v)),
    "power_sum_closed": ("d", 1, 3, lambda v: power_sum_closed(v, 0.5)),
    "eulerian_number_n": ("n", 0, 5, lambda v: eulerian_number(v, 1)),
    "eulerian_number_k": ("k", 0, 2, lambda v: eulerian_number(5, v)),
}
# the dimension of a kernel, a box or a bound: BoxDomain.cubic(0.2, 1.0, 2.5)
# built a d = 2 box and BoxDomain(0.2, 1.0, (1.2,), True) kept d = True
DIMENSIONS = {
    "derive_params_d": ("d", 1, 2, lambda v: derive_params(1.0, 0.1, 1.0, v)),
    "BoxDomain_d": ("d", 1, 1, lambda v: BoxDomain(0.2, 1.0, (1.2,), v)),
    "BoxDomain_cubic_d": ("d", 1, 2, lambda v: BoxDomain.cubic(0.2, 1.0, v)),
    "aniso_error_bound_d": ("d", 1, 1, lambda v: aniso_error_bound(1.0, 1.0, M1, 0.2, 1.0, v)),
}
INTEGERS.update(DIMENSIONS)
# every real argument the package reads: id -> (argument, whether 0 is
# allowed, None if any sign is, a valid value, the call of one value)
REALS = {
    "derive_params_sigma2": ("sigma2", False, 1.0, lambda v: derive_params(v, 0.1, 1.0, 1)),
    "derive_params_rho": ("rho", False, 0.1, lambda v: derive_params(1.0, v, 1.0, 1)),
    "derive_params_nu": ("nu", False, 1.0, lambda v: derive_params(1.0, 0.1, v, 1)),
    "decay_factor_nu": ("nu", False, 1.0, lambda v: decay_factor(v, 1.0, 0.5)),
    "decay_factor_kappa": ("kappa", False, 1.0, lambda v: decay_factor(1.0, v, 0.5)),
    "radiation_residual_nu": ("nu", False, 1.0, lambda v: radiation_residual(v, 1.0, 0.5)),
    "radiation_residual_kappa": ("kappa", False, 1.0,
                                 lambda v: radiation_residual(1.0, v, 0.5)),
    "pick_radius_tol": ("tol", False, 1e-8, lambda v: pick_radius(P1, BOX1, "neumann", tol=v)),
    "pick_radius_separation_inf": ("separation_inf", True, 0.1,
                                   lambda v: pick_radius(P1, BOX1, "neumann", separation_inf=v)),
    "image_tail_bound_separation_inf": (
        "separation_inf", True, 0.1,
        lambda v: image_tail_bound(P1, BOX1, 3, bc="neumann", separation_inf=v)),
    "AnisoMetric_rotation": ("rotation[0, 0]", None, 1.0, lambda v: AnisoMetric([[v]], [0.1])),
    "AnisoMetric_scales": ("scales[0]", False, 0.1, lambda v: AnisoMetric(np.eye(1), [v])),
    "polylog_partial_s": ("s", None, 1.0, lambda v: polylog_partial(v, 0.5, 3)),
    "polylog_partial_z": ("z", None, 0.5, lambda v: polylog_partial(1.0, v, 3)),
    "power_sum_closed_z": ("z", None, 0.5, lambda v: power_sum_closed(2, v)),
    "ln_gamma": ("x", False, 2.5, lambda v: ln_gamma(v)),
    "log_bessel_k_nu": ("nu", None, 1.5, lambda v: log_bessel_k(v, 1.0)),
    "bessel_k_nu": ("nu", None, 1.5, lambda v: bessel_k(v, 1.0)),
    "bessel_k_x": ("x", False, 1.0, lambda v: bessel_k(1.5, v)),
    "bessel_k_quadrature_nu": ("nu", None, 1.5, lambda v: bessel_k_quadrature(v, 1.0)),
    "bessel_k_quadrature_x": ("x", False, 1.0, lambda v: bessel_k_quadrature(1.5, v)),
    "BoxDomain_delta": ("delta", True, 0.2, lambda v: BoxDomain(v, 1.0, (1.2,), 1)),
    "BoxDomain_ell": ("ell", False, 1.0, lambda v: BoxDomain(0.2, v, (1.2,), 1)),
    "BoxDomain_lengths": ("lengths[0]", False, 1.2, lambda v: BoxDomain(0.2, 1.0, (v,), 1)),
    "BoxDomain_lengths_axis1": ("lengths[1]", False, 1.5,
                                lambda v: BoxDomain(0.2, 1.0, (1.2, v), 2)),
    "BoxDomain_cubic_delta": ("delta", True, 0.2, lambda v: BoxDomain.cubic(v, 1.0, 2)),
    "BoxDomain_cubic_ell": ("ell", False, 1.0, lambda v: BoxDomain.cubic(0.2, v, 2)),
    "BoundarySpec": ("beta", False, 2.0, lambda v: BoundarySpec("robin", v)),
    "BoundarySpec_robin": ("beta", False, 2.0, lambda v: BoundarySpec.robin(v)),
    "from_resolution_h": ("h", False, 1e-2, lambda v: TruncationSpec.from_resolution(v, 1.2)),
    "from_resolution_L": ("L", False, 1.2, lambda v: TruncationSpec.from_resolution(1e-2, v)),
    "robin_eigen_1d_h": ("h", False, 2.0, lambda v: robin_eigen_1d(v, 1.2, 5)),
    "robin_eigen_1d_ell_axis": ("ell_axis", False, 1.2, lambda v: robin_eigen_1d(2.0, v, 5)),
    "eigenpair_kappa": ("kappa", False, P1.kappa, lambda v: _pair(ROBIN, (2,), BOX1, v)),
    "window_error_bound_delta": ("delta", True, 0.2, lambda v: window_error_bound(P1, v, 1.0)),
    "window_error_bound_ell": ("ell", False, 1.0, lambda v: window_error_bound(P1, 0.2, v)),
    "lattice_error_bound": ("delta", True, 0.2, lambda v: lattice_error_bound(P1, v, BOX1)),
    "dirichlet_error_bound": ("delta", True, 0.2, lambda v: dirichlet_error_bound(P1, v, BOX1)),
    "aniso_error_bound_sigma2": ("sigma2", False, 1.5,
                                 lambda v: aniso_error_bound(v, 1.0, M1, 0.2, 1.0, 1)),
    "aniso_error_bound_nu": ("nu", False, 1.5,
                             lambda v: aniso_error_bound(1.0, v, M1, 0.2, 1.0, 1)),
    "aniso_error_bound_delta": ("delta", True, 0.2,
                                lambda v: aniso_error_bound(1.0, 1.0, M1, v, 1.0, 1)),
    "aniso_error_bound_ell": ("ell", False, 1.0,
                              lambda v: aniso_error_bound(1.0, 1.0, M1, 0.2, v, 1)),
    "matern_cov_aniso_sigma2": ("sigma2", False, 1.5,
                                lambda v: matern_cov_aniso(v, 1.0, M1, [0.3], [0.5])),
    "matern_cov_aniso_nu": ("nu", False, 1.5,
                            lambda v: matern_cov_aniso(1.0, v, M1, [0.3], [0.5])),
    "unit_matern": ("nu", False, 2.5, lambda v: unit_matern(v, [0.0, 0.5, 2.0])),
}
_NOT_REAL = [True, math.nan, math.inf, -math.inf]
SCALAR_CASES = (
    [(f"{key}-{bad!r}", name, fn, bad) for key, (name, least, _, fn) in INTEGERS.items()
     for bad in [2.5] + _NOT_REAL + ([] if least is None else [least - 1])]
    + [(f"{key}-{bad!r}", name, fn, bad) for key, (name, zero, _, fn) in REALS.items()
       for bad in _NOT_REAL + ([] if zero is None else [-1.0] if zero else [0.0, -1.0])]
    + [(f"{key}-{bad!r}", name, fn, bad) for key, (name, _, _, fn) in DIMENSIONS.items()
       for bad in ("2", 1.0)])


@pytest.mark.parametrize("name,fn,bad", [c[1:] for c in SCALAR_CASES],
                         ids=[c[0] for c in SCALAR_CASES])
def test_bad_scalars_raise(name, fn, bad):
    # each read by one reader: a bool, a fraction, NaN, inf or a value out of
    # range is a ValueError naming the argument, with no warning before it
    # (TruncationSpec(True) had kmax 1, unit_matern(inf, 1) warned first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
            fn(bad)


@pytest.mark.parametrize("key", list(INTEGERS) + list(REALS))
def test_numpy_scalar_types_agree(key):
    # numpy integer and float scalars give the bits of the Python ones
    if key in INTEGERS:
        _, _, valid, fn = INTEGERS[key]
        kinds = (np.int64, np.int32)
    else:
        _, _, valid, fn = REALS[key]
        kinds = (np.float64,)
    ref = _bits(fn(valid))
    for kind in kinds:
        assert _bits(fn(kind(valid))) == ref


# every array argument the package reads: id -> (argument, whether 0 is
# allowed, None if any sign is, a valid value of integers, the call of one value)
ARRAYS = {
    "unit_matern_t": ("t", True, [0, 1, 2], lambda v: unit_matern(2.5, v)),
    "log_bessel_k_x": ("x", False, [1, 2, 3], lambda v: log_bessel_k(1.5, v)),
    "decay_factor_x": ("x", False, [1, 2], lambda v: decay_factor(1.0, 1.0, v)),
    "radiation_residual_r": ("r", False, [1, 2], lambda v: radiation_residual(1.0, 1.0, v)),
    "lattice_kernel_sum": ("lengths", False, [1], lambda v: lattice_kernel_sum(P1, v)),
    "metric_distance": ("u", None, [1], lambda v: M1.metric_distance(v)),
    "empirical_cov": ("samples", None, [[1, 2], [3, 5], [0, 1]], lambda v: empirical_cov(v)),
    "RobinEigen1D_evaluate": ("x", None, [0, 1],
                              lambda v: robin_eigen_1d(2.0, 1.2, 5).evaluate(v)),
}
ARRAYS.update({key: ("points", None, [0, 1], fn) for key, fn in SETS.items()})
ARRAYS.update({f"{key}_x": ("x", None, [1], fn) for key, fn in PAIRS.items()})
_NOT_REALS = {"True": True, "bool_array": np.array([True]), "list_with_True": [0.5, True],
              "object_array_with_True": np.array([0.5, True], dtype=object),
              "ragged": [[0.5], [0.5, 1.0]],
              "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
ARRAY_CASES = [(f"{key}-{bad_id}", name, fn, bad) for key, (name, zero, _, fn) in ARRAYS.items()
               for bad_id, bad in {**_NOT_REALS, **({} if zero is None else {"-1": -1.0} if zero
                                                   else {"0": 0.0, "-1": -1.0})}.items()]


@pytest.mark.parametrize("name,fn,bad", [c[1:] for c in ARRAY_CASES],
                         ids=[c[0] for c in ARRAY_CASES])
def test_bad_arrays_raise(name, fn, bad):
    # each entry read by the scalar rule: np.asarray([0.5, True]) reads True
    # as 1.0, and log_bessel_k(1.0, True) returned -0.508; a bad entry is a
    # ValueError naming the argument and the entry's index, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}(\[[0-9, ]+\])? must be "):
            fn(bad)


@pytest.mark.parametrize("key", list(ARRAYS))
def test_array_types_agree(key):
    # a list, a tuple and float32, int64 and float64 arrays of one value give one result
    _, _, valid, fn = ARRAYS[key]
    ref = _bits(fn(valid))
    as_tuple = tuple(tuple(v) for v in valid) if isinstance(valid[0], list) else tuple(valid)
    for value in [as_tuple] + [np.array(valid, dtype=t) for t in (np.float32, np.int64, float)]:
        assert _bits(fn(value)) == ref


def test_numeric_array_is_checked_whole(monkeypatch):
    # a float array is checked by array operations, not entry by entry
    calls = []
    read = specfun.as_real
    monkeypatch.setattr(specfun, "as_real", lambda *a, **k: calls.append(a) or read(*a, **k))
    t = np.linspace(0.0, 50.0, 10 ** 5)
    assert specfun.as_reals(t, "t", zero=True) is t and not calls
    assert np.array_equal(unit_matern(1.0, t), unit_matern(1.0, list(t)))
    assert len(calls) == 2  # the order nu of each log_bessel_k call
    t[-1] = math.nan
    with pytest.raises(ValueError, match=r"^t\[99999\] must be a finite number >= 0, got nan$"):
        specfun.as_reals(t, "t", zero=True)


def test_empirical_cov_reads_nested_values_as_an_array():
    # a list of value rows raised AttributeError: 'list' object has no attribute 'grid'
    rows = [[1.0, 2.0], [3.0, 5.0], [0.0, 1.0]]
    ref = _bits(empirical_cov(np.array(rows)))
    assert _bits(empirical_cov(rows)) == ref
    assert _bits(empirical_cov([np.array(r) for r in rows])) == ref


def test_metric_distance_needs_d_entries():
    # a wrong length raised numpy's matmul core-dimension error
    with pytest.raises(ValueError, match=r"^u must have shape \(2,\), got shape \(1,\)$"):
        AnisoMetric(np.eye(2), [1.0, 2.0]).metric_distance([1.0])


@pytest.mark.parametrize("key", list(DIMENSIONS))
def test_dimension_above_three_raises(key):
    with pytest.raises(ValueError, match=r"^dimension must be 1, 2 or 3, got 4$"):
        DIMENSIONS[key][3](4)


@pytest.mark.parametrize("h,L", [(1e-320, 1.0), (1e-10, 1e300)])
def test_from_resolution_needs_a_finite_ratio(h, L):
    # L / h overflowed to inf, and kmax = int(inf) raised OverflowError
    with pytest.raises(ValueError, match=re.escape(f"h = {h!r}, L = {L!r}")):
        TruncationSpec.from_resolution(h, L)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_huge_kmax_tail_is_formed_without_overflow(d):
    # (b K)^2 overflowed at kmax 1e300 and a kmax past the float range could
    # not be read as a float (OverflowError); the tail keeps falling with kmax
    # and reads 0 only below the float range (about 3e-299 at kmax 1e150)
    params = derive_params(1.0, 0.1, 1.0, d)
    box = BoxDomain.cubic(0.2, 1.0, d)
    for bc in (NEUMANN, DIRICHLET, PERIODIC):
        tails = [spectral_tail_bound(params, bc, box, kmax)
                 for kmax in (10 ** 20, 10 ** 150, 10 ** 300, 10 ** 400)]
        assert tails[0] > tails[1] > 0.0 and tails[2] == tails[3] == 0.0, (bc, tails)


MODAL = {
    "cov_spectral_gram": lambda t: cov_spectral_gram(P1, NEUMANN, BOX1, [[0.3], [0.7]], t),
    "cov_spectral_gram_dirichlet": lambda t: cov_spectral_gram(P1, DIRICHLET, BOX1,
                                                               [[0.3], [0.7]], t),
    "cov_spectral_gram_periodic": lambda t: cov_spectral_gram(P1, PERIODIC, BOX1,
                                                              [[0.3], [0.7]], t),
    "cov_spectral_gram_robin": lambda t: cov_spectral_gram(P1, ROBIN, BOX1, [[0.3], [0.7]], t),
    "cov_spectral_gram_d2": lambda t: cov_spectral_gram(P2, NEUMANN, BOX2, [[0.3, 0.5]], t),
    "cov_spectral": lambda t: cov_spectral(P1, NEUMANN, BOX1, [0.3], [0.7], t),
    "plain_spectral_gram": lambda t: plain_spectral_gram(P1, NEUMANN, BOX1, [[0.3]], t),
    "mode_system": lambda t: mode_system(P1, NEUMANN, BOX1, [[0.3]], t),
    "sample_field": lambda t: sample_field(P1, NEUMANN, BOX1, [[0.3]], t, 3),
    "eigenpair": lambda t: eigenpair(NEUMANN, (t.kmax,), BOX1, P1.kappa),
}


@pytest.mark.parametrize("key", list(MODAL))
@pytest.mark.parametrize("trunc", [TruncationSpec.from_resolution(1e-300, 1.0),
                                   TruncationSpec(2 ** 53 + 1)], ids=["1e300", "2^53+1"])
def test_mode_table_beyond_exact_indices_raises(key, trunc):
    # a mode table forms its indices as floats; kmax 1e300 failed in numpy
    # ("Maximum allowed size exceeded") after the routes had begun
    with pytest.raises(ValueError, match=rf"^kmax {trunc.kmax} exceeds 2\^53"):
        MODAL[key](trunc)
