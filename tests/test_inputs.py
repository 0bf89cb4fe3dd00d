"""One input contract: finite point sets, matching dimensions, valid separations."""

import math

import numpy as np
import pytest

from maternbox.folded import (
    cov_folded,
    cov_folded_dirichlet,
    cov_folded_gram,
    cov_folded_neumann,
    cov_folded_periodic,
    image_tail_bound,
    pick_radius,
)
from maternbox.matern import AnisoMetric, derive_params, matern_cov, matern_cov_aniso, matern_gram
from maternbox.sampler import sample_ensemble, sample_field, sample_values
from maternbox.spectral import (
    BoundarySpec,
    BoxDomain,
    TruncationSpec,
    cov_spectral,
    cov_spectral_gram,
    eigenpair,
    mode_system,
    plain_spectral_gram,
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
# (case, bad point set, bad point, message); the infinite ones come last
BAD = [
    ("nan", [[0.1], [math.nan]], [math.nan], "must be finite"),
    ("wrong_width", [[0.1, 0.2]], [[0.1, 0.2]], "must have shape"),
    ("three_dims", [[[0.1]], [[0.2]]], [[[0.1]]], "must have shape"),
    ("empty", np.empty((0, 1)), [], "must have shape"),
    ("two_points", None, [0.1, 0.2], "must have shape"),
    ("inf", [[0.1], [math.inf]], [math.inf], "must be finite"),
    ("minus_inf", [[-math.inf], [0.1]], [-math.inf], "must be finite"),
]
CASES = [(f"{name}-{case}", fn, bad, f"{arg} {msg}")
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


@pytest.mark.parametrize("bc,k", [(NEUMANN, (1.7,)), (ROBIN, (1.7,)), (ROBIN, (2.0,)),
                                  (BoundarySpec.periodic(), np.array([-1.5])),
                                  (NEUMANN, ("1",))])
def test_eigenpair_index_must_be_integer(bc, k):
    # a fractional index was truncated: (1.7,) gave mode 1 under a valid-looking pair
    with pytest.raises(ValueError, match="must be integers"):
        eigenpair(bc, k, BOX1, P1.kappa)


def test_eigenpair_integer_index_types_agree():
    for bc in (NEUMANN, ROBIN):
        lam, w = eigenpair(bc, (2,), BOX1, P1.kappa)
        for k in (2, np.int64(2), np.array([2], dtype=np.int32)):
            lam_k, w_k = eigenpair(bc, k, BOX1, P1.kappa)
            assert lam_k == lam and w_k([0.3]) == w([0.3])


@pytest.mark.parametrize("bad", [(math.inf, 0.1, 1.0), (1.0, math.inf, 1.0), (1.0, 0.1, math.inf),
                                 (math.nan, 0.1, 1.0), (1.0, -math.inf, 1.0), (1.0, 0.1, 0.0)])
def test_derive_params_needs_finite_positive_values(bad):
    # sigma2 = inf gave inf folded Grams and tails, rho = inf a math domain error
    shown = ", ".join(map(repr, bad))
    with pytest.raises(ValueError, match=rf"^sigma2, rho, nu must be finite and positive, "
                                         rf"got \({shown}\)$"):
        derive_params(*bad, 1)
