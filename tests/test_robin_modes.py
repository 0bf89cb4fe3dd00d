"""Orthonormal Robin modes in closed form: A cos(w x - theta) from the roots alone."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np

from maternbox.matern import derive_params
from maternbox.spectral import (
    BoundarySpec,
    BoxDomain,
    RobinEigen1D,
    TruncationSpec,
    mode_system,
    robin_eigen_1d,
)

_EPS = 2.0 ** -52


def _amplitude(alphas, c, L):
    return np.sqrt(2.0 / L / (1.0 + 2.0 * c / (alphas * alphas + c * c)))


def test_robin_table_rows_match_40_digit_references():
    # rows n <= 12, 287 sampled rows and row 100001 of the table at beta L = 12
    # against the exact modes of the float roots (robin_table_40.txt says how
    # they were made); each value within 2 A ulp(fl(w x)) + 4 A eps
    h, L, kmax = 10.0, 1.2, 100_000
    x = np.linspace(0.1, 1.1, 15)
    box = BoxDomain.cubic(0.2, 1.0, 1)
    _, W = mode_system(derive_params(1.0, 0.1, 0.5, 1), BoundarySpec.robin(h), box, x[:, None],
                       TruncationSpec(kmax))
    alphas = robin_eigen_1d(h, L, kmax + 1).alphas
    lines = Path(__file__).with_name("robin_table_40.txt").read_text().splitlines()
    rows = [line.split() for line in lines if not line.startswith("#")]
    assert len(rows) == 300 and rows[-1][0] == str(kmax + 1)
    for n, *refs in rows:
        a = alphas[int(n) - 1]
        amp = _amplitude(a, h * L, L)
        limit = 2.0 * amp * np.spacing(a / L * x) + 4.0 * amp * _EPS
        err = [abs(Fraction(float(v)) - Fraction(ref)) for v, ref in zip(W[int(n) - 1], refs)]
        assert np.all(np.array(err, dtype=float) <= limit), n


def test_robin_modes_are_orthonormal_by_quadrature():
    L = 1.2
    nodes, weights = np.polynomial.legendre.leggauss(600)
    x = 0.5 * L * (nodes + 1.0)
    for bl in (1e-6, 12.0, 1e6):
        _, W = mode_system(derive_params(1.0, 0.3, 1.5, 1), BoundarySpec.robin(bl / L),
                           BoxDomain.cubic(0.2, 1.0, 1), x[:, None], TruncationSpec(60))
        gram = (W * (0.5 * L * weights)) @ W.T
        assert np.max(np.abs(gram - np.eye(61))) <= 1e-13, bl


def test_robin_eigen_data_is_its_roots():
    # h, ell and the roots are the whole state (the norms are a property of
    # them), and the eigenfunction cos(w x) + (h / w) sin(w x) is one cosine
    assert [f.name for f in dataclasses.fields(RobinEigen1D)] == ["h", "ell_axis", "alphas"]
    for bl in (1e-300, 1e-6, 12.0, 1e6, 1.3e154):
        eig = robin_eigen_1d(bl / 1.2, 1.2, 50)
        omegas = eig.alphas / 1.2
        wx = np.outer(omegas, np.linspace(0.0, 1.2, 7))
        direct = np.cos(wx) + (eig.h / omegas)[:, None] * np.sin(wx)
        scale = np.hypot(1.0, bl / eig.alphas)[:, None]
        limit = scale * (np.spacing(wx) + 4.0 * _EPS)
        assert np.all(np.abs(eig.evaluate(np.linspace(0.0, 1.2, 7)) - direct) <= limit), bl
