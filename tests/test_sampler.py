"""Sampler: determinism, exact modal covariance, Monte-Carlo statistics."""

import numpy as np
import pytest
from scipy.stats import kstest

from maternbox import sampler
from maternbox.matern import derive_params
from maternbox.sampler import (
    EmpiricalCov,
    FieldSample,
    _standard_normals,
    empirical_cov,
    sample_ensemble,
    sample_field,
)
from maternbox.spectral import (
    BoundarySpec,
    BoxDomain,
    TruncationSpec,
    cov_spectral_gram,
    mode_system,
    plain_spectral_gram,
)


def _setup(d=1, nu=1.0, rho=0.1, delta=0.2, n=10, kmax=600):
    p = derive_params(1.0, rho, nu, d)
    box = BoxDomain.cubic(delta, 1.0, d)
    axis = np.linspace(delta / 2, delta / 2 + 1.0, n)
    pts = axis[:, None] if d == 1 else np.stack(
        [g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
    return p, box, pts, TruncationSpec(kmax)


def test_deterministic_same_seed():
    p, box, pts, tr = _setup()
    bc = BoundarySpec.neumann()
    s1 = sample_field(p, bc, box, pts, tr, 42)
    s2 = sample_field(p, bc, box, pts, tr, 42)
    assert np.array_equal(s1.values, s2.values)
    s3 = sample_field(p, bc, box, pts, tr, 43)
    assert not np.array_equal(s1.values, s3.values)


def test_ensemble_matches_individual_draws():
    p, box, pts, tr = _setup(n=6, kmax=200)
    bc = BoundarySpec.neumann()
    ens = sample_ensemble(p, bc, box, pts, tr, 100, 5)
    for i, s in enumerate(ens):
        ref = sample_field(p, bc, box, pts, tr, 100 + i)
        assert np.array_equal(s.values, ref.values)


def test_single_mode_field_is_scaled_constant():
    p, box, pts, tr = _setup(kmax=600)
    s = sample_field(p, BoundarySpec.neumann(), box, pts, TruncationSpec(0), 7)
    L = box.lengths[0]
    xi0 = _standard_normals(np.random.Philox(), [7], 1)[0, 0]
    expected = np.sqrt(p.eta2) * 1.0 ** (-p.alpha / 2) * L ** (-0.5) * xi0
    assert np.allclose(s.values, expected, rtol=1e-14)
    assert np.ptp(s.values) == 0.0


def test_sample_covariance_consistency():
    p, box, pts, tr = _setup(kmax=400)
    bc = BoundarySpec.neumann()
    ens = sample_ensemble(p, bc, box, pts, tr, 555, 4000)
    emp = empirical_cov(ens)
    ana, _ = cov_spectral_gram(p, bc, box, pts, tr)
    z = np.abs(emp.matrix - ana) / emp.std_error
    assert np.max(z) <= 5.0
    mean = np.mean([s.values for s in ens], axis=0)
    assert np.max(np.abs(mean)) <= 5.0 / np.sqrt(4000)


def test_robin_and_periodic_sampling():
    p, box, pts, _ = _setup(n=5)
    for bc in (BoundarySpec.periodic(), BoundarySpec.robin(p.kappa),
               BoundarySpec.dirichlet()):
        ens = sample_ensemble(p, bc, box, pts, TruncationSpec(150), 9, 1500)
        emp = empirical_cov(ens)
        # the samples' covariance is the plain truncated sum, which the Robin
        # modal Gram accelerates in d = 1
        ana = plain_spectral_gram(p, bc, box, pts, TruncationSpec(150))
        z = np.abs(emp.matrix - ana) / np.maximum(emp.std_error, 1e-12)
        mask = emp.std_error > 0
        assert np.max(np.where(mask, z, 0.0)) <= 5.5, bc.kind


def test_projections_are_gaussian():
    p, box, pts, tr = _setup(kmax=300)
    bc = BoundarySpec.neumann()
    ens = sample_ensemble(p, bc, box, pts, tr, 2024, 10000)
    data = np.stack([s.values for s in ens], axis=0)
    ana, _ = cov_spectral_gram(p, bc, box, pts, tr)
    rng = np.random.default_rng(17)
    for _ in range(3):
        a = rng.normal(size=pts.shape[0])
        a /= np.linalg.norm(a)
        sigma = float(np.sqrt(a @ ana @ a))
        stat = kstest(data @ a / sigma, "norm")
        assert stat.pvalue >= 1e-3


def test_empirical_cov_degenerate_and_errors():
    grid = np.linspace(0.0, 1.0, 4)[:, None]
    mk = lambda vals, seed: FieldSample(grid=grid, values=np.asarray(vals, dtype=float),
                                        seed=seed, bc=BoundarySpec.neumann(),
                                        trunc=TruncationSpec(1))
    zeros = [mk(np.zeros(4), i) for i in range(10)]
    emp = empirical_cov(zeros)
    assert isinstance(emp, EmpiricalCov)
    assert np.all(emp.matrix == 0.0)
    assert emp.n_samples == 10
    with pytest.raises(ValueError):
        empirical_cov(zeros[:1])
    other = mk(np.zeros(3), 0)
    other = FieldSample(grid=np.linspace(0, 1, 3)[:, None], values=np.zeros(3),
                        seed=0, bc=BoundarySpec.neumann(), trunc=TruncationSpec(1))
    with pytest.raises(ValueError):
        empirical_cov([zeros[0], other])


def test_empirical_cov_symmetry_and_se_formula():
    p, box, pts, tr = _setup(n=5, kmax=100)
    ens = sample_ensemble(p, BoundarySpec.neumann(), box, pts, tr, 3, 300)
    emp = empirical_cov(ens)
    assert np.max(np.abs(emp.matrix - emp.matrix.T)) <= 1e-14
    assert np.all(np.diag(emp.matrix) >= 0)
    d = np.diag(emp.matrix)
    ref = np.sqrt((np.outer(d, d) + emp.matrix ** 2) / 300)
    assert np.allclose(emp.std_error, ref, rtol=1e-13)


def test_pinned_noise_stream():
    # Philox keyed by seed, 53-bit mantissa offset by half, inverse normal CDF
    from scipy.special import ndtri

    raw = np.random.Generator(np.random.Philox(key=11)).integers(
        0, 2 ** 53, size=5, dtype=np.uint64)
    ref = ndtri((raw.astype(float) + 0.5) / 2 ** 53)
    assert np.array_equal(_standard_normals(np.random.Philox(), [11], 5), ref[None, :])


def test_ensemble_rekeys_one_generator_bitwise():
    from scipy.special import ndtri

    # the noise of any seed, key words above 2^64 included, is Philox(key=seed)'s,
    # row by row of one block
    seeds = (0, 11, 2 ** 64 - 1, 2 ** 64, 2 ** 127 + 3)
    block = _standard_normals(np.random.Philox(), seeds, 9)
    assert block.shape == (len(seeds), 9)
    for seed, row in zip(seeds, block):
        raw = np.random.Philox(key=seed).random_raw(9) >> 11
        assert np.array_equal(row, ndtri((raw.astype(float) + 0.5) / 2 ** 53))
    # one generator re-keyed per seed draws what a fresh one per seed draws
    p, box, pts, tr = _setup(n=4, kmax=50)
    bc = BoundarySpec.periodic()
    first = 2 ** 64 - 2
    ens = sample_ensemble(p, bc, box, pts, tr, first, 4)
    for i, s in enumerate(ens):
        assert s.seed == first + i
        assert np.array_equal(s.values, sample_field(p, bc, box, pts, tr, first + i).values)
    # seeds Philox rejects are rejected with its message
    for seed in (-1, 2 ** 128):
        with pytest.raises(ValueError, match=r"less than 2\*\*128"):
            sample_field(p, bc, box, pts, tr, seed)
    with pytest.raises(ValueError, match=r"less than 2\*\*128"):
        sample_ensemble(p, bc, box, pts, tr, 2 ** 128 - 1, 2)


def _per_draw_reference(p, bc, box, pts, tr, seed):
    # one draw on its own: (coef * normals(seed)) @ modes, the normals read
    # straight off a fresh Philox(key=seed)
    from scipy.special import ndtri

    lam, modes = mode_system(p, bc, box, pts, tr)
    coef = np.sqrt(p.eta2) * lam ** (-p.alpha / 2.0)
    raw = np.random.Philox(key=seed).random_raw(coef.size) >> 11
    return (coef * ndtri((raw.astype(float) + 0.5) / 2 ** 53)) @ modes


@pytest.mark.parametrize("n", [1, sampler._BLOCK - 1, sampler._BLOCK, sampler._BLOCK + 1])
def test_block_draws_equal_per_draw_reference(n):
    p, box, pts, tr = _setup(n=6, kmax=40)
    bc = BoundarySpec.periodic()
    ens = sample_ensemble(p, bc, box, pts, tr, 900, n)
    assert len(ens) == n
    for i, s in enumerate(ens):
        assert s.seed == 900 + i
        assert np.array_equal(s.values, _per_draw_reference(p, bc, box, pts, tr, 900 + i))


def test_blocks_capped_by_noise_values(monkeypatch):
    # a mode system too large for _BLOCK draws at once runs in smaller blocks
    p, box, pts, tr = _setup(d=2, n=3, kmax=8)
    bc = BoundarySpec.dirichlet()
    monkeypatch.setattr(sampler, "_BLOCK_VALUES", 3 * 8 ** 2 + 5)
    ens = sample_ensemble(p, bc, box, pts, tr, 40, 7)
    for i, s in enumerate(ens):
        assert np.array_equal(s.values, _per_draw_reference(p, bc, box, pts, tr, 40 + i))
