"""Sampler: determinism, exact modal covariance, Monte-Carlo statistics."""

import multiprocessing
import os
import threading
import time
import types

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
    sample_values,
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
    xi0 = _standard_normals(np.random.Philox(), threading.Lock(), [7], 1)[0, 0]
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
    assert np.array_equal(_standard_normals(np.random.Philox(), threading.Lock(), [11], 5), ref[None, :])


def test_ensemble_rekeys_one_generator_bitwise():
    from scipy.special import ndtri

    # the noise of any seed, key words above 2^64 included, is Philox(key=seed)'s,
    # row by row of one block
    seeds = (0, 11, 2 ** 64 - 1, 2 ** 64, 2 ** 127 + 3)
    block = _standard_normals(np.random.Philox(), threading.Lock(), seeds, 9)
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


@pytest.mark.parametrize("name, seed, n", [
    ("seed", 1.5, 2), ("seed", "7", 2), ("seed", 7.0, 2), ("seed", None, 2),
    ("n", 7, 2.0), ("n", 7, "2"), ("n", 7, None)])
def test_seed_and_count_must_be_integers(name, seed, n):
    # a fractional seed would silently draw int(seed)'s stream
    p, box, pts, tr = _setup(n=4, kmax=20)
    bound = " >= 1" if name == "n" else ""
    with pytest.raises(ValueError, match=rf"^{name} must be an integer{bound}, got "):
        sample_ensemble(p, BoundarySpec.neumann(), box, pts, tr, seed, n)


def test_integer_seed_and_count_types_agree():
    p, box, pts, tr = _setup(n=4, kmax=20)
    bc = BoundarySpec.neumann()
    ref = sample_ensemble(p, bc, box, pts, tr, 7, 3)
    for seed, n in ((np.int64(7), np.int32(3)), (np.uint64(7), 3)):
        got = sample_ensemble(p, bc, box, pts, tr, seed, n)
        assert [s.seed for s in got] == [7, 8, 9]
        assert all(type(s.seed) is int for s in got)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(ref, got))
    for n in (0, -3):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
            sample_ensemble(p, bc, box, pts, tr, 7, n)


_KINDS = {"D": BoundarySpec.dirichlet(), "N": BoundarySpec.neumann(),
          "P": BoundarySpec.periodic()}


@pytest.mark.parametrize("n", [1, sampler._BLOCK - 1, sampler._BLOCK, sampler._BLOCK + 1])
@pytest.mark.parametrize("kind", "DNPR")
@pytest.mark.parametrize("d", [1, 2])
def test_sample_values_are_the_stacked_ensemble_bitwise(block_pool, d, kind, n):
    p, box, pts, tr = _setup(d=d, n=6 if d == 1 else 3, kmax=40 if d == 1 else 8)
    bc = BoundarySpec.robin(p.kappa) if kind == "R" else _KINDS[kind]
    drawn = []
    for workers in (1, 3):
        block_pool(workers)
        values = sample_values(p, bc, box, pts, tr, 900, n)
        ens = sample_ensemble(p, bc, box, pts, tr, 900, n)
        assert values.shape == (n, len(pts)) and values.dtype == np.float64
        assert [s.seed for s in ens] == list(range(900, 900 + n))
        assert values.tobytes() == np.stack([s.values for s in ens]).tobytes()
        drawn.append(values.tobytes())
    assert drawn[0] == drawn[1]


def test_empirical_cov_of_values_is_that_of_samples_bitwise():
    p, box, pts, tr = _setup(n=7, kmax=100)
    bc = BoundarySpec.neumann()
    values = sample_values(p, bc, box, pts, tr, 31, 300)
    from_values = empirical_cov(values)
    from_samples = empirical_cov(sample_ensemble(p, bc, box, pts, tr, 31, 300))
    assert from_values.n_samples == from_samples.n_samples == 300
    assert from_values.matrix.tobytes() == from_samples.matrix.tobytes()
    assert from_values.std_error.tobytes() == from_samples.std_error.tobytes()
    for bad in (values[:1], values[0], values[None]):
        with pytest.raises(ValueError, match=r"at least 2 samples"):
            empirical_cov(bad)


@pytest.fixture
def keying_lock(monkeypatch):
    """Make each ``sample_values`` call's lock a ``KeyingLock``, which records
    over all its instances the instances made, the threads that held one and
    the most holders at once; once ``hold`` is set, its first holder sets
    ``entered`` and waits for ``go``."""

    class KeyingLock:
        made, holders, inside, most = [], set(), 0, 0
        entered, go, hold = threading.Event(), threading.Event(), threading.Event()

        def __init__(self):
            KeyingLock.made.append(self)
            self._lock = threading.Lock()

        def __enter__(self):
            self._lock.acquire()
            KeyingLock.holders.add(threading.get_ident())
            KeyingLock.inside += 1
            KeyingLock.most = max(KeyingLock.most, KeyingLock.inside)
            if KeyingLock.hold.is_set() and not KeyingLock.entered.is_set():
                KeyingLock.entered.set()
                assert KeyingLock.go.wait(60.0)
            time.sleep(0.02)  # a block that does not share this lock overlaps here

        def __exit__(self, *exc):
            KeyingLock.inside -= 1
            self._lock.release()

    monkeypatch.setattr(sampler, "threading", types.SimpleNamespace(Lock=KeyingLock))
    return KeyingLock


def test_one_thread_at_a_time_runs_the_keying_loop(block_pool, keying_lock):
    # one call makes one lock, and its blocks, run on several pool threads,
    # hold it in turn: no two are inside the re-keying loop at once
    p, box, pts, tr = _setup(n=4, kmax=20)
    bc = BoundarySpec.neumann()
    serial = sample_values(p, bc, box, pts, tr, 5, 3 * sampler._BLOCK + 1)
    block_pool(3)
    pooled = sample_values(p, bc, box, pts, tr, 5, 3 * sampler._BLOCK + 1)
    assert pooled.tobytes() == serial.tobytes()
    assert len(keying_lock.made) == 2 and len(keying_lock.holders) >= 2
    assert keying_lock.most == 1


def _draw_in_child(conn):
    p, box, pts, tr = _setup(n=4, kmax=20)
    ens = sample_ensemble(p, BoundarySpec.neumann(), box, pts, tr, 5, 3)
    conn.send(np.stack([s.values for s in ens]))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_draws_while_the_parent_holds_the_keying_lock(keying_lock):
    # the process forks while a thread of the parent is inside a call's
    # re-keying loop; the child's copy of that call's lock stays held, and
    # the child's own call, with its own lock, draws the parent's bits
    p, box, pts, tr = _setup(n=4, kmax=20)
    parent = []
    keying_lock.hold.set()
    thread = threading.Thread(target=lambda: parent.append(
        sample_values(p, BoundarySpec.neumann(), box, pts, tr, 5, 3)), daemon=True)
    thread.start()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_in_child, args=(send,), daemon=True)
    assert keying_lock.entered.wait(60.0)
    try:
        child.start()
        send.close()
        assert recv.poll(60.0), "no draws from the child within the timeout: deadlock?"
        done = recv.recv()
    finally:
        keying_lock.go.set()
        thread.join(30.0)
        child.join(30.0)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert len(parent) == 1 and done.tobytes() == parent[0].tobytes()
