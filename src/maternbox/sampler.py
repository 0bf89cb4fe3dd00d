"""Gaussian field samples whose covariance is exactly the truncated expansion.

A sample is synthesized directly in the eigenbasis: independent standard
normals xi_k weighted by eta * lambda_k^(-alpha/2) multiply the orthonormal
modes, so the covariance of the resulting vector equals the truncated
spectral covariance on the same grid with no further approximation.

Reproducibility contract: the noise stream for a sample is Philox4x64
keyed by the seed; each mode consumes the top 53 bits of one 64-bit draw,
u = (n + 1/2) * 2^-53 in (0, 1), mapped through the inverse normal CDF.
Modes are ordered exactly as in the spectral mode system (axis 0 slowest).
Distinct seeds are independent streams, so samples can be generated in
parallel with no shared state.  ``sample_values`` draws in blocks of seeds,
each draw bit for bit its own, and runs the blocks on the package's block
pool (``_blocks``: one thread per CPU in the process's affinity mask;
``taskset`` limits it), each thread re-keying its own Philox generator;
the draws are the same on any number of threads.  The re-keying loop
holds the interpreter lock in one short turn per seed, so one thread at a
time runs it (``_keying``), while the others run the inverse CDF, scaling
and product of their own blocks.  ``sample_values`` returns the
draws as one (n, points) array, ``sample_ensemble`` wraps its rows as
``FieldSample``s, and ``sample_field`` is the one-draw ensemble.
``empirical_cov`` takes either.  Grids (``matern.as_points``) must lie in
the closed box.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from ._blocks import _map_blocks
from .matern import MaternParams, as_integer, as_points
from .spectral import _BLOCK_VALUES, BoundarySpec, BoxDomain, TruncationSpec, mode_system

__all__ = ["EmpiricalCov", "FieldSample", "empirical_cov", "sample_ensemble", "sample_field",
           "sample_values"]

_HALF_STEP = 2.0 ** -54  # half the 2^-53 spacing of the uniform grid
_MASK64 = 2 ** 64 - 1
# draws whose noise is made, scaled and mapped through the modes together,
# at most _BLOCK_VALUES noise values at a time
_BLOCK = 256
# one Philox generator per thread that draws, re-keyed per seed
_local = threading.local()
# held by the thread that runs its re-keying loop: each Generator.random call
# drops the interpreter lock and takes it back, and two threads keying at once
# would hand it to each other once per seed; made anew in a forked child,
# where a pool thread of the parent may have held it
_keying = threading.Lock()


def _new_keying_lock():
    global _keying
    _keying = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_keying_lock)


@dataclass(frozen=True)
class FieldSample:
    """One mean-zero field realization on a fixed evaluation grid."""

    grid: np.ndarray
    values: np.ndarray
    seed: int
    bc: BoundarySpec
    trunc: TruncationSpec


@dataclass(frozen=True)
class EmpiricalCov:
    """Unbiased sample covariance plus its normal-theory standard errors."""

    matrix: np.ndarray
    n_samples: int
    std_error: np.ndarray


def _standard_normals(philox: np.random.Philox, seeds, count: int) -> np.ndarray:
    """Row i: the first ``count`` normals of the stream Philox(key=seeds[i]).

    ``philox`` is re-keyed per seed, which costs less than building one
    generator per draw, by one thread at a time (``_keying``).
    ``Generator.random`` gives (n >> 11) * 2^-53 for each 64-bit draw n, and
    adding 2^-54 gives u = ((n >> 11) + 1/2) * 2^-53 bit for bit: both round
    (n >> 11) + 1/2 to 53 bits, scaled by a power of two.  The inverse
    normal CDF then runs once over the whole block, outside the lock.
    """
    from scipy.special import ndtri  # slow to import; only drawing needs it
    gen = np.random.Generator(philox)
    u = np.empty((len(seeds), count))
    # the state Philox(key=seed) starts in: counter 0, empty output buffer;
    # the setter copies it, so one dict serves every seed
    key = np.empty(2, np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    with _keying:
        for row, seed in zip(u, seeds):
            key[0], key[1] = seed & _MASK64, seed >> 64
            philox.state = state
            gen.random(out=row)
    u += _HALF_STEP
    return ndtri(u, out=u)


def sample_field(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                 grid, trunc: TruncationSpec, seed: int) -> FieldSample:
    """Draw one field sample; deterministic in (seed, params, bc, box, trunc, grid)."""
    return sample_ensemble(params, bc, box, grid, trunc, seed, 1)[0]


def sample_values(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                  grid, trunc: TruncationSpec, seed: int, n: int) -> np.ndarray:
    """The values of n samples with consecutive seeds seed, seed+1, ..., one per row.

    ``seed`` and ``n`` are integers (numpy's included); seeds lie in
    [0, 2^128), Philox's key range.  The mode system is built once, and the
    result has shape (n, points) for the grid as ``matern.as_points`` reads
    it.  Draws run in blocks of up to ``_BLOCK`` seeds, spread over the
    block pool (``_blocks._map_blocks``), each thread with its own Philox
    generator re-keyed per seed; row i is bit for bit
    (coef * normals(seed + i)) @ modes of that draw alone.
    """
    seed, n = as_integer(seed, "seed"), as_integer(n, "n", 1)
    if not (0 <= seed and seed + n <= 2 ** 128):
        raise ValueError("key must be positive and less than 2**128.")
    lam, modes = mode_system(params, bc, box, grid, trunc)
    coef = np.sqrt(params.eta2) * lam ** (-params.alpha / 2.0)
    block = max(1, min(_BLOCK, _BLOCK_VALUES // coef.size))

    def draw(first):
        if not hasattr(_local, "philox"):
            _local.philox = np.random.Philox()
        xi = _standard_normals(_local.philox, range(first, min(first + block, seed + n)),
                               coef.size)
        xi *= coef
        return np.matmul(xi[:, None, :], modes)[:, 0, :]

    values = np.empty((n, modes.shape[-1]))
    firsts = range(seed, seed + n, block)
    for first, rows in zip(firsts, _map_blocks(draw, firsts)):
        values[first - seed:first - seed + len(rows)] = rows
    return values


def sample_ensemble(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                    grid, trunc: TruncationSpec, seed: int, n: int):
    """n samples with consecutive seeds seed, seed+1, ...: the rows of
    ``sample_values``, each on the grid as ``matern.as_points`` reads it,
    of shape (points, d)."""
    values = sample_values(params, bc, box, grid, trunc, seed, n)
    grid, seed = as_points(grid, box.d), int(seed)
    return [FieldSample(grid=grid, values=v, seed=seed + i, bc=bc, trunc=trunc)
            for i, v in enumerate(values)]


def empirical_cov(samples) -> EmpiricalCov:
    """Unbiased sample covariance over a common grid.

    ``samples`` is an (n, points) array of values, one draw per row (as
    ``sample_values`` returns them), or ``FieldSample``s on one grid.
    The per-entry Monte-Carlo standard error uses the normal-theory
    asymptotic variance (C_ii C_jj + C_ij^2) / n evaluated at the
    empirical covariance itself.
    """
    if isinstance(samples, np.ndarray):
        data = samples
    else:
        samples = list(samples)
        if len(samples) < 2:
            raise ValueError("empirical covariance needs at least 2 samples")
        grid0 = samples[0].grid
        for s in samples[1:]:  # one ensemble's samples share one grid array
            if s.grid is not grid0 and not np.array_equal(s.grid, grid0):
                raise ValueError("all samples must share the same grid")
        data = np.stack([s.values for s in samples], axis=0)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("empirical covariance needs at least 2 samples, one per row "
                         f"of an (n, points) array; got shape {data.shape}")
    n = data.shape[0]
    centered = data - data.mean(axis=0, keepdims=True)
    mat = centered.T @ centered / (n - 1)
    mat = 0.5 * (mat + mat.T)
    diag = np.diag(mat)
    std_error = np.sqrt((np.outer(diag, diag) + mat ** 2) / n)
    return EmpiricalCov(matrix=mat, n_samples=n, std_error=std_error)
