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
parallel with no shared state.  ``sample_ensemble`` draws in blocks of
seeds, each draw bit for bit its own; ``sample_field`` is the one-draw
ensemble.  Grids (``matern.as_points``) must lie in the closed box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matern import MaternParams, as_points
from .spectral import _BLOCK_VALUES, BoundarySpec, BoxDomain, TruncationSpec, mode_system

__all__ = ["EmpiricalCov", "FieldSample", "empirical_cov", "sample_ensemble", "sample_field"]

_HALF_STEP = 2.0 ** -54  # half the 2^-53 spacing of the uniform grid
_MASK64 = 2 ** 64 - 1
# draws whose noise is made, scaled and mapped through the modes together,
# at most _BLOCK_VALUES noise values at a time
_BLOCK = 256


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
    generator per draw.  ``Generator.random`` gives (n >> 11) * 2^-53 for
    each 64-bit draw n, and adding 2^-54 gives u = ((n >> 11) + 1/2) * 2^-53
    bit for bit: both round (n >> 11) + 1/2 to 53 bits, scaled by a power
    of two.  The inverse normal CDF then runs once over the whole block.
    """
    from scipy.special import ndtri  # slow to import; only drawing needs it
    gen = np.random.Generator(philox)
    u = np.empty((len(seeds), count))
    for row, seed in zip(u, seeds):
        # the state Philox(key=seed) starts in: counter 0, empty output buffer
        philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64),
                      "key": np.array([seed & _MASK64, seed >> 64], np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    u += _HALF_STEP
    return ndtri(u, out=u)


def sample_field(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                 grid, trunc: TruncationSpec, seed: int) -> FieldSample:
    """Draw one field sample; deterministic in (seed, params, bc, box, trunc, grid)."""
    return sample_ensemble(params, bc, box, grid, trunc, seed, 1)[0]


def sample_ensemble(params: MaternParams, bc: BoundarySpec, box: BoxDomain,
                    grid, trunc: TruncationSpec, seed: int, n: int):
    """n samples with consecutive seeds seed, seed+1, ...

    The mode system and one Philox generator, re-keyed per seed, are built
    once; seeds lie in [0, 2^128), Philox's key range.  Each sample's grid
    is the grid as ``matern.as_points`` reads it, of shape (points, d).
    Draws run in blocks of up to ``_BLOCK`` seeds; each draw's values are
    bit for bit (coef * normals) @ modes of that draw alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seed = int(seed)
    if not (0 <= seed and seed + n <= 2 ** 128):
        raise ValueError("key must be positive and less than 2**128.")
    lam, modes = mode_system(params, bc, box, grid, trunc)
    grid = as_points(grid, box.d)
    coef = np.sqrt(params.eta2) * lam ** (-params.alpha / 2.0)
    philox = np.random.Philox()
    block = max(1, min(_BLOCK, _BLOCK_VALUES // coef.size))
    samples = []
    for first in range(seed, seed + n, block):
        seeds = range(first, min(first + block, seed + n))
        xi = _standard_normals(philox, seeds, coef.size)
        xi *= coef
        values = np.matmul(xi[:, None, :], modes)[:, 0, :]
        samples.extend(FieldSample(grid=grid, values=v, seed=s, bc=bc, trunc=trunc)
                       for s, v in zip(seeds, values))
    return samples


def empirical_cov(samples) -> EmpiricalCov:
    """Unbiased sample covariance over a common grid.

    The per-entry Monte-Carlo standard error uses the normal-theory
    asymptotic variance (C_ii C_jj + C_ij^2) / n evaluated at the
    empirical covariance itself.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("empirical covariance needs at least 2 samples")
    grid0 = samples[0].grid
    for s in samples[1:]:  # one ensemble's samples share one grid array
        if s.grid is not grid0 and not np.array_equal(s.grid, grid0):
            raise ValueError("all samples must share the same grid")
    data = np.stack([s.values for s in samples], axis=0)
    n = data.shape[0]
    centered = data - data.mean(axis=0, keepdims=True)
    mat = centered.T @ centered / (n - 1)
    mat = 0.5 * (mat + mat.T)
    diag = np.diag(mat)
    std_error = np.sqrt((np.outer(diag, diag) + mat ** 2) / n)
    return EmpiricalCov(matrix=mat, n_samples=n, std_error=std_error)
