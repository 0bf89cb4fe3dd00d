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
parallel with no shared state.  ``sample_field`` is the one-draw
ensemble; grids (``matern.as_points``) must lie in the closed box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matern import MaternParams, as_points
from .spectral import BoundarySpec, BoxDomain, TruncationSpec, mode_system

__all__ = ["EmpiricalCov", "FieldSample", "empirical_cov", "sample_ensemble", "sample_field"]

_TWO53 = float(2 ** 53)
_MASK64 = 2 ** 64 - 1


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


def _standard_normals(philox: np.random.Philox, seed: int, count: int) -> np.ndarray:
    """The first ``count`` normals of the stream Philox(key=seed), from ``philox`` re-keyed.

    Re-keying one generator costs less than building one per draw.
    """
    from scipy.special import ndtri  # slow to import; only drawing needs it
    # the state Philox(key=seed) starts in: counter 0, empty output buffer
    philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed & _MASK64, seed >> 64], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    raw = philox.random_raw(count) >> 11
    u = (raw.astype(float) + 0.5) / _TWO53
    return ndtri(u)


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
    return [FieldSample(grid=grid, values=(coef * _standard_normals(philox, s, coef.size)) @ modes,
                        seed=s, bc=bc, trunc=trunc)
            for s in range(seed, seed + n)]


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
    for s in samples[1:]:
        if s.grid.shape != grid0.shape or not np.array_equal(s.grid, grid0):
            raise ValueError("all samples must share the same grid")
    data = np.stack([s.values for s in samples], axis=0)
    n = data.shape[0]
    centered = data - data.mean(axis=0, keepdims=True)
    mat = centered.T @ centered / (n - 1)
    mat = 0.5 * (mat + mat.T)
    diag = np.diag(mat)
    std_error = np.sqrt((np.outer(diag, diag) + mat ** 2) / n)
    return EmpiricalCov(matrix=mat, n_samples=n, std_error=std_error)
