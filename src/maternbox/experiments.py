"""Experiment runner: covariance slices, error curves, bound tables, sampler checks.

All runs are driven by a flat key-value config file and emit comma-separated
tables with full-precision scientific notation, so identical configs produce
byte-identical output.  The domain of interest is the unit box
(delta/2, 1 + delta/2)^d; Dirichlet/Neumann/periodic covariances on the
extended box are evaluated through the exact image sums, Robin through the
modal expansion (Neumann-accelerated in d = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    eulerian_number,
    polylog_partial,
    power_sum_closed,
    window_error_bound,
)
from .folded import cov_folded_gram
from .matern import (MaternParams, as_dimension, as_integer, as_real, derive_params, matern_cov,
                     matern_gram, unit_matern)
from .sampler import empirical_cov, sample_field, sample_values
from .specfun import bessel_k_quadrature, log_bessel_k
from .spectral import (
    BoundarySpec,
    BoxDomain,
    TruncationSpec,
    cov_spectral_gram,
    plain_spectral_gram,
    robin_eigen_1d,
)

__all__ = [
    "ExperimentConfig",
    "Table",
    "default_delta_grid",
    "default_n_grid",
    "grid_points",
    "load_config",
    "measured_max_error",
    "render_csv",
    "run_bound_table",
    "run_cov_slice",
    "run_error_curve",
    "run_sampler_check",
    "run_verify",
]

_BC_TOKENS = {"D": "dirichlet", "N": "neumann", "P": "periodic", "R": "robin"}
DOMAIN_SIZE = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration; unknown keys are rejected at load."""

    sigma2: float
    rho: float
    nu: float
    d: int
    bc: tuple
    delta_list: tuple
    n_grid: int
    trunc_h: float
    robin_beta: float | None
    n_samples: int
    seed: int

    def params(self) -> MaternParams:
        return derive_params(self.sigma2, self.rho, self.nu, self.d)

    def boundary(self, token: str) -> BoundarySpec:
        kind = _BC_TOKENS[token]
        if kind != "robin":
            return BoundarySpec(kind)
        beta = self.robin_beta if self.robin_beta is not None else self.params().kappa
        return BoundarySpec.robin(beta)


def default_delta_grid(rho: float):
    """Zero plus 24 geometrically spaced margins up to six correlation lengths."""
    return (0.0,) + tuple(np.geomspace(0.05 * rho, 6.0 * rho, 24))


def default_n_grid(d: int, nu: float) -> int:
    """Grid resolutions of the measurement protocol, per dimension and smoothness."""
    if d == 1:
        return 15 if nu >= 0.5 else 10
    if d == 2:
        return 5 if nu >= 0.5 else 3
    return 3


_REQUIRED = ("sigma2", "rho", "nu", "d")
_ALL_KEYS = ("sigma2", "rho", "nu", "d", "bc", "delta_list", "n_grid",
             "trunc_h", "robin_beta", "n_samples", "seed")


def _integer(text: str):
    """``int(text)`` where the text reads as one, else the text, which ``as_integer`` refuses."""
    try:
        return int(text)
    except ValueError:
        return text


def load_config(path) -> ExperimentConfig:
    """Parse a flat key=value config file; unknown or duplicate keys are errors.

    Every value goes through ``matern``'s readers (``as_real``,
    ``as_integer``, ``as_dimension``), so a bad one is refused at load,
    naming the file and the key.
    """
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _ALL_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}; "
                                 f"known keys: {', '.join(_ALL_KEYS)}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            raw[key] = value
    for key in _REQUIRED:
        if key not in raw:
            raise ValueError(f"{path}: missing required config key {key!r}")

    def read(key, reader, default=None):
        """raw[key] through ``reader`` or ``default``; an error names the file and the key."""
        if key not in raw:
            return default
        try:
            return reader(raw[key])
        except ValueError as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc}") from None

    def real(text, zero=False):
        return as_real(text, "value", zero)

    def integer(least):
        return lambda text: as_integer(_integer(text), "value", least)

    sigma2, rho, nu = (read(key, real) for key in ("sigma2", "rho", "nu"))
    d = read("d", lambda text: as_dimension(_integer(text)))
    bc_tokens = tuple(t.strip().upper() for t in raw.get("bc", "N").split(",") if t.strip())
    if not bc_tokens:
        raise ValueError(f"{path}: bc list is empty")
    for t in bc_tokens:
        if t not in _BC_TOKENS:
            raise ValueError(f"{path}: unknown boundary token {t!r}; use D, N, P or R")
    if len(set(bc_tokens)) != len(bc_tokens):
        raise ValueError(f"{path}: duplicate boundary tokens in {bc_tokens}")
    deltas = read("delta_list", lambda text: tuple(real(t, zero=True)
                                                   for t in text.split(",") if t.strip()))
    if deltas is None:
        deltas = default_delta_grid(rho)
    elif not deltas:
        raise ValueError(f"{path}: delta_list is empty")
    n_grid = read("n_grid", integer(2), default_n_grid(d, nu))
    trunc_h = read("trunc_h", real, 1e-3)
    robin_beta = read("robin_beta", real)
    n_samples = read("n_samples", integer(None), 10000)  # the sample verb asks for >= 2
    seed = read("seed", integer(0), 0)
    return ExperimentConfig(sigma2=sigma2, rho=rho, nu=nu, d=d, bc=bc_tokens,
                            delta_list=deltas, n_grid=n_grid, trunc_h=trunc_h,
                            robin_beta=robin_beta, n_samples=n_samples, seed=seed)


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


def render_csv(table: Table) -> str:
    """Comma-separated rendering with 17 significant digits."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(f"{float(v):.16e}" for v in row))
    return "\n".join(lines) + "\n"


def grid_points(d: int, delta: float, n: int, ell: float = DOMAIN_SIZE) -> np.ndarray:
    """n equispaced points per axis spanning the closed domain of interest."""
    axis = np.linspace(delta / 2.0, delta / 2.0 + ell, n)
    if d == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _box(cfg_delta: float, d: int) -> BoxDomain:
    return BoxDomain.cubic(cfg_delta, DOMAIN_SIZE, d)


def _trunc(box: BoxDomain, h: float) -> TruncationSpec:
    return TruncationSpec.from_resolution(h, box.length_max)


def measured_max_error(params: MaternParams, box: BoxDomain, bc: BoundarySpec,
                       n: int, trunc_h: float) -> float:
    """Max-norm covariance error over the n^d measurement grid of the domain.

    For D/N/P the aliasing error is summed directly from the non-identity
    images, so values far below sigma^2 are measured at full relative
    precision rather than floored by cancellation.
    """
    pts = grid_points(params.d, box.delta, n, box.ell)
    if bc.kind == "robin":
        exact = matern_gram(params, pts)
        approx, _ = cov_spectral_gram(params, bc, box, pts, _trunc(box, trunc_h))
        return float(np.max(np.abs(approx - exact)))
    diff, _ = cov_folded_gram(params, box, bc.kind, pts, drop_identity=True)
    return float(np.max(np.abs(diff)))


def run_cov_slice(cfg: ExperimentConfig) -> Table:
    """Covariance along the slice from the domain corner, per boundary kind.

    Uses the first entry of delta_list; the slice runs from x0 = (delta/2,..)
    along the first axis (d = 1) or the main diagonal (d >= 2).
    """
    params = cfg.params()
    delta = cfg.delta_list[0]
    box = _box(delta, cfg.d)
    t = np.linspace(delta / 2.0, delta / 2.0 + DOMAIN_SIZE, cfg.n_grid)
    slice_pts = np.stack([t] * cfg.d, axis=-1)
    x0 = slice_pts[0]
    pts = np.vstack([x0[None, :], slice_pts])
    cols = ["y", "C_matern"] + [f"C_{tok}" for tok in cfg.bc]
    rows = []
    per_bc = {}
    for tok in cfg.bc:
        bc = cfg.boundary(tok)
        if bc.kind == "robin":
            gram, _ = cov_spectral_gram(params, bc, box, pts, _trunc(box, cfg.trunc_h))
        else:
            gram, _ = cov_folded_gram(params, box, bc.kind, pts)
        per_bc[tok] = gram[0, 1:]
    for j in range(cfg.n_grid):
        row = [t[j], matern_cov(params, x0, slice_pts[j])]
        row.extend(per_bc[tok][j] for tok in cfg.bc)
        rows.append(row)
    return Table(columns=tuple(cols), rows=tuple(tuple(r) for r in rows))


def run_error_curve(cfg: ExperimentConfig) -> Table:
    """Measured max-norm errors over the margin grid plus the bound columns."""
    params = cfg.params()
    cols = ["delta"] + [f"err_{tok}" for tok in cfg.bc]
    cols += ["lattice_bound", "window_bound", "dirichlet_bound"]
    rows = []
    for delta in cfg.delta_list:
        box = _box(delta, cfg.d)
        row = [delta]
        for tok in cfg.bc:
            row.append(measured_max_error(params, box, cfg.boundary(tok),
                                          cfg.n_grid, cfg.trunc_h))
        report = window_error_bound(params, delta, DOMAIN_SIZE)
        row.extend([report.lattice_bound, report.window_bound, report.dirichlet_bound])
        rows.append(row)
    return Table(columns=tuple(cols), rows=tuple(tuple(r) for r in rows))


def run_bound_table(cfg: ExperimentConfig) -> Table:
    """A-priori bound ingredients over the margin grid."""
    params = cfg.params()
    cols = ("delta", "prefactor", "decay_ell", "lattice_bound", "window_bound",
            "dirichlet_bound")
    rows = []
    for delta in cfg.delta_list:
        report = window_error_bound(params, delta, DOMAIN_SIZE)
        rows.append((delta, report.prefactor, report.decay_ell,
                     report.lattice_bound, report.window_bound,
                     report.dirichlet_bound))
    return Table(columns=cols, rows=tuple(rows))


def run_sampler_check(cfg: ExperimentConfig) -> Table:
    """Empirical-vs-analytic covariance discrepancies for the first boundary kind."""
    if cfg.n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for a sampler check, got {cfg.n_samples}")
    params = cfg.params()
    delta = cfg.delta_list[0]
    box = _box(delta, cfg.d)
    bc = cfg.boundary(cfg.bc[0])
    trunc = _trunc(box, cfg.trunc_h)
    pts = grid_points(cfg.d, delta, cfg.n_grid)
    # the samples' covariance: the plain truncated sum, not the accelerated one
    analytic = plain_spectral_gram(params, bc, box, pts, trunc)
    emp = empirical_cov(sample_values(params, bc, box, pts, trunc, cfg.seed, cfg.n_samples))
    cols = ("i", "j", "analytic", "empirical", "abs_diff", "std_error", "within_4se")
    rows = []
    n = pts.shape[0]
    for i in range(n):
        for j in range(i, n):
            diff = abs(emp.matrix[i, j] - analytic[i, j])
            se = emp.std_error[i, j]
            rows.append((float(i), float(j), analytic[i, j], emp.matrix[i, j],
                         diff, se, 1.0 if diff <= 4.0 * se else 0.0))
    return Table(columns=cols, rows=tuple(rows))


def _verify_checks():
    """The identity suite: every closed form cross-checked by an independent route."""
    rng = np.random.default_rng(20240817)
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    # Bessel production path against the quadrature oracle
    worst = 0.0
    for nu in (0.1, 0.5, 1.0, 7.3, 50.0):
        xs = np.geomspace(1e-4, 30.0, 8)
        prod = log_bessel_k(nu, xs)
        for x, lp in zip(xs, prod):
            worst = max(worst, abs(lp - bessel_k_quadrature(nu, x).log_value))
    add("bessel production vs quadrature oracle", worst <= 1e-10, f"max log diff {worst:.2e}")

    # closed forms of the half-integer kernel
    xs = np.geomspace(1e-3, 20.0, 25)
    e1 = np.max(np.abs(unit_matern(0.5, xs) - np.exp(-xs)))
    e2 = np.max(np.abs(unit_matern(1.5, xs) - (1.0 + xs) * np.exp(-xs)))
    add("half-integer closed forms", max(e1, e2) <= 1e-12, f"max abs dev {max(e1, e2):.2e}")

    # folded vs spectral, d = 1
    worst = -math.inf
    for nu in (0.5, 1.0):
        params = derive_params(1.0, 0.1, nu, 1)
        box = BoxDomain.cubic(0.2, DOMAIN_SIZE, 1)
        pts = grid_points(1, 0.2, 5)
        trunc = TruncationSpec(20000)
        for kind in ("dirichlet", "neumann", "periodic"):
            spec, stail = cov_spectral_gram(params, BoundarySpec(kind), box, pts, trunc)
            fold, ftail = cov_folded_gram(params, box, kind, pts)
            gap = float(np.max(np.abs(spec - fold))) - (stail + ftail)
            worst = max(worst, gap)
    add("folded = spectral (d=1)", worst <= 1e-6, f"worst gap beyond tails {worst:.2e}")

    # folded vs spectral, d = 2
    params = derive_params(1.0, 0.1, 1.0, 2)
    box = BoxDomain.cubic(0.2, DOMAIN_SIZE, 2)
    pts = grid_points(2, 0.2, 3)
    spec, stail = cov_spectral_gram(params, BoundarySpec.neumann(), box, pts,
                                    TruncationSpec(400))
    fold, ftail = cov_folded_gram(params, box, "neumann", pts)
    gap = float(np.max(np.abs(spec - fold))) - (stail + ftail)
    add("folded = spectral (d=2)", gap <= 1e-6, f"worst gap beyond tails {gap:.2e}")

    # overestimation by Neumann and periodic folding
    exact = matern_gram(params, pts)
    okP = np.all(cov_folded_gram(params, box, "periodic", pts)[0] > exact)
    okN = np.all(fold > exact)
    add("positive folding overestimates", okP and okN, "strict on all grid pairs")

    # geometric-domination subadditivity of the unit kernel
    worst = 0.0
    for nu in (0.25, 0.5, 1.0, 4.0):
        x = rng.uniform(0.001, 20.0, size=1000)
        y = x + rng.uniform(0.0, 10.0, size=1000)
        lhs = unit_matern(nu, x + y)
        rhs = unit_matern(nu, x) * unit_matern(max(nu, 0.5), y)
        worst = max(worst, float(np.max(lhs - rhs)))
    add("kernel subadditivity", worst <= 1e-12, f"worst violation {worst:.2e}")

    # domination of measured errors by the a-priori bounds
    worst = -math.inf
    for nu in (0.5, 1.0):
        params1 = derive_params(1.0, 0.1, nu, 1)
        for delta in (0.05, 0.1, 0.2, 0.4):
            box1 = _box(delta, 1)
            report = window_error_bound(params1, delta, DOMAIN_SIZE)
            for kind in ("dirichlet", "neumann", "periodic"):
                err = measured_max_error(params1, box1, BoundarySpec(kind), 10, 1e-3)
                worst = max(worst, err - report.window_bound)
    add("bounds dominate measured errors", worst <= 0.0, f"worst excess {worst:.2e}")

    # Robin with coefficient kappa is exact for the exponential kernel (d=1)
    params1 = derive_params(1.0, 0.1, 0.5, 1)
    box1 = _box(0.2, 1)
    bc = BoundarySpec.robin(params1.kappa)
    trunc = TruncationSpec(20000)
    spec, stail = cov_spectral_gram(params1, bc, box1,
                                    np.array([[0.1], [0.6]]), trunc)
    err = abs(spec[0, 1] - matern_cov(params1, [0.1], [0.6]))
    add("robin exactness (exponential kernel, off-diagonal)", err <= 1e-8,
        f"error {err:.2e}")
    eig = robin_eigen_1d(params1.kappa, box1.lengths[0], 500)
    res = float(np.max(np.abs(eig.eigenvalue_residual())))
    add("robin eigenvalue residuals", res <= 1e-12, f"max residual {res:.2e}")

    # combinatorial identities behind the closed-form bound
    ok = all(sum(eulerian_number(n, k) for k in range(n)) == math.factorial(n)
             for n in range(1, 9))
    add("eulerian row sums", ok, "n! for n <= 8")
    worst = 0.0
    for d in (1, 2, 3):
        for z in (0.1, 0.5, 0.9):
            closed = power_sum_closed(d, z)
            partial = polylog_partial(-(d - 1), z, 100000) / z
            worst = max(worst, abs(closed - partial) / abs(closed))
    add("polylog closed form", worst <= 1e-10, f"max rel dev {worst:.2e}")

    # sampler determinism and first moments
    params1 = derive_params(1.0, 0.1, 1.0, 1)
    box1 = _box(0.2, 1)
    pts1 = grid_points(1, 0.2, 5)
    trunc1 = TruncationSpec(512)
    s1 = sample_field(params1, BoundarySpec.neumann(), box1, pts1, trunc1, 42)
    s2 = sample_field(params1, BoundarySpec.neumann(), box1, pts1, trunc1, 42)
    det = np.array_equal(s1.values, s2.values)
    emp = empirical_cov(sample_values(params1, BoundarySpec.neumann(), box1, pts1, trunc1, 0, 400))
    analytic, _ = cov_spectral_gram(params1, BoundarySpec.neumann(), box1, pts1, trunc1)
    dev = float(np.max(np.abs(emp.matrix - analytic) / emp.std_error))
    add("sampler determinism", det, "same seed, identical values")
    add("sampler covariance consistency", dev <= 5.0, f"max |dev|/se {dev:.2f}")
    return checks


def run_verify():
    """Run the self-contained identity suite; returns (lines, all_passed)."""
    checks = _verify_checks()
    lines = []
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    passed = all(ok for _, ok, _ in checks)
    lines.append(f"{'PASS' if passed else 'FAIL'}: verify suite "
                 f"({sum(ok for _, ok, _ in checks)}/{len(checks)} checks)")
    return lines, passed
