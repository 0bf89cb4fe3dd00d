"""Seeded workloads of the benchmark: task inputs, task bodies and certificate checks.

A workload is a fixed cycle of task kinds.  The seed draws the continuous
inputs (margin delta, correlation length rho, sampler seed) of every task;
the program receives only those inputs.  Draws are stratified over blocks of
``STRATA`` cycles, so any run of a few blocks covers each input band evenly
and the mix of cheap and expensive tasks does not depend on the seed.

Every task returns its outputs; ``check`` then tests the certificate the
paper promises for them against an independent route, outside the timed
region.  ``check`` returns the list of violated conditions, empty when the
task certified.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from maternbox import experiments, folded, matern, spectral
from maternbox.matern import derive_params
from maternbox.spectral import BoundarySpec, BoxDomain, TruncationSpec

STRATA = 8
_KINDS = {"D": "dirichlet", "N": "neumann", "P": "periodic", "R": "robin"}
# the certificate checks compare two routes to this slack plus both tails
_GAP = 1e-6
# chance that a correct sampler task fails its Monte-Carlo check
_SAMPLER_FALSE_ALARM = 1e-6


@dataclass(frozen=True)
class Task:
    """One certified result a user asks for."""

    kind: str
    d: int
    nu: float
    rho: float
    delta: float
    bc: str
    n_axis: int = 0
    kmax: int = 0
    draws: int = 0
    seed: int = 0


@dataclass
class Result:
    """What a task returned: a digest of its outputs, its certified tail, its checkables."""

    digest: str
    tail: float
    data: object
    csv: str = ""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _log_band(u, lo: float, hi: float):
    return math.exp(math.log(lo) + float(u) * (math.log(hi) - math.log(lo)))


class Workload:
    """A cycle of task kinds with seeded inputs; subclasses fill in the three steps."""

    name = ""
    cycle: tuple = ()

    def tasks(self, seed: int, cycles: int) -> list:
        """``cycles`` full cycles of tasks, the same list for the same seed.

        Draws go block by block of ``STRATA`` cycles: in each block every
        cycle position visits each of ``STRATA`` equal bands once, in a
        random order, at a uniform point inside the band.  A longer schedule
        extends a shorter one.
        """
        rng = np.random.default_rng(seed)
        width = len(self.cycle)
        out = []
        while len(out) < cycles * width:
            bands = np.stack([rng.permutation(STRATA) for _ in range(width)], axis=1)
            u = (bands + rng.random((STRATA, width))) / STRATA
            aux = rng.integers(0, 2 ** 31, size=(STRATA, width))
            out += [self.make(spec, u[c, j], int(aux[c, j]))
                    for c in range(STRATA) for j, spec in enumerate(self.cycle)]
        return out[:cycles * width]

    def make(self, spec, u: float, aux: int) -> Task:
        raise NotImplementedError

    def run(self, task: Task) -> Result:
        raise NotImplementedError

    def check(self, task: Task, result: Result) -> list:
        raise NotImplementedError


class WindowSweep(Workload):
    """One error-curve row per task: measured D/N/P errors and the three bounds."""

    name = "window_sweep"
    cycle = tuple((d, nu, rho) for d in (1, 2) for nu in (0.25, 1.0, 50.0)
                  for rho in (0.1, 1.0))

    def make(self, spec, u, aux):
        d, nu, rho = spec
        return Task(kind=f"row_d{d}", d=d, nu=nu, rho=rho,
                    delta=_log_band(u, 0.05 * rho, 6.0 * rho), bc="DNP",
                    n_axis=experiments.default_n_grid(d, nu))

    def run(self, task):
        return run_error_curve_row(task)

    def check(self, task, result):
        return check_error_curve_row(task, result)


def run_error_curve_row(task: Task) -> Result:
    """One ``error-curve`` row at the task's delta, rendered to CSV as the CLI does."""
    cfg = experiments.ExperimentConfig(
        sigma2=1.0, rho=task.rho, nu=task.nu, d=task.d, bc=tuple(task.bc),
        delta_list=(task.delta,), n_grid=task.n_axis, trunc_h=1e-3,
        robin_beta=None, n_samples=2, seed=0)
    # the runner drops the certified tails of its Gram calls, one per boundary
    # token in order; keep them
    tails = []
    saved = {name: getattr(experiments, name)
             for name in ("cov_folded_gram", "cov_spectral_gram")}

    def tap(gram_fn):
        def tapped(*args, **kwargs):
            gram, tail = gram_fn(*args, **kwargs)
            tails.append(tail)
            return gram, tail
        return tapped

    for name, fn in saved.items():
        setattr(experiments, name, tap(fn))
    try:
        table = experiments.run_error_curve(cfg)
    finally:
        for name, fn in saved.items():
            setattr(experiments, name, fn)
    csv = experiments.render_csv(table)
    return Result(digest=hashlib.sha256(csv.encode()).hexdigest(), tail=max(tails),
                  data=(table, tails), csv=csv)


def check_error_curve_row(task: Task, result: Result) -> list:
    """D/N/P errors within the window bound, Robin error within its modal tail,
    and dirichlet <= lattice <= window."""
    table, tails = result.data
    bad = []
    for row in table.rows:
        v = dict(zip(table.columns, row))
        window = v["window_bound"]
        for tok, tail in zip(task.bc, tails):
            err = v[f"err_{tok}"]
            # beta = kappa at nu = 1/2 in d = 1 makes the Robin field exact, so
            # its error is the modal truncation alone
            limit = tail if tok == "R" else window * (1.0 + 1e-12)
            if not err <= limit:
                bad.append(f"err_{tok} {err:.3e} > {'tail' if tok == 'R' else 'window'} "
                           f"{limit:.3e}")
        if not v["dirichlet_bound"] <= v["lattice_bound"] <= window:
            bad.append("bounds out of order: dirichlet <= lattice <= window fails")
    return bad


def _box_points(task: Task):
    params = derive_params(1.0, task.rho, task.nu, task.d)
    box = BoxDomain.cubic(task.delta, experiments.DOMAIN_SIZE, task.d)
    pts = experiments.grid_points(task.d, task.delta, task.n_axis)
    return params, box, pts


def _boundary(task: Task, params) -> BoundarySpec:
    kind = _KINDS[task.bc]
    return BoundarySpec.robin(params.kappa) if kind == "robin" else BoundarySpec(kind)


def _gap_check(gram, tail, ref, ref_tail, what: str) -> list:
    gap = float(np.max(np.abs(gram - ref)))
    limit = _GAP + tail + ref_tail
    return [] if gap <= limit else [f"|{what}| {gap:.3e} > {limit:.3e}"]


class ModalSample(Workload):
    """Modal Grams (D/N/P/R, d = 1 and 2), Monte-Carlo sampler checks and the
    Robin (modal) error-curve row."""

    name = "modal_sample"
    cycle = (tuple(("gram", 1, b) for b in "DNPR") + tuple(("gram", 2, b) for b in "DNPR")
             + (("sampler", 1, "N"), ("sampler", 1, "P"), ("row", 1, "R")))

    def make(self, spec, u, aux):
        what, d, bc = spec
        rho = 0.1
        delta = _log_band(u, rho, 3.0 * rho)
        if what == "sampler":
            return Task(kind="sampler", d=1, nu=1.0, rho=rho, delta=delta, bc=bc,
                        n_axis=15, kmax=1200, draws=2000, seed=aux)
        if what == "row":
            return Task(kind="row_R", d=1, nu=0.5, rho=rho, delta=delta, bc=bc, n_axis=15)
        if d == 1:
            return Task(kind="gram_d1", d=1, nu=0.5, rho=rho, delta=delta, bc=bc,
                        n_axis=15, kmax=100000)
        return Task(kind="gram_d2", d=2, nu=1.0, rho=rho, delta=delta, bc=bc,
                    n_axis=5, kmax=1000)

    def run(self, task):
        if task.kind == "row_R":
            return run_error_curve_row(task)
        if task.kind == "sampler":
            length = task.delta + experiments.DOMAIN_SIZE
            cfg = experiments.ExperimentConfig(
                sigma2=1.0, rho=task.rho, nu=task.nu, d=1, bc=(task.bc,),
                delta_list=(task.delta,), n_grid=task.n_axis,
                trunc_h=length / (task.kmax - 1), robin_beta=None,
                n_samples=task.draws, seed=task.seed)
            table = experiments.run_sampler_check(cfg)
            rows = np.asarray(table.rows, dtype=float)
            return Result(digest=_digest(rows), tail=0.0, data=(table.columns, rows))
        params, box, pts = _box_points(task)
        gram, tail = spectral.cov_spectral_gram(params, _boundary(task, params), box, pts,
                                                TruncationSpec(task.kmax))
        return Result(digest=_digest(gram), tail=tail, data=gram)

    def check(self, task, result):
        if task.kind == "row_R":
            return check_error_curve_row(task, result)
        if task.kind == "sampler":
            cols, rows = result.data
            ratio = rows[:, cols.index("abs_diff")] / rows[:, cols.index("std_error")]
            # |dev|/se is half-normal per entry; the largest of m entries passes
            # 5 by chance about once in 1e4 tasks, so the limit holds the
            # family-wise false alarm at _SAMPLER_FALSE_ALARM (5.76 for m = 120)
            limit = max(5.0, float(ndtri(1.0 - _SAMPLER_FALSE_ALARM / (2 * ratio.size))))
            worst = float(np.max(ratio))
            return [] if worst <= limit else [f"sampler max |dev|/se {worst:.2f} > {limit:.2f}"]
        gram = result.data
        params, box, pts = _box_points(task)
        if task.bc != "R":
            ref, ref_tail = folded.cov_folded_gram(params, box, _KINDS[task.bc], pts)
            return _gap_check(gram, result.tail, ref, ref_tail, "modal - folded")
        bad = []
        # the eigenpairs the Gram used, from the module's own cache
        eig = spectral._robin_cached(params.kappa, box.lengths[0], task.kmax + 1)
        resid = np.abs(eig.eigenvalue_residual())
        # a root rounded to the nearest double leaves a residual of up to one
        # ulp of the root (the normalized equation has unit slope there), so
        # 1e-12 is only reachable for roots below about 4e3
        limit = np.maximum(1e-12, 2.0 * np.spacing(eig.alphas))
        if np.any(resid > limit):
            i = int(np.argmax(resid / limit))
            bad.append(f"robin root {i} residual {resid[i]:.2e} > {limit[i]:.2e}")
        if task.d == 1:
            # nu = 1/2 and beta = kappa: the Robin field is exactly the exponential kernel
            gap = float(np.max(np.abs(gram - matern.matern_gram(params, pts))))
            if not gap <= result.tail:
                bad.append(f"|modal - kernel| {gap:.3e} > tail {result.tail:.3e}")
        return bad


class WideImage(Workload):
    """Image-sum Grams with rho at or beyond the box size: large radius, few kernel values."""

    name = "wide_image"
    cycle = tuple((3, b) for b in "NDP") + tuple((2, b) for b in "NDP")
    # (points per axis, centre of the rho band, modal reference kmax) per dimension
    sizes = {3: (2, 1.0, 40), 2: (5, 2.0, 200)}

    def make(self, spec, u, aux):
        d, bc = spec
        n_axis, rho0, kmax = self.sizes[d]
        v = (aux % 1024 + 0.5) / 1024
        return Task(kind=f"folded_d{d}", d=d, nu=1.0, rho=rho0 * (0.99 + 0.02 * v),
                    delta=0.10 + 0.02 * u, bc=bc, n_axis=n_axis, kmax=kmax)

    def run(self, task):
        params, box, pts = _box_points(task)
        gram, tail = folded.cov_folded_gram(params, box, _KINDS[task.bc], pts)
        return Result(digest=_digest(gram), tail=tail, data=gram)

    def check(self, task, result):
        gram = result.data
        params, box, pts = _box_points(task)
        bad = [] if np.array_equal(gram, gram.T) else ["folded Gram not symmetric"]
        ref, ref_tail = spectral.cov_spectral_gram(params, _boundary(task, params), box, pts,
                                                   TruncationSpec(task.kmax))
        return bad + _gap_check(gram, result.tail, ref, ref_tail, "folded - modal")


WORKLOADS = {w.name: w for w in (WindowSweep, ModalSample, WideImage)}
