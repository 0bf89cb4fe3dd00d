"""Experiment runner and CLI: config parsing, table protocol, golden stability."""

import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest

from maternbox.experiments import (
    default_delta_grid,
    default_n_grid,
    grid_points,
    load_config,
    measured_max_error,
    render_csv,
    run_bound_table,
    run_cov_slice,
    run_error_curve,
    run_sampler_check,
    run_verify,
)
from maternbox.folded import cov_folded_periodic
from maternbox.matern import derive_params
from maternbox.spectral import BoundarySpec, BoxDomain, TruncationSpec, cov_spectral_gram


def _write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE_CFG = """
# basic experiment
sigma2 = 1
rho = 0.1
nu = 1
d = 1
bc = D,N,P
delta_list = 0.05,0.1,0.2
n_grid = 6
trunc_h = 1e-3
seed = 3
n_samples = 400
"""


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, BASE_CFG))
    assert cfg.sigma2 == 1.0 and cfg.rho == 0.1 and cfg.nu == 1.0 and cfg.d == 1
    assert cfg.bc == ("D", "N", "P")
    assert cfg.delta_list == (0.05, 0.1, 0.2)
    assert cfg.n_grid == 6 and cfg.trunc_h == 1e-3
    assert cfg.robin_beta is None and cfg.seed == 3 and cfg.n_samples == 400


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "sigma2=1\nrho=0.2\nnu=0.25\nd=1\n"))
    assert cfg.bc == ("N",)
    assert len(cfg.delta_list) == 25 and cfg.delta_list[0] == 0.0
    assert cfg.delta_list[-1] == pytest.approx(6 * 0.2)
    assert cfg.n_grid == default_n_grid(1, 0.25) == 10
    assert default_n_grid(1, 1.0) == 15
    assert default_n_grid(2, 1.0) == 5 and default_n_grid(2, 0.25) == 3


def test_load_config_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(_write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=1\nd=1\nfoo=2\n"))
    with pytest.raises(ValueError, match="duplicate"):
        load_config(_write_cfg(tmp_path, "sigma2=1\nsigma2=2\nrho=0.1\nnu=1\nd=1\n"))
    with pytest.raises(ValueError, match="missing required"):
        load_config(_write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=1\n"))
    with pytest.raises(ValueError, match="boundary token"):
        load_config(_write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=1\nd=1\nbc=D,X\n"))
    with pytest.raises(ValueError, match="key = value"):
        load_config(_write_cfg(tmp_path, "sigma2 1\nrho=0.1\nnu=1\nd=1\n"))
    # every value through the library's readers: refused at load, naming the
    # file and the key, not later without either
    base = "sigma2=1\nrho=0.1\nnu=1\nd=1\n"
    for text, key in ((base + "trunc_h=inf\n", "trunc_h"),
                      (base + "robin_beta=inf\n", "robin_beta"),
                      (base + "delta_list=0.1,nan\n", "delta_list"),
                      (base.replace("rho=0.1", "rho=inf"), "rho"),
                      (base.replace("d=1", "d=4"), "d"),
                      (base.replace("sigma2=1", "sigma2=True"), "sigma2"),
                      (base + "seed=-1\n", "seed"),
                      (base + "n_grid=1\n", "n_grid"),
                      (base + "n_grid=2.5\n", "n_grid"),
                      (base + "n_samples=2.5\n", "n_samples")):
        path = _write_cfg(tmp_path, text, "bad.txt")
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: config key '{key}': "):
            load_config(path)


def test_robin_beta_defaults_to_kappa(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=0.5\nd=1\nbc=R\n"))
    assert cfg.boundary("R").beta == pytest.approx(10.0)
    cfg2 = load_config(_write_cfg(
        tmp_path, "sigma2=1\nrho=0.1\nnu=0.5\nd=1\nbc=R\nrobin_beta=3.5\n", "c2.txt"))
    assert cfg2.boundary("R").beta == 3.5


def test_render_csv_full_precision():
    from maternbox.experiments import Table

    t = Table(columns=("a", "b"), rows=((1.0 / 3.0, 2.0),))
    text = render_csv(t)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1].split(",")[0] == f"{1.0 / 3.0:.16e}"
    assert float(lines[1].split(",")[0]) == 1.0 / 3.0


def test_error_curve_bounds_dominate(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, BASE_CFG))
    table = run_error_curve(cfg)
    cols = list(table.columns)
    assert cols == ["delta", "err_D", "err_N", "err_P",
                    "lattice_bound", "window_bound", "dirichlet_bound"]
    for row in table.rows:
        delta, errs, bnds = row[0], row[1:4], row[4:]
        for e in errs:
            assert e <= bnds[1], (delta, e, bnds[1])  # window bound
            assert e <= bnds[0] * (1 + 1e-12), (delta, e, bnds[0])
    deltas = [r[0] for r in table.rows]
    errs_n = [r[2] for r in table.rows]
    assert all(a >= b for a, b in zip(errs_n, errs_n[1:]))  # decreasing in delta


def test_cov_slice_structure_and_oracle(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, """
sigma2 = 1
rho = 0.1
nu = 1
d = 1
bc = D,N,P
delta_list = 0.2
n_grid = 15
"""))
    table = run_cov_slice(cfg)
    assert list(table.columns) == ["y", "C_matern", "C_D", "C_N", "C_P"]
    p = cfg.params()
    box = BoxDomain.cubic(0.2, 1.0, 1)
    x0 = 0.1
    for row in table.rows:
        y, c_m, c_d, c_n, c_p = row
        ref = cov_folded_periodic(p, box, [x0], [y])
        # the slice may pick a different certified radius; both sums carry
        # a <= 1e-8 sigma^2 remainder
        assert c_p == pytest.approx(ref.value, abs=1e-8 + ref.tail_bound)
        # window of two correlation lengths: curves hug the kernel away from x0
        if y - x0 >= 0.2:
            assert abs(c_d - c_m) <= 2e-2
            assert abs(c_n - c_m) <= 2e-2
            # periodic wrap-around re-correlates the far end of the slice at
            # distance L - (y - x0); its magnitude rides on top of the 2e-2
            from maternbox.matern import unit_matern

            wrap = float(unit_matern(p.nu, p.kappa * (box.lengths[0] - (y - x0))))
            assert abs(c_p - c_m) <= 2e-2 + 1.01 * wrap
            if wrap <= 1e-3:
                assert abs(c_p - c_m) <= 2e-2
    first = table.rows[0]
    assert first[3] > first[1]  # C_N(x0, x0) > sigma^2


def test_cov_slice_d2_diagonal(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, """
sigma2 = 1
rho = 0.1
nu = 1
d = 2
bc = N,R
delta_list = 0.2
n_grid = 4
trunc_h = 5e-3
"""))
    table = run_cov_slice(cfg)
    assert list(table.columns) == ["y", "C_matern", "C_N", "C_R"]
    assert len(table.rows) == 4
    assert table.rows[0][2] > 1.0  # corner overestimation


def test_error_curve_stable_under_refinement(tmp_path):
    # doubled image radius and doubled mode cap must reproduce the measured error
    p = derive_params(1.0, 0.1, 1.0, 1)
    delta = 0.1
    box = BoxDomain.cubic(delta, 1.0, 1)
    base = measured_max_error(p, box, BoundarySpec.neumann(), 15, 1e-3)
    from maternbox.folded import cov_folded_gram, pick_radius
    from maternbox.matern import matern_gram

    pts = grid_points(1, delta, 15)
    exact = matern_gram(p, pts)
    r0 = pick_radius(p, box, "neumann", separation_inf=2.0 * box.length_max)
    coarse, _ = cov_folded_gram(p, box, "neumann", pts, radius=r0)
    fine, _ = cov_folded_gram(p, box, "neumann", pts, radius=2 * r0)
    e_coarse = float(np.max(np.abs(coarse - exact)))
    e_fine = float(np.max(np.abs(fine - exact)))
    assert abs(e_coarse - e_fine) <= 0.01 * e_fine
    assert abs(base - e_fine) <= 0.01 * e_fine
    spec_small, _ = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                      TruncationSpec(2402))
    spec_big, _ = cov_spectral_gram(p, BoundarySpec.neumann(), box, pts,
                                    TruncationSpec(4804))
    e_s = float(np.max(np.abs(spec_small - exact)))
    e_b = float(np.max(np.abs(spec_big - exact)))
    assert abs(e_s - e_b) <= 0.01 * e_b


def test_sampler_check_output(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, """
sigma2 = 1
rho = 0.1
nu = 1
d = 1
bc = N
delta_list = 0.2
n_grid = 5
trunc_h = 5e-3
n_samples = 2000
seed = 11
"""))
    table = run_sampler_check(cfg)
    assert list(table.columns) == ["i", "j", "analytic", "empirical",
                                   "abs_diff", "std_error", "within_4se"]
    within = [r[6] for r in table.rows]
    assert sum(within) >= 0.95 * len(within)
    bad = load_config(_write_cfg(tmp_path, """
sigma2 = 1
rho = 0.1
nu = 1
d = 1
n_samples = 0
""", "bad.txt"))
    with pytest.raises(ValueError, match="n_samples"):
        run_sampler_check(bad)


# SHA-256 of the CSV of each table verb on small d = 1 and d = 2 configs
# (every boundary kind; Robin first in d = 1, so ``sample`` draws Robin modes).
# A rewrite of the numerics must reproduce them byte for byte; an output
# change on purpose replaces a digest and says why.  Digests depend on the
# platform's libm, numpy and BLAS builds (the d >= 2 modal sums run through
# BLAS matrix products, whose rounding follows their shapes).
GOLDEN = (
    ("sigma2=1\nrho=0.1\nnu=1\nd=1\nbc=R,D,N,P\ndelta_list=0,0.05,0.2\nn_grid=7\n"
     "trunc_h=1e-3\nseed=3\nn_samples=200\n",
     {"cov-slice": "9f9c742a29088f08ab77b8edd5320865bc9d269c2d1a6adcf7712d1c1e54ec55",
      "error-curve": "91bf03f5c6055dadb11cb7d1fa3c5f3c41be1a114b4a989c3f4dd0f9e0b24ddd",
      "bounds": "956f33adcf9565745acb5a5b50af746b7b5c196affb9284f3a4ae7028949a53b",
      "sample": "404aba8d29c52b71cc195a28785d5fa340322e277482410ad685e5c2111a2bb4"}),
    ("sigma2=1\nrho=0.1\nnu=1\nd=2\nbc=D,N,P,R\ndelta_list=0.05,0.2\nn_grid=3\n"
     "trunc_h=2e-2\nseed=5\nn_samples=200\n",
     {"cov-slice": "34573354b6b6e5a2b3350916dcaf9a154a6c291997b9235d9300a926dc937604",
      "error-curve": "f5ba5e5efe6f864e487b9e8746d6ee67f83f9b185ce6a1021ec0ba463e8369f0",
      "bounds": "e1378dde18f4ab34bd72ed1c37857dda2bf798ec4798bfea9cf3eff8386ce4ab",
      "sample": "3096b794824a73a39fe96806891947da883180895ac63e98421cc074b94501b1"}),
)


def test_golden_byte_stability(tmp_path):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    cfg = load_config(cfg_path)
    a = render_csv(run_error_curve(cfg))
    b = render_csv(run_error_curve(load_config(cfg_path)))
    assert a == b
    s1 = render_csv(run_sampler_check(cfg))
    s2 = render_csv(run_sampler_check(cfg))
    assert s1 == s2
    for k, (text, digests) in enumerate(GOLDEN):
        cfg = load_config(_write_cfg(tmp_path, text, f"golden{k}.txt"))
        for verb, run in (("cov-slice", run_cov_slice), ("error-curve", run_error_curve),
                          ("bounds", run_bound_table), ("sample", run_sampler_check)):
            got = hashlib.sha256(render_csv(run(cfg)).encode()).hexdigest()
            assert got == digests[verb], f"config {k}, {verb}"


def test_cli_end_to_end(tmp_path):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        res = subprocess.run(
            [sys.executable, "-m", "maternbox.cli", "error-curve",
             "--config", cfg_path, "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("delta,err_D")

    res = subprocess.run(
        [sys.executable, "-m", "maternbox.cli", "bounds", "--config", cfg_path],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("delta,prefactor,decay_ell")

    res = subprocess.run(
        [sys.executable, "-m", "maternbox.cli", "error-curve"],
        capture_output=True, text=True)
    assert res.returncode != 0
    assert "--config" in res.stderr

    res = subprocess.run(
        [sys.executable, "-m", "maternbox.cli", "cov-slice",
         "--config", str(tmp_path / "missing.txt")],
        capture_output=True, text=True)
    assert res.returncode != 0

    bad_cfg = _write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=1\nd=1\nunknown=1\n",
                         "bad2.txt")
    res = subprocess.run(
        [sys.executable, "-m", "maternbox.cli", "bounds", "--config", bad_cfg],
        capture_output=True, text=True)
    assert res.returncode != 0
    assert "unknown config key" in res.stderr


def test_cli_reports_robin_root_failure(tmp_path):
    # (beta L)^2 overflows, so the Robin frequency equation is not finite
    cfg_path = _write_cfg(tmp_path, "sigma2=1\nrho=0.1\nnu=1\nd=1\nbc=R\nrobin_beta=1e200\n")
    res = subprocess.run(
        [sys.executable, "-m", "maternbox.cli", "cov-slice", "--config", cfg_path],
        capture_output=True, text=True)
    assert res.returncode != 0
    assert "cov-slice failed: Robin frequency equation not finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr


def test_verify_takes_no_config_or_seed(capsys):
    from maternbox.cli import main

    for extra in (["--seed", "3"], ["--config", "cfg.txt"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + extra)
        assert exc.value.code != 0
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bound_table(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, BASE_CFG))
    table = run_bound_table(cfg)
    assert [r[0] for r in table.rows] == [0.05, 0.1, 0.2]
    for row in table.rows:
        assert row[1] >= 1.0  # prefactor >= 2^d - 1 = 1
        assert 0.0 < row[2] < 1.0


def test_default_delta_grid_shape():
    g = default_delta_grid(0.1)
    assert len(g) == 25
    assert g[0] == 0.0
    assert g[1] == pytest.approx(0.005)
    assert g[-1] == pytest.approx(0.6)
    assert all(a < b for a, b in zip(g[1:], g[2:]))


def test_verify_suite_passes():
    lines, ok = run_verify()
    assert ok, "\n".join(lines)
    assert all(line.startswith("PASS") for line in lines)


def test_cli_seed_override(tmp_path):
    cfg_path = _write_cfg(tmp_path, """
sigma2 = 1
rho = 0.1
nu = 1
d = 1
bc = N
delta_list = 0.2
n_grid = 4
trunc_h = 5e-3
n_samples = 50
seed = 1
""", "seedcfg.txt")
    outs = {}
    for name, extra in (("a", []), ("b", ["--seed", "99"]), ("c", ["--seed", "99"])):
        out = tmp_path / f"{name}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "maternbox.cli", "sample",
             "--config", cfg_path, "--out", str(out)] + extra,
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs[name] = out.read_bytes()
    assert outs["b"] == outs["c"]
    assert outs["a"] != outs["b"]


def test_cli_seed_override_is_read_as_a_seed(tmp_path):
    # --seed -1 was parsed, then failed in the sampler with Philox's key message
    from maternbox.cli import main

    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    with pytest.raises(SystemExit, match=r"^--seed must be an integer >= 0, got -1$"):
        main(["sample", "--config", cfg_path, "--seed", "-1"])


def test_log_error_curvature_regimes():
    # semilog error curves: straight for the exponential kernel, bending up
    # (convex) for rougher kernels, bending down (concave) for smoother ones,
    # consistent with ln M ~ -t + (nu - 1/2) ln t
    from maternbox.matern import derive_params

    deltas = np.linspace(0.05, 0.55, 11)

    def second_diffs(nu):
        p = derive_params(1.0, 0.1, nu, 1)
        errs = [measured_max_error(p, BoxDomain.cubic(d_, 1.0, 1),
                                   BoundarySpec.neumann(), 10, 1e-3)
                for d_ in deltas]
        return np.diff(np.log(errs), 2)

    assert np.max(np.abs(second_diffs(0.5))) <= 1e-6
    assert np.all(second_diffs(0.25) > 0)
    assert np.all(second_diffs(1.0) < 0)
    assert np.all(second_diffs(2.5) < 0)


def test_dirichlet_smallest_preasymptotic_error():
    # when the correlation length reaches the domain size, the cancelling
    # reflections keep the Dirichlet error well below Neumann and periodic
    from maternbox.matern import derive_params

    for d in (1, 2):
        p = derive_params(1.0, 1.0, 1.0, d)
        for delta in (0.05, 0.2, 0.5, 1.0):
            box = BoxDomain.cubic(delta, 1.0, d)
            e_d = measured_max_error(p, box, BoundarySpec.dirichlet(), 5, 1e-3)
            e_n = measured_max_error(p, box, BoundarySpec.neumann(), 5, 1e-3)
            e_p = measured_max_error(p, box, BoundarySpec.periodic(), 5, 1e-3)
            assert e_d < e_n
            assert e_d < e_p
