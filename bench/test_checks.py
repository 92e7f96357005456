"""Every benchmark check passes on a correct output and rejects a perturbed one.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from workloads import analysis, cli_roundtrip, mesh_ensemble, poisson_ensemble  # noqa: E402

RNG = np.random.default_rng(20240601)


def gaussian_profiles(mean, var, reps=40, n_phi=1000):
    mean = np.asarray(mean, float)
    noise = RNG.standard_normal((reps, mean.size, n_phi)) * np.sqrt(np.asarray(var))[:, None]
    return mean[:, None] + noise


# ---------------------------------------------------------------------------
# ensemble checks on synthetic profiles
# ---------------------------------------------------------------------------


def test_ensemble_mean_rejects_radii_scaled_by_one_percent():
    mean, var = np.array([16.0, 24.0, 32.0]), np.array([0.25, 0.56, 1.0])
    profiles = gaussian_profiles(mean, var)
    assert checks.ensemble_mean("m", profiles, mean[:, None]) == []
    assert checks.ensemble_mean("m", 1.01 * profiles, mean[:, None])


def test_ensemble_variance_rejects_noise_scaled_by_ten_percent():
    mean, var = np.array([16.0, 24.0]), np.array([0.25, 1.0])
    profiles = gaussian_profiles(mean, var)
    assert checks.ensemble_variance("v", profiles, mean[:, None], var, var) == []
    scaled = mean[:, None] + 1.1 * (profiles - mean[:, None])
    assert checks.ensemble_variance("v", scaled, mean[:, None], var, var)


def test_ensemble_variance_accepts_anywhere_inside_its_range():
    mean, var = np.array([0.0]), np.array([1.0])
    profiles = gaussian_profiles(mean, var)
    assert checks.ensemble_variance("v", profiles, 0.0, [0.9], [1.1]) == []
    assert checks.ensemble_variance("v", profiles, 0.0, [1.2], [1.3])


def test_exact_scaling_rejects_a_profile_rotated_one_cell():
    base = gaussian_profiles([16.0, 24.0], [0.25, 0.5], reps=3)
    mult = 0.35 * np.exp(np.linspace(0.0, 1.0, base.shape[2]))
    assert checks.exact_scaling("x", mult * base, base, mult) == []
    assert checks.exact_scaling("x", np.roll(mult * base, 1, axis=2), base, mult)


def test_identical_rejects_one_ulp():
    x = RNG.standard_normal((3, 10))
    y = x.copy()
    y[1, 4] = np.nextafter(y[1, 4], np.inf)
    assert checks.identical("d", x, x.copy()) == []
    assert checks.identical("d", y, x)


def test_equal_counts_rejects_one_missing_point():
    assert checks.equal_counts("p", 490_000, 490_000.0) == []
    assert checks.equal_counts("p", 489_999, 490_000.0)


def test_wedge_slope_rejects_radii_scaled_by_one_percent():
    sd = checks.slope_sd(10.0, 0.5, 1.0, 75.0, 125.0, 400)
    reps = 4
    m75 = 744.2 + RNG.standard_normal(reps)
    m125 = m75 + 50 * (10.0 + sd * RNG.standard_normal(reps))
    profiles = np.stack([m75, m125], axis=1)[:, :, None] * np.ones((1, 1, 400))
    assert checks.wedge_slope("s", profiles, 0, 1, 50.0, 10.0, sd) == []
    assert checks.wedge_slope("s", 1.01 * profiles, 0, 1, 50.0, 10.0, sd)


def test_slope_sd_requires_the_narrow_wedge_regime():
    with pytest.raises(ValueError):
        checks.slope_sd(10.0, 0.5, 1.0, 30.0, 80.0, 400)


# ---------------------------------------------------------------------------
# expected values computed by the benchmark
# ---------------------------------------------------------------------------


def test_cone_cells_counts_midpoints_with_edge_ties():
    assert mesh_ensemble.cone_cells(1000, 5.5 * 2 * math.pi / 1000) == (11, 11)
    assert mesh_ensemble.cone_cells(1000, math.pi / 100) == (9, 11)  # edge on a midpoint


def test_table_integral_is_exact():
    ts, vs = (20.0, 45.0, 80.0), (16.0, 24.0, 32.0)
    assert mesh_ensemble.table_integral(ts, vs, 20.0) == pytest.approx(320.0, abs=1e-12)
    assert mesh_ensemble.table_integral(ts, vs, 45.0) == pytest.approx(820.0, abs=1e-12)
    assert mesh_ensemble.table_integral(ts, vs, 30.0) == pytest.approx(320.0 + 10 * 17.6, abs=1e-12)


def test_ex3_moments_match_direct_quadrature():
    mean, var = cli_roundtrip.ex3_moments()
    s = np.linspace(0.0, 125.0, 500_001)
    for t in (75.0, 125.0):
        width = 2 * np.minimum(np.pi, 0.5 / np.maximum(s, 1e-12))
        length = np.clip(np.minimum(s + 1.0, t) - s, 0.0, None) * (s <= t)
        assert mean[t] == pytest.approx(np.trapezoid(10 * s * width * length, s), rel=1e-6)
        assert var[t] == pytest.approx(np.trapezoid(10 * s * width * length**2, s), rel=1e-6)


# ---------------------------------------------------------------------------
# analytic outputs
# ---------------------------------------------------------------------------


def test_cov_rows_reject_a_table_missing_one_harmonic():
    coeffs, lag = [0.1, 0.5, 0.3, 0.2], 2.0
    expected = checks.cosine_weight_cov(coeffs, lag)
    dphis = np.linspace(0.0, math.pi, 7)
    good = [(8.0, 8.0, d, expected(8.0, 8.0, d)[0]) for d in dphis]
    missing = checks.cosine_weight_cov([0.1, 0.5, 0.0, 0.2], lag)
    bad = [(8.0, 8.0, d, missing(8.0, 8.0, d)[0]) for d in dphis]
    assert checks.cov_rows("c", good, expected) == []
    assert checks.cov_rows("c", bad, expected)


def test_program_tables_pass_and_a_dropped_harmonic_fails():
    from levygrowth.circle_cov import CircleCovModel, FourierWeight, PthOrderParams, pth_order_weight

    coeffs, lag, pairs = np.array([0.2, 0.3, 0.1]), 2.0, [(6.0, 6.0), (6.0, 7.0)]
    params = PthOrderParams(2, 1.0, 0.5)
    weight, _ = pth_order_weight(params, analysis.UNIT, lag, k_max=16)
    tab = {
        "lag": lag,
        "coeffs": coeffs,
        "cos_rows": CircleCovModel.from_weight(FourierWeight.constant_coeffs(coeffs), analysis.UNIT, lag).table(pairs, [0.0, 1.0, 2.0]),
        "params": params,
        "k_max": 16,
        "pth_rows": CircleCovModel.from_weight(weight, analysis.UNIT, lag).table(pairs, [0.0, 1.0]),
    }
    assert analysis.check_tables(tab) == []
    dropped = CircleCovModel.from_weight(FourierWeight.constant_coeffs([0.2, 0.3, 0.0]), analysis.UNIT, lag)
    assert analysis.check_tables(dict(tab, cos_rows=dropped.table(pairs, [0.0, 1.0, 2.0])))
    shifted = PthOrderParams(2, 1.05, 0.5)
    weight2, _ = pth_order_weight(shifted, analysis.UNIT, lag, k_max=16)
    rows2 = CircleCovModel.from_weight(weight2, analysis.UNIT, lag).table(pairs, [0.0, 1.0])
    assert analysis.check_tables(dict(tab, pth_rows=rows2))


def test_overlap_check_accepts_the_oracle_and_rejects_the_paper_constant():
    from levygrowth.circle_cov import boundary_overlap_oracle, overlap_coeffs_from_boundary

    gammas = [0.8, 0.5, 0.1, 0.08, 0.05, 0.03]
    lam = boundary_overlap_oracle(gammas, n_grid=analysis.ORACLE_GRID, n_terms=8)
    assert checks.overlap_coefficients("o", lam, gammas, analysis.ORACLE_TOL) == []
    paper = overlap_coeffs_from_boundary(gammas, 8)
    assert checks.overlap_coefficients("o", paper, gammas, analysis.ORACLE_TOL)
    off = lam.copy()
    off[3] += 2 * analysis.ORACLE_TOL
    assert checks.overlap_coefficients("o", off, gammas, analysis.ORACLE_TOL)


def test_linear_moment_check_rejects_a_one_cell_shift():
    theta, dphi, t = 0.1, 2 * math.pi / 1000, 40.0
    from levygrowth.levy_core import SpotLaw

    res = {
        "name": "ex5",
        "spot": SpotLaw.gamma_law(1.0, 1.0),
        "theta": theta,
        "dphi": dphi,
        "points": ((t, 0.0), (t, 0.05)),
        "mean": 2 * theta * 0.2 * t,
        "var": 2 * theta * 0.2 * t,
        "cov": (2 * theta - 0.05) * 0.2 * t,
    }
    assert analysis.check_linear(res) == []
    assert analysis.check_linear(dict(res, var=res["var"] + 1.5 * dphi * 0.2 * t))
    assert analysis.check_linear(dict(res, cov=res["cov"] - 1.5 * dphi * 0.2 * t))


def test_mc_check_rejects_an_analytic_value_one_cell_off():
    wl = analysis.Workload.__new__(analysis.Workload)
    wl.seed = 3
    rng = analysis.round_rng(3, 0)
    mc = wl._mc(rng, 50, 0)
    assert analysis.check_mc(mc) == []
    cell = analysis.MC_GRID.dphi * analysis.MC_GRID.dt * analysis.MC_DENSITY
    for k, rep in enumerate(mc["reports"]):
        bad = dict(mc, reports=list(mc["reports"]))
        if rep["stat"] in ("mean", "var", "cov"):
            shifted = rep["analytic"] + mc["f"] ** 2 * cell * 0.5
        else:
            shifted = rep["analytic"] * math.exp(0.5 * cell * mc["f"] ** 2)
        bad["reports"][k] = dict(rep, analytic=shifted)
        assert analysis.check_mc(bad), (rep["spot"].kind, rep["stat"])
    bad = dict(mc, reports=[dict(r, z=7.0) if r["stat"] == "mean" else r for r in mc["reports"]])
    assert analysis.check_mc(bad)


def test_fit_and_z_checks_reject_out_of_tolerance_values():
    assert checks.relative("f", 1.1, 1.0, 0.15) == []
    assert checks.relative("f", 1.2, 1.0, 0.15)  # a fit estimate 20% off
    assert checks.z_score("z", 3.9) == []
    assert checks.z_score("z", -6.5)
    assert checks.z_score("z", math.inf)


# ---------------------------------------------------------------------------
# CLI output files
# ---------------------------------------------------------------------------


def test_history_csv_rejects_missing_rows_and_a_wrong_seed(tmp_path):
    path = tmp_path / "history.csv"
    body = "".join(f"20.0,{j}.0,1.0,{r}\n" for r in range(2) for j in range(3))
    path.write_text("# levygrowth v0.1.0 config=abc seed=7\nt,phi,r,replicate\n" + body)
    assert checks.history_csv("h", path, 6, 7) == []
    assert checks.history_csv("h", path, 7, 7)
    assert checks.history_csv("h", path, 6, 8)


def test_fit_report_rejects_an_estimate_twenty_percent_off(tmp_path):
    path = tmp_path / "fit.json"
    truth = {"sigma2": 1.0, "theta": math.pi / 5}
    path.write_text(json.dumps({"converged": True, "params": {"sigma2": 1.03, "theta": 0.6}}))
    assert checks.fit_report("f", path, truth, 0.15) == []
    path.write_text(json.dumps({"converged": True, "params": {"sigma2": 1.2, "theta": 0.6}}))
    assert checks.fit_report("f", path, truth, 0.15)
    path.write_text(json.dumps({"converged": False, "params": {"sigma2": 1.0, "theta": 0.6}}))
    assert checks.fit_report("f", path, truth, 0.15)


def test_moments_table_rejects_the_ex3_zeros():
    mean, var = cli_roundtrip.ex3_moments()
    good = [(t, mean[t], var[t]) for t in mean]
    zeros = [(t, 0.0, 0.0) for t in mean]
    tol_m = {t: 0.02 * m for t, m in mean.items()}
    tol_v = {t: 0.1 * v for t, v in var.items()}
    assert checks.moments_table("m", good, mean, var, tol_m, tol_v) == []
    assert checks.moments_table("m", zeros, mean, var, tol_m, tol_v)


def test_mc_report_rejects_a_flagged_statistic(tmp_path):
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({"reports": [{"statistic": "cov", "z": 0.4, "flagged": False}]}))
    assert checks.mc_report("mc", path) == []
    path.write_text(json.dumps({"reports": [{"statistic": "cov", "z": 3.4, "flagged": True}]}))
    assert checks.mc_report("mc", path)


def test_exit_code_rejects_nonzero():
    assert checks.exit_code("x", 0) == []
    assert checks.exit_code("x", 3)


# ---------------------------------------------------------------------------
# workload checks on real program output
# ---------------------------------------------------------------------------


def test_mesh_round_passes_and_perturbations_fail(tmp_path):
    wl = mesh_ensemble.Workload(5, str(tmp_path))
    outputs = {name: fn() for name, fn in wl.ops(0)}
    assert all(v == [] for v in wl.check(0, outputs).values())
    bad = dict(outputs)
    bad["ex4-narrow"] = 1.01 * outputs["ex4-narrow"]
    bad["ex6"] = np.roll(outputs["ex6"], 1, axis=2)
    bad["ex4-rate"] = outputs["ex4-rate"][::-1]  # replicates out of order
    verdict = wl.check(0, bad)
    assert verdict["ex4-narrow"] and verdict["ex6"] and verdict["ex4-rate"]
    assert verdict["ex4-wide"] == []


def test_poisson_round_passes_and_scaled_radii_fail(tmp_path):
    wl = poisson_ensemble.Workload(5, str(tmp_path))
    outputs = {name: fn() for name, fn in wl.ops(0)}
    assert all(v == [] for v in wl.check(0, outputs).values())
    bad = {name: 1.01 * out for name, out in outputs.items()}
    assert all(wl.check(0, bad).values())
