"""Growth simulation: evaluation paths, presets, matching, outburst view."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levygrowth.ambit import (
    AmbitRegion,
    FullAngle,
    Rectangular,
    Tumour,
    WedgeOverS,
    induced_weight,
)
from levygrowth.cyclic import cyc_dist
from levygrowth.errors import KumulantDomainError, UnknownId, WrongBasisKind
from levygrowth.growth import (
    MODEL_KINDS,
    ConstantWeight,
    Drift,
    GrowthModelSpec,
    TumourWeight,
    asymmetry_profile,
    example_preset,
    moment_match_gamma,
    moment_match_ig,
    poisson_outburst_view,
    simulate,
    simulate_replicates,
)
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
    integrate,
    sample_realization,
    spot_mean,
    spot_variance,
)
from levygrowth.quadrature import adaptive_simpson
from levygrowth.rngtools import mix_seed
from levygrowth.timefn import TimeFn

TWO_PI = 2 * math.pi


def small_grid(n_phi=16, dt=0.5, t_max=4.0):
    return GridSpec(TWO_PI / n_phi, dt, 0.0, t_max)


def gaussian_basis(b=1.0, g=None):
    return BasisSpec(SpotLaw.gaussian(0.0, b), ControlMeasure(g or TimeDensity.constant(1.0)))


# ---------------------------------------------------------------------------
# drift helpers
# ---------------------------------------------------------------------------


def test_gompertz_drift_value_and_integral():
    k0, eta, gam = 2.0, 0.8, 0.3
    d = Drift.gompertz(k0, eta, gam)
    t = 1.7
    expected = k0 * math.exp((eta / gam) * (1 - math.exp(-gam * t))) * eta * math.exp(-gam * t)
    assert d(t) == pytest.approx(expected, rel=1e-12)
    closed = k0 * (math.exp((eta / gam) * (1 - math.exp(-gam * t))) - 1.0)
    assert d.integral(t) == pytest.approx(closed, rel=1e-12)
    # numeric cross-check of the closed-form integral
    numeric = adaptive_simpson(lambda u: d(u), 0.0, t, tol=1e-12)
    assert d.integral(t) == pytest.approx(numeric, rel=1e-9)


def test_step_drift_holds_values():
    d = Drift.step((21.0, 25.0, 55.0), (1.0, 2.0, 3.0))
    assert d(21.0) == 1.0
    assert d(24.9) == 1.0
    assert d(25.0) == 2.0
    assert d(80.0) == 3.0
    assert d(0.0) == 1.0  # clamped before the first node


def test_step_and_table_drift_integrals_are_exact():
    assert TimeFn.step((0, 10.3), (1, 3)).integral(20) == pytest.approx(39.4, abs=1e-12)
    ex4_drift = example_preset("ex4").spec.drift
    assert ex4_drift.kind == "table"
    assert ex4_drift.integral(45) == pytest.approx(820.0, abs=1e-12)


@st.composite
def time_functions(draw):
    kind = draw(
        st.sampled_from(["constant", "proportional", "affine", "table", "step", "gompertz"])
    )
    num = st.floats(-10.0, 10.0)
    if kind == "constant":
        return TimeFn.constant(draw(num))
    if kind == "proportional":
        return TimeFn.proportional(draw(num))
    if kind == "affine":
        return TimeFn.affine(draw(num), draw(num))
    if kind == "gompertz":
        return TimeFn.gompertz(
            draw(st.floats(0.1, 5.0)), draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 2.0))
        )
    gaps = draw(st.lists(st.floats(0.1, 8.0), max_size=5))
    ts = np.cumsum([draw(st.floats(-5.0, 25.0)), *gaps])
    vs = draw(st.lists(num, min_size=len(ts), max_size=len(ts)))
    return TimeFn.table(ts, vs) if kind == "table" else TimeFn.step(ts, vs)


@settings(deadline=None)
@given(time_functions(), st.floats(0.5, 30.0))
def test_time_function_integral_matches_quadrature(fn, t):
    # split at the nodes so each panel integrates a smooth piece
    nodes = fn.params[0] if fn.kind in ("table", "step") else ()
    cuts = [0.0] + [x for x in nodes if 0.0 < x < t] + [t]
    scale = t * max(1.0, float(np.max(np.abs(fn(np.linspace(0.0, t, 101))))))
    ref = sum(
        adaptive_simpson(fn, a, b, tol=1e-13 * scale) for a, b in zip(cuts, cuts[1:])
    )
    assert fn.integral(t) == pytest.approx(ref, rel=1e-9, abs=1e-9 * scale)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_adaptive_simpson_returns_non_finite_integrand_at_once(value):
    start = time.perf_counter()
    result = adaptive_simpson(lambda x: value, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == math.inf


# ---------------------------------------------------------------------------
# evaluation-path consistency (brute force oracles)
# ---------------------------------------------------------------------------


def brute_force_direct(spec, grid, realization, t):
    """Reference: membership and weight at every (angle, cell) pair."""
    out = np.empty(grid.n_phi)
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None]
    for i, phi in enumerate(grid.phi_mids):
        member = spec.ambit.contains(t, phi, theta, s)
        if hasattr(spec.weight, "value"):
            w = spec.weight.value(t, theta, s, phi)
        else:
            w = np.full(member.shape, float(spec.weight.c))
        out[i] = float(np.sum(np.where(member, w, 0.0) * realization.increments))
    return out


def test_direct_kernel_matches_brute_force_gaussian():
    from levygrowth.growth import _term

    grid = small_grid()
    fam = Rectangular.of(0.9, TimeFn.constant(2.0))
    spec = GrowthModelSpec("direct", Drift.zero(), ConstantWeight(1.0), gaussian_basis(), fam)
    real = sample_realization(spec.basis, grid, 21)
    got = _term(spec, grid, 3.5, "direct")(real)
    ref = brute_force_direct(spec, grid, real, 3.5)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_direct_point_path_matches_brute_force_poisson():
    from levygrowth.growth import _term

    grid = small_grid()
    fam = Rectangular.of(0.9, TimeFn.constant(2.0))
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(1.0))),
        fam,
    )
    real = sample_realization(spec.basis, grid, 22)
    got = _term(spec, grid, 3.5, "direct")(real)
    pts = real.points()
    ref = np.empty(grid.n_phi)
    for i, phi in enumerate(grid.phi_mids):
        member = spec.ambit.contains(3.5, phi, pts.theta, pts.s)
        ref[i] = float(np.sum(member))
    assert np.max(np.abs(got - ref)) < 1e-9


def test_rate_point_path_matches_brute_force_poisson():
    from levygrowth.ambit import window_length_in_union
    from levygrowth.growth import _term

    grid = small_grid(n_phi=32, dt=0.25, t_max=4.0)
    fam = WedgeOverS(theta=0.5, T=1.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.linear(2.0))),
        fam,
    )
    t = 3.5
    real = sample_realization(spec.basis, grid, 23)
    got = _term(spec, grid, t, "rate")(real)
    pts = real.points()
    lengths = window_length_in_union(fam, pts.s, t)
    widths = fam.half_width(t, pts.s)
    ref = np.empty(grid.n_phi)
    for i, phi in enumerate(grid.phi_mids):
        inside = cyc_dist(pts.theta, phi) <= widths + 1e-12
        ref[i] = float(np.sum(lengths * inside))
    assert np.max(np.abs(got - ref)) < 1e-9


def test_rate_kernel_matches_induced_weight_sum_gamma():
    from levygrowth.growth import _term

    grid = small_grid(n_phi=16, dt=0.5, t_max=4.0)
    fam = Rectangular.of(0.8, TimeFn.constant(1.5))
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.gamma_law(1.0, 1.0), ControlMeasure(TimeDensity.constant(1.0))),
        fam,
    )
    t = 3.5
    real = sample_realization(spec.basis, grid, 24)
    got = _term(spec, grid, t, "rate")(real)
    fbar = induced_weight(fam, 1.0, t, phi=0.0)
    ref = np.empty(grid.n_phi)
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None]
    for i, phi in enumerate(grid.phi_mids):
        w = fbar(theta - phi + 0.0, s)  # translation covariance
        ref[i] = float(np.sum(np.asarray(w) * real.increments))
    assert np.max(np.abs(got - ref)) < 1e-9


POISSON_COSINE_RATE = {
    "model": {
        "kind": "rate_linear",
        "weight": {"kind": "cosine", "coeffs": [1.0, 0.5]},
        "basis": {"kind": "poisson"},
        "ambit": {"kind": "full_angle", "T": 1.0},
    },
    "grid": {"dphi_divisor": 32, "dt": 0.5, "t_max": 4.0},
    "times": [2.0],
}


def test_poisson_rate_model_with_cosine_weight_takes_mesh_path(tmp_path):
    # the rate point sum handles constant weights only
    from levygrowth.cli import main
    from levygrowth.config import parse_config
    from levygrowth.growth import _correlate_rows, _rate_kernel

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(POISSON_COSINE_RATE))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    cfg = parse_config(json.loads(json.dumps(POISSON_COSINE_RATE)))
    spec, grid, t = cfg.spec, cfg.grid, 2.0
    hist = simulate(spec, grid, 5, [t])
    real = sample_realization(spec.basis, grid, 5)
    term = _correlate_rows(real.increments, _rate_kernel(spec, grid, t), grid.n_phi)
    expected = spec.r0_profile(grid.phi_mids) + spec.drift.integral(t) + term
    assert np.any(term != 0.0)
    assert np.max(np.abs(hist.profiles[0] - expected)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(expected)))
    )


# ---------------------------------------------------------------------------
# simulate semantics
# ---------------------------------------------------------------------------


def test_zero_weight_rate_model_is_deterministic_line():
    grid = small_grid()
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.constant(1.5),
        ConstantWeight(0.0),
        gaussian_basis(),
        FullAngle.of(1.0),
        r0=2.0,
    )
    hist = simulate(spec, grid, 7, [1.0, 2.0, 4.0])
    for i, t in enumerate(hist.times):
        assert np.allclose(hist.profiles[i], 2.0 + 1.5 * t, atol=1e-12)


def test_simulate_deterministic_bitwise():
    preset = example_preset("ex4")
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 80.0)
    h1 = simulate(preset.spec, grid, 77, [20.0, 45.0])
    h2 = simulate(preset.spec, grid, 77, [20.0, 45.0])
    assert np.array_equal(h1.profiles, h2.profiles)
    h3 = simulate(preset.spec, grid, 78, [20.0, 45.0])
    assert not np.array_equal(h1.profiles, h3.profiles)


DETERMINISM_SPOTS = (
    SpotLaw.gaussian(0.0, 1.0),
    SpotLaw.gamma_law(1.0, 1.0),
    SpotLaw.inverse_gaussian(1.0, 1.0),
    SpotLaw.poisson(),
)


def determinism_spec(kind, spot):
    basis = BasisSpec(spot, ControlMeasure(TimeDensity.constant(1.0)))
    if kind == "exponential_tumour":
        family = Tumour.of(3.0, 1.0, 1.0)
        weight = TumourWeight(family, TimeFn.constant(0.1), TimeFn.constant(0.2))
        return GrowthModelSpec(kind, Drift.constant(1.0), weight, basis, family)
    return GrowthModelSpec(
        kind,
        Drift.constant(1.0),
        ConstantWeight(0.3),
        basis,
        Rectangular.of(0.7, TimeFn.constant(1.0)),
        r0=1.0,
        multiplier=asymmetry_profile if kind == "direct_scaled" else None,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.sampled_from(DETERMINISM_SPOTS),
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
)
def test_replicate_equals_simulate_on_its_derived_seed(kind, spot, seed, n_replicates):
    spec = determinism_spec(kind, spot)
    grid, times = small_grid(), [3.0, 4.0]
    profiles = simulate_replicates(spec, grid, seed, times, n_replicates)
    assert profiles.shape == (n_replicates, 2, grid.n_phi)
    for r in range(n_replicates):
        single = simulate(spec, grid, mix_seed(seed, r), times).profiles
        assert np.array_equal(profiles[r], single)


@pytest.mark.parametrize(
    "spot",
    [SpotLaw.poisson(), SpotLaw.gamma_law(1.0, 1.0), SpotLaw.inverse_gaussian(1.0, 1.0)],
)
def test_monotone_growth_nonnegative_bases(spot):
    grid = small_grid(n_phi=32, dt=0.25, t_max=4.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.constant(0.2),
        ConstantWeight(1.0),
        BasisSpec(spot, ControlMeasure(TimeDensity.constant(0.5))),
        Rectangular.of(0.7, TimeFn.constant(1.0)),
    )
    hist = simulate(spec, grid, 13, [0.5, 1.5, 2.5, 3.5])
    assert np.all(np.diff(hist.profiles, axis=0) >= -1e-9)


def test_direct_gaussian_keeps_negative_values_with_flag():
    grid = small_grid()
    spec = GrowthModelSpec(
        "direct", Drift.zero(), ConstantWeight(1.0), gaussian_basis(4.0), FullAngle.of(2.0)
    )
    hist = simulate(spec, grid, 3, [3.0])
    assert hist.flags["nonpositive_values"] > 0
    assert np.min(hist.profiles) < 0


def test_angular_stationarity_of_covariance():
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 4.0)
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        ConstantWeight(1.0),
        gaussian_basis(),
        Rectangular.of(0.6, TimeFn.constant(2.0)),
    )
    profs = simulate_replicates(spec, grid, 29, [4.0], 600)[:, 0, :]
    lag = 8  # angle cells
    c = profs - profs.mean(axis=0)
    cov_anchor0 = np.mean(c[:, 0] * c[:, lag])
    cov_anchor1 = np.mean(c[:, 31] * c[:, (31 + lag) % 64])
    pooled = np.mean(c * np.roll(c, -lag, axis=1))
    sd = np.std(c[:, 0] * c[:, lag], ddof=1) / math.sqrt(profs.shape[0])
    assert abs(cov_anchor0 - cov_anchor1) < 6 * sd
    assert abs(cov_anchor0 - pooled) < 6 * sd


def test_independence_split_past_vs_increment():
    # window start t - T is non-decreasing for constant T
    grid = GridSpec(TWO_PI / 32, 0.25, 0.0, 6.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.4))),
        Rectangular.of(0.7, TimeFn.constant(1.0)),
    )
    n = 500
    t1, t2 = 3.0, 5.0  # t1 - T(t1) = 2.0
    past = np.empty(n)
    incr = np.empty(n)
    for r in range(n):
        hist = simulate(spec, grid, mix_seed(41, r), [2.0, t1, t2])
        past[r] = hist.profiles[0].mean()  # feature of R up to t1 - T(t1)
        incr[r] = (hist.profiles[2] - hist.profiles[1]).mean()
    corr = np.corrcoef(past, incr)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_grid_refinement_shrinks_moment_gap():
    fam = Rectangular.of(0.37, TimeFn.constant(1.3))
    control = ControlMeasure(TimeDensity.constant(1.0))
    continuum = fam.measure(4.1, control)  # variance of the direct Gaussian model
    n = 3000
    gaps = []
    for factor in (1, 2):
        grid = GridSpec(TWO_PI / (40 * factor), 0.5 / factor, 0.0, 5.0)
        spec = GrowthModelSpec(
            "direct", Drift.zero(), ConstantWeight(1.0), gaussian_basis(), fam
        )
        profs = simulate_replicates(spec, grid, 55, [4.1], n)[:, 0, 0]
        gaps.append(abs(profs.var(ddof=1) - continuum))
    assert gaps[1] < gaps[0]


# ---------------------------------------------------------------------------
# exponential tumour model
# ---------------------------------------------------------------------------


def test_tumour_simulation_positive_and_log_cov():
    preset = example_preset("tumour")
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 55.0)
    hist = simulate(preset.spec, grid, 17, [25.0])
    assert np.all(hist.profiles > 0)

    # empirical log covariance vs the analytic two-band form at lag pi
    n = 400
    profs = simulate_replicates(preset.spec, grid, 91, [25.0], n)[:, 0, :]
    logs = np.log(profs)
    c = logs - logs.mean(axis=0)
    lag_cells = 100  # pi at 200 angles
    emp = np.mean(np.mean(c * np.roll(c, -lag_cells, axis=1), axis=1))
    t, T, t0 = 25.0, 25.0, 17.0
    alpha = 0.02
    # band 2 has zero overlap at lag pi (cone width << pi)
    expected = alpha**2 * math.pi * (T - t0) * math.cos(math.pi)
    per_rep = np.mean(c * np.roll(c, -lag_cells, axis=1), axis=1)
    se = per_rep.std(ddof=1) / math.sqrt(n)
    assert abs(emp - expected) < 3 * se


def test_tumour_rejects_divergent_exponential_moments():
    spec = replace(
        example_preset("tumour").spec,
        basis=BasisSpec(SpotLaw.gamma_law(1.0, 0.01), ControlMeasure.lebesgue()),
    )
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 55.0)
    with pytest.raises(KumulantDomainError):
        simulate(spec, grid, 5, [25.0])


# ---------------------------------------------------------------------------
# Poisson outburst view
# ---------------------------------------------------------------------------


def test_outburst_view_requires_poisson():
    preset = example_preset("ex4")
    with pytest.raises(WrongBasisKind):
        poisson_outburst_view(preset.spec, preset.grid, 1, 20.0)


def test_outburst_view_empty_before_first_arrival():
    grid = small_grid()
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(1e-9))),
        FullAngle.of(1.0),
    )
    view = poisson_outburst_view(spec, grid, 2, 3.0)
    assert np.all(view.rate_terms == 0.0)


def test_outburst_view_matches_integrate_exactly():
    grid = small_grid(n_phi=24, dt=0.5, t_max=4.0)
    fam = Rectangular.of(0.8, TimeFn.constant(2.0))
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.8))),
        fam,
    )
    t = 3.5
    view = poisson_outburst_view(spec, grid, 10, t)
    real = sample_realization(spec.basis, grid, 10)
    for i, phi in enumerate(grid.phi_mids):
        got = integrate(1.0, AmbitRegion(fam, t, phi), real)
        assert got == pytest.approx(view.rate_terms[i], abs=1e-12)


def test_outburst_view_single_point_unit_weight():
    grid = small_grid(n_phi=8, dt=1.0, t_max=4.0)
    fam = FullAngle.of(10.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.002))),
        fam,
    )
    for seed in range(40):
        view = poisson_outburst_view(spec, grid, seed, 4.0)
        total = view.points_cyl.shape[0]
        if total == 1:
            assert np.all(view.rate_terms == 1.0)
            break
    else:
        pytest.fail("no single-point realization found")


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------


def test_moment_match_gamma_frozen_cases():
    mu_shift, alpha = moment_match_gamma(10.0, 1.0, 1.0, 4.0)
    assert alpha == pytest.approx(1.0)
    assert mu_shift == pytest.approx(10.0 - 4.0)
    mu_shift, alpha = moment_match_gamma(10.0, 4.0, 1.0, 1.0)
    assert alpha == pytest.approx(0.5)
    assert mu_shift == pytest.approx(8.0)


def test_moment_match_gamma_reproduces_moments():
    sigma2, beta, m = 2.3, 3.7, 1.9
    _, alpha = moment_match_gamma(0.0, sigma2, beta, m)
    spot = SpotLaw.gamma_law(beta, alpha)
    assert spot_mean(spot) * m == pytest.approx(math.sqrt(sigma2 * beta) * m, rel=1e-12)
    assert spot_variance(spot) * m == pytest.approx(sigma2 * m, rel=1e-12)


def test_moment_match_gamma_large_beta_is_nearly_symmetric():
    beta, m = 1.0e4, 4.0
    skew = 2.0 / math.sqrt(beta * m)
    assert skew < 0.03


def test_moment_match_ig_cases_and_round_trip():
    eta, gam = moment_match_ig(2.0, 2.0, 1.0)
    assert (eta, gam) == (pytest.approx(2.0), pytest.approx(1.0))
    eta, gam = moment_match_ig(1.0, 1.0, 1.0)
    assert (eta, gam) == (pytest.approx(1.0), pytest.approx(1.0))
    e_z, v_z, m = 3.1, 0.7, 2.4
    eta, gam = moment_match_ig(e_z, v_z, m)
    spot = SpotLaw.inverse_gaussian(eta, gam)
    assert spot_mean(spot) * m == pytest.approx(e_z, rel=1e-12)
    assert spot_variance(spot) * m == pytest.approx(v_z, rel=1e-12)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_ex3_fields():
    p = example_preset("ex3")
    assert p.spec.basis.spot.kind == "poisson"
    assert isinstance(p.spec.ambit, WedgeOverS)
    assert p.spec.ambit.theta == 0.5
    assert p.spec.ambit.T == 1.0
    assert p.spec.basis.control.g.kind == "linear"
    assert p.spec.basis.control.g.params[0] == 10.0
    assert p.times == (75.0, 100.0, 125.0)


def test_preset_ex4_drift_and_window():
    p = example_preset("ex4")
    assert p.spec.drift(20.0) == 16.0
    assert p.spec.drift(45.0) == 24.0
    assert p.spec.drift(80.0) == 32.0
    assert isinstance(p.spec.ambit, Rectangular)
    assert float(p.spec.ambit.T(20.0)) == pytest.approx(4.0)
    p5 = example_preset("ex4", theta=math.pi / 5)
    assert p5.spec.ambit.theta.value == pytest.approx(math.pi / 5)


def test_preset_ex5_is_centered_gamma():
    p = example_preset("ex5")
    assert p.spec.basis.spot.kind == "gamma"
    assert p.spec.basis.spot.beta == 1.0
    assert p.spec.basis.spot.alpha == 1.0
    assert p.spec.center_stochastic_mean


def test_preset_ex6_multiplier_profile():
    p = example_preset("ex6")
    vals = asymmetry_profile(np.array([0.0, math.pi]))
    assert vals[0] == pytest.approx(0.35 * math.e)
    assert vals[1] == pytest.approx(0.35)
    assert p.spec.multiplier is asymmetry_profile


def test_preset_tumour_rows():
    p = example_preset("tumour")
    fam = p.spec.ambit
    assert isinstance(fam, Tumour)
    assert float(fam.T(21.0)) == 21.0
    assert float(fam.t0(55.0)) == 4.0
    w = p.spec.weight
    assert float(w.alpha(25.0)) == 0.02
    assert float(w.beta(55.0)) == -0.067
    assert float(fam.phi0(25.0)) == 0.19


def test_preset_unknown_id():
    with pytest.raises(UnknownId):
        example_preset("ex99")


def test_ex4_mean_matches_drift():
    p = example_preset("ex4", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    n = 300
    profs = simulate_replicates(p.spec, grid, 101, [20.0], n)[:, 0, 0]
    se = profs.std(ddof=1) / math.sqrt(n)
    assert abs(profs.mean() - 16.0) < 3 * se


def test_ex5_centered_mean_matches_gaussian_target():
    p = example_preset("ex5", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    n = 300
    profs = simulate_replicates(p.spec, grid, 103, [20.0], n)[:, 0, 0]
    se = profs.std(ddof=1) / math.sqrt(n)
    assert abs(profs.mean() - 16.0) < 3 * se
