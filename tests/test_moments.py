"""Analytic moments of the linear/exponential fields and the MC harness."""

import math

import numpy as np
import pytest

from levygrowth.ambit import FullAngle, Rectangular, WedgeOverS
from levygrowth.errors import KumulantDomainError, RegionOutsideGrid
from levygrowth.growth import ConstantWeight, _Plan, example_preset
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
)
from levygrowth.moments import (
    MomentQuery,
    cbar,
    cov_linear,
    mc_verify,
    mean_linear,
    mixed_exponential_moment,
    relative_second_moment,
    var_linear,
)
from levygrowth.rngtools import mix_seed
from levygrowth.timefn import TimeFn

TWO_PI = 2 * math.pi


def make_query(spot, g, family, points, *, grid=None, weight=1.0, lambdas=None, drift=None):
    grid = grid or GridSpec(TWO_PI / 64, 0.25, 0.0, 8.0)
    return MomentQuery(
        basis=BasisSpec(spot, ControlMeasure(g)),
        ambit=family,
        weight=weight,
        grid=grid,
        points=tuple(points),
        lambdas=lambdas,
        drift=drift,
    )


# ---------------------------------------------------------------------------
# linear moments
# ---------------------------------------------------------------------------


def test_poisson_band_mean_and_variance():
    # full-angle window of length 2, unit density: mu(A) = 4 pi
    q = make_query(SpotLaw.poisson(), TimeDensity.constant(1.0), FullAngle.of(2.0), [(6.0, 0.0)])
    m = 2 * TWO_PI
    assert mean_linear(q) == pytest.approx(m, rel=1e-12)
    assert var_linear(q) == pytest.approx(m, rel=1e-12)


def test_gaussian_mean_is_drift_only():
    q = make_query(
        SpotLaw.gaussian(0.0, 2.5),
        TimeDensity.constant(1.0),
        FullAngle.of(2.0),
        [(6.0, 0.0)],
        drift=lambda t, phi: 7.0,
    )
    assert mean_linear(q) == pytest.approx(7.0)
    assert var_linear(q) == pytest.approx(2.5 * 2 * TWO_PI, rel=1e-12)


def test_wedge_mean_rate_angle_exact():
    # mean of the rate model at t = 75 under g = 10 s: 2 Theta a T = 10
    q = make_query(
        SpotLaw.poisson(),
        TimeDensity.linear(10.0),
        WedgeOverS(theta=0.5, T=1.0),
        [(75.0, 0.0)],
        grid=GridSpec(TWO_PI / 64, 0.25, 0.0, 80.0),
    )
    assert mean_linear(q, angle_exact=True) == pytest.approx(10.0, abs=1e-7)


def test_cov_disjoint_zero_and_matches_var_at_equal_points():
    fam = FullAngle.of(1.0)
    q_dis = make_query(SpotLaw.poisson(), TimeDensity.constant(1.0), fam, [(2.0, 0.0), (7.0, 1.0)])
    assert cov_linear(q_dis) == 0.0
    q_eq = make_query(SpotLaw.poisson(), TimeDensity.constant(1.0), fam, [(6.0, 0.3), (6.0, 0.3)])
    q_var = make_query(SpotLaw.poisson(), TimeDensity.constant(1.0), fam, [(6.0, 0.3)])
    assert cov_linear(q_eq) == pytest.approx(var_linear(q_var), rel=1e-12)


def test_cov_constant_weight_frozen_value():
    # f = 2, unit spot variance, mu(intersection) = 0.7 -> covariance 2.8
    c = 0.7 / (2 * TWO_PI)  # window overlap length 2 with density c
    fam = FullAngle.of(4.0)
    q = make_query(
        SpotLaw.poisson(),
        TimeDensity.constant(c),
        fam,
        [(6.0, 0.0), (8.0, 2.0)],  # windows [2,6] and [4,8]: overlap [4,6]
        weight=ConstantWeight(2.0),
    )
    assert cov_linear(q) == pytest.approx(2.8, rel=1e-12)


@pytest.mark.parametrize("t", [500.0, 90.0])
def test_query_past_the_grid_raises(t):
    # ex4's grid ends at t = 80: the window [400, 500] lies beyond it and
    # [72, 90] is cut by it
    p = example_preset("ex4")
    with pytest.raises(RegionOutsideGrid):
        MomentQuery(p.spec.basis, p.spec.ambit, p.spec.weight, p.grid, ((t, 0.0),))


@pytest.mark.parametrize("name", ["ex4", "ex5", "ex6", "tumour"])
def test_query_moments_equal_the_simulator_terms(name):
    p = example_preset(name)
    plan = _Plan(p.spec, p.grid, p.times)
    phi = p.grid.phi_mids[0]
    for t, radius in zip(plan.times, plan.radii):
        q = MomentQuery(p.spec.basis, p.spec.ambit, p.spec.weight, p.grid, ((t, phi),))
        assert (mean_linear(q), var_linear(q)) == radius.term.moments


# ---------------------------------------------------------------------------
# exponential moments
# ---------------------------------------------------------------------------


def test_mixed_moment_zero_exponents():
    q = make_query(
        SpotLaw.gamma_law(1.0, 2.0),
        TimeDensity.constant(1.0),
        FullAngle.of(1.0),
        [(3.0, 0.0), (4.0, 1.0)],
        lambdas=(0.0, 0.0),
    )
    assert mixed_exponential_moment(q) == pytest.approx(1.0)


def test_mixed_moment_gaussian_lognormal_mean():
    b = 0.03
    fam = FullAngle.of(2.0)
    q = make_query(
        SpotLaw.gaussian(0.0, b),
        TimeDensity.constant(1.0),
        fam,
        [(6.0, 0.0)],
        lambdas=(1.0,),
    )
    mu = 2 * TWO_PI
    assert mixed_exponential_moment(q) == pytest.approx(math.exp(0.5 * b * mu), rel=1e-10)


def test_mixed_moment_pair_matches_gaussian_identity():
    b = 0.02
    fam = FullAngle.of(2.0)
    points = [(6.0, 0.0), (7.0, 1.0)]
    q = make_query(
        SpotLaw.gaussian(0.0, b), TimeDensity.constant(1.0), fam, points, lambdas=(1.0, 1.0)
    )
    v1 = var_linear(make_query(SpotLaw.gaussian(0.0, b), TimeDensity.constant(1.0), fam, [points[0]]))
    v2 = var_linear(make_query(SpotLaw.gaussian(0.0, b), TimeDensity.constant(1.0), fam, [points[1]]))
    cv = cov_linear(q)
    expected = math.exp(0.5 * (v1 + v2 + 2 * cv))
    assert mixed_exponential_moment(q) == pytest.approx(expected, rel=1e-10)


def test_mixed_moment_domain_error():
    q = make_query(
        SpotLaw.gamma_law(1.0, 1.5),
        TimeDensity.constant(1.0),
        FullAngle.of(1.0),
        [(3.0, 0.0)],
        weight=ConstantWeight(1.0),
        lambdas=(2.0,),  # summed weight 2.0 >= alpha = 1.5
    )
    with pytest.raises(KumulantDomainError):
        mixed_exponential_moment(q)


def test_mixed_moment_diverges_monotonically_near_boundary():
    alpha = 1.5
    fam = FullAngle.of(1.0)
    vals = []
    for lam in (1.2, 1.35, 1.49):
        q = make_query(
            SpotLaw.gamma_law(1.0, alpha),
            TimeDensity.constant(0.05),
            fam,
            [(3.0, 0.0)],
            lambdas=(lam,),
        )
        vals.append(mixed_exponential_moment(q))
    assert vals[0] < vals[1] < vals[2]


def test_relative_moment_disjoint_is_one():
    q = make_query(
        SpotLaw.gamma_law(1.0, 4.0),
        TimeDensity.constant(1.0),
        FullAngle.of(1.0),
        [(2.0, 0.0), (9.0, 0.0)],
        grid=GridSpec(TWO_PI / 64, 0.25, 0.0, 10.0),
    )
    assert relative_second_moment(q) == pytest.approx(1.0)


def test_relative_moment_gaussian_closed_form():
    b, f = 0.04, 0.8
    fam = FullAngle.of(4.0)
    q = make_query(
        SpotLaw.gaussian(0.0, b),
        TimeDensity.constant(1.0),
        fam,
        [(6.0, 0.0), (8.0, 1.0)],
        weight=ConstantWeight(f),
    )
    spot = SpotLaw.gaussian(0.0, b)
    assert cbar(spot, f) == pytest.approx(f * f * b, rel=1e-12)
    mu_cap = 2 * TWO_PI  # overlap [4, 6]
    assert relative_second_moment(q) == pytest.approx(
        math.exp(f * f * b * mu_cap), rel=1e-10
    )


def test_cbar_gamma_closed_form():
    beta, alpha, f = 2.0, 4.0, 0.9
    got = cbar(SpotLaw.gamma_law(beta, alpha), f)
    expected = -beta * math.log(1 - 2 * f / alpha) + 2 * beta * math.log(1 - f / alpha)
    assert got == pytest.approx(expected, abs=1e-12)


def test_relative_moment_generic_path_matches_constant_path():
    beta, alpha, f = 2.0, 4.0, 0.9
    fam = FullAngle.of(4.0)
    points = [(6.0, 0.0), (8.0, 1.0)]
    g = TimeDensity.constant(0.2)
    q_const = make_query(
        SpotLaw.gamma_law(beta, alpha), g, fam, points, weight=ConstantWeight(f)
    )
    # generic path: same constant weight hidden behind a callable
    q_generic = make_query(
        SpotLaw.gamma_law(beta, alpha),
        g,
        fam,
        points,
        weight=lambda theta, s: np.full(np.broadcast(theta, s).shape, f),
    )
    a = relative_second_moment(q_const)
    b = relative_second_moment(q_generic)
    assert b == pytest.approx(a, rel=1e-10)


def test_relative_equals_mixed_ratio():
    beta, alpha, f = 2.0, 6.0, 0.7
    fam = FullAngle.of(3.0)
    points = [(5.0, 0.0), (6.0, 0.7)]
    g = TimeDensity.constant(0.15)
    base = dict(weight=ConstantWeight(f))
    q12 = make_query(SpotLaw.gamma_law(beta, alpha), g, fam, points, lambdas=(1.0, 1.0), **base)
    q1 = make_query(SpotLaw.gamma_law(beta, alpha), g, fam, [points[0]], lambdas=(1.0,), **base)
    q2 = make_query(SpotLaw.gamma_law(beta, alpha), g, fam, [points[1]], lambdas=(1.0,), **base)
    ratio = mixed_exponential_moment(q12) / (
        mixed_exponential_moment(q1) * mixed_exponential_moment(q2)
    )
    assert relative_second_moment(q12) == pytest.approx(ratio, rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


def test_mc_zero_weight_cov_exact():
    fam = FullAngle.of(1.0)
    q = make_query(
        SpotLaw.gaussian(0.0, 1.0),
        TimeDensity.constant(1.0),
        fam,
        [(2.0, 0.0), (3.0, 0.0)],
        weight=ConstantWeight(0.0),
    )
    rep = mc_verify(q, "cov", 200, seed=1)
    assert rep.analytic == 0.0
    assert rep.estimate == 0.0
    assert rep.z == 0.0
    assert not rep.flagged


def test_mc_cov_gaussian_rectangular():
    fam = Rectangular.of(0.6, TimeFn.constant(2.0))
    q = make_query(
        SpotLaw.gaussian(0.0, 1.0),
        TimeDensity.constant(1.0),
        fam,
        [(5.0, 0.0), (6.0, 0.4)],
        grid=GridSpec(TWO_PI / 50, 0.25, 0.0, 6.0),
    )
    rep = mc_verify(q, "cov", 4000, seed=5)
    assert abs(rep.z) <= 3.0
    assert rep.analytic > 0


def test_mc_relative_moment_gamma():
    fam = Rectangular.of(0.8, TimeFn.constant(2.0))
    q = make_query(
        SpotLaw.gamma_law(2.0, 4.0),
        TimeDensity.constant(0.4),
        fam,
        [(5.0, 0.0), (5.5, 0.3)],
        weight=ConstantWeight(0.9),
        grid=GridSpec(TWO_PI / 50, 0.25, 0.0, 6.0),
    )
    rep = mc_verify(q, "relative_second_moment", 4000, seed=9)
    assert abs(rep.z) <= 3.0


def test_mc_var_and_mean_poisson():
    fam = FullAngle.of(1.5)
    q = make_query(
        SpotLaw.poisson(),
        TimeDensity.constant(0.3),
        fam,
        [(4.0, 0.0)],
        grid=GridSpec(TWO_PI / 32, 0.25, 0.0, 5.0),
    )
    rep_m = mc_verify(q, "mean", 3000, seed=2)
    rep_v = mc_verify(q, "var", 3000, seed=3)
    assert abs(rep_m.z) <= 3.0
    assert abs(rep_v.z) <= 3.0
    assert rep_m.analytic == pytest.approx(1.5 * TWO_PI * 0.3, rel=1e-12)


@pytest.mark.parametrize("spot", [SpotLaw.gaussian(0.2, 1.0), SpotLaw.poisson()])
def test_mc_standard_errors_match_the_spread_over_seeds(spot):
    # the model SE of the var and cov estimates against their standard
    # deviation over 200 seeds fixed here, 100 replicates each
    fam = Rectangular.of(0.5, TimeFn.constant(1.0))
    grid = GridSpec(TWO_PI / 16, 0.5, 0.0, 3.0)
    g = TimeDensity.constant(0.5)
    for stat, points in (("var", [(3.0, 0.0)]), ("cov", [(3.0, 0.0), (2.5, 0.4)])):
        q = make_query(spot, g, fam, points, grid=grid)
        reps = [mc_verify(q, stat, 100, seed=mix_seed(2024, k)) for k in range(200)]
        spread = np.std([r.estimate for r in reps], ddof=1)
        assert abs(spread / reps[0].se - 1.0) <= 0.2, (stat, spread, reps[0].se)


def test_mc_standard_error_outside_the_kumulant_domain_raises():
    # E exp(X) exists (weight 1 < alpha) but its spread needs E exp(2X)
    q = make_query(
        SpotLaw.gamma_law(1.0, 1.5),
        TimeDensity.constant(0.05),
        FullAngle.of(1.0),
        [(3.0, 0.0)],
        lambdas=(1.0,),
    )
    assert math.isfinite(mixed_exponential_moment(q))
    with pytest.raises(KumulantDomainError):
        mc_verify(q, "mixed_exponential", 100, seed=1)


def test_mc_report_json_fields():
    fam = FullAngle.of(1.0)
    q = make_query(SpotLaw.poisson(), TimeDensity.constant(0.2), fam, [(3.0, 0.0)])
    rep = mc_verify(q, "mean", 100, seed=4)
    import json

    payload = json.loads(rep.to_json())
    assert set(payload) >= {"statistic", "analytic", "mc", "se", "z", "flagged"}


def test_fine_mesh_reduces_discretization_gap():
    # non-aligned cone: the mesh measure moves toward the continuum measure
    fam = Rectangular.of(0.37, TimeFn.constant(1.3))
    control = ControlMeasure(TimeDensity.constant(1.0))
    q = make_query(
        SpotLaw.gaussian(0.0, 1.0),
        TimeDensity.constant(1.0),
        fam,
        [(4.1, 0.13)],
        grid=GridSpec(TWO_PI / 40, 0.25, 0.0, 5.0),
    )
    continuum = fam.measure(4.1, control)
    coarse = var_linear(q)
    fine = var_linear(q.fine(4))
    assert abs(fine - continuum) < abs(coarse - continuum)


def test_mc_threads_deterministic():
    fam = FullAngle.of(1.0)
    q = make_query(SpotLaw.gamma_law(1.0, 2.0), TimeDensity.constant(0.3), fam, [(3.0, 0.0)])
    a = mc_verify(q, "mean", 300, seed=11, threads=1)
    b = mc_verify(q, "mean", 300, seed=11, threads=4)
    assert a.estimate == b.estimate


def test_cauchy_schwarz_over_random_configurations():
    rng = np.random.default_rng(44)
    for _ in range(20):
        theta = rng.uniform(0.1, 1.2)
        T0 = rng.uniform(0.5, 3.0)
        fam = Rectangular.of(theta, TimeFn.constant(T0))
        t1 = rng.uniform(3.0, 6.0)
        t2 = rng.uniform(3.0, 6.0)
        p1 = (t1, rng.uniform(-math.pi, math.pi))
        p2 = (t2, rng.uniform(-math.pi, math.pi))
        spot = SpotLaw.gamma_law(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        g = TimeDensity.constant(rng.uniform(0.2, 2.0))
        q12 = make_query(spot, g, fam, [p1, p2])
        v1 = var_linear(make_query(spot, g, fam, [p1]))
        v2 = var_linear(make_query(spot, g, fam, [p2]))
        assert cov_linear(q12) ** 2 <= v1 * v2 * (1 + 1e-12)
