"""Spot laws, sampling marginals, control measures, stochastic integration."""

import cmath
import math

import numpy as np
import pytest
import scipy.stats

from hypothesis import given, settings
from hypothesis import strategies as st

from levygrowth.ambit import (
    AmbitRegion,
    FullAngle,
    Rectangular,
    WedgeOverS,
    as_weight,
    mesh_kernel,
)
from levygrowth.errors import DomainError, RegionOutsideGrid
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    Rect,
    RegionUnion,
    SpotLaw,
    TimeDensity,
    cumulant,
    integrate,
    kumulant,
    sample_realization,
    spot_mean,
    spot_variance,
)
from levygrowth.rngtools import mix_seed

KS_CRIT_1PC = 1.6276  # asymptotic Kolmogorov critical value at level 0.01


def unit_basis(spot, g=None):
    return BasisSpec(spot, ControlMeasure(g or TimeDensity.constant(1.0)))


def whole_grid(grid):
    return Rect(-math.pi, math.pi, grid.t_min, grid.t_max)


# ---------------------------------------------------------------------------
# cumulant / kumulant / moments
# ---------------------------------------------------------------------------


def test_cumulant_poisson_at_zero():
    assert cumulant(SpotLaw.poisson(), 0.0) == 0.0


def test_cumulant_gamma_matches_log_formula():
    spot = SpotLaw.gamma_law(2.0, 4.0)
    for lam in (0.3, 1.0, -2.5):
        expected = -2.0 * cmath.log(1.0 - 1j * lam / 4.0)
        assert cumulant(spot, lam) == pytest.approx(expected, abs=1e-14)


def test_cumulant_gaussian_frozen_value():
    # i*lam*a - lam^2 b / 2 at a=0, b=2, lam=1
    assert cumulant(SpotLaw.gaussian(0.0, 2.0), 1.0) == pytest.approx(-1.0)


def test_cumulant_inverse_gaussian_formula():
    spot = SpotLaw.inverse_gaussian(2.0, 1.5)
    lam = 0.7
    expected = 2.0 * 1.5 * (1.0 - cmath.sqrt(1.0 - 2j * lam / 1.5**2))
    assert cumulant(spot, lam) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "spot",
    [
        SpotLaw.poisson(),
        SpotLaw.gaussian(0.4, 1.3),
        SpotLaw.gamma_law(2.0, 4.0),
        SpotLaw.inverse_gaussian(2.0, 1.0),
    ],
)
def test_kumulant_zero(spot):
    assert kumulant(spot, 0.0) == 0.0


def test_kumulant_gamma_frozen_value():
    # -beta log(1 - theta/alpha) at beta=2, alpha=4, theta=2
    assert kumulant(SpotLaw.gamma_law(2.0, 4.0), 2.0) == pytest.approx(2.0 * math.log(2.0))


def test_kumulant_domain_errors():
    with pytest.raises(DomainError):
        kumulant(SpotLaw.gamma_law(1.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        kumulant(SpotLaw.inverse_gaussian(1.0, 2.0), 2.0)  # gamma^2/2 boundary


@pytest.mark.parametrize(
    "spot,mean,var",
    [
        (SpotLaw.poisson(), 1.0, 1.0),
        (SpotLaw.gamma_law(2.0, 4.0), 0.5, 0.125),
        (SpotLaw.inverse_gaussian(2.0, 1.0), 2.0, 2.0),
        (SpotLaw.gaussian(0.7, 2.5), 0.7, 2.5),
    ],
)
def test_spot_moments(spot, mean, var):
    assert spot_mean(spot) == pytest.approx(mean)
    assert spot_variance(spot) == pytest.approx(var)


@pytest.mark.parametrize(
    "spot",
    [
        SpotLaw.poisson(),
        SpotLaw.gaussian(0.4, 1.3),
        SpotLaw.gamma_law(2.0, 4.0),
        SpotLaw.inverse_gaussian(2.0, 1.0),
    ],
)
def test_kumulant_derivatives_match_moments(spot):
    h = 1e-4
    k = lambda th: kumulant(spot, th)
    d1 = (k(h) - k(-h)) / (2 * h)
    d2 = (k(h) - 2 * k(0.0) + k(-h)) / (h * h)
    assert d1 == pytest.approx(spot_mean(spot), rel=1e-6)
    assert d2 == pytest.approx(spot_variance(spot), rel=1e-6)


# ---------------------------------------------------------------------------
# control measures
# ---------------------------------------------------------------------------


def test_measure_full_band():
    control = ControlMeasure(TimeDensity.constant(1.0))
    region = Rect(-math.pi, math.pi, 0.0, 3.0)
    assert region.measure(control) == pytest.approx(2.0 * math.pi * 3.0)


def test_measure_empty_region():
    control = ControlMeasure(TimeDensity.constant(1.0))
    assert RegionUnion(()).measure(control) == 0.0


def test_measure_wedge_linear_density_closed_form():
    # half-width Theta/s over [t - T, t] with g = a s integrates to 2 Theta a T
    control = ControlMeasure(TimeDensity.linear(10.0))
    region = AmbitRegion(WedgeOverS(theta=0.5, T=1.0), t=75.0, phi=0.0)
    assert region.measure(control) == pytest.approx(10.0, abs=1e-8)


def test_time_density_integrals():
    g = TimeDensity.exponential(2.0, 0.5)
    assert g.integral(0.0, 3.0) == pytest.approx((2.0 / 0.5) * (1 - math.exp(-1.5)))
    p = TimeDensity.power(3.0, 2.0)
    assert p.integral(1.0, 2.0) == pytest.approx(3.0 * (8.0 - 1.0) / 3.0)
    tab = TimeDensity.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert tab.integral(0.0, 2.0) == pytest.approx(1.0)
    assert tab.integral(0.0, 0.5) == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# sampling: exact marginals (KS at level 0.01, fixed seeds)
# ---------------------------------------------------------------------------


def _cells_as_samples(spot, mu_value, n_cells=10_000, seed=101):
    grid = GridSpec(2 * math.pi / 100, 1.0, 0.0, 100.0)
    g = TimeDensity.constant(mu_value / grid.dphi)
    real = sample_realization(unit_basis(spot, g), grid, seed)
    assert real.increments.size == n_cells
    return real.increments.ravel()


def test_ks_gaussian_marginal():
    mu = 2.5
    x = _cells_as_samples(SpotLaw.gaussian(0.3, 1.5), mu)
    stat = scipy.stats.kstest(
        x, lambda q: scipy.stats.norm.cdf(q, 0.3 * mu, math.sqrt(1.5 * mu))
    ).statistic
    assert stat < KS_CRIT_1PC / math.sqrt(x.size)


def test_ks_poisson_marginal():
    mu = 3.0
    x = _cells_as_samples(SpotLaw.poisson(), mu)
    # discrete law: both step functions jump at the integers, so the sup
    # distance is attained there; the continuous critical value is conservative
    ks = np.arange(0, int(x.max()) + 1)
    ecdf = np.mean(x[None, :] <= ks[:, None], axis=1)
    stat = float(np.max(np.abs(ecdf - scipy.stats.poisson.cdf(ks, mu))))
    assert stat < KS_CRIT_1PC / math.sqrt(x.size)


def test_ks_gamma_marginal():
    mu = 3.0
    x = _cells_as_samples(SpotLaw.gamma_law(2.0, 4.0), mu)
    stat = scipy.stats.kstest(
        x, lambda q: scipy.stats.gamma.cdf(q, a=2.0 * mu, scale=0.25)
    ).statistic
    assert stat < KS_CRIT_1PC / math.sqrt(x.size)


def test_ks_inverse_gaussian_marginal():
    mu = 1.8
    eta, gam = 2.0, 1.0
    x = _cells_as_samples(SpotLaw.inverse_gaussian(eta, gam), mu)
    delta = eta * mu
    mean, lam = delta / gam, delta**2
    stat = scipy.stats.kstest(
        x, lambda q: scipy.stats.invgauss.cdf(q, mean / lam, scale=lam)
    ).statistic
    assert stat < KS_CRIT_1PC / math.sqrt(x.size)


def test_gamma_increment_moments_frozen():
    # Gamma(beta=2, alpha=4) over a cell of measure 3: mean 1.5, var 0.375
    x = _cells_as_samples(SpotLaw.gamma_law(2.0, 4.0), 3.0, seed=7)
    n = x.size
    se_mean = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - 1.5) < 3 * se_mean
    loo_se = math.sqrt(2.0 / (n - 1)) * x.var(ddof=1)
    assert abs(x.var(ddof=1) - 0.375) < 4 * loo_se


def test_poisson_zero_measure_cells():
    # density supported on s >= 0: cells below carry measure zero
    grid = GridSpec(2 * math.pi / 4, 1.0, -2.0, 2.0)
    basis = unit_basis(SpotLaw.poisson(), TimeDensity.linear(1.0))
    real = sample_realization(basis, grid, 3)
    assert np.all(real.increments[:2] == 0.0)
    pts = real.points()
    assert np.all(pts.s >= 0.0)


def test_point_counts_match_increments():
    grid = GridSpec(2 * math.pi / 16, 0.5, 0.0, 4.0)
    basis = unit_basis(SpotLaw.poisson(), TimeDensity.linear(3.0))
    real = sample_realization(basis, grid, 11)
    pts = real.points()
    counted = np.zeros_like(real.increments)
    np.add.at(counted, (pts.row, pts.col), 1.0)
    assert np.array_equal(counted, real.increments)
    # each point inside its own cell
    assert np.all(pts.theta >= grid.phi_edges[pts.col])
    assert np.all(pts.theta <= grid.phi_edges[pts.col + 1])
    assert np.all(pts.s >= grid.t_edges[pts.row])
    assert np.all(pts.s <= grid.t_edges[pts.row + 1])


def test_point_rejection_follows_density():
    # single wide cell with g(s) = 100 s on [0, 1]: E[s] = 2/3
    grid = GridSpec(2 * math.pi, 1.0, 0.0, 1.0)
    basis = unit_basis(SpotLaw.poisson(), TimeDensity.linear(100.0))
    real = sample_realization(basis, grid, 5)
    pts = real.points()
    n = pts.s.size
    assert n > 200
    se = pts.s.std(ddof=1) / math.sqrt(n)
    assert abs(pts.s.mean() - 2.0 / 3.0) < 3 * se


def test_disjoint_increments_uncorrelated():
    n = 3000
    a = np.empty(n)
    b = np.empty(n)
    grid = GridSpec(2 * math.pi, 1.0, 0.0, 2.0)
    basis = unit_basis(SpotLaw.gaussian(0.0, 1.0))
    for r in range(n):
        real = sample_realization(basis, grid, mix_seed(42, r))
        a[r], b[r] = real.increments[0, 0], real.increments[1, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_determinism_bitwise():
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 2.0)
    for spot in (
        SpotLaw.gaussian(0.1, 1.0),
        SpotLaw.poisson(),
        SpotLaw.gamma_law(1.0, 1.0),
        SpotLaw.inverse_gaussian(1.0, 1.0),
    ):
        basis = unit_basis(spot)
        r1 = sample_realization(basis, grid, 99)
        r2 = sample_realization(basis, grid, 99)
        assert np.array_equal(r1.increments, r2.increments)
        r3 = sample_realization(basis, grid, 100)
        assert not np.array_equal(r1.increments, r3.increments)


def test_mix_seed_distinct_streams():
    seeds = {mix_seed(7, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(7, 0) != 7


# ---------------------------------------------------------------------------
# stochastic integration
# ---------------------------------------------------------------------------


def test_integrate_zero_weight():
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 4.0)
    real = sample_realization(unit_basis(SpotLaw.gamma_law(1.0, 1.0)), grid, 1)
    assert integrate(0.0, whole_grid(grid), real) == 0.0


@pytest.mark.parametrize(
    "spot",
    [
        SpotLaw.gaussian(0.0, 1.0),
        SpotLaw.poisson(),
        SpotLaw.gamma_law(1.0, 2.0),
        SpotLaw.inverse_gaussian(1.0, 1.0),
    ],
)
def test_integrate_whole_grid_is_total(spot):
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 4.0)
    real = sample_realization(unit_basis(spot), grid, 2)
    assert integrate(1.0, whole_grid(grid), real) == pytest.approx(real.total(), rel=1e-12)


@pytest.mark.parametrize(
    "spot",
    [
        SpotLaw.gaussian(0.0, 1.0),
        SpotLaw.poisson(),
        SpotLaw.gamma_law(1.0, 2.0),
        SpotLaw.inverse_gaussian(1.0, 1.0),
    ],
)
def test_integrate_additive_over_disjoint_regions(spot):
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 4.0)
    real = sample_realization(unit_basis(spot), grid, 4)
    e = grid.phi_edges
    te = grid.t_edges
    region_a = Rect(e[0], e[3], te[0], te[4])
    region_b = Rect(e[3], e[6], te[2], te[6])
    union = RegionUnion((region_a, region_b))
    total = integrate(1.0, union, real)
    parts = integrate(1.0, region_a, real) + integrate(1.0, region_b, real)
    assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def test_integrate_gaussian_law_mean_and_variance():
    # aligned region of measure exactly 4: integral ~ N(0, 4)
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 4.0)
    g = TimeDensity.constant(4.0 / math.pi)
    basis = unit_basis(SpotLaw.gaussian(0.0, 1.0), g)
    e, te = grid.phi_edges, grid.t_edges
    region = Rect(e[0], e[2], te[0], te[4])
    mu = region.measure(basis.control)
    assert mu == pytest.approx(4.0)
    n = 10_000
    vals = np.empty(n)
    for r in range(n):
        real = sample_realization(basis, grid, mix_seed(31, r))
        vals[r] = integrate(1.0, region, real)
    se_mean = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) < 3 * se_mean
    var = vals.var(ddof=1)
    se_var = math.sqrt(2.0 / (n - 1)) * var
    assert abs(var - 4.0) < 3 * se_var


def test_integrate_gaussian_partial_cell_by_midpoint():
    # a partly covered cell counts whole when the region holds its midpoint
    grid = GridSpec(2 * math.pi / 4, 1.0, 0.0, 1.0)
    basis = unit_basis(SpotLaw.gaussian(0.0, 1.0))
    real = sample_realization(basis, grid, 8)
    e = grid.phi_edges
    past_mid = Rect(e[0], e[0] + 0.6 * grid.dphi, 0.0, 1.0)
    short_of_mid = Rect(e[0], e[0] + 0.4 * grid.dphi, 0.0, 1.0)
    assert integrate(1.0, past_mid, real) == real.increments[0, 0]
    assert integrate(1.0, short_of_mid, real) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    spot=st.sampled_from(
        [
            SpotLaw.gaussian(0.3, 1.2),
            SpotLaw.gamma_law(1.5, 2.0),
            SpotLaw.inverse_gaussian(1.0, 1.5),
        ]
    ),
    family=st.sampled_from(
        [
            Rectangular.of(0.45, 1.3),
            WedgeOverS(theta=0.6, T=1.7),
            FullAngle.of(0.8),
        ]
    ),
    t=st.floats(2.0, 4.0),
    phi=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32),
)
def test_integrate_over_ambit_set_is_the_mesh_kernel_sum(spot, family, t, phi, seed):
    grid = GridSpec(2 * math.pi / 24, 0.25, 0.0, 4.0)
    real = sample_realization(unit_basis(spot), grid, seed)
    got = integrate(1.0, AmbitRegion(family, t, phi), real)
    kernel = mesh_kernel(family, as_weight(1.0), grid, t, phi)
    assert got == pytest.approx(np.sum(kernel * real.increments), rel=1e-12, abs=1e-12)


def test_integrate_jump_kind_snaps_cells():
    grid = GridSpec(2 * math.pi / 4, 1.0, 0.0, 1.0)
    basis = unit_basis(SpotLaw.gamma_law(2.0, 1.0))
    real = sample_realization(basis, grid, 9)
    e = grid.phi_edges
    most = Rect(e[0], e[0] + 0.75 * grid.dphi, 0.0, 1.0)
    little = Rect(e[0], e[0] + 0.25 * grid.dphi, 0.0, 1.0)
    assert integrate(1.0, most, real) == pytest.approx(real.increments[0, 0])
    assert integrate(1.0, little, real) == 0.0


def test_integrate_poisson_uses_exact_points():
    grid = GridSpec(2 * math.pi / 4, 1.0, 0.0, 2.0)
    basis = unit_basis(SpotLaw.poisson(), TimeDensity.constant(2.0))
    real = sample_realization(basis, grid, 12)
    pts = real.points()
    cut = 0.3  # not cell aligned
    region = Rect(-math.pi, math.pi, 0.0, cut)
    expected = int(np.sum(pts.s <= cut))
    assert integrate(1.0, region, real) == pytest.approx(expected)


def test_integrate_region_outside_grid():
    grid = GridSpec(2 * math.pi / 4, 1.0, 0.0, 2.0)
    real = sample_realization(unit_basis(SpotLaw.poisson()), grid, 1)
    with pytest.raises(RegionOutsideGrid):
        integrate(1.0, Rect(-1.0, 1.0, 0.0, 5.0), real)


def test_realization_csv_export(tmp_path):
    grid = GridSpec(2 * math.pi / 4, 1.0, 0.0, 1.0)
    real = sample_realization(unit_basis(SpotLaw.gaussian(0.0, 1.0)), grid, 5)
    path = tmp_path / "cells.csv"
    real.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# levygrowth realization seed=5")
    assert lines[1] == "theta_lo,theta_hi,t_lo,t_hi,increment"
    assert len(lines) == 2 + grid.n_phi * grid.n_t


def test_integrate_gaussian_law_with_drift_and_weight():
    # f . Z ~ N(int f a dmu, int f^2 b dmu) for a varying weight and drift
    grid = GridSpec(2 * math.pi / 8, 0.5, 0.0, 4.0)
    basis = unit_basis(SpotLaw.gaussian(0.6, 1.3))
    f = lambda theta, s: 1.0 + 0.5 * np.sin(theta) + 0.1 * s
    mids_t = grid.t_mids[:, None]
    mids_p = grid.phi_mids[None, :]
    w = f(mids_p, mids_t)
    mu_cell = grid.dphi * 0.5
    target_mean = 0.6 * float(np.sum(w)) * mu_cell
    target_var = 1.3 * float(np.sum(w * w)) * mu_cell
    n = 4000
    vals = np.empty(n)
    for r in range(n):
        real = sample_realization(basis, grid, mix_seed(77, r))
        vals[r] = integrate(f, whole_grid(grid), real)
    se_mean = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - target_mean) < 3 * se_mean
    var = vals.var(ddof=1)
    se_var = math.sqrt(2.0 / (n - 1)) * var
    assert abs(var - target_var) < 3 * se_var
