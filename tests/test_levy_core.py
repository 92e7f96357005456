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
    draw_counts,
    draw_rows,
    integrate,
    kumulant,
    sample_realization,
    spot_mean,
    spot_variance,
)
from levygrowth.rngtools import mix_seed
from levygrowth.timefn import TimeFn

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


def _max_on_one_row(g, a, b):
    """The bound of one row [a, b] as it was computed row by row."""
    cands = [float(np.max(g(np.asarray([a, b]))))]
    if g.kind == "table":
        nodes, values = (np.asarray(v) for v in g.params)
        inside = (nodes >= a) & (nodes <= b)
        if np.any(inside):
            cands.append(float(values[inside].max()))
    return max(cands)


@pytest.mark.parametrize(
    "g",
    [
        TimeDensity.constant(2.0, support_lo=0.6),
        TimeDensity.linear(3.0),
        TimeDensity.exponential(2.0, 0.7),
        TimeDensity.power(1.5, 0.5),
        TimeDensity.tabulated([0.3, 1.1, 1.6, 2.9], [0.5, 4.0, 0.2, 1.0]),
    ],
    ids=["constant", "linear", "exponential", "power", "tabulated"],
)
def test_max_on_rows_equals_the_row_by_row_bound(g):
    edges = GridSpec(2 * math.pi, 0.25, 0.0, 3.0).t_edges
    got = g.max_on(edges[:-1], edges[1:])
    want = [_max_on_one_row(g, a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert np.array_equal(got, want)
    if g.kind == "table":
        # node 1.1 lies strictly inside row [1.0, 1.25] and tops both ends
        assert got[4] == 4.0 > max(g(1.0), g(1.25))


def test_max_on_counts_a_support_end_inside_the_interval():
    # both ends of [-0.5, 0.5] miss the top of a decreasing density at s = 0
    assert TimeDensity.exponential(2.0, 0.7).max_on([-0.5], [0.5])[0] == 2.0
    # an increasing shape cut off at 2.1 peaks there, not at either end
    assert TimeFn.proportional(1.0).on(0.0, 2.1).max_on([1.9], [2.3])[0] == 2.1
    with pytest.raises(ValueError):
        TimeFn.gompertz(1.0, 0.5, 0.3).max_on([0.0], [1.0])


def test_exponential_integral_keeps_its_digits_at_tiny_rates_and_in_the_tail():
    # int_0^1 exp(-b s) ds = (1 - exp(-b)) / b, about 1 - b/2 for tiny b
    assert TimeFn.exponential(1.0, 1e-12).integral(0.0, 1.0) == pytest.approx(1.0 - 5e-13, rel=1e-15)
    assert TimeFn.exponential(3.0, 0.0).integral(0.5, 2.0) == 4.5
    tail = math.exp(-30.0) * -math.expm1(-0.25)
    assert TimeFn.exponential(1.0, 1.0).integral(30.0, 30.25) == pytest.approx(tail, rel=1e-14)


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


def _tiny_ig_cells():
    """An inverse Gaussian basis under an exponentially decaying control, so
    late rows have cells of measure down to about 1e-15."""
    basis = unit_basis(SpotLaw.inverse_gaussian(1.0, 1.0), TimeDensity.exponential(1.0, 1.0))
    return basis, GridSpec(2 * math.pi / 200, 0.25, 0.0, 30.0)


def test_small_inverse_gaussian_cells_are_nonnegative():
    basis, grid = _tiny_ig_cells()
    for seed in range(20):
        assert np.all(sample_realization(basis, grid, seed).increments >= 0.0), seed


@pytest.mark.parametrize("row", [54, 80])
def test_ks_small_inverse_gaussian_cells(row):
    basis, grid = _tiny_ig_cells()
    delta = float(grid.cell_mu(basis.control)[row])  # eta = gamma = 1
    x = np.concatenate(
        [draw_rows(basis.spot, seed, [row], [delta], grid.n_phi)[0] for seed in range(25)]
    )
    mean, lam = delta, delta**2
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
    col = np.searchsorted(grid.phi_edges, pts.theta, side="right") - 1
    counted = np.zeros_like(real.increments)
    np.add.at(counted, (pts.row, col), 1.0)
    assert np.array_equal(counted, real.increments)
    # each point inside its own cell
    assert np.all(pts.theta >= grid.phi_edges[col])
    assert np.all(pts.theta <= grid.phi_edges[col + 1])
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


def _reference_block(spec, grid, seed, b):
    """Point block b of 8 rows drawn from PCG64(seed) advanced b * 2**40
    outputs: its rows, the generator after the angles, the rows' point
    totals Po(n_phi * cell measure) and every point's angle -pi + 2 pi U."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(b * 2**40)
    rng = np.random.Generator(bitgen)
    rows = np.arange(8 * b, min(8 * b + 8, grid.n_t))
    totals = rng.poisson(grid.n_phi * grid.cell_mu(spec.control)[rows])
    theta = -np.pi + 2 * np.pi * rng.uniform(size=totals.sum())
    return rows, rng, totals, theta


def _reference_counts(spec, grid, seed, b):
    """Block b's cell counts: each point counted in the cell of the last
    angle edge at or below its angle."""
    rows, _, totals, theta = _reference_block(spec, grid, seed, b)
    counts = np.zeros((rows.size, grid.n_phi))
    col = np.searchsorted(grid.phi_edges, theta, side="right") - 1
    np.add.at(counts, (np.repeat(rows - rows[0], totals), col), 1.0)
    return counts


def _reference_place_points(spec, grid, seed):
    """Point placement gathering every per-point value through the point's
    row, block by block as :func:`_reference_block` draws them; also returns
    the number of rejection rounds."""
    edges = grid.t_edges
    g = spec.control.g
    g_max = g.max_on(edges[:-1], edges[1:])
    parts, rounds = [], 0
    for b in range(-(-grid.n_t // 8)):
        rows, rng, totals, theta = _reference_block(spec, grid, seed, b)
        row = np.repeat(rows, totals)
        total = row.size
        t_lo = edges[row]
        s = t_lo + grid.dt * rng.uniform(size=total)
        pending = np.flatnonzero(rng.uniform(size=total) * g_max[row] > g(s))
        while pending.size:
            rounds += 1
            prop = t_lo[pending] + grid.dt * rng.uniform(size=pending.size)
            accept = rng.uniform(size=pending.size) * g_max[row[pending]] <= g(prop)
            s[pending[accept]] = prop[accept]
            pending = pending[~accept]
        parts.append((theta, s, row))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts)), rounds


# densities with rows of zero measure, with rejection at table nodes, and
# with rejection in every row
BLOCK_DENSITIES = (
    TimeDensity.constant(20.0, support_lo=1.5),
    TimeDensity.tabulated([1.5, 3.0, 5.0], [30.0, 8.0, 40.0]),
    TimeDensity.linear(12.0),
)


@pytest.mark.parametrize(
    "g, rejects",
    list(zip(BLOCK_DENSITIES, (False, True, True))),
    ids=["zero-measure-rows", "tabulated", "linear"],
)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_point_placement_equals_the_per_point_gather_reference(g, rejects, seed):
    from levygrowth.levy_core import _POINTS_STREAM, _PointPlacer

    grid = GridSpec(2 * math.pi / 16, 0.25, 0.0, 5.0)  # 20 rows: blocks of 8, 8 and 4
    real = sample_realization(unit_basis(SpotLaw.poisson(), g), grid, seed)
    got = real.points()
    stream = mix_seed(seed, _POINTS_STREAM)
    want, rounds = _reference_place_points(real.spec, grid, stream)
    assert got.theta.size > 100 and (rounds > 0) == rejects
    for a, b in zip((got.theta, got.s, got.row), want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    counts = np.concatenate([_reference_counts(real.spec, grid, stream, b) for b in range(3)])
    assert np.array_equal(real.increments, counts)
    empty = unit_basis(SpotLaw.poisson(), TimeDensity.constant(0.0))
    none = _PointPlacer(empty, grid).place(seed)
    want, _ = _reference_place_points(empty, grid, stream)
    for a, b in zip((none.theta, none.s, none.row), want):
        assert a.dtype == b.dtype and a.size == b.size == 0


@settings(max_examples=60, deadline=None)
@given(
    g=st.sampled_from(BLOCK_DENSITIES),
    n_t=st.integers(1, 30).filter(lambda n: n % 8 != 0),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_whole_point_blocks_drawn_alone_hold_the_full_draws_points(g, n_t, seed, data):
    from levygrowth.levy_core import _PointPlacer

    grid = GridSpec(2 * math.pi / 16, 0.25, 0.0, 0.25 * n_t)
    basis = unit_basis(SpotLaw.poisson(), g)
    full = sample_realization(basis, grid, seed)
    pts = full.points()
    col = np.searchsorted(grid.phi_edges, pts.theta, side="right") - 1
    counted = np.zeros((grid.n_t, grid.n_phi))
    np.add.at(counted, (pts.row, col), 1.0)
    assert np.array_equal(counted, full.increments)
    assert np.all(pts.s >= grid.t_edges[pts.row]) and np.all(pts.s <= grid.t_edges[pts.row + 1])
    placer = _PointPlacer(basis, grid)
    streams = placer.streams(seed)
    for b in sorted(data.draw(st.sets(st.integers(0, (n_t - 1) // 8)))):
        rows = np.arange(8 * b, min(8 * b + 8, n_t))
        assert np.array_equal(draw_counts(basis, grid, seed, rows), full.increments[rows])
        got = placer.place_block(streams, b)
        keep = np.isin(pts.row, rows)
        for a, want in zip((got.theta, got.s, got.row), (pts.theta[keep], pts.s[keep], pts.row[keep])):
            assert a.dtype == want.dtype and np.array_equal(a, want)


def test_poisson_counts_have_the_independent_cell_law():
    # Row totals and uniform angles give every cell an independent
    # Po(cell measure) count: per-cell mean and variance, and the covariance
    # of neighbouring cells in a row and in adjacent rows (rows 7 and 8 lie
    # in different point blocks), over 4000 seeds.
    from levygrowth.levy_core import _PointPlacer

    grid = GridSpec(2 * math.pi / 6, 0.25, 0.0, 2.5)  # 10 rows, unequal measures
    basis = unit_basis(SpotLaw.poisson(), TimeDensity.tabulated([0.0, 2.5], [3.0, 13.0]))
    placer, rows, n = _PointPlacer(basis, grid), np.arange(grid.n_t), 4000
    x = np.array([placer.counts(mix_seed(2027, r), rows) for r in range(n)])
    mu = np.broadcast_to(grid.cell_mu(basis.control)[:, None], x.shape[1:])
    assert 0.7 < mu.min() and mu.max() / mu.min() > 3
    z_mean = (x.mean(axis=0) - mu) / np.sqrt(mu / n)
    z_var = (x.var(axis=0, ddof=1) - mu) / np.sqrt(mu / n + 2 * mu**2 / (n - 1))
    d = x - x.mean(axis=0)
    z_row = (d * np.roll(d, -1, axis=2)).sum(axis=0) / (n - 1) / np.sqrt(mu * np.roll(mu, -1, axis=1) / n)
    z_next = (d[:, :-1] * d[:, 1:]).sum(axis=0) / (n - 1) / np.sqrt(mu[:-1] * mu[1:] / n)
    for z in (z_mean, z_var, z_row, z_next):
        assert np.max(np.abs(z)) <= 4.0
    for r in range(50):  # each count is the number of its cell's points
        real = sample_realization(basis, grid, mix_seed(2027, r))
        assert np.array_equal(real.increments, x[r])
        pts = real.points()
        col = np.searchsorted(grid.phi_edges, pts.theta, side="right") - 1
        counted = np.zeros_like(real.increments)
        np.add.at(counted, (pts.row, col), 1.0)
        assert np.array_equal(counted, real.increments)


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


# ---------------------------------------------------------------------------
# row-addressed sampling against the one-stream, per-cell reference
# ---------------------------------------------------------------------------


def _reference_increments(spot, mu, rng):
    """Reference sampler with nothing prepared: every cell's parameters
    computed per cell, every cell drawn in order from ``rng`` (inverse
    Gaussian: one ``wald`` call per cell, none for cells of zero measure)."""
    mu = np.asarray(mu, dtype=float)
    if spot.kind == "gaussian":
        return spot.a_tilde * mu + np.sqrt(spot.b_tilde * mu) * rng.standard_normal(mu.shape)
    if spot.kind == "poisson":
        return rng.poisson(mu).astype(float)
    if spot.kind == "gamma":
        return rng.gamma(shape=spot.beta * mu, scale=1.0 / spot.alpha)
    out = np.zeros(mu.shape)
    for i, mu_i in enumerate(mu):
        if mu_i > 0:
            d = spot.eta * mu_i
            out[i] = rng.wald(d / spot.gamma, d * d)
    return out


SAMPLER_SPOTS = (
    SpotLaw.gaussian(0.3, 1.5),
    SpotLaw.gaussian(-0.7, 0.0),
    SpotLaw.poisson(),
    SpotLaw.gamma_law(0.4, 2.0),
    SpotLaw.inverse_gaussian(1.3, 1.6),
)
# rows below t = 1.5 have zero measure under the second density
SAMPLER_DENSITIES = (TimeDensity.constant(2.0), TimeDensity.constant(0.7, support_lo=1.5))


@settings(max_examples=80, deadline=None)
@given(
    spot=st.sampled_from(SAMPLER_SPOTS),
    g=st.sampled_from(SAMPLER_DENSITIES),
    n_phi=st.sampled_from([1, 7, 16]),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_row_draw_equals_the_full_draws_rows(spot, g, n_phi, seed, data):
    grid = GridSpec(2 * math.pi / n_phi, 0.25, 0.0, 3.0)
    rows = data.draw(st.lists(st.integers(0, grid.n_t - 1), unique=True, max_size=grid.n_t))
    basis = unit_basis(spot, g)
    full = sample_realization(basis, grid, seed)
    if spot.kind == "poisson":  # the counts of whole point blocks
        part = draw_counts(basis, grid, seed, rows)
    else:
        part = draw_rows(spot, seed, rows, grid.cell_mu(basis.control)[rows], n_phi)
    assert part.shape == (len(rows), n_phi)
    assert np.array_equal(part, full.increments[rows])


@pytest.mark.parametrize("spot", (SAMPLER_SPOTS[0], *SAMPLER_SPOTS[2:]), ids=lambda s: s.kind)
def test_row_draw_rejects_a_negative_cell_measure(spot):
    with pytest.raises(ValueError, match="nonnegative"):
        draw_rows(spot, 1, [0, 1], [0.5, -1e-12], 4)


@pytest.mark.parametrize("n_phi", [1, 7, 16, 400])
def test_point_cells_are_the_last_left_edge_at_or_below(n_phi):
    # the counting rule on angles at every cell edge and one float step to
    # either side of it, where a guess from the angle's offset can miss
    from levygrowth.levy_core import _PointPlacer

    grid = GridSpec(2 * math.pi / n_phi, 1.0, 0.0, 1.0)
    edges = grid.phi_edges
    theta = np.concatenate(
        [edges[:-1], np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)]
    )
    theta = theta[(theta >= -math.pi) & (theta < edges[-1])]
    want = np.searchsorted(edges, theta, side="right") - 1
    assert np.array_equal(_PointPlacer(unit_basis(SpotLaw.poisson()), grid).cells(theta), want)


def test_poisson_counts_reject_a_negative_row_measure():
    basis = BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeFn.constant(-1.0)))
    grid = GridSpec(2 * math.pi / 4, 0.5, 0.0, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        draw_counts(basis, grid, 1, [0])
    with pytest.raises(ValueError, match="nonnegative"):
        sample_realization(basis, grid, 1)


def test_row_draw_leaves_poisson_counts_to_point_blocks():
    with pytest.raises(ValueError, match="draw_counts"):
        draw_rows(SpotLaw.poisson(), 1, [0, 1], [0.5, 0.5], 4)


@pytest.mark.parametrize("g", SAMPLER_DENSITIES)
@pytest.mark.parametrize("spot", SAMPLER_SPOTS, ids=lambda s: s.kind)
def test_row_l_draws_from_the_seeded_stream_advanced_l_strides(spot, g):
    grid = GridSpec(2 * math.pi / 9, 0.25, 0.0, 3.0)
    real = sample_realization(unit_basis(spot, g), grid, 2024)
    mu = grid.cell_mu(ControlMeasure(g))
    if spot.kind == "poisson":  # block b of the point streams holds rows 8b .. 8b + 7
        from levygrowth.levy_core import _POINTS_STREAM

        stream = mix_seed(2024, _POINTS_STREAM)
        for l in range(grid.n_t):
            expected = _reference_counts(real.spec, grid, stream, l // 8)[l % 8]
            assert np.array_equal(real.increments[l], expected), l
        return
    for l in range(grid.n_t):
        bitgen = np.random.PCG64(2024)
        bitgen.advance(l * 2**40)
        expected = _reference_increments(
            spot, np.full(grid.n_phi, mu[l]), np.random.Generator(bitgen)
        )
        assert np.array_equal(real.increments[l], expected), l


def _mc_query(spot, g, stat):
    """A Monte Carlo check's query over cells of both densities' rows."""
    from levygrowth import moments

    grid = GridSpec(2 * math.pi / 40, 0.25, 0.0, 4.0)
    family = Rectangular.of(0.4, TimeFn.constant(1.0))
    points = ((2.2, 0.1),) if stat in ("mean", "var") else ((2.2, 0.1), (2.5, 0.3))
    lambdas = (0.2, 0.3) if stat == "mixed_exponential" else None
    return moments.MomentQuery(unit_basis(spot, g), family, 0.2, grid, points, lambdas)


@pytest.mark.parametrize("replicates_per_block", [1, 3])
def test_mc_verify_equals_the_per_replicate_reference_loop(monkeypatch, replicates_per_block):
    from levygrowth import moments

    def reference_fields(query, n_replicates, seed):
        weights = query.kernels
        mask = np.zeros(weights[0].shape, dtype=bool)
        for w in weights:
            mask |= w != 0
        mu = np.broadcast_to(query.cell_mu()[:, None], mask.shape)[mask]
        wm = np.stack([w[mask] for w in weights], axis=1)
        rng = np.random.default_rng(seed)  # replicates are consecutive draws
        rows = []
        for r in range(n_replicates):
            draws = _reference_increments(query.basis.spot, mu, rng)
            rows.append(draws @ wm)
        return np.asarray(rows)

    cases = [
        (_mc_query(spot, g, stat), stat)
        for spot in SAMPLER_SPOTS
        for g in SAMPLER_DENSITIES
        for stat in moments.STATISTICS
    ]

    def raw_values(query):
        mask = np.zeros(query.kernels[0].shape, dtype=bool)
        for w in query.kernels:
            mask |= w != 0
        return int(mask.sum())

    # one block of all 37 replicates, then blocks of 1 or 3 (the last one short)
    for k, (query, stat) in enumerate(cases):
        for block in (moments._BLOCK_VALUES, replicates_per_block * raw_values(query)):
            monkeypatch.setattr(moments, "_BLOCK_VALUES", block)
            got = moments.mc_verify(query, stat, 37, seed=k)
            with monkeypatch.context() as m:
                m.setattr(moments, "_sample_fields", reference_fields)
                want = moments.mc_verify(query, stat, 37, seed=k)
            assert got == want, (query.basis.spot.kind, stat, block)


@settings(max_examples=60, deadline=None)
@given(
    spot=st.sampled_from(SAMPLER_SPOTS),
    g=st.sampled_from(SAMPLER_DENSITIES),
    stat=st.sampled_from(["mean", "cov"]),
    n=st.integers(1, 12),
    k=st.integers(1, 12),
    block_values=st.sampled_from([1, 60, 1 << 16]),
    seed=st.integers(0, 2**64 - 1),
)
def test_mc_replicates_are_consecutive_draws_of_one_generator(
    spot, g, stat, n, k, block_values, seed
):
    from levygrowth import moments

    query = _mc_query(spot, g, stat)
    more = moments._sample_fields(query, n + k, seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(moments, "_BLOCK_VALUES", block_values)
        fewer = moments._sample_fields(query, n, seed)
    assert np.array_equal(fewer, more[:n])


@pytest.mark.parametrize("g", SAMPLER_DENSITIES)
@pytest.mark.parametrize("spot", SAMPLER_SPOTS, ids=lambda s: s.kind)
def test_mc_seeds_are_taken_mod_2_64(spot, g):
    from levygrowth import moments

    query = _mc_query(spot, g, "cov")
    negative = moments._sample_fields(query, 5, -3)
    assert np.array_equal(negative, moments._sample_fields(query, 5, 2**64 - 3))


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
