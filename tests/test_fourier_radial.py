"""Radial Fourier coefficients, their covariance identities, the likelihood."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from levygrowth.ambit import FullAngle, Rectangular
from levygrowth.circle_cov import FourierWeight, harmonic_cov
from levygrowth.errors import AliasError, AssumptionViolation, SingularCovariance
from levygrowth.fourier_radial import (
    FourierSeries,
    _reduce_series,
    _score_series,
    fourier_cov_structure,
    gaussian_loglik,
    radial_fourier,
)
from levygrowth.growth import GrowthModelSpec, Drift, simulate_replicates
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
)
from levygrowth.timefn import TimeFn

TWO_PI = 2 * math.pi


def parseval_gap(series: FourierSeries, profile):
    """Relative gap between the profile's mean square and its coefficient sum.

    With this module's normalization the mean of ``profile**2`` equals
    ``A_0**2 / 4 + (1/2) sum_{k>=1} (A_k**2 + B_k**2)`` for band-limited
    profiles.
    """
    profile = np.asarray(profile, dtype=float)
    lhs = float(np.mean(profile**2))
    rhs = 0.25 * series.cos_coef[0] ** 2 + 0.5 * float(
        np.sum(series.cos_coef[1:] ** 2 + series.sin_coef[1:] ** 2)
    )
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def series_for_history(history, k_max):
    """Coefficient arrays (n_times, k_max + 1) for each history time."""
    fs = radial_fourier(history.profiles, history.angles, k_max)
    return fs.cos_coef, fs.sin_coef
UNIT = TimeDensity.constant(1.0)


def grid_angles(n):
    return -math.pi + (np.arange(n) + 0.5) * (TWO_PI / n)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_constant_profile_coefficients():
    c = 3.2
    fs = radial_fourier(np.full(128, c), k_max=10)
    assert fs.cos_coef[0] == pytest.approx(2 * c, rel=1e-12)
    assert np.max(np.abs(fs.cos_coef[1:])) < 1e-12
    assert np.max(np.abs(fs.sin_coef)) < 1e-12


def test_pure_harmonic_recovered():
    angles = grid_angles(128)
    fs = radial_fourier(np.cos(3 * angles), angles, k_max=10)
    assert fs.cos_coef[3] == pytest.approx(1.0, abs=1e-12)
    mask = np.ones(11, dtype=bool)
    mask[3] = False
    assert np.max(np.abs(fs.cos_coef[mask])) < 1e-12
    assert np.max(np.abs(fs.sin_coef)) < 1e-12


def test_reconstruction_round_trip_full_order():
    rng = np.random.default_rng(8)
    n = 257  # odd: the full order (n-1)/2 inverts exactly
    angles = grid_angles(n)
    profile = rng.normal(size=n)
    fs = radial_fourier(profile, angles)
    rec = fs.reconstruct(angles)
    assert np.max(np.abs(rec - profile)) <= 1e-10


def test_alias_error():
    with pytest.raises(AliasError):
        radial_fourier(np.zeros(64), k_max=32)


def test_parseval_band_limited():
    rng = np.random.default_rng(9)
    n, k_max = 256, 20
    angles = grid_angles(n)
    a = rng.normal(size=k_max + 1)
    b = rng.normal(size=k_max + 1)
    b[0] = 0.0
    profile = 0.5 * a[0] + sum(
        a[k] * np.cos(k * angles) + b[k] * np.sin(k * angles) for k in range(1, k_max + 1)
    )
    fs = radial_fourier(profile, angles, k_max)
    assert parseval_gap(fs, profile) < 1e-8


# ---------------------------------------------------------------------------
# coefficient covariance structure
# ---------------------------------------------------------------------------


def test_cross_order_structure_zero():
    w = FourierWeight.constant_coeffs([0.0, 0.4, 0.3])
    fam = FullAngle.of(2.0)
    assert fourier_cov_structure(w, UNIT, fam, 5.0, 6.0, 1, 2) == (0.0, 0.0, 0.0)


def test_matching_order_returns_harmonic_cov():
    w = FourierWeight.constant_coeffs([0.0, 0.4, 0.3])
    fam = FullAngle.of(2.0)
    aa, bb, ab = fourier_cov_structure(w, UNIT, fam, 6.0, 6.0, 2, 2)
    tau = harmonic_cov(w, UNIT, fam.T, 6.0, 6.0, 2)
    assert aa == pytest.approx(tau)
    assert bb == pytest.approx(tau)
    assert ab == 0.0


def test_zero_weight_structure():
    w = FourierWeight.constant_coeffs([0.0, 0.0])
    fam = FullAngle.of(2.0)
    assert fourier_cov_structure(w, UNIT, fam, 5.0, 5.0, 1, 1) == (0.0, 0.0, 0.0)


def test_structure_requires_full_angle():
    w = FourierWeight.constant_coeffs([0.0, 0.4])
    fam = Rectangular.of(0.5, TimeFn.constant(2.0))
    with pytest.raises(AssumptionViolation):
        fourier_cov_structure(w, UNIT, fam, 5.0, 5.0, 1, 1)


def _gaussian_full_angle_spec(coeffs, T0=2.0):
    return GrowthModelSpec(
        "direct",
        Drift.zero(),
        FourierWeight.constant_coeffs(coeffs),
        BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT)),
        FullAngle.of(T0),
    )


def test_coefficient_variances_match_harmonic_cov_mc():
    coeffs = [0.0, 0.25, 0.0, 0.15]
    spec = _gaussian_full_angle_spec(coeffs)
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
    n = 3000
    profs = simulate_replicates(spec, grid, 71, [6.0], n)[:, 0, :]
    w = spec.weight
    for k in (1, 3):
        a_k = np.array([radial_fourier(p, grid.phi_mids, 4).cos_coef[k] for p in profs])
        b_k = np.array([radial_fourier(p, grid.phi_mids, 4).sin_coef[k] for p in profs])
        tau = harmonic_cov(w, UNIT, 2.0, 6.0, 6.0, k)
        for series in (a_k, b_k):
            v = series.var(ddof=1)
            se = math.sqrt(2.0 / (n - 1)) * v
            assert abs(v - tau) < 3 * se


# ---------------------------------------------------------------------------
# Gaussian likelihood
# ---------------------------------------------------------------------------


def test_loglik_single_point_matches_normal_density():
    tau_val = 0.7
    x = 0.43
    y = -0.11
    ll = gaussian_loglik(
        [5.0],
        np.array([[0.0, x]]),
        np.array([[0.0, y]]),
        lambda k, t1, t2: tau_val,
        orders=[1],
    )
    expected = scipy.stats.norm.logpdf(x, 0.0, math.sqrt(tau_val)) + scipy.stats.norm.logpdf(
        y, 0.0, math.sqrt(tau_val)
    )
    assert ll == pytest.approx(expected, rel=1e-12)


def test_loglik_calls_tau_once_per_order():
    w = FourierWeight.constant_coeffs([0.0, 0.4, 0.3, 0.2])
    times = np.array([4.0, 5.0, 6.5, 7.0])
    calls = []

    def tau(k, t1, t2):
        calls.append((k, np.shape(t1), np.shape(t2)))
        return harmonic_cov(w, UNIT, 2.0, t1, t2, k)

    rng = np.random.default_rng(9)
    cos, sin = rng.normal(size=(2, 5, 4, 4))
    ll = gaussian_loglik(times, cos, sin, tau, orders=[1, 2, 3])
    # one call, the orders as a leading (3, 1, 1) axis
    assert len(calls) == 1
    k, shape1, shape2 = calls[0]
    assert k.shape == (3, 1, 1) and np.array_equal(k.ravel(), [1, 2, 3])
    assert (shape1, shape2) == ((4, 1), (1, 4))
    expected = 0.0
    for k in (1, 2, 3):
        gram = [[harmonic_cov(w, UNIT, 2.0, a, b, k) for b in times] for a in times]
        mvn = scipy.stats.multivariate_normal(np.zeros(4), gram)
        expected += float(np.sum(mvn.logpdf(cos[:, :, k])) + np.sum(mvn.logpdf(sin[:, :, k])))
    assert ll == pytest.approx(expected, rel=1e-10)

    # the Gram matrix mirrors tau(k, t_i, t_j) for i <= j, as the per-pair loop did
    def upper_only(k, t1, t2):
        return np.where(t1 <= t2, harmonic_cov(w, UNIT, 2.0, t1, t2, k), np.nan)

    assert gaussian_loglik(times, cos, sin, upper_only, orders=[1, 2, 3]) == ll


def test_radial_fourier_of_a_stack_equals_each_profile():
    rng = np.random.default_rng(4)
    profiles = rng.normal(size=(3, 2, 33))
    fs = radial_fourier(profiles, grid_angles(33), 7)
    assert fs.cos_coef.shape == fs.sin_coef.shape == (3, 2, 8)
    assert fs.k_max == 7
    for r in range(3):
        for i in range(2):
            one = radial_fourier(profiles[r, i], grid_angles(33), 7)
            assert np.allclose(fs.cos_coef[r, i], one.cos_coef, rtol=0.0, atol=1e-14)
            assert np.allclose(fs.sin_coef[r, i], one.sin_coef, rtol=0.0, atol=1e-14)
    assert np.all(fs.sin_coef[..., 0] == 0.0)


def test_loglik_duplicated_time_singular():
    w = FourierWeight.constant_coeffs([0.0, 0.4])
    tau = lambda k, t1, t2: harmonic_cov(w, UNIT, 2.0, t1, t2, k)
    cos = np.zeros((2, 2))
    sin = np.zeros((2, 2))
    with pytest.raises(SingularCovariance):
        gaussian_loglik([5.0, 5.0], cos, sin, tau, orders=[1])


def _per_order_loglik(times, cos, sin, tau, orders):
    """The likelihood one order at a time through scipy's Cholesky routines."""
    import scipy.linalg

    times = np.asarray(times, dtype=float)
    n = times.size
    upper = np.triu(np.ones((n, n), dtype=bool))
    total = 0.0
    for k in orders:
        full = np.broadcast_to(tau(k, times[:, None], times[None, :]), (n, n))
        chol = scipy.linalg.cho_factor(np.where(upper, full, full.T), lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[0])))
        for series in (cos, sin):
            x = series.reshape(-1, n, series.shape[-1])[:, :, k]
            quad = np.sum(x.T * scipy.linalg.cho_solve(chol, x.T))
            total += -0.5 * (quad + x.shape[0] * (logdet + n * math.log(2.0 * math.pi)))
    return total


@settings(max_examples=60, deadline=None)
@given(
    n_times=st.integers(1, 5),
    n_reps=st.sampled_from([None, 1, 3]),
    orders=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_loglik_equals_the_per_order_reference(n_times, n_reps, orders, seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(1.0, 10.0, n_times))
    grams = np.zeros((5, n_times, n_times))
    for k in set(orders):
        a = rng.normal(size=(n_times, n_times))
        grams[k] = a @ a.T + n_times * np.eye(n_times)

    def tau(k, t1, t2):
        i, j = np.searchsorted(times, t1), np.searchsorted(times, t2)
        return grams[k, i, j]

    shape = (n_times, 5) if n_reps is None else (n_reps, n_times, 5)
    cos, sin = rng.normal(size=(2, *shape))
    ll = gaussian_loglik(times, cos, sin, tau, orders=orders)
    assert ll == pytest.approx(_per_order_loglik(times, cos, sin, tau, orders), rel=1e-12)


@pytest.mark.parametrize("n_times, n_reps", [(6, 1), (6, 2), (3, 4), (1, 1)])
def test_reduced_loglik_equals_the_per_order_reference(n_times, n_reps):
    rng = np.random.default_rng(17)
    times = np.sort(rng.uniform(1.0, 10.0, n_times))
    a = rng.normal(size=(4, n_times, n_times))
    grams = a @ a.swapaxes(1, 2) + n_times * np.eye(n_times)

    def tau_at(scale):
        def tau(k, t1, t2):
            return scale * grams[k, np.searchsorted(times, t1), np.searchsorted(times, t2)]

        return tau

    cos, sin = rng.normal(size=(2, n_reps, n_times, 4))
    orders = [1, 3, 3, 2]
    reduced = _reduce_series(cos, sin, orders)
    # one factor per order, fewer columns than times when 2 n_reps < n_times
    assert reduced[1].shape == (4, n_times, min(n_times, 2 * n_reps))
    for scale in (0.5, 1.0, 3.0):  # one reduction serves every tau, as in a fit
        tau = tau_at(scale)
        reference = _per_order_loglik(times, cos, sin, tau, orders)
        assert _score_series(times, reduced, tau) == pytest.approx(reference, rel=1e-12)


def test_loglik_names_the_order_whose_gram_is_singular():
    w = FourierWeight.constant_coeffs([0.0, 0.4, 0.3, 0.2])
    times = np.array([4.0, 5.0, 6.5])

    def tau(k, t1, t2):
        # order 3 sees times 5.0 and 6.5 as one time
        t1, t2 = (np.where(k == 3, np.minimum(t, 5.0), t) for t in (t1, t2))
        return harmonic_cov(w, UNIT, 2.0, t1, t2, k)

    cos, sin = np.random.default_rng(2).normal(size=(2, 3, 4))
    with pytest.raises(SingularCovariance, match="at order 3 "):
        gaussian_loglik(times, cos, sin, tau, orders=[1, 2, 3])
    with pytest.raises(SingularCovariance, match="at order 3 "):
        gaussian_loglik(times, cos, sin, tau, orders=[3, 1])
    assert np.isfinite(gaussian_loglik(times, cos, sin, tau, orders=[1, 2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_loglik_rejects_a_non_finite_upper_triangle(bad):
    w = FourierWeight.constant_coeffs([0.0, 0.4, 0.3])
    times = np.array([4.0, 5.0, 6.5])

    def tau(k, t1, t2):
        cov = harmonic_cov(w, UNIT, 2.0, t1, t2, k)
        return np.where((k == 2) & (t1 == 4.0) & (t2 == 6.5), bad, cov)

    cos, sin = np.random.default_rng(3).normal(size=(2, 3, 3))
    with pytest.raises(SingularCovariance, match="at order 2 "):
        gaussian_loglik(times, cos, sin, tau, orders=[1, 2])


def test_series_for_history_shapes():
    spec = _gaussian_full_angle_spec([0.0, 0.3])
    grid = GridSpec(TWO_PI / 32, 0.5, 0.0, 6.0)
    from levygrowth.growth import simulate

    hist = simulate(spec, grid, 5, [4.0, 5.0, 6.0])
    cos, sin = series_for_history(hist, 6)
    assert cos.shape == (3, 7)
    assert sin.shape == (3, 7)
    assert np.all(sin[:, 0] == 0.0)


def test_loglik_prefers_true_scale_on_average():
    coeffs = [0.0, 0.3, 0.2]
    spec = _gaussian_full_angle_spec(coeffs)
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
    times = [4.0, 5.0, 6.0]
    n = 40
    profs = simulate_replicates(spec, grid, 83, times, n)
    cos = np.empty((n, 3, 3))
    sin = np.empty((n, 3, 3))
    for r in range(n):
        for i in range(3):
            fs = radial_fourier(profs[r, i], grid.phi_mids, 2)
            cos[r, i] = fs.cos_coef
            sin[r, i] = fs.sin_coef
    w = spec.weight

    def tau_at(scale):
        return lambda k, t1, t2: scale * harmonic_cov(w, UNIT, 2.0, t1, t2, k)

    ll_true = gaussian_loglik(times, cos, sin, tau_at(1.0), orders=[1, 2])
    ll_high = gaussian_loglik(times, cos, sin, tau_at(2.0), orders=[1, 2])
    ll_low = gaussian_loglik(times, cos, sin, tau_at(0.5), orders=[1, 2])
    assert ll_true > ll_high
    assert ll_true > ll_low
