"""Harmonic covariance machinery, target inversion, boundary-overlap coefficients."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levygrowth.circle_cov import (
    CircleCovModel,
    FourierWeight,
    PthOrderParams,
    boundary_overlap_oracle,
    boundary_overlap_report,
    cov_full_angle,
    harmonic_cov,
    overlap_coeffs_from_boundary,
    overlap_constant_term,
    pth_order_target,
    pth_order_weight,
    spatial_corr,
    temporal_corr,
    weight_from_targets,
)
from levygrowth.errors import AssumptionViolation, NegativeTargetCoefficient
from levygrowth.levy_core import TimeDensity
from levygrowth.quadrature import adaptive_simpson
from levygrowth.timefn import TimeFn

UNIT = TimeDensity.constant(1.0)


# ---------------------------------------------------------------------------
# per-harmonic coefficients
# ---------------------------------------------------------------------------


def test_harmonic_cov_empty_overlap():
    w = FourierWeight.constant_coeffs([0.0, 1.0])
    assert harmonic_cov(w, UNIT, 1.0, 0.0, 10.0, 1) == 0.0


def test_harmonic_cov_constant_coefficient():
    c, T0, t = 0.7, 2.0, 9.0
    w = FourierWeight.constant_coeffs([0.0, c])
    got = harmonic_cov(w, UNIT, T0, t, t, 1)
    assert got == pytest.approx(math.pi * c * c * T0, rel=1e-12)


def test_harmonic_cov_beyond_truncation_is_zero():
    w = FourierWeight.constant_coeffs([0.0, 1.0])
    assert harmonic_cov(w, UNIT, 1.0, 5.0, 5.0, 7) == 0.0


def test_harmonic_cov_stationary_matches_shifted_quadrature():
    # coefficients depending on the age t - s; window lag T constant
    T0 = 1.0
    b = lambda u: np.exp(-2.0 * np.asarray(u))
    w = FourierWeight.stationary([lambda u: 0.0 * np.asarray(u), b])
    t1, t2 = 4.3, 4.9
    got = harmonic_cov(w, UNIT, T0, t1, t2, 1)
    lo = max(t1 - t2, 0.0)
    hi = T0 + min(t1 - t2, 0.0)
    expected = math.pi * adaptive_simpson(
        lambda u: float(b(u) * b(t2 - t1 + u)), lo, hi, tol=1e-12
    )
    assert got == pytest.approx(expected, rel=1e-9)


def _scalar_reference(weight, g, T, t1, t2, k):
    """One coefficient the way the per-pair scalar implementation computed it."""
    if k > weight.k_max:
        return 0.0
    T = TimeFn.of(T)
    lo, hi = max(t1 - float(T(t1)), t2 - float(T(t2))), min(t1, t2)
    if hi <= lo:
        return 0.0
    if weight.s_independent:
        a1 = float(weight.coef(k, t1, np.asarray(lo)))
        a2 = float(weight.coef(k, t2, np.asarray(lo)))
        return math.pi * a1 * a2 * float(g.integral(lo, hi))

    def integrand(s):
        return float(weight.coef(k, t1, np.asarray(s)) * weight.coef(k, t2, np.asarray(s)) * g(s))

    tol = 1e-12 * (abs(g.integral(lo, hi)) + 1.0)
    return math.pi * adaptive_simpson(integrand, lo, hi, tol=tol)


LAGS = {"constant": 2.5, "short": 1.0, "proportional": TimeFn.proportional(0.3)}
WEIGHT_KINDS = ("constant", "separable", "stationary", "pth_order")


def _weight(kind, T):
    if kind == "constant":
        return FourierWeight.constant_coeffs([0.3, 0.5, 0.0, 0.2])
    if kind == "separable":
        return FourierWeight.separable(TimeFn.affine(1.0, 0.2), [0.1, 0.4, 0.3])
    if kind == "stationary":
        return FourierWeight.stationary(
            [lambda u: np.exp(-np.asarray(u)), lambda u: 1.0 / (1.0 + np.asarray(u) ** 2)]
        )
    return pth_order_weight(PthOrderParams(1, 1.0, 0.5), UNIT, T, k_max=12)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(WEIGHT_KINDS),
    st.sampled_from(sorted(LAGS)),
    st.lists(st.floats(0.5, 12.0), min_size=1, max_size=3),
    st.lists(st.floats(0.5, 12.0), min_size=1, max_size=3),
    st.integers(0, 14),
)
@example("constant", "constant", [2.5], [5.0], 1)  # windows that only touch
@example("stationary", "short", [3.0, 6.0], [6.5], 1)
def test_array_harmonic_cov_equals_the_scalar_calls_bit_for_bit(kind, lag, t1, t2, k):
    T = LAGS[lag]
    w = _weight(kind, T)
    got = harmonic_cov(w, UNIT, T, np.array(t1)[:, None], np.array(t2)[None, :], k)
    scalar = np.array([[harmonic_cov(w, UNIT, T, a, b, k) for b in t2] for a in t1])
    reference = np.array([[_scalar_reference(w, UNIT, T, a, b, k) for b in t2] for a in t1])
    assert got.shape == (len(t1), len(t2))
    assert np.array_equal(got, scalar) and np.array_equal(got, reference)
    assert isinstance(harmonic_cov(w, UNIT, T, t1[0], t2[0], k), float)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(WEIGHT_KINDS),
    st.sampled_from(sorted(LAGS)),
    st.lists(st.floats(0.5, 12.0), min_size=1, max_size=3),
    st.lists(st.floats(0.5, 12.0), min_size=1, max_size=3),
    st.lists(st.integers(0, 14), min_size=1, max_size=4),
)
@example("constant", "constant", [2.5], [5.0], [1, 0])  # windows that only touch
@example("separable", "short", [3.0, 6.0], [6.5], [5, 9])  # every order above k_max
def test_order_array_harmonic_cov_equals_the_scalar_order_calls(kind, lag, t1, t2, ks):
    T = LAGS[lag]
    w = _weight(kind, T)
    t1, t2 = np.array(t1)[:, None], np.array(t2)[None, :]
    got = harmonic_cov(w, UNIT, T, t1, t2, np.array(ks)[:, None, None])
    stacked = np.stack([harmonic_cov(w, UNIT, T, t1, t2, k) for k in ks])
    assert got.shape == stacked.shape and np.array_equal(got, stacked)
    # one time pair against an order vector
    pair = harmonic_cov(w, UNIT, T, t1[0, 0], t2[0, 0], np.array(ks))
    assert np.array_equal(pair, [harmonic_cov(w, UNIT, T, t1[0, 0], t2[0, 0], k) for k in ks])


def test_table_calls_tau_once_per_order():
    calls = []

    def tau(k, t1, t2):
        calls.append(k)
        return np.exp(-np.abs(t1 - t2)) / (1.0 + k * k)

    model = CircleCovModel(tau, 5)
    pairs, dphis = [(6.0, 6.0), (6.0, 7.0), (8.0, 7.5)], np.linspace(0.0, math.pi, 7)
    rows = model.table(pairs, dphis)
    assert len(calls) == 1 and np.array_equal(np.ravel(calls[0]), range(6))
    assert rows.shape == (21, 4)
    assert np.array_equal(rows[:, :3], [(t1, t2, d) for t1, t2 in pairs for d in dphis])
    for t1, t2, d, cov in rows:
        assert cov == model.cov(t1, 0.0, t2, d)
    # a tau that returns one scalar for every pair still tabulates
    flat = CircleCovModel(lambda k, t1, t2: 0.5**k, 2).table(pairs, dphis)
    assert np.array_equal(flat[:, 3], np.tile(2.0 + 0.5 * np.cos(dphis) + 0.25 * np.cos(2 * dphis), 3))


# ---------------------------------------------------------------------------
# covariance on the circle
# ---------------------------------------------------------------------------


def test_single_harmonic_cov_is_separable_cosine():
    c, T0, t = 0.5, 2.0, 8.0
    w = FourierWeight.constant_coeffs([0.0, c])
    for d in (0.0, 0.4, 2.0, math.pi):
        got = cov_full_angle(w, UNIT, T0, t, 0.0, t, d)
        assert got == pytest.approx(math.pi * c * c * T0 * math.cos(d), abs=1e-12)
    # quarter turn: exactly zero
    assert cov_full_angle(w, UNIT, T0, t, 0.0, t, math.pi / 2) == pytest.approx(
        0.0, abs=1e-12
    )
    # the sign can be negative
    assert cov_full_angle(w, UNIT, T0, t, 0.0, t, math.pi) < 0.0


def test_cov_rotation_invariance():
    w = FourierWeight.constant_coeffs([0.3, 0.5, 0.2, 0.1])
    rng = np.random.default_rng(3)
    base = cov_full_angle(w, UNIT, 2.0, 7.0, 0.0, 6.5, 0.8)
    for _ in range(5):
        rot = rng.uniform(-math.pi, math.pi)
        got = cov_full_angle(w, UNIT, 2.0, 7.0, rot, 6.5, 0.8 + rot)
        assert got == pytest.approx(base, abs=1e-12)


def test_positive_semidefinite_from_targets():
    rng = np.random.default_rng(11)
    targets = rng.uniform(0.0, 1.0, 9)
    w = weight_from_targets(targets, UNIT, 2.0)
    model = CircleCovModel.from_weight(w, UNIT, 2.0)
    angles = np.linspace(-math.pi, math.pi, 33)[:-1]
    t = 6.0
    mat = np.empty((32, 32))
    for i in range(32):
        for j in range(32):
            mat[i, j] = model.cov(t, angles[i], t, angles[j])
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-8


# ---------------------------------------------------------------------------
# separable correlations
# ---------------------------------------------------------------------------


def test_spatial_corr_unit_at_zero_and_formula():
    a = [0.4, 0.8, 0.0, 0.3]
    w = FourierWeight.constant_coeffs(a)
    rho = spatial_corr(w)
    assert float(rho(0.0)) == pytest.approx(1.0, rel=1e-12)
    d = 1.1
    denom = 2 * a[0] ** 2 + a[1] ** 2 + a[3] ** 2
    num = 2 * a[0] ** 2 + a[1] ** 2 * math.cos(d) + a[3] ** 2 * math.cos(3 * d)
    assert float(rho(d)) == pytest.approx(num / denom, rel=1e-12)


def test_spatial_corr_requires_s_independent():
    w = FourierWeight.stationary([lambda u: np.exp(-np.asarray(u))])
    with pytest.raises(AssumptionViolation):
        spatial_corr(w)


def test_temporal_corr_constant_density():
    T0 = 2.0
    t1, t2 = 5.0, 6.5  # overlap [4.5, 5.0], length 0.5
    assert temporal_corr(UNIT, T0, t1, t2) == pytest.approx(0.5 / T0)
    assert temporal_corr(UNIT, T0, t1, t1) == pytest.approx(1.0)


def test_temporal_corr_exponential_density_closed_form():
    a, b = 1.7, 0.9
    g = TimeDensity.exponential(a, b)
    t2 = 6.0
    for t1 in (5.2, 5.7, 6.0):
        got = temporal_corr(g, 1.0, t1, t2)
        expected = (
            math.exp(0.5 * b * (t1 - t2) + b) - math.exp(-0.5 * b * (t1 - t2))
        ) / (math.exp(b) - 1.0)
        assert got == pytest.approx(expected, rel=1e-10)
    assert temporal_corr(g, 1.0, t2, t2) == pytest.approx(1.0)


def test_temporal_corr_power_density_closed_form():
    a, alpha = 2.0, 2.0
    g = TimeDensity.power(a, alpha)
    t1, t2 = 4.4, 5.0
    got = temporal_corr(g, 1.0, t1, t2)
    p = alpha + 1.0
    num = t1**p - (t2 - 1.0) ** p
    den = math.sqrt((t1**p - (t1 - 1.0) ** p) * (t2**p - (t2 - 1.0) ** p))
    assert got == pytest.approx(num / den, rel=1e-10)


# ---------------------------------------------------------------------------
# target inversion
# ---------------------------------------------------------------------------


def test_weight_from_zero_targets():
    w = weight_from_targets(np.zeros(5), UNIT, 1.0)
    assert float(w.coef(2, 3.0, np.asarray(2.5))) == 0.0


def test_weight_from_targets_round_trip():
    rng = np.random.default_rng(4)
    targets = rng.uniform(0.0, 2.0, 12)
    T = 1.5
    w = weight_from_targets(targets, UNIT, T)
    for k in range(12):
        got = harmonic_cov(w, UNIT, T, 7.0, 7.0, k)
        assert got == pytest.approx(targets[k], rel=1e-10, abs=1e-14)


def test_weight_from_targets_rejects_negative():
    with pytest.raises(NegativeTargetCoefficient):
        weight_from_targets([-0.1, 0.2], UNIT, 1.0)


def test_pth_order_target_values():
    params = PthOrderParams(p=1, alpha=1.0, beta=1.0)
    assert pth_order_target(params, 0) == 0.0
    assert pth_order_target(params, 1) == 0.0
    assert pth_order_target(params, 2) == pytest.approx(1.0)  # 1/alpha
    assert pth_order_target(params, 3) == pytest.approx(1.0 / 6.0)


def test_pth_order_weight_display():
    params = PthOrderParams(p=1, alpha=0.8, beta=0.5)
    T0, t = 2.0, 9.0
    w, tail = pth_order_weight(params, UNIT, T0, k_max=64)
    mass = T0  # int g over the window, g = 1
    for k in (2, 5, 11):
        expected = (math.pi * mass) ** -0.5 * (
            params.alpha + params.beta * (k**2 - 4)
        ) ** -0.5
        assert float(w.coef(k, t, np.asarray(0.0))) == pytest.approx(expected, rel=1e-12)
    assert float(w.coef(0, t, np.asarray(0.0))) == 0.0
    assert float(w.coef(1, t, np.asarray(0.0))) == 0.0
    assert 0.0 < tail < 1e-1


# ---------------------------------------------------------------------------
# boundary-overlap coefficients
# ---------------------------------------------------------------------------


def test_overlap_coeffs_cosine_profile_frozen():
    g0, g1 = 1.0, 0.5
    lam = overlap_coeffs_from_boundary([g0, g1], n_terms=6)
    assert lam[0] == pytest.approx((2 * math.pi - 16 / math.pi) * g1 - 2 * math.pi * g0)
    for j in range(1, 7):
        assert lam[j] == pytest.approx((16 / math.pi) * g1 / ((2 * j) ** 2 - 1))
    # reciprocal coefficients fit alpha + beta j^2 with the stated constants
    js = np.arange(1, 7)
    inv = 1.0 / lam[1:]
    alpha_t = -math.pi / (16 * g1)
    beta_t = math.pi / (4 * g1)
    assert np.max(np.abs(inv - (alpha_t + beta_t * js**2))) < 1e-10


def test_overlap_coeffs_zero_input():
    lam = overlap_coeffs_from_boundary(np.zeros(4))
    assert np.all(lam == 0.0)


def test_overlap_coeffs_third_harmonic_vs_oracle():
    gammas = [0.0, 0.0, 0.0, 0.2]
    closed = overlap_coeffs_from_boundary(gammas, n_terms=6)
    oracle = boundary_overlap_oracle(gammas, n_grid=2048, n_terms=6)
    assert np.max(np.abs(closed[1:] - oracle[1:])) < 1e-6


def test_derived_constant_term_matches_the_oracle():
    g0, g1 = 1.0, 0.5
    assert overlap_constant_term([g0, g1]) == pytest.approx((2 * math.pi - 8 / math.pi) * g1)
    gammas = [0.8, 0.5, 0.1, 0.08, 0.05, 0.03]
    # the DFT of the overlap, kinked at angle 0, is off by about
    # (2 pi / n_grid)^2 sum_{k odd} gamma_k / (6 pi): 1.2e-6 at 1024 angles
    oracle = boundary_overlap_oracle(gammas, n_grid=2048, n_terms=0)[0]
    assert overlap_constant_term(gammas) == pytest.approx(oracle, abs=1e-6)
    # the paper's closed form, kept as the reproduction record, stays off
    assert overlap_coeffs_from_boundary(gammas)[0] == pytest.approx(-4.734, abs=1e-3)


def test_overlap_report_surfaces_constant_term_discrepancy():
    # the closed-form constant term disagrees with the quadrature oracle;
    # the report must expose it while the oscillatory terms agree
    report = boundary_overlap_report([1.0, 0.5], n_grid=1024, n_terms=5, tol=1e-5)
    by_k = {row["k"]: row for row in report}
    assert not by_k[0]["within_tol"]
    for k in range(1, 6):
        assert by_k[k]["within_tol"], report
    # oracle value for the worked cosine case: (2 pi - 8 / pi) * gamma_1
    assert by_k[0]["oracle"] == pytest.approx(
        (2 * math.pi - 8 / math.pi) * 0.5, rel=1e-6
    )
