"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are fixed here and are not tuned at runtime:

* closed-form identities: exact or 1e-12 / 1e-10 / 1e-6 as stated per item;
* Monte Carlo z-checks: |z| <= 3 at fixed seeds with the replicate counts
  stated in each test.
"""

import math

import numpy as np
import pytest

from levygrowth.ambit import FullAngle, Rectangular, WedgeOverS
from levygrowth.circle_cov import (
    FourierWeight,
    boundary_overlap_oracle,
    boundary_overlap_report,
    cov_full_angle,
    harmonic_cov,
    overlap_coeffs_from_boundary,
)
from levygrowth.cyclic import TWO_PI
from levygrowth.fourier_radial import radial_fourier
from levygrowth.growth import (
    ConstantWeight,
    GrowthModelSpec,
    example_preset,
    moment_match_ig,
    simulate,
    simulate_replicates,
)
from levygrowth.inference import (
    ProfileDataset,
    empirical_moments,
    fit_fourier_mle,
    fit_moments,
    rect_direct_cov_model,
)
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    Rect,
    RegionUnion,
    SpotLaw,
    TimeDensity,
    integrate,
    sample_realization,
    spot_mean,
    spot_variance,
)
from levygrowth.moments import MomentQuery, cbar, cov_linear, mc_verify
from levygrowth.rngtools import mix_seed
from levygrowth.timefn import TimeFn

UNIT = TimeDensity.constant(1.0)


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}".rstrip())


def sample_var_se(x):
    """Standard error of the sample variance from the empirical 4th moment."""
    n = x.size
    c = x - x.mean()
    m4 = float(np.mean(c**4))
    v = float(np.var(x, ddof=1))
    return math.sqrt(max(m4 - v * v, 0.0) / n)


# ---------------------------------------------------------------------------
# 1. spot-law moments, exactly and by Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_01_spot_moments():
    gamma_spot = SpotLaw.gamma_law(2.0, 4.0)
    ig_spot = SpotLaw.inverse_gaussian(2.0, 1.0)
    assert spot_mean(gamma_spot) == 0.5
    assert spot_variance(gamma_spot) == 0.125
    assert spot_mean(ig_spot) == 2.0
    assert spot_variance(ig_spot) == 2.0

    n = 100_000
    grid = GridSpec(TWO_PI / 250, 1.0, 0.0, 400.0)  # 100k unit-measure cells
    g = TimeDensity.constant(1.0 / grid.dphi)
    for spot, mean, var, seed in (
        (gamma_spot, 0.5, 0.125, 811),
        (ig_spot, 2.0, 2.0, 812),
    ):
        basis = BasisSpec(spot, ControlMeasure(g))
        x = sample_realization(basis, grid, seed).increments.ravel()
        assert x.size == n
        se_m = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - mean) < 3 * se_m
        assert abs(x.var(ddof=1) - var) < 3 * sample_var_se(x)
    report(1, "spot-law moments", "exact values + 1e5-sample MC within 3 SE")


# ---------------------------------------------------------------------------
# 2. pairwise covariance of the linear field (Gaussian, cone windows)
# ---------------------------------------------------------------------------


def test_criterion_02_cov_mc():
    fam = Rectangular.of(0.6, TimeFn.constant(4.0))
    basis = BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT))
    grid = GridSpec(TWO_PI / 100, 0.25, 0.0, 12.0)
    probes = [
        ((5.0, 0.0), (6.0, 0.4)),
        ((5.0, 0.0), (5.0, 0.8)),
        ((6.0, 0.2), (8.0, -0.5)),
        ((5.0, 0.0), (7.0, 1.0)),
        ((6.0, 0.0), (6.0, 2.0)),
        ((9.0, 1.5), (10.0, 1.1)),
        ((7.0, -2.0), (7.5, -1.6)),
        ((8.0, 3.0), (9.0, -3.0)),
    ]
    zs = []
    for i, (p1, p2) in enumerate(probes):
        q = MomentQuery(basis, fam, ConstantWeight(1.0), grid, (p1, p2))
        rep = mc_verify(q, "cov", 10_000, seed=mix_seed(900, i))
        zs.append(rep.z)
        assert abs(rep.z) <= 3.0, (p1, p2, rep.z)
    report(2, "pair covariance vs MC", f"8 probes, max |z| = {max(map(abs, zs)):.2f}")


# ---------------------------------------------------------------------------
# 3. relative pair moment of the exponential field
# ---------------------------------------------------------------------------


def test_criterion_03_relative_moment():
    fam = Rectangular.of(0.8, TimeFn.constant(2.0))
    grid = GridSpec(TWO_PI / 100, 0.25, 0.0, 8.0)
    points = ((5.0, 0.0), (5.5, 0.3))
    cases = [
        (SpotLaw.gaussian(0.0, 0.04), 0.8, 921),
        (SpotLaw.gamma_law(2.0, 4.0), 0.9, 922),
    ]
    zs = []
    for spot, f, seed in cases:
        basis = BasisSpec(spot, ControlMeasure(TimeDensity.constant(0.2)))
        q = MomentQuery(basis, fam, ConstantWeight(f), grid, points)
        rep = mc_verify(q, "relative_second_moment", 10_000, seed=seed)
        zs.append(rep.z)
        assert abs(rep.z) <= 3.0, (spot.kind, rep.z)
    # closed-form cross-check of the Gamma log pair-moment rate
    beta, alpha, f = 2.0, 4.0, 0.9
    expected = -beta * math.log(1 - 2 * f / alpha) + 2 * beta * math.log(1 - f / alpha)
    assert cbar(SpotLaw.gamma_law(beta, alpha), f) == pytest.approx(expected, abs=1e-12)
    report(3, "relative pair moment", f"max |z| = {max(map(abs, zs)):.2f}; cbar exact")


# ---------------------------------------------------------------------------
# 4. harmonic covariance model vs Gaussian MC and the generic engine
# ---------------------------------------------------------------------------


def test_criterion_04_harmonic_covariance():
    coeffs = [0.15, 0.3, 0.22, 0.18, 0.12, 0.1, 0.08, 0.05, 0.04]  # orders 0..8
    weight = FourierWeight.constant_coeffs(coeffs)
    T0 = 2.0
    fam = FullAngle.of(T0)
    basis = BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT))
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 8.0)
    times = [(6.0, 7.0), (6.0, 6.0), (7.0, 8.0)]
    lags = np.linspace(0.0, math.pi, 8)

    # one shared draw set across every (pair, lag) probe
    n = 20_000
    mask_rows = (grid.t_mids >= 4.0) & (grid.t_mids <= 8.0)
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None]
    points = []
    for t1, t2 in times:
        points.append((t1, 0.0))
        for d in lags:
            points.append((t2, float(d)))
    points = sorted(set(points))
    w_mats = []
    for t, phi in points:
        member = fam.contains(t, phi, theta, s)
        w_mats.append(np.where(member, weight.value(t, theta, s, phi), 0.0)[mask_rows])
    w_flat = np.stack([w.ravel() for w in w_mats], axis=1)
    mu_cell = grid.dphi * grid.dt
    idx = {p: i for i, p in enumerate(points)}

    rng_draws = []
    chunk = 2000
    xs = []
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        z = np.empty((m, w_flat.shape[0]))
        for r in range(m):
            rng = np.random.default_rng(mix_seed(941, start + r))
            z[r] = rng.standard_normal(w_flat.shape[0]) * math.sqrt(mu_cell)
        xs.append(z @ w_flat)
    x = np.concatenate(xs, axis=0)

    worst = 0.0
    for t1, t2 in times:
        for d in lags:
            a = x[:, idx[(t1, 0.0)]]
            b = x[:, idx[(t2, float(d))]]
            analytic = cov_full_angle(weight, UNIT, T0, t1, 0.0, t2, float(d))
            prod = (a - a.mean()) * (b - b.mean())
            est = float(np.sum(prod)) / (n - 1)
            se = prod.std(ddof=1) / math.sqrt(n)
            z_score = (est - analytic) / se
            worst = max(worst, abs(z_score))
            assert abs(z_score) <= 3.0, (t1, t2, d, z_score)

    # agreement with the generic mesh engine
    for t1, t2 in times:
        for d in lags[1:]:
            q = MomentQuery(basis, fam, weight, grid, ((t1, 0.0), (t2, float(d))))
            generic = cov_linear(q)
            analytic = cov_full_angle(weight, UNIT, T0, t1, 0.0, t2, float(d))
            assert generic == pytest.approx(analytic, rel=1e-6, abs=1e-12)
    report(4, "harmonic covariance", f"24 probes at 2e4 reps, max |z| = {worst:.2f}")


# ---------------------------------------------------------------------------
# 5. boundary-overlap coefficients: closed forms, affine law, oracle
# ---------------------------------------------------------------------------


def test_criterion_05_boundary_overlap():
    g0, g1 = 1.0, 0.5
    lam = overlap_coeffs_from_boundary([g0, g1], n_terms=8)
    assert lam[0] == pytest.approx((2 * math.pi - 16 / math.pi) * g1 - 2 * math.pi * g0, abs=1e-12)
    js = np.arange(1, 9)
    assert np.allclose(lam[1:], (16 / math.pi) * g1 / ((2 * js) ** 2 - 1), atol=1e-12)
    inv = 1.0 / lam[1:]
    alpha_t = -math.pi / (16 * g1)
    beta_t = math.pi / (4 * g1)
    assert np.max(np.abs(inv - (alpha_t + beta_t * js**2))) < 1e-10

    gammas = [0.8, 0.5, 0.1, 0.08, 0.05, 0.03]  # harmonics up to order 5
    rep = boundary_overlap_report(gammas, n_grid=1024, n_terms=8, tol=1e-5)
    findings = [row for row in rep if not row["within_tol"]]
    for row in rep:
        if row["k"] >= 1:
            assert row["within_tol"], row
    # the constant term of the closed form disagrees with the quadrature
    # oracle; surface it rather than suppressing
    assert findings and findings[0]["k"] == 0
    detail = (
        f"j>=1 within 1e-5 of oracle; reported finding: constant term "
        f"closed={findings[0]['closed_form']:+.6f} vs oracle={findings[0]['oracle']:+.6f}"
    )
    report(5, "boundary overlap coefficients", detail)


# ---------------------------------------------------------------------------
# 6. constant mean growth rate of the wedge model
# ---------------------------------------------------------------------------


def test_criterion_06_wedge_mean_rate():
    preset = example_preset("ex3")
    n = 200
    slopes = np.empty(n)
    for r in range(n):
        hist = simulate(preset.spec, preset.grid, mix_seed(960, r), [75.0, 125.0])
        means = hist.angular_mean()
        slopes[r] = (means[1] - means[0]) / 50.0
    se = slopes.std(ddof=1) / math.sqrt(n)
    assert abs(slopes.mean() - 10.0) < 3 * se, (slopes.mean(), se)
    report(6, "wedge mean growth rate", f"slope = {slopes.mean():.4f} +- {se:.4f} vs 10")


# ---------------------------------------------------------------------------
# 7. wider ambit cones raise the spatial correlation
# ---------------------------------------------------------------------------


def test_criterion_07_ambit_extension_effect():
    lag_cells = 50  # pi/10 at 1000 angles
    grid = GridSpec(TWO_PI / 1000, 1.0, 0.0, 80.0)

    def corr_at_lag(theta, seed):
        spec = example_preset("ex4", theta=theta).spec
        profs = simulate_replicates(spec, grid, seed, [80.0], 200)[:, 0, :]
        c = profs - profs.mean(axis=0)
        num = float(np.mean(c * np.roll(c, -lag_cells, axis=1)))
        den = float(np.mean(c * c))
        return num / den

    wins = 0
    for run in range(20):
        narrow = corr_at_lag(math.pi / 100, mix_seed(970, 2 * run))
        wide = corr_at_lag(math.pi / 5, mix_seed(970, 2 * run + 1))
        wins += wide > narrow
    assert wins >= 19, wins
    report(7, "ambit extension effect", f"{wins}/20 runs ordered correctly")


# ---------------------------------------------------------------------------
# 8. Gamma and inverse Gaussian runs match the Gaussian run's moments
# ---------------------------------------------------------------------------


def _direct_single_angle_samples(spec, grid, t, n, seed):
    """Field at one angle for n replicates, on the simulation mesh."""
    from levygrowth.moments import _sample_fields

    query = MomentQuery(spec.basis, spec.ambit, spec.weight, grid, ((t, grid.phi_mids[0]),))
    level = spec.drift(t)
    if spec.center_stochastic_mean:
        mu = np.broadcast_to(query.cell_mu()[:, None], query.kernels[0].shape)
        level -= spot_mean(spec.basis.spot) * float(np.sum(mu[query.kernels[0] != 0.0]))
    return level + _sample_fields(query, n, seed)[:, 0]


def test_criterion_08_moment_matched_bases():
    theta = math.pi / 5
    grid = GridSpec(TWO_PI / 1000, 1.0, 0.0, 80.0)
    gauss = example_preset("ex4", theta=theta).spec
    gamma = example_preset("ex5", theta=theta).spec
    # one inverse Gaussian basis serves all times: eta free, eta/gamma^3 = 1
    eta = 5.0
    gam = eta ** (1.0 / 3.0)
    ig_spec = GrowthModelSpec(
        kind="direct",
        drift=gauss.drift,
        weight=ConstantWeight(1.0),
        basis=BasisSpec(SpotLaw.inverse_gaussian(eta, gam), ControlMeasure.lebesgue()),
        ambit=gauss.ambit,
        center_stochastic_mean=True,
    )
    # the per-time matching formulas give the same spot parameters for any
    # window mass m once the target mean scales with m
    for m in (2.0, 5.0, 8.0):
        eta_m, gam_m = moment_match_ig(eta ** (2.0 / 3.0) * m, m, m)
        assert eta_m == pytest.approx(eta, rel=1e-12)
        assert gam_m == pytest.approx(gam, rel=1e-12)

    n = 10_000
    drift_at = {20.0: 16.0, 45.0: 24.0, 80.0: 32.0}
    worst = 0.0
    for i, t in enumerate((20.0, 45.0, 80.0)):
        base = _direct_single_angle_samples(gauss, grid, t, n, mix_seed(980, i))
        for j, spec in enumerate((gamma, ig_spec)):
            other = _direct_single_angle_samples(
                spec, grid, t, n, mix_seed(981 + j, i)
            )
            # means agree and match the drift level
            se = math.hypot(
                base.std(ddof=1) / math.sqrt(n), other.std(ddof=1) / math.sqrt(n)
            )
            dz = abs(other.mean() - base.mean()) / se
            worst = max(worst, dz)
            assert dz <= 3.0, (t, spec.basis.spot.kind, dz)
            assert abs(base.mean() - drift_at[t]) < 3 * base.std(ddof=1) / math.sqrt(n)
            # variances agree
            se_v = math.hypot(sample_var_se(base), sample_var_se(other))
            vz = abs(other.var(ddof=1) - base.var(ddof=1)) / se_v
            worst = max(worst, vz)
            assert vz <= 3.0, (t, spec.basis.spot.kind, vz)
    report(8, "moment-matched bases", f"max |z| = {worst:.2f} over 3 times x 2 bases")


# ---------------------------------------------------------------------------
# 9. coefficient processes: variances and cross-order covariances
# ---------------------------------------------------------------------------


def test_criterion_09_coefficient_structure():
    coeffs = [0.0, 0.3, 0.22, 0.18, 0.12, 0.1, 0.08]  # zero constant harmonic
    weight = FourierWeight.constant_coeffs(coeffs)
    T0 = 2.0
    spec = GrowthModelSpec(
        "direct",
        __import__("levygrowth.growth", fromlist=["Drift"]).Drift.zero(),
        weight,
        BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT)),
        FullAngle.of(T0),
    )
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
    t = 6.0
    n = 10_000
    profs = simulate_replicates(spec, grid, 990, [t], n)[:, 0, :]
    angles = grid.phi_mids
    ks = np.arange(0, 7)
    cosm = np.cos(np.multiply.outer(ks, angles))
    sinm = np.sin(np.multiply.outer(ks, angles))
    a = (2.0 / angles.size) * profs @ cosm.T  # (n, 7)
    b = (2.0 / angles.size) * profs @ sinm.T
    worst = 0.0
    for k in range(0, 7):
        tau = harmonic_cov(weight, UNIT, T0, t, t, k)
        for series in (a[:, k], b[:, k]):
            v = series.var(ddof=1)
            if tau == 0.0:
                assert v < 1e-20
                continue
            se = sample_var_se(series)
            z = (v - tau) / se
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0, (k, z)
    # cross-order checks at 10 random probes
    rng = np.random.default_rng(17)
    for _ in range(10):
        k, j = rng.choice(np.arange(1, 7), size=2, replace=False)
        chan_a = a[:, k] if rng.random() < 0.5 else b[:, k]
        chan_b = a[:, j] if rng.random() < 0.5 else b[:, j]
        prod = (chan_a - chan_a.mean()) * (chan_b - chan_b.mean())
        est = float(np.mean(prod))
        se = prod.std(ddof=1) / math.sqrt(n)
        z = est / se
        worst = max(worst, abs(z))
        assert abs(z) <= 3.0, (k, j, z)
    report(9, "coefficient covariance structure", f"max |z| = {worst:.2f}")


# ---------------------------------------------------------------------------
# 10. fitting round trips
# ---------------------------------------------------------------------------


def test_criterion_10a_moment_fit_round_trip():
    sigma2, theta = 1.0, math.pi / 5
    grid = GridSpec(TWO_PI / 400, 1.0, 0.0, 80.0)
    spec = example_preset("ex4", theta=theta).spec
    times = [20.0, 45.0, 80.0]
    model = rect_direct_cov_model(TimeFn.proportional(0.2), UNIT)
    errs_sigma, errs_theta = [], []
    for seed in range(20):
        profs = simulate_replicates(spec, grid, mix_seed(1000, seed), times, 500)
        ds = ProfileDataset(np.asarray(times), grid.phi_mids, profs)
        result = fit_moments(
            model,
            ds,
            {"sigma2": (0.2, 3.0), "theta": (0.05, 1.5)},
            seed=seed,
            n_starts=2,
            max_iter=300,
        )
        errs_sigma.append(abs(result.params["sigma2"] - sigma2) / sigma2)
        errs_theta.append(abs(result.params["theta"] - theta) / theta)
    med_s = float(np.median(errs_sigma))
    med_t = float(np.median(errs_theta))
    assert med_s <= 0.15, med_s
    assert med_t <= 0.15, med_t
    report(
        10, "moment-fit round trip", f"median rel err: sigma2 {med_s:.3f}, theta {med_t:.3f}"
    )


def test_criterion_10b_likelihood_scale_round_trip():
    coeffs = [0.0, 0.3, 0.24, 0.18, 0.14, 0.1, 0.08]
    weight = FourierWeight.constant_coeffs(coeffs)
    T0 = 2.0
    spec = GrowthModelSpec(
        "direct",
        __import__("levygrowth.growth", fromlist=["Drift"]).Drift.zero(),
        weight,
        BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT)),
        FullAngle.of(T0),
    )
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
    times = [4.0, 5.0, 6.0]
    orders = [1, 2, 3, 4, 5, 6]

    def tau_family(params):
        return lambda k, t1, t2: params["scale"] * harmonic_cov(
            weight, UNIT, T0, t1, t2, k
        )

    errs = []
    for seed in range(50):
        profs = simulate_replicates(spec, grid, mix_seed(1100, seed), times, 6)
        ds = ProfileDataset(np.asarray(times), grid.phi_mids, profs)
        result = fit_fourier_mle(
            ds, tau_family, {"scale": (0.05, 8.0)}, orders=orders, seed=seed, n_starts=2
        )
        errs.append(abs(result.params["scale"] - 1.0))
    med = float(np.median(errs))
    assert med <= 0.10, med
    report(10, "likelihood scale round trip", f"median rel err {med:.3f} over 50 seeds")


# ---------------------------------------------------------------------------
# 11. determinism, additivity, independence
# ---------------------------------------------------------------------------


def test_criterion_11_determinism_additivity_independence(tmp_path):
    # byte-identical reruns
    preset = example_preset("ex4")
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 80.0)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    simulate(preset.spec, grid, 4242, [20.0, 45.0]).to_csv(p1)
    simulate(preset.spec, grid, 4242, [20.0, 45.0]).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()

    # exact per-realization additivity over disjoint regions, all kinds
    small = GridSpec(TWO_PI / 16, 0.5, 0.0, 4.0)
    e, te = small.phi_edges, small.t_edges
    region_a = Rect(e[0], e[5], te[0], te[4])
    region_b = Rect(e[5], e[11], te[1], te[7])
    union = RegionUnion((region_a, region_b))
    for spot in (
        SpotLaw.gaussian(0.1, 1.0),
        SpotLaw.poisson(),
        SpotLaw.gamma_law(1.0, 1.0),
        SpotLaw.inverse_gaussian(1.0, 1.0),
    ):
        basis = BasisSpec(spot, ControlMeasure(UNIT))
        real = sample_realization(basis, small, 777)
        whole = integrate(1.0, union, real)
        parts = integrate(1.0, region_a, real) + integrate(1.0, region_b, real)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    # independence of disjoint increments: z-test on the correlation
    n = 4000
    pair_grid = GridSpec(TWO_PI, 1.0, 0.0, 2.0)
    for spot, seed in (
        (SpotLaw.gaussian(0.0, 1.0), 31),
        (SpotLaw.gamma_law(1.0, 1.0), 32),
        (SpotLaw.poisson(), 33),
    ):
        basis = BasisSpec(spot, ControlMeasure(UNIT))
        a = np.empty(n)
        b = np.empty(n)
        for r in range(n):
            real = sample_realization(basis, pair_grid, mix_seed(seed, r))
            a[r], b[r] = real.increments[0, 0], real.increments[1, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n), (spot.kind, corr)
    report(11, "determinism, additivity, independence")
