"""analysis: one operation is one round of analytic and fitting tasks.

``moments``, ``circle_cov``, ``quadrature``, ``fourier_radial`` and
``inference`` do the work; simulation is confined to set-up, which draws the
pools the fits sample from.  Every round draws fresh inputs from the seed, so
no round repeats another's work.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from common import round_rng, round_seed
from levygrowth import circle_cov, growth, inference, moments
from levygrowth.ambit import FullAngle, Rectangular
from levygrowth.circle_cov import CircleCovModel, FourierWeight, PthOrderParams
from levygrowth.growth import ConstantWeight, Drift, GrowthModelSpec, example_preset
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
    spot_mean,
    spot_variance,
)
from levygrowth.timefn import TimeFn

UNIT = TimeDensity.constant(1.0)
TWO_PI = 2.0 * math.pi

# moment fit (acceptance criterion 10a): ex4 with theta = pi/5 on 200 angles
RECT_THETA = math.pi / 5
RECT_GRID = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
RECT_TIMES = (20.0, 45.0, 80.0)
RECT_POOL, RECT_SAMPLE = 320, 240
# likelihood fit (criterion 10b): full-angle cosine-series model
FOURIER_COEFFS = (0.0, 0.3, 0.24, 0.18, 0.14, 0.1, 0.08)
FOURIER_T = 2.0
FOURIER_GRID = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
FOURIER_TIMES = (4.0, 5.0, 6.0)
FOURIER_POOL, FOURIER_SAMPLE = 300, 200
# round-trip tolerances of criteria 10a / 10b
RECT_REL_TOL, SCALE_TOL = 0.15, 0.10

MC_REPLICATES = 1000
MC_GRID = GridSpec(TWO_PI / 100, 0.25, 0.0, 8.0)
MC_LAG, MC_DENSITY = 2.0, 0.2
MC_SPOTS = (
    SpotLaw.gaussian(0.1, 1.0),
    SpotLaw.poisson(),
    SpotLaw.gamma_law(2.0, 4.0),
    SpotLaw.inverse_gaussian(2.0, 2.0),
)
MC_STATISTICS = ("mean", "var", "cov", "relative_second_moment", "mixed_exponential")

ORACLE_GRID, ORACLE_TERMS = 64, 8
# The oracle's quadrature-plus-DFT error at 64 angles stayed below 6e-4 over
# 30 random profiles drawn as in _oracle; the paper's constant term (16 in
# place of 8) misses by more than 0.5 because |gamma_1| >= 0.2.
ORACLE_TOL = 5e-3
PTH_K_MAX = 256


def fourier_spec():
    return GrowthModelSpec(
        "direct",
        Drift.zero(),
        FourierWeight.constant_coeffs(FOURIER_COEFFS),
        BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT)),
        FullAngle.of(FOURIER_T),
    )


class Workload:
    known_faults = frozenset()

    def __init__(self, seed, workdir):
        self.seed = seed
        rect = example_preset("ex4", theta=RECT_THETA).spec
        self.rect_pool = growth.simulate_replicates(
            rect, RECT_GRID, round_seed(seed, -1, 0), RECT_TIMES, RECT_POOL
        )
        self.fourier_pool = growth.simulate_replicates(
            fourier_spec(), FOURIER_GRID, round_seed(seed, -1, 1), FOURIER_TIMES, FOURIER_POOL
        )
        self.rect_model = inference.rect_direct_cov_model(TimeFn.proportional(0.2), UNIT)
        weight = FourierWeight.constant_coeffs(FOURIER_COEFFS)
        self.fourier_tau = lambda p: (
            lambda k, t1, t2: p["scale"] * circle_cov.harmonic_cov(weight, UNIT, FOURIER_T, t1, t2, k)
        )
        self._round(-1, warm_up=True)

    def ops(self, i):
        return [("round", lambda: self._round(i))]

    # -- one round -----------------------------------------------------------

    def _round(self, i, warm_up=False):
        rng = round_rng(self.seed, i)
        out = {}
        out["linear"] = self._linear(rng)
        out["mc"] = self._mc(rng, 50 if warm_up else MC_REPLICATES, i)
        out["tables"] = self._tables(rng, 8 if warm_up else PTH_K_MAX)
        out["oracle"] = self._oracle(rng, 4 if warm_up else ORACLE_GRID)
        if not warm_up:
            out["fits"] = self._fits(rng, i)
        return out

    def _linear(self, rng):
        theta = float(rng.uniform(0.03, 0.5))
        t1 = 5.0 * int(rng.integers(8, 16))
        t2 = t1 + 5.0 * int(rng.integers(0, 2))
        phi1 = float(rng.uniform(-math.pi, math.pi))
        phi2 = phi1 + float(rng.uniform(-2 * theta, 2 * theta))
        results = []
        for name in ("ex4", "ex5"):
            preset = example_preset(name, theta=theta)
            spec, grid = preset.spec, preset.grid
            one = moments.MomentQuery(spec.basis, spec.ambit, spec.weight, grid, ((t1, phi1),))
            two = moments.MomentQuery(
                spec.basis, spec.ambit, spec.weight, grid, ((t1, phi1), (t2, phi2))
            )
            results.append(
                {
                    "name": name,
                    "spot": spec.basis.spot,
                    "theta": theta,
                    "dphi": grid.dphi,
                    "points": ((t1, phi1), (t2, phi2)),
                    "mean": moments.mean_linear(one),
                    "var": moments.var_linear(one),
                    "cov": moments.cov_linear(two),
                }
            )
        return results

    def _mc(self, rng, n_replicates, i):
        theta = float(rng.uniform(0.3, 0.8))
        family = Rectangular.of(theta, TimeFn.constant(MC_LAG))
        f = float(rng.uniform(0.2, 0.4))
        t = float(rng.uniform(4.0, 7.5))
        phi = float(rng.uniform(-math.pi, math.pi))
        pair = ((t, phi), (t + float(rng.uniform(0.0, 0.5)), phi + float(rng.uniform(-theta, theta))))
        lambdas = tuple(float(x) for x in rng.uniform(0.3, 0.6, size=2))
        reports = []
        for k, spot in enumerate(MC_SPOTS):
            basis = BasisSpec(spot, ControlMeasure(TimeDensity.constant(MC_DENSITY)))
            for j, stat in enumerate(MC_STATISTICS):
                points = pair[:1] if stat in ("mean", "var") else pair
                q = moments.MomentQuery(
                    basis, family, ConstantWeight(f), MC_GRID, points, lambdas=lambdas if stat == "mixed_exponential" else None
                )
                rep = moments.mc_verify(q, stat, n_replicates, round_seed(self.seed, i, 10 + 5 * k + j))
                reports.append({"spot": spot, "stat": stat, "analytic": rep.analytic, "z": rep.z})
        return {"theta": theta, "f": f, "pair": pair, "lambdas": lambdas, "reports": reports}

    def _tables(self, rng, k_max):
        lag = float(rng.uniform(1.0, 3.0))
        t = float(rng.uniform(4.0, 8.0))
        pairs = [(t, t), (t, t + float(rng.uniform(0.0, lag)))]
        coeffs = rng.uniform(0.05, 0.4, size=int(rng.integers(4, 10)))
        cos_rows = CircleCovModel.from_weight(
            FourierWeight.constant_coeffs(coeffs), UNIT, lag
        ).table(pairs, list(np.linspace(0.0, math.pi, 9)))
        params = PthOrderParams(int(rng.integers(1, 3)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 1.0)))
        weight, _ = circle_cov.pth_order_weight(params, UNIT, lag, k_max=k_max)
        pth_rows = CircleCovModel.from_weight(weight, UNIT, lag).table(
            pairs, list(np.linspace(0.0, math.pi, 5))
        )
        return {"lag": lag, "coeffs": coeffs, "cos_rows": cos_rows, "params": params, "k_max": k_max, "pth_rows": pth_rows}

    def _oracle(self, rng, n_grid):
        gammas = np.empty(6)
        gammas[0] = rng.uniform(0.5, 1.0)
        gammas[1] = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.5)
        gammas[2:] = rng.uniform(-1.0, 1.0, size=4) * 0.3 / np.arange(2, 6) ** 2
        lam = circle_cov.boundary_overlap_oracle(gammas, n_grid=n_grid, n_terms=ORACLE_TERMS)
        return {"gammas": gammas, "lam": lam}

    def _fits(self, rng, i):
        idx = rng.choice(RECT_POOL, RECT_SAMPLE, replace=False)
        rect = inference.fit_moments(
            self.rect_model,
            inference.ProfileDataset(np.asarray(RECT_TIMES), RECT_GRID.phi_mids, self.rect_pool[idx]),
            {"sigma2": (0.2, 3.0), "theta": (0.05, 1.5)},
            seed=i,
        )
        idx = rng.choice(FOURIER_POOL, FOURIER_SAMPLE, replace=False)
        mle = inference.fit_fourier_mle(
            inference.ProfileDataset(
                np.asarray(FOURIER_TIMES), FOURIER_GRID.phi_mids, self.fourier_pool[idx]
            ),
            self.fourier_tau,
            {"scale": (0.05, 8.0)},
            orders=range(1, len(FOURIER_COEFFS)),
            seed=i,
        )
        return {"rect": rect.params, "scale": mle.params["scale"]}

    # -- checks ------------------------------------------------------------

    def check(self, i, outputs):
        if "round" not in outputs:
            return {}
        return {"round": check_round(outputs["round"])}


def check_round(out):
    problems = []
    for res in out["linear"]:
        problems += check_linear(res)
    problems += check_mc(out["mc"])
    problems += check_tables(out["tables"])
    problems += checks.overlap_coefficients(
        "oracle", out["oracle"]["lam"], out["oracle"]["gammas"], ORACLE_TOL
    )
    fits = out["fits"]
    problems += checks.relative("moment fit sigma2", fits["rect"]["sigma2"], 1.0, RECT_REL_TOL)
    problems += checks.relative("moment fit theta", fits["rect"]["theta"], RECT_THETA, RECT_REL_TOL)
    problems += checks.relative("likelihood fit scale", fits["scale"], 1.0, SCALE_TOL)
    return problems


def check_linear(res):
    """Mesh moments against the continuum ambit measure, to one angular cell.

    Windows are [0.8 t, t] with t a multiple of 5, so time rows are exact and
    only the angular edge cells can differ from the continuum.
    """
    (t1, phi1), (t2, phi2) = res["points"]
    theta, dphi = res["theta"], res["dphi"]
    mz, vz = spot_mean(res["spot"]), spot_variance(res["spot"])
    lag1 = 0.2 * t1
    d = abs((phi2 - phi1 + math.pi) % TWO_PI - math.pi)
    shared = max(0.0, min(t1, t2) - max(0.8 * t1, 0.8 * t2))
    name = res["name"]
    return (
        checks.close(f"{name} mean_linear", res["mean"], mz * 2 * theta * lag1, abs(mz) * dphi * lag1)
        + checks.close(f"{name} var_linear", res["var"], vz * 2 * theta * lag1, vz * dphi * lag1)
        + checks.close(
            f"{name} cov_linear", res["cov"], vz * max(0.0, 2 * theta - d) * shared, vz * dphi * shared
        )
    )


def kumulant(spot, x):
    """log E exp(x Z') of the spot law, in closed form."""
    if spot.kind == "gaussian":
        return spot.a_tilde * x + 0.5 * spot.b_tilde * x * x
    if spot.kind == "poisson":
        return math.expm1(x)
    if spot.kind == "gamma":
        return -spot.beta * math.log1p(-x / spot.alpha)
    return spot.eta * spot.gamma * (1.0 - math.sqrt(1.0 - 2.0 * x / spot.gamma**2))


def check_mc(mc):
    """Analytic values reported by mc_verify against mesh sums made here.

    Constant weight f over a cone of half-width theta and lag MC_LAG, cell
    measure dphi * dt * g: every moment is a count of member cells times a
    per-cell term.  Only the mean statistic's z is gated: the jackknife
    z-scores of var, cov and the exponential statistics have heavier tails
    than normal at 1000 replicates (see CHANGES.md), so a correct program
    would fail them on some seeds.
    """
    grid, theta, f = MC_GRID, mc["theta"], mc["f"]
    (t1, phi1), (t2, phi2) = mc["pair"]
    l1, l2 = mc["lambdas"]
    phis, mids = grid.phi_mids, grid.t_mids

    def member(t, phi):
        near = np.abs((phis - phi + math.pi) % TWO_PI - math.pi) <= theta
        rows = (mids >= t - MC_LAG) & (mids <= t)
        return rows[:, None] & near[None, :]

    m1, m2 = member(t1, phi1), member(t2, phi2)
    cell = grid.dphi * grid.dt * MC_DENSITY
    n1, n2, n12 = int(m1.sum()), int(m2.sum()), int((m1 & m2).sum())
    problems = []
    for rep in mc["reports"]:
        spot, stat = rep["spot"], rep["stat"]
        mz, vz = spot_mean(spot), spot_variance(spot)
        if stat == "mean":
            expected = mz * f * n1 * cell
            problems += checks.z_score(f"mc_verify {spot.kind} mean", rep["z"])
        elif stat == "var":
            expected = vz * f * f * n1 * cell
        elif stat == "cov":
            expected = vz * f * f * n12 * cell
        elif stat == "relative_second_moment":
            cbar = kumulant(spot, 2 * f) - 2 * kumulant(spot, f)
            expected = math.exp(cbar * n12 * cell)
        else:
            expected = math.exp(
                cell
                * (
                    (n1 - n12) * kumulant(spot, l1 * f)
                    + (n2 - n12) * kumulant(spot, l2 * f)
                    + n12 * kumulant(spot, (l1 + l2) * f)
                )
            )
        problems += checks.close(
            f"mc_verify {spot.kind} {stat} analytic", rep["analytic"], expected, 1e-9 * abs(expected)
        )
    return problems


def check_tables(tab):
    lag = tab["lag"]
    p = tab["params"]
    ks = np.arange(tab["k_max"] + 1, dtype=float)
    target = np.where(
        ks >= 2, 1.0 / (p.alpha + p.beta * (ks ** (2 * p.p) - 2.0 ** (2 * p.p))), 0.0
    )

    def pth(t1, t2, d):
        tau = target * checks.window_overlap(t1, t2, lag) / lag
        terms = tau * np.cos(ks * d)
        return float(terms.sum()), float(np.abs(terms).sum())

    cosine = checks.cosine_weight_cov(tab["coeffs"], lag)
    return checks.cov_rows("cosine table", tab["cos_rows"], cosine) + checks.cov_rows(
        "p-th order table", tab["pth_rows"], pth
    )
