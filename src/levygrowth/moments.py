"""Analytic moments of linear and exponential spot-field integrals, plus the
Monte Carlo cross-check harness.

All analytic values are evaluated on the simulation mesh by default: weights
and ambit indicators at cell midpoints, exact cell measures.  Monte Carlo
replicates use the same mesh, so analytic/empirical comparisons share the
discretization and z-scores test only the sampling.  A ``fine`` mode
re-evaluates on a refined mesh to quantify the discretization bias, and an
``angle_exact`` path integrates the angular direction in closed form for
angle-independent weights (for comparisons against continuum formulas).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ambit import AmbitFamily, as_weight, mesh_kernel
from .errors import KumulantDomainError
from .levy_core import (
    BasisSpec,
    GridSpec,
    _sample_increments,
    kumulant_array,
    kumulant_domain_sup,
    spot_mean,
    spot_variance,
)
from .rngtools import replicate_rng


@dataclass(frozen=True)
class MomentQuery:
    """A model (basis, ambit, weight, drift) with evaluation points.

    ``points`` is a sequence of (t, phi); ``lambdas`` are the optional
    exponents of the mixed exponential moment.  ``drift(t, phi)`` is the
    deterministic mean offset of the linear field (zero when omitted).
    """

    basis: BasisSpec
    ambit: AmbitFamily
    weight: object  # coerced by ambit.as_weight
    grid: GridSpec
    points: tuple
    lambdas: Optional[tuple] = None
    drift: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "weight", as_weight(self.weight))

    def with_grid(self, grid):
        return MomentQuery(
            self.basis, self.ambit, self.weight, grid, self.points, self.lambdas, self.drift
        )

    def fine(self, factor=4):
        """Same query on a mesh refined by ``factor`` in both axes."""
        return self.with_grid(self.grid.refined(factor, factor))

    def _drift_at(self, idx):
        if self.drift is None:
            return 0.0
        t, phi = self.points[idx]
        return float(self.drift(t, phi))

    def weight_matrix(self, idx):
        """Mesh weights (ambit indicator times weight) for one point."""
        t, phi = self.points[idx]
        return mesh_kernel(self.ambit, self.weight, self.grid, t, phi)

    def cell_mu(self):
        return np.broadcast_to(
            self.grid.cell_mu(self.basis.control)[:, None],
            (self.grid.n_t, self.grid.n_phi),
        )


def mean_linear(query: MomentQuery, *, angle_exact=False):
    """Mean of the linear field at the single query point (drift included)."""
    if len(query.points) != 1:
        raise ValueError("mean_linear expects exactly one evaluation point")
    mz = spot_mean(query.basis.spot)
    if angle_exact:
        t, _ = query.points[0]
        f = _constant_weight_value(query.weight)
        return query._drift_at(0) + f * mz * query.ambit.measure(t, query.basis.control)
    w = query.weight_matrix(0)
    return query._drift_at(0) + float(np.sum(w * query.cell_mu())) * mz


def var_linear(query: MomentQuery, *, angle_exact=False):
    """Variance of the linear field at the single query point."""
    if len(query.points) != 1:
        raise ValueError("var_linear expects exactly one evaluation point")
    vz = spot_variance(query.basis.spot)
    if angle_exact:
        t, _ = query.points[0]
        f = _constant_weight_value(query.weight)
        return f * f * vz * query.ambit.measure(t, query.basis.control)
    w = query.weight_matrix(0)
    return float(np.sum(w * w * query.cell_mu())) * vz


def cov_linear(query: MomentQuery):
    """Covariance of the linear field between the two query points."""
    if len(query.points) != 2:
        raise ValueError("cov_linear expects exactly two evaluation points")
    vz = spot_variance(query.basis.spot)
    w1 = query.weight_matrix(0)
    w2 = query.weight_matrix(1)
    return float(np.sum(w1 * w2 * query.cell_mu())) * vz


def _constant_weight_value(weight):
    const = getattr(weight, "constant_value", None)
    if const is None:
        raise ValueError("angle-exact mode supports constant weights only")
    return float(const)


def _check_kumulant_domain(spot, args):
    sup = kumulant_domain_sup(spot)
    m = float(np.max(args)) if np.size(args) else 0.0
    if m >= sup:
        raise KumulantDomainError(
            f"summed weight reaches {m}, at or beyond the {spot.kind} domain bound {sup}"
        )


def mixed_exponential_moment(query: MomentQuery):
    """Mixed moment ``E prod_j exp(lambda_j X_j)`` of the exponential field.

    Exponent of the mesh integral of the log Laplace transform of the summed
    weighted indicators; the domain is checked pointwise on the mesh.
    """
    if query.lambdas is None or len(query.lambdas) != len(query.points):
        raise ValueError("mixed moment needs one exponent per point")
    total = np.zeros((query.grid.n_t, query.grid.n_phi))
    for j, lam in enumerate(query.lambdas):
        total += float(lam) * query.weight_matrix(j)
    _check_kumulant_domain(query.basis.spot, total)
    mu = query.cell_mu()
    return float(np.exp(np.sum(kumulant_array(query.basis.spot, total) * mu)))


def relative_second_moment(query: MomentQuery):
    """Pair moment of the exponential field over its marginal means.

    Only cells inside both ambit sets contribute; for a constant weight this
    is ``exp(cbar * mu(intersection))`` with ``cbar`` from :func:`cbar`.
    """
    if len(query.points) != 2:
        raise ValueError("relative_second_moment expects two evaluation points")
    spot = query.basis.spot
    w1 = query.weight_matrix(0)
    w2 = query.weight_matrix(1)
    _check_kumulant_domain(spot, w1 + w2)
    mu = query.cell_mu()
    const = getattr(query.weight, "constant_value", None)
    if const is not None:
        both = (w1 != 0) & (w2 != 0)
        mu_cap = float(np.sum(mu[both]))
        return math.exp(cbar(spot, const) * mu_cap)
    gk = (
        kumulant_array(spot, w1 + w2)
        - kumulant_array(spot, w1)
        - kumulant_array(spot, w2)
    )
    return float(np.exp(np.sum(gk * mu)))


def cbar(spot, f):
    """Log pair-moment rate for a constant weight: ``K(2f) - 2 K(f)``."""
    args = np.asarray([2.0 * f, f], dtype=float)
    _check_kumulant_domain(spot, args)
    k2, k1 = kumulant_array(spot, args)
    return float(k2 - 2.0 * k1)


# ---------------------------------------------------------------------------
# Monte Carlo verification
# ---------------------------------------------------------------------------


@dataclass
class MCReport:
    statistic: str
    analytic: float
    estimate: float
    se: float
    z: float
    n_replicates: int
    seed: int
    description: dict = field(default_factory=dict)

    @property
    def flagged(self):
        return abs(self.z) > 3.0

    def to_json(self):
        return json.dumps(
            {
                "statistic": self.statistic,
                "analytic": self.analytic,
                "mc": self.estimate,
                "se": self.se,
                "z": self.z,
                "n_replicates": self.n_replicates,
                "seed": self.seed,
                "flagged": self.flagged,
                "description": self.description,
            }
        )


def _jackknife_se(loo_values):
    loo = np.asarray(loo_values, dtype=float)
    n = loo.size
    return math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))


def _sample_fields(query: MomentQuery, n_replicates, seed, threads=1):
    """Field values at every query point for each replicate, shape (n, P).

    Replicate ``r`` draws from the derived stream ``mix(seed, r)``; only
    cells supporting at least one point's weight are sampled.
    """
    weights = [query.weight_matrix(j) for j in range(len(query.points))]
    mask = np.zeros(weights[0].shape, dtype=bool)
    for w in weights:
        mask |= w != 0
    mu = query.cell_mu()[mask]
    wm = np.stack([w[mask] for w in weights], axis=1)  # (cells, P)
    spot = query.basis.spot

    def run(r):
        draws = _sample_increments(spot, mu, replicate_rng(seed, r))
        return draws @ wm

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, range(n_replicates)))
    else:
        rows = [run(r) for r in range(n_replicates)]
    return np.asarray(rows)


def mc_verify(
    query: MomentQuery, statistic, n_replicates, seed, *, threads=1, angle_exact=False
):
    """Monte Carlo estimate vs analytic value, with jackknife standard error.

    ``statistic`` is one of ``mean``, ``var``, ``cov``,
    ``relative_second_moment``, ``mixed_exponential``.  The report carries
    the z-score; ``flagged`` marks ``|z| > 3``.
    """
    x = _sample_fields(query, n_replicates, seed, threads)
    n = n_replicates
    if statistic == "mean":
        analytic = mean_linear(query, angle_exact=angle_exact) - query._drift_at(0)
        est = float(x[:, 0].mean())
        se = float(x[:, 0].std(ddof=1)) / math.sqrt(n)
    elif statistic == "var":
        analytic = var_linear(query, angle_exact=angle_exact)
        v = x[:, 0]
        est = float(v.var(ddof=1))
        loo = _loo_var(v)
        se = _jackknife_se(loo)
    elif statistic == "cov":
        analytic = cov_linear(query)
        est, loo = _cov_and_loo(x[:, 0], x[:, 1])
        se = _jackknife_se(loo)
    elif statistic == "relative_second_moment":
        analytic = relative_second_moment(query)
        y1 = np.exp(x[:, 0])
        y2 = np.exp(x[:, 1])
        est, loo = _ratio_and_loo(y1, y2)
        se = _jackknife_se(loo)
    elif statistic == "mixed_exponential":
        analytic = mixed_exponential_moment(query)
        lam = np.asarray(query.lambdas, dtype=float)
        prod = np.exp(x @ lam)
        est = float(prod.mean())
        se = float(prod.std(ddof=1)) / math.sqrt(n)
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    z = (est - analytic) / se if se > 0 else 0.0 if est == analytic else math.inf
    return MCReport(
        statistic=statistic,
        analytic=float(analytic),
        estimate=est,
        se=se,
        z=float(z),
        n_replicates=n,
        seed=seed,
        description={
            "basis": query.basis.spot.kind,
            "points": [list(map(float, p)) for p in query.points],
        },
    )


def _loo_var(v):
    n = v.size
    s = v.sum()
    q = float(np.sum(v * v))
    m_loo = (s - v) / (n - 1)
    return (q - v * v - (n - 1) * m_loo**2) / (n - 2)


def _cov_and_loo(a, b):
    n = a.size
    sa, sb, sab = a.sum(), b.sum(), float(np.sum(a * b))
    est = (sab - sa * sb / n) / (n - 1)
    ma = (sa - a) / (n - 1)
    mb = (sb - b) / (n - 1)
    loo = (sab - a * b - (n - 1) * ma * mb) / (n - 2)
    return float(est), loo


def _ratio_and_loo(y1, y2):
    n = y1.size
    s1, s2, s12 = y1.sum(), y2.sum(), float(np.sum(y1 * y2))
    est = (s12 / n) / ((s1 / n) * (s2 / n))
    loo = ((s12 - y1 * y2) / (n - 1)) / (
        ((s1 - y1) / (n - 1)) * ((s2 - y2) / (n - 1))
    )
    return float(est), loo
