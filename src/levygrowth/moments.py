"""Analytic moments of linear and exponential spot-field integrals, plus the
Monte Carlo cross-check harness.

Every analytic value is a sum over the cells of the simulation mesh, with
weights and ambit indicators at cell midpoints and exact cell measures, the
kernels :func:`levygrowth.ambit.mesh_kernel` builds for the simulator.
Cumulants of the Levy basis add over cells, so moments come from
:func:`levygrowth.levy_core.cumulant_sum` and exponential moments from
:func:`levygrowth.levy_core.log_laplace_sum`.  A query on a refined grid
(the CLI's ``--fine``) quantifies the discretization bias against the
continuum, ``constant_weight_cumulant`` of the ambit measure.

:func:`mc_verify` draws replicates on the same mesh, so a z-score tests only
the sampling; they are consecutive draws of one generator of the check's seed.
Its standard errors are the model's own, from the same cumulant sums, rather
than a resampling estimate (see the README's numerical conventions).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .ambit import AmbitFamily, as_weight, check_covered, mesh_kernel
from .levy_core import (
    BasisSpec,
    GridSpec,
    check_kumulant_domain,
    cumulant_sum,
    draw_cells,
    kumulant_array,
    log_laplace_sum,
)
from .rngtools import seeded_generator

_BLOCK_VALUES = 1 << 16  # cells mc_verify draws at once; bounds the temporaries


@dataclass(frozen=True)
class MomentQuery:
    """A model (basis, ambit, weight, drift) with evaluation points.

    ``points`` is a sequence of (t, phi); ``lambdas`` are the optional
    exponents of the mixed exponential moment.  ``drift(t, phi)`` is the
    deterministic mean offset of the linear field (zero when omitted).
    Raises :class:`~levygrowth.errors.RegionOutsideGrid` when the grid does
    not hold a point's ambit window.
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
        for t, _ in self.points:
            check_covered(self.ambit, self.basis.control, self.grid, t)

    def _drift_at(self, idx):
        if self.drift is None:
            return 0.0
        t, phi = self.points[idx]
        return float(self.drift(t, phi))

    @cached_property
    def kernels(self):
        """Mesh weights (ambit indicator times weight), one per point."""
        return tuple(
            mesh_kernel(self.ambit, self.weight, self.grid, t, phi) for t, phi in self.points
        )

    def cell_mu(self):
        """mu of one cell per time row."""
        return self.grid.cell_mu(self.basis.control)


def _cumulant(query, *idx):
    """Joint cumulant of the field at the query points ``idx`` (repeats allowed)."""
    kernels = [query.kernels[j] for j in idx]
    return cumulant_sum(query.basis.spot, query.cell_mu(), *kernels)


def _exp_moment(query, lambdas):
    """``E exp(sum_j lambdas[j] X_j)`` over the query points."""
    spot, mu = query.basis.spot, query.cell_mu()
    return math.exp(log_laplace_sum(spot, mu, lambdas, query.kernels))


def _single_point_cumulant(query, p, name):
    if len(query.points) != 1:
        raise ValueError(f"{name} expects exactly one evaluation point")
    return _cumulant(query, *(0,) * p)


def mean_linear(query: MomentQuery):
    """Mean of the linear field at the single query point (drift included)."""
    return query._drift_at(0) + _single_point_cumulant(query, 1, "mean_linear")


def var_linear(query: MomentQuery):
    """Variance of the linear field at the single query point."""
    return _single_point_cumulant(query, 2, "var_linear")


def cov_linear(query: MomentQuery):
    """Covariance of the linear field between the two query points."""
    if len(query.points) != 2:
        raise ValueError("cov_linear expects exactly two evaluation points")
    return _cumulant(query, 0, 1)


def mixed_exponential_moment(query: MomentQuery):
    """Mixed moment ``E prod_j exp(lambda_j X_j)`` of the exponential field.

    Exponent of the mesh sum of the log Laplace transform of the summed
    weighted indicators; the domain is checked on every cell.
    """
    if query.lambdas is None or len(query.lambdas) != len(query.points):
        raise ValueError("mixed moment needs one exponent per point")
    return _exp_moment(query, query.lambdas)


def relative_second_moment(query: MomentQuery):
    """Pair moment of the exponential field over its marginal means.

    Only cells inside both ambit sets contribute; for a constant weight this
    is ``exp(cbar * mu(intersection))`` with ``cbar`` from :func:`cbar`.
    """
    if len(query.points) != 2:
        raise ValueError("relative_second_moment expects two evaluation points")
    pair = _exp_moment(query, (1, 1))
    return pair / (_exp_moment(query, (1, 0)) * _exp_moment(query, (0, 1)))


def cbar(spot, f):
    """Log pair-moment rate for a constant weight: ``K(2f) - 2 K(f)``."""
    args = np.asarray([2.0 * f, f], dtype=float)
    check_kumulant_domain(spot, args)
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


# Points each statistic takes; None means any number, one exponent each.
STATISTICS = {
    "mean": 1,
    "var": 1,
    "cov": 2,
    "relative_second_moment": 2,
    "mixed_exponential": None,
}


def check_problem(statistic, points, lambdas):
    """``(key, message)`` naming what makes an :func:`mc_verify` check
    invalid (``key`` is ``statistic``, ``points`` or ``lambdas``), or None."""
    if statistic not in STATISTICS:
        return "statistic", f"unknown statistic {statistic!r}, one of {list(STATISTICS)}"
    wanted = STATISTICS[statistic]
    if wanted is not None and len(points) != wanted:
        return "points", f"{statistic} takes {wanted} point(s), got {len(points)}"
    if wanted is None and (lambdas is None or len(lambdas) != len(points)):
        return "lambdas", f"{statistic} needs one exponent per point"
    return None


def _sample_fields(query: MomentQuery, n_replicates, seed):
    """Field values at every query point for each replicate, shape (n, P).

    The replicates are consecutive draws of ``seeded_generator(seed)``;
    only cells supporting at least one point's weight are sampled.  A block
    of replicates draws its cells in one :func:`draw_cells` call; the values
    do not depend on the block size.
    """
    weights = query.kernels
    mask = np.zeros(weights[0].shape, dtype=bool)
    for w in weights:
        mask |= w != 0
    mu = np.broadcast_to(query.cell_mu()[:, None], mask.shape)[mask]
    if np.any(mu < 0):
        raise ValueError("cell measures must be nonnegative")
    wm = np.stack([w[mask] for w in weights], axis=1)  # (cells, P)
    block = max(1, _BLOCK_VALUES // max(1, mu.size))
    out = np.empty((n_replicates, len(weights)))
    rng = seeded_generator(seed)

    for start in range(0, n_replicates, block):
        m = min(block, n_replicates - start)
        # one product per replicate: a block-wide matmul's bits depend on m
        cells = draw_cells(query.basis.spot, rng, mu, (m, mu.size))
        out[start : start + m] = [row @ wm for row in cells]
        del cells  # freed before the next block is drawn, not after
    return out


def _analytic_and_variance(query, statistic, n):
    """The statistic's analytic value and its estimator's variance over ``n``
    replicates, both from the model's cumulant sums."""
    if statistic == "mean":
        return _cumulant(query, 0), _cumulant(query, 0, 0) / n
    if statistic == "var":
        var = var_linear(query)
        return var, _cumulant(query, 0, 0, 0, 0) / n + 2.0 * var * var / (n - 1)
    if statistic == "cov":
        cov = cov_linear(query)
        k22 = _cumulant(query, 0, 0, 1, 1)
        v1, v2 = _cumulant(query, 0, 0), _cumulant(query, 1, 1)
        return cov, k22 / n + (v1 * v2 + cov * cov) / (n - 1)
    if statistic == "mixed_exponential":
        m = mixed_exponential_moment(query)
        return m, (_exp_moment(query, [2.0 * lam for lam in query.lambdas]) - m * m) / n
    # delta method for mean(Y1 Y2) / (mean(Y1) mean(Y2)), Y_j = exp(X_j), over
    # the moments M(a, b) = E Y1^a Y2^b of the three sample means' terms
    M = {(a, b): _exp_moment(query, (a, b)) for a in range(3) for b in range(3)}
    terms = ((1, 1), (1, 0), (0, 1))
    cov = np.array(
        [[M[a + c, b + d] - M[a, b] * M[c, d] for c, d in terms] for a, b in terms]
    )
    ratio = relative_second_moment(query)
    grad = ratio * np.array([1.0 / M[1, 1], -1.0 / M[1, 0], -1.0 / M[0, 1]])
    return ratio, float(grad @ cov @ grad) / n


def _estimate(statistic, x, lambdas):
    if statistic == "mean":
        return float(x[:, 0].mean())
    if statistic == "var":
        return float(x[:, 0].var(ddof=1))
    if statistic == "cov":
        return float(np.cov(x[:, 0], x[:, 1])[0, 1])
    if statistic == "mixed_exponential":
        return float(np.exp(x @ np.asarray(lambdas, dtype=float)).mean())
    y1, y2 = np.exp(x[:, 0]), np.exp(x[:, 1])
    return float(np.mean(y1 * y2) / (y1.mean() * y2.mean()))


def mc_verify(query: MomentQuery, statistic, n_replicates, seed):
    """Monte Carlo estimate vs analytic value, with the model's standard error.

    ``statistic`` is a key of :data:`STATISTICS`.  The standard error is the
    estimator's exact or delta-method spread under the model, from the same
    cumulant sums as the analytic value; a needed exponential moment outside
    the kumulant domain raises :class:`~levygrowth.errors.KumulantDomainError`.
    The report carries the z-score; ``flagged`` marks ``|z| > 3``.
    """
    problem = check_problem(statistic, query.points, query.lambdas)
    if problem is not None:
        raise ValueError(problem[1])
    if n_replicates < 2:
        raise ValueError("mc_verify needs at least 2 replicates")
    n = n_replicates
    analytic, variance = _analytic_and_variance(query, statistic, n)
    se = math.sqrt(max(variance, 0.0))
    est = _estimate(statistic, _sample_fields(query, n, seed), query.lambdas)
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
