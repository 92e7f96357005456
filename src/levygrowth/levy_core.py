"""Levy bases on the cylinder [-pi, pi) x R: spot laws, control measures,
grid-discretized sampling, and stochastic integration against realizations.

A basis is specified by a spot law (the infinitesimal marginal, one of
Gaussian / Poisson / Gamma / inverse Gaussian) and a control measure
``mu(d-theta ds) = g(s) ds d-theta``.  Increments over disjoint sets are
independent, and the increment over a set ``A`` follows the kind's exact
closed-form marginal with parameter ``mu(A)``:

* Gaussian:           ``N(a*mu(A), b*mu(A))``
* Poisson:            ``Po(mu(A))`` (plus the underlying point pattern)
* Gamma:              ``Gamma(beta*mu(A), alpha)`` (rate parameterization)
* inverse Gaussian:   ``IG(eta*mu(A), gamma)``

Sampling draws each grid cell directly from that marginal, so realizations
are exact in distribution on the cell algebra; no series truncation is
involved.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cyclic import TWO_PI
from .errors import (
    DomainError,
    KumulantDomainError,
    RegionOutsideGrid,
    UnboundedRegion,
)
from .rngtools import mix_seed

_POINTS_STREAM = 0x706F696E  # sub-stream tag for Poisson point placement


# ---------------------------------------------------------------------------
# time densities g(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeDensity:
    """Nonnegative time density ``g`` with an exact antiderivative.

    Supported shapes: constant ``c``, linear ``a*s``, exponential
    ``a*exp(-b*s)``, power ``a*s**alpha`` and tabulated (piecewise linear).
    The density is supported on ``s >= support_lo`` (default 0) and treated
    as zero below.
    """

    kind: str
    params: tuple = ()
    support_lo: float = 0.0
    table: Optional[tuple] = None  # (nodes, values) for the tabulated kind

    @staticmethod
    def constant(c, support_lo=0.0):
        if c < 0:
            raise ValueError("constant density must be nonnegative")
        return TimeDensity("constant", (float(c),), support_lo)

    @staticmethod
    def linear(a):
        if a < 0:
            raise ValueError("linear density slope must be nonnegative")
        return TimeDensity("linear", (float(a),), 0.0)

    @staticmethod
    def exponential(a, b):
        if a < 0:
            raise ValueError("exponential density amplitude must be nonnegative")
        return TimeDensity("exponential", (float(a), float(b)), 0.0)

    @staticmethod
    def power(a, alpha):
        if a < 0 or alpha < 0:
            raise ValueError("power density requires a >= 0 and alpha >= 0")
        return TimeDensity("power", (float(a), float(alpha)), 0.0)

    @staticmethod
    def tabulated(nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise ValueError("tabulated density needs >= 2 strictly increasing nodes")
        if np.any(values < 0):
            raise ValueError("tabulated density must be nonnegative")
        return TimeDensity(
            "tabulated", (), float(nodes[0]), (tuple(nodes), tuple(values))
        )

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            out = np.full_like(s, self.params[0])
        elif self.kind == "linear":
            out = self.params[0] * s
        elif self.kind == "exponential":
            a, b = self.params
            out = a * np.exp(-b * s)
        elif self.kind == "power":
            a, alpha = self.params
            out = a * np.power(np.maximum(s, 0.0), alpha)
        else:
            nodes, values = self.table
            out = np.interp(s, nodes, values, left=0.0, right=0.0)
        return np.where(s >= self.support_lo, out, 0.0)

    def _antideriv(self, s):
        """Antiderivative of the unclipped shape (used only inside support)."""
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return self.params[0] * s
        if self.kind == "linear":
            return 0.5 * self.params[0] * s * s
        if self.kind == "exponential":
            a, b = self.params
            if b == 0.0:
                return a * s
            return -(a / b) * np.exp(-b * s)
        if self.kind == "power":
            a, alpha = self.params
            return a * np.power(np.maximum(s, 0.0), alpha + 1.0) / (alpha + 1.0)
        nodes, values = (np.asarray(v) for v in self.table)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes)))
        )
        sc = np.clip(s, nodes[0], nodes[-1])
        idx = np.clip(np.searchsorted(nodes, sc, side="right") - 1, 0, len(nodes) - 2)
        ds = sc - nodes[idx]
        slope = (values[idx + 1] - values[idx]) / (nodes[idx + 1] - nodes[idx])
        return cum[idx] + values[idx] * ds + 0.5 * slope * ds * ds

    def integral(self, a, b):
        """Exact ``int_a^b g(s) ds`` (clipped to the support)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise UnboundedRegion("time bounds must be finite")
        lo = np.maximum(a, self.support_lo)
        hi = np.maximum(b, self.support_lo)
        hi = np.maximum(hi, lo)
        return self._antideriv(hi) - self._antideriv(lo)

    def max_on(self, a, b):
        """Upper bound for g on [a, b] (supported kinds are monotone)."""
        cands = [float(np.max(self(np.asarray([a, b]))))]
        if self.kind == "tabulated":
            nodes, values = (np.asarray(v) for v in self.table)
            inside = (nodes >= a) & (nodes <= b)
            if np.any(inside):
                cands.append(float(values[inside].max()))
        return max(cands)

    def scaled(self, factor):
        """Pointwise scaling ``factor * g`` (same antiderivative machinery)."""
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.kind == "tabulated":
            nodes, values = (np.asarray(v) for v in self.table)
            return TimeDensity.tabulated(nodes, factor * values)
        if self.kind == "constant":
            return TimeDensity.constant(factor * self.params[0], self.support_lo)
        if self.kind == "linear":
            return TimeDensity.linear(factor * self.params[0])
        if self.kind == "exponential":
            a, b = self.params
            return TimeDensity.exponential(factor * a, b)
        a, alpha = self.params
        return TimeDensity.power(factor * a, alpha)

    def describe(self):
        if self.kind == "tabulated":
            return {"kind": "tabulated", "nodes": self.table[0], "values": self.table[1]}
        return {"kind": self.kind, "params": self.params, "support_lo": self.support_lo}


@dataclass(frozen=True)
class ControlMeasure:
    """Control measure ``mu(d-theta ds) = g(s) ds d-theta`` on the cylinder."""

    g: TimeDensity

    @staticmethod
    def lebesgue():
        return ControlMeasure(TimeDensity.constant(1.0))

    def describe(self):
        return {"g": self.g.describe()}


# ---------------------------------------------------------------------------
# spot laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpotLaw:
    """Marginal law of the basis per unit control measure.

    Parameter fields are kind-specific; unused ones stay at 0.  All jump-kind
    parameters must be strictly positive, the Gaussian variance density
    nonnegative.
    """

    kind: str
    a_tilde: float = 0.0  # Gaussian drift density
    b_tilde: float = 0.0  # Gaussian variance density
    beta: float = 0.0  # Gamma shape density
    alpha: float = 0.0  # Gamma rate
    eta: float = 0.0  # inverse Gaussian shape density
    gamma: float = 0.0  # inverse Gaussian rate-like parameter

    def __post_init__(self):
        if self.kind not in ("gaussian", "poisson", "gamma", "inverse_gaussian"):
            raise ValueError(f"unknown spot law kind {self.kind!r}")
        if self.kind == "gaussian" and self.b_tilde < 0:
            raise ValueError("gaussian variance density must be >= 0")
        if self.kind == "gamma" and (self.beta <= 0 or self.alpha <= 0):
            raise ValueError("gamma spot law needs beta > 0 and alpha > 0")
        if self.kind == "inverse_gaussian" and (self.eta <= 0 or self.gamma <= 0):
            raise ValueError("inverse gaussian spot law needs eta > 0 and gamma > 0")

    @staticmethod
    def gaussian(a=0.0, b=1.0):
        return SpotLaw("gaussian", a_tilde=float(a), b_tilde=float(b))

    @staticmethod
    def poisson():
        return SpotLaw("poisson")

    @staticmethod
    def gamma_law(beta, alpha):
        return SpotLaw("gamma", beta=float(beta), alpha=float(alpha))

    @staticmethod
    def inverse_gaussian(eta, gamma):
        return SpotLaw("inverse_gaussian", eta=float(eta), gamma=float(gamma))

    def describe(self):
        d = {"kind": self.kind}
        if self.kind == "gaussian":
            d.update(a=self.a_tilde, b=self.b_tilde)
        elif self.kind == "gamma":
            d.update(beta=self.beta, alpha=self.alpha)
        elif self.kind == "inverse_gaussian":
            d.update(eta=self.eta, gamma=self.gamma)
        return d


def cumulant(spot: SpotLaw, lam):
    """Log characteristic function of the spot variable at frequency ``lam``."""
    lam = complex(lam)
    if spot.kind == "poisson":
        return np.exp(1j * lam) - 1.0
    if spot.kind == "gaussian":
        return 1j * lam * spot.a_tilde - 0.5 * lam * lam * spot.b_tilde
    if spot.kind == "gamma":
        return -spot.beta * np.log(1.0 - 1j * lam / spot.alpha)
    return spot.eta * spot.gamma * (1.0 - np.sqrt(1.0 - 2j * lam / spot.gamma**2))


def kumulant_domain_sup(spot: SpotLaw):
    """Supremum of the finite domain of the log Laplace transform."""
    if spot.kind == "gamma":
        return spot.alpha
    if spot.kind == "inverse_gaussian":
        return 0.5 * spot.gamma**2
    return math.inf


def kumulant(spot: SpotLaw, theta):
    """Log Laplace transform ``log E exp(theta * Z')``.

    Raises :class:`DomainError` outside the finite domain (``theta < alpha``
    for Gamma, ``theta < gamma**2 / 2`` for inverse Gaussian).
    """
    theta = float(theta)
    if theta >= kumulant_domain_sup(spot):
        raise DomainError(
            f"kumulant argument {theta} outside domain of {spot.kind} spot law"
        )
    return float(kumulant_array(spot, np.asarray(theta)))


def kumulant_array(spot: SpotLaw, theta):
    """Vectorized kumulant; caller is responsible for the domain check."""
    theta = np.asarray(theta, dtype=float)
    if spot.kind == "poisson":
        return np.expm1(theta)
    if spot.kind == "gaussian":
        return theta * spot.a_tilde + 0.5 * theta * theta * spot.b_tilde
    if spot.kind == "gamma":
        return -spot.beta * np.log1p(-theta / spot.alpha)
    return spot.eta * spot.gamma * (1.0 - np.sqrt(1.0 - 2.0 * theta / spot.gamma**2))


def spot_cumulant(spot: SpotLaw, p):
    """``p``-th cumulant of the spot variable, the ``p``-th derivative of its
    kumulant at 0."""
    if spot.kind == "poisson":
        return 1.0
    if spot.kind == "gaussian":
        return (spot.a_tilde, spot.b_tilde)[p - 1] if p <= 2 else 0.0
    if spot.kind == "gamma":
        return spot.beta * math.factorial(p - 1) / spot.alpha**p
    return spot.eta * math.prod(range(2 * p - 3, 0, -2)) / spot.gamma ** (2 * p - 1)


def spot_mean(spot: SpotLaw):
    return spot_cumulant(spot, 1)


def spot_variance(spot: SpotLaw):
    return spot_cumulant(spot, 2)


def check_kumulant_domain(spot: SpotLaw, args):
    """Raise :class:`KumulantDomainError` when a kumulant argument reaches the
    end of the spot law's finite domain (an exponential moment diverges)."""
    sup = kumulant_domain_sup(spot)
    m = float(np.max(args)) if np.size(args) else 0.0
    if m >= sup:
        raise KumulantDomainError(
            f"weights reach {m}, at or beyond the {spot.kind} kumulant bound {sup}; "
            "exponential moments diverge"
        )


def cumulant_sum(spot: SpotLaw, mu_rows, *kernels):
    """Joint cumulant of the integrals ``int K_i dL``, one per kernel.

    Cumulants of an independently scattered basis add over cells, so with
    ``p = len(kernels)`` this is ``kappa_p(spot) * sum_l (sum_j prod_i
    K_i[l, j]) * mu_l``: the mean for one kernel, the variance for ``(K, K)``,
    a covariance for ``(K1, K2)``.  Kernels have shape (n_t, n_phi) and
    ``mu_rows`` is the measure of one cell per time row; rows are summed
    first (the centring of simulated radii depends on that order).
    """
    prod = kernels[0]
    for kernel in kernels[1:]:
        prod = prod * kernel
    return spot_cumulant(spot, len(kernels)) * float(np.sum(prod.sum(axis=1) * mu_rows))


def constant_weight_cumulant(spot: SpotLaw, c, integral, p):
    """``c**p * kappa_p(spot) * integral``: the ``p``-th cumulant of the basis
    integral of ``c * k`` where ``int k**p dmu = integral``; for the indicator
    of a set that is ``mu`` of the set, for every ``p``."""
    return c**p * spot_cumulant(spot, p) * integral


def log_laplace_sum(spot: SpotLaw, mu_rows, lambdas, kernels):
    """``log E exp(sum_i lambda_i int K_i dL) = sum kumulant(sum_i lambda_i
    K_i) * mu`` over the cells; raises :class:`KumulantDomainError` where the
    summed kernel leaves the kumulant's domain."""
    total = sum(float(lam) * kernel for lam, kernel in zip(lambdas, kernels))
    check_kumulant_domain(spot, total)
    return float(np.sum(kumulant_array(spot, total).sum(axis=1) * mu_rows))


@dataclass(frozen=True)
class BasisSpec:
    """A spot law plus a control measure.

    All supported configurations are factorizable: the spot parameters do
    not vary over the cylinder.
    """

    spot: SpotLaw
    control: ControlMeasure

    def variance_density(self):
        """Time density of ``Var(Z') mu(d-xi)``, i.e. ``Var(Z') * g``."""
        return self.control.g.scaled(spot_variance(self.spot))

    def describe(self):
        return {"spot": self.spot.describe(), "control": self.control.describe()}


# ---------------------------------------------------------------------------
# grids and realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid on [-pi, pi) x [t_min, t_max].

    ``2*pi / dphi`` and ``(t_max - t_min) / dt`` must be integers so the
    cells partition the window exactly.
    """

    dphi: float
    dt: float
    t_min: float
    t_max: float
    n_phi: int = field(init=False)
    n_t: int = field(init=False)

    def __post_init__(self):
        n_phi = round(TWO_PI / self.dphi)
        if n_phi < 1 or abs(n_phi * self.dphi - TWO_PI) > 1e-9:
            raise ValueError("dphi must divide 2*pi")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        span = self.t_max - self.t_min
        n_t = round(span / self.dt)
        if n_t < 1 or abs(n_t * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("dt must divide the time window")
        object.__setattr__(self, "n_phi", n_phi)
        object.__setattr__(self, "n_t", n_t)

    @property
    def phi_edges(self):
        return -np.pi + self.dphi * np.arange(self.n_phi + 1)

    @property
    def phi_mids(self):
        return -np.pi + self.dphi * (np.arange(self.n_phi) + 0.5)

    @property
    def t_edges(self):
        return self.t_min + self.dt * np.arange(self.n_t + 1)

    @property
    def t_mids(self):
        return self.t_min + self.dt * (np.arange(self.n_t) + 0.5)

    def cell_time_integrals(self, control: ControlMeasure):
        """``int g`` over each time row, shape (n_t,)."""
        edges = self.t_edges
        return control.g.integral(edges[:-1], edges[1:])

    def cell_mu(self, control: ControlMeasure):
        """mu of one cell per time row (same for every angle), shape (n_t,)."""
        return self.dphi * self.cell_time_integrals(control)

    def refined(self, angle_factor=1, time_factor=1):
        return GridSpec(
            self.dphi / angle_factor, self.dt / time_factor, self.t_min, self.t_max
        )

    def covers(self, t_lo, t_hi, tol=1e-9):
        return t_lo >= self.t_min - tol and t_hi <= self.t_max + tol

    def describe(self):
        return {
            "dphi": self.dphi,
            "dt": self.dt,
            "t_min": self.t_min,
            "t_max": self.t_max,
        }


def config_hash(*parts):
    """Stable short hash of ``describe()`` dictionaries, for provenance."""
    text = repr([p.describe() if hasattr(p, "describe") else p for p in parts])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PointPattern:
    """Poisson support points, one row per point, located inside their cells."""

    theta: np.ndarray
    s: np.ndarray
    row: np.ndarray  # time-cell index
    col: np.ndarray  # angle-cell index


@dataclass
class BasisRealization:
    """Cell increments of one basis draw on a grid.

    ``increments`` has shape (n_t, n_phi), time-major.  For the Poisson kind
    the underlying point pattern is materialized lazily and deterministically
    from a sub-stream of the realization seed; per cell, the number of points
    equals the cell increment.
    """

    spec: BasisSpec
    grid: GridSpec
    seed: int
    increments: np.ndarray
    _points: Optional[PointPattern] = None

    @property
    def kind(self):
        return self.spec.spot.kind

    def total(self):
        return float(self.increments.sum())

    def points(self) -> PointPattern:
        if self.kind != "poisson":
            raise ValueError("point pattern only exists for the Poisson kind")
        if self._points is None:
            self._points = _place_points(
                self.spec, self.grid, self.increments, mix_seed(self.seed, _POINTS_STREAM)
            )
        return self._points

    def to_csv(self, path):
        """Debug export: one row per cell (theta_lo, theta_hi, t_lo, t_hi, increment)."""
        grid = self.grid
        pe, te = grid.phi_edges, grid.t_edges
        with open(path, "w") as fh:
            fh.write(
                f"# levygrowth realization seed={self.seed} "
                f"config={config_hash(self.spec, self.grid)}\n"
            )
            fh.write("theta_lo,theta_hi,t_lo,t_hi,increment\n")
            for l in range(grid.n_t):
                for j in range(grid.n_phi):
                    fh.write(
                        f"{float(pe[j])!r},{float(pe[j + 1])!r},{float(te[l])!r},"
                        f"{float(te[l + 1])!r},{float(self.increments[l, j])!r}\n"
                    )


def _sample_increments(spot: SpotLaw, mu, rng):
    """Draw independent increments with per-cell measures ``mu`` (any shape)."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValueError("cell measures must be nonnegative")
    if spot.kind == "gaussian":
        return spot.a_tilde * mu + np.sqrt(spot.b_tilde * mu) * rng.standard_normal(
            mu.shape
        )
    if spot.kind == "poisson":
        return rng.poisson(mu).astype(float)
    if spot.kind == "gamma":
        return rng.gamma(shape=spot.beta * mu, scale=1.0 / spot.alpha)
    return _sample_ig(spot.eta * mu, spot.gamma, rng)


def _sample_ig(delta, gamma, rng):
    """Inverse Gaussian draws via the transformation-with-rejection method.

    One chi-square (squared normal) and one uniform per draw; the smaller
    root of the transformed quadratic is chosen with the usual probability.
    Cells with ``delta == 0`` return exactly 0.
    """
    delta = np.asarray(delta, dtype=float)
    out = np.zeros(delta.shape)
    mask = delta > 0
    if not np.any(mask):
        return out
    d = delta[mask]
    m = d / gamma  # mean
    lam = d * d  # shape
    y = rng.standard_normal(d.shape) ** 2
    x = m + (m * m * y) / (2.0 * lam) - (m / (2.0 * lam)) * np.sqrt(
        4.0 * m * lam * y + (m * y) ** 2
    )
    u = rng.uniform(size=d.shape)
    pick_other = u > m / (m + x)
    x[pick_other] = (m[pick_other] ** 2) / x[pick_other]
    out[mask] = x
    return out


def sample_realization(spec: BasisSpec, grid: GridSpec, seed: int) -> BasisRealization:
    """Sample one basis realization on the grid; deterministic in the seed."""
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    mu_rows = grid.cell_mu(spec.control)
    mu = np.broadcast_to(mu_rows[:, None], (grid.n_t, grid.n_phi))
    increments = _sample_increments(spec.spot, mu, rng)
    return BasisRealization(spec, grid, int(seed), increments)


def _place_points(spec, grid, counts, seed):
    """Locate Poisson points inside their cells; rejection against g in time."""
    rng = np.random.default_rng(seed)
    counts = counts.astype(int)
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0)
        return PointPattern(e, e.copy(), e.astype(int), e.astype(int))
    rows, cols = np.nonzero(counts)
    reps = counts[rows, cols]
    row = np.repeat(rows, reps)
    col = np.repeat(cols, reps)
    theta = grid.phi_edges[col] + grid.dphi * rng.uniform(size=total)
    t_lo = grid.t_edges[row]
    g = spec.control.g
    g_max = np.array(
        [g.max_on(grid.t_edges[l], grid.t_edges[l + 1]) for l in range(grid.n_t)]
    )
    s = np.empty(total)
    pending = np.arange(total)
    while pending.size:
        prop = t_lo[pending] + grid.dt * rng.uniform(size=pending.size)
        bound = g_max[row[pending]]
        accept = rng.uniform(size=pending.size) * bound <= g(prop)
        s[pending[accept]] = prop[accept]
        pending = pending[~accept]
    return PointPattern(theta, s, row, col)


# ---------------------------------------------------------------------------
# regions and stochastic integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """Axis-aligned region [theta_lo, theta_hi] x [t_lo, t_hi], no angle wrap."""

    theta_lo: float
    theta_hi: float
    t_lo: float
    t_hi: float

    def time_window(self):
        return (self.t_lo, self.t_hi)

    def contains(self, theta, s):
        theta = np.asarray(theta)
        s = np.asarray(s)
        return (
            (theta >= self.theta_lo)
            & (theta <= self.theta_hi)
            & (s >= self.t_lo)
            & (s <= self.t_hi)
        )

    def measure(self, control: ControlMeasure):
        if not all(
            np.isfinite(v) for v in (self.theta_lo, self.theta_hi, self.t_lo, self.t_hi)
        ):
            raise UnboundedRegion("rectangle bounds must be finite")
        width = max(0.0, self.theta_hi - self.theta_lo)
        return width * float(control.g.integral(self.t_lo, self.t_hi))


@dataclass(frozen=True)
class RegionUnion:
    """Union of disjoint rectangles (caller guarantees disjointness)."""

    rects: tuple

    def time_window(self):
        los = [r.t_lo for r in self.rects]
        his = [r.t_hi for r in self.rects]
        return (min(los), max(his)) if self.rects else (0.0, 0.0)

    def contains(self, theta, s):
        theta = np.asarray(theta)
        out = np.zeros(np.broadcast(theta, np.asarray(s)).shape, dtype=bool)
        for r in self.rects:
            out |= r.contains(theta, s)
        return out

    def measure(self, control):
        return sum(r.measure(control) for r in self.rects)


def integrate(f, region, realization: BasisRealization):
    """Stochastic integral of ``f`` over ``region`` against one realization.

    ``f`` is a vectorized callable ``f(theta, s)`` or a constant.  A cell of a
    cell-valued basis counts whole, with ``f`` at its midpoint, when its
    midpoint lies in the region: the membership rule of
    :func:`levygrowth.ambit.mesh_kernel` and the simulator.  Poisson
    realizations are integrated exactly over their point pattern.
    """
    grid = realization.grid
    t_lo, t_hi = region.time_window()
    if not grid.covers(max(t_lo, realization.spec.control.g.support_lo), t_hi):
        raise RegionOutsideGrid(
            f"region window [{t_lo}, {t_hi}] outside grid "
            f"[{grid.t_min}, {grid.t_max}]"
        )
    if callable(f):
        fv = f
    else:
        const = float(f)
        fv = lambda theta, s: np.full(np.broadcast(theta, s).shape, const)

    if realization.kind == "poisson":
        pts = realization.points()
        mask = region.contains(pts.theta, pts.s)
        if not np.any(mask):
            return 0.0
        return float(np.sum(fv(pts.theta[mask], pts.s[mask])))

    theta, s = grid.phi_mids[None, :], grid.t_mids[:, None]
    weights = np.where(region.contains(theta, s), fv(theta, s), 0.0)
    return float(np.sum(weights * realization.increments))
