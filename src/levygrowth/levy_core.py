"""Levy bases on the cylinder [-pi, pi) x R: spot laws, control measures,
grid-discretized sampling, and stochastic integration against realizations.

A basis is specified by a spot law (the infinitesimal marginal, one of
Gaussian / Poisson / Gamma / inverse Gaussian) and a control measure
``mu(d-theta ds) = g(s) ds d-theta``, whose density ``g`` is a
:class:`~levygrowth.timefn.TimeFn` built by one of the :data:`TimeDensity`
constructors and supported on ``s >= 0`` or its own node range.  Increments
over disjoint sets are independent, and the increment over a set ``A`` follows the kind's exact
closed-form marginal with parameter ``mu(A)``:

* Gaussian:           ``N(a*mu(A), b*mu(A))``
* Poisson:            ``Po(mu(A))`` (plus the underlying point pattern)
* Gamma:              ``Gamma(beta*mu(A), alpha)`` (rate parameterization)
* inverse Gaussian:   ``IG(eta*mu(A), gamma)``

Sampling draws each grid cell of a Gaussian, Gamma or inverse Gaussian
basis directly from that marginal with :func:`draw_cells` (the inverse
Gaussian by numpy's ``wald``), so realizations are exact in distribution on
the cell algebra; no series truncation is involved.  Each time row draws
from its own stream (:class:`~levygrowth.rngtools.RowStreams`), so
:func:`draw_rows` draws any rows alone, as simulation plans do; a
:class:`BasisRealization` is always the whole grid.

A Poisson basis is drawn as its points.  The control measure does not
depend on the angle, so the points of one time row are a Poisson number of
independent points, uniform in angle, with density proportional to ``g`` in
time; a cell's count, the number of its row's points in it, is then
Po(mu(cell)), independently over the cells.  The points are drawn one block
of :data:`~levygrowth.rngtools.POINT_BLOCK` rows at a time, each block from
its own point stream (:class:`_PointPlacer`): row totals, angles, then
times.  So the points of whole blocks can be placed alone, and
:func:`draw_counts` counts the angles of whole blocks without placing their
times.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .csvrows import csv_block, reprs
from .cyclic import TWO_PI
from .errors import (
    DomainError,
    KumulantDomainError,
    RegionOutsideGrid,
    UnboundedRegion,
)
from .rngtools import POINT_BLOCK, RowStreams, mix_seed
from .timefn import TimeFn

_POINTS_STREAM = 0x706F696E  # sub-stream tag for Poisson point placement


# ---------------------------------------------------------------------------
# control densities g(s)
# ---------------------------------------------------------------------------


def _density(shape, message, *nonnegative, lo=0.0, hi=math.inf):
    """``shape`` supported on [lo, hi], once each of ``nonnegative`` is."""
    if any(np.any(np.asarray(v) < 0) for v in nonnegative):
        raise ValueError(message)
    return shape.on(lo, hi)


def _tabulated_density(nodes, values):
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
        raise ValueError("tabulated density needs >= 2 strictly increasing nodes")
    message = "tabulated density must be nonnegative"
    return _density(TimeFn.table(nodes, values), message, values, lo=nodes[0], hi=nodes[-1])


# Constructors of the nonnegative control densities, as TimeFn values
# supported on s >= 0: ``constant(c)`` (from ``support_lo`` if given),
# ``linear(a)`` a*s, ``exponential(a, b)`` a*exp(-b*s), ``power(a, alpha)``
# a*s**alpha, and ``tabulated(nodes, values)``, piecewise linear on
# [nodes[0], nodes[-1]].
TimeDensity = SimpleNamespace(
    constant=lambda c, support_lo=0.0: _density(
        TimeFn.constant(c), "constant density must be nonnegative", c, lo=support_lo
    ),
    linear=lambda a: _density(
        TimeFn.proportional(a), "linear density slope must be nonnegative", a
    ),
    exponential=lambda a, b: _density(
        TimeFn.exponential(a, b), "exponential density amplitude must be nonnegative", a
    ),
    power=lambda a, alpha: _density(
        TimeFn.power(a, alpha), "power density requires a >= 0 and alpha >= 0", a, alpha
    ),
    tabulated=_tabulated_density,
)


@dataclass(frozen=True)
class ControlMeasure:
    """Control measure ``mu(d-theta ds) = g(s) ds d-theta`` on the cylinder."""

    g: TimeFn

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


def cumulant_sum(spot: SpotLaw, mu_rows, *kernels, rows=None):
    """Joint cumulant of the integrals ``int K_i dL``, one per kernel.

    Cumulants of an independently scattered basis add over cells, so with
    ``p = len(kernels)`` this is ``kappa_p(spot) * sum_l (sum_j prod_i
    K_i[l, j]) * mu_l``: the mean for one kernel, the variance for ``(K, K)``,
    a covariance for ``(K1, K2)``.  Kernels have shape (n_t, n_phi) and
    ``mu_rows`` is the measure of one cell per time row; rows are summed
    first (the centring of simulated radii depends on that order).  With
    ``rows``, the kernels hold only those time rows and are zero on the
    others; the row sums are placed among zeros, so the sum over all rows
    takes the same order, and gives the same bits, as the full kernels.
    """
    prod = kernels[0]
    for kernel in kernels[1:]:
        prod = prod * kernel
    sums = prod.sum(axis=1)
    if rows is not None:
        placed = np.zeros(np.shape(mu_rows))
        placed[rows] = sums
        sums = placed
    return spot_cumulant(spot, len(kernels)) * float(np.sum(sums * mu_rows))


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
    """Poisson support points in row order, one entry per point, each
    inside its time row and its angle cell (:meth:`_PointPlacer.cells`)."""

    theta: np.ndarray
    s: np.ndarray
    row: np.ndarray  # time-cell index


@dataclass
class BasisRealization:
    """Cell increments of one basis draw on the whole grid.

    ``increments`` has shape (n_t, n_phi), time-major.  A Poisson
    realization is its points: its increments are the counts of its points
    per cell (:func:`draw_counts`), and both they and the points themselves
    (:meth:`points`) are drawn on first use, from the point streams of the
    realization seed, one block of ``POINT_BLOCK`` rows at a time
    (:class:`_PointPlacer`); per cell, the number of points equals the cell
    increment.
    """

    spec: BasisSpec
    grid: GridSpec
    seed: int
    _increments: Optional[np.ndarray] = None
    _points: Optional[PointPattern] = None

    @property
    def kind(self):
        return self.spec.spot.kind

    @property
    def increments(self):
        """(n_t, n_phi) cell increments; only a Poisson realization is
        built without them."""
        if self._increments is None:
            self._increments = draw_counts(self.spec, self.grid, self.seed, np.arange(self.grid.n_t))
        return self._increments

    def total(self):
        return float(self.increments.sum())

    def points(self) -> PointPattern:
        if self.kind != "poisson":
            raise ValueError("point pattern only exists for the Poisson kind")
        if self._points is None:
            self._points = _PointPlacer(self.spec, self.grid).place(self.seed)
        return self._points

    def to_csv(self, path):
        """Debug export: one row per cell (theta_lo, theta_hi, t_lo, t_hi,
        increment)."""
        grid = self.grid
        with open(path, "w") as fh:
            fh.write(
                f"# levygrowth realization seed={self.seed} "
                f"config={config_hash(self.spec, self.grid)}\n"
            )
            fh.write("theta_lo,theta_hi,t_lo,t_hi,increment\n")
            phis, ts = reprs(grid.phi_edges), reprs(grid.t_edges)
            for l, values in enumerate(self.increments):
                fh.write(csv_block(phis[:-1], phis[1:], ts[l], ts[l + 1], reprs(values)))


def draw_cells(spot: SpotLaw, rng, mu, shape):
    """Increments of cells of measure ``mu`` (nonnegative), broadcast to
    ``shape`` and drawn in C order from ``rng``: ``a mu + sqrt(b mu) z`` of
    a standard normal (Gaussian), a count (Poisson), a standard gamma
    variate of shape ``beta mu`` over ``alpha`` (Gamma), or numpy's
    ``wald`` of mean ``delta / gamma`` and shape ``delta**2``, ``delta = eta
    mu``, which takes a normal and then a uniform (inverse Gaussian).  An
    inverse Gaussian cell of shape 0 (zero measure, or so small that its
    square underflows) takes no draws and is 0."""
    if spot.kind == "gaussian":
        x = rng.standard_normal(shape)
        x *= np.sqrt(spot.b_tilde * mu)
        x += spot.a_tilde * mu
        return x
    if spot.kind == "poisson":
        return rng.poisson(mu, shape).astype(float)
    if spot.kind == "gamma":
        x = rng.standard_gamma(spot.beta * mu, shape)
        x *= 1.0 / spot.alpha
        return x
    delta = spot.eta * np.asarray(mu, dtype=float)
    if delta.size and np.all(delta == delta.flat[0]):
        delta = delta.flat[0]  # one measure: numpy's scalar-parameter path is faster
    lam = delta * delta
    if lam.ndim == 0:
        return rng.wald(delta / spot.gamma, lam, shape) if lam > 0 else np.zeros(shape)
    delta, lam = np.broadcast_to(delta, shape), np.broadcast_to(lam, shape)
    x = np.zeros(shape)
    drawn = lam > 0
    x[drawn] = rng.wald(delta[drawn] / spot.gamma, lam[drawn])
    return x


def sample_realization(spec: BasisSpec, grid: GridSpec, seed: int) -> BasisRealization:
    """Sample one basis realization on the whole grid; deterministic in the
    seed.  Time row ``l`` is row ``l`` of :func:`draw_rows`, or of
    :func:`draw_counts` on a Poisson basis, whose realization draws its
    counts and points on first use, so that a caller replacing one
    realization by the next frees the first before the second draws."""
    mu = grid.cell_mu(spec.control)
    if spec.spot.kind == "poisson":
        if np.any(mu < 0):
            raise ValueError("cell measures must be nonnegative")
        return BasisRealization(spec, grid, int(seed))
    increments = draw_rows(spec.spot, seed, np.arange(grid.n_t), mu, grid.n_phi)
    return BasisRealization(spec, grid, int(seed), increments)


def draw_rows(spot: SpotLaw, seed, rows, mu, n_phi):
    """Rows of ``n_phi`` cells, (len(rows), n_phi): row ``i`` draws cells of
    measure ``mu[i]`` (nonnegative) with :func:`draw_cells` from row
    ``rows[i]`` of :class:`~levygrowth.rngtools.RowStreams` of ``seed``, so
    it equals row ``rows[i]`` of the whole grid's draw wherever ``mu[i]`` is
    that row's cell measure.  Poisson counts are not drawn per cell: they
    are :func:`draw_counts`."""
    if np.any(np.asarray(mu) < 0):
        raise ValueError("cell measures must be nonnegative")
    if spot.kind == "poisson":
        raise ValueError("Poisson counts are drawn by point blocks, with draw_counts")
    streams = RowStreams(seed)
    out = np.empty((len(rows), n_phi))
    for i, (l, mu_l) in enumerate(zip(rows, mu)):
        out[i] = draw_cells(spot, streams.at(l), mu_l, n_phi)
    return out


def draw_counts(spec: BasisSpec, grid: GridSpec, seed, rows):
    """The Poisson cell counts of time rows ``rows``, (len(rows), n_phi):
    each row's histogram of its points' angles, drawn with the whole point
    blocks that hold the rows (:class:`_PointPlacer`), so it equals that row
    of the whole grid's draw."""
    return _PointPlacer(spec, grid).counts(seed, rows)


class _PointPlacer:
    """The Poisson points of a basis on a grid, one point block of
    ``POINT_BLOCK`` time rows at a time, with what does not depend on the
    seed prepared once.

    The control measure ``g(s) d-theta ds`` does not depend on the angle, so
    the points of time row ``l`` are a Po(``mass[l]``) number of independent
    points, ``mass = n_phi * cell_mu`` the row's measure, each uniform in
    angle and with density proportional to ``g`` in time; the counts of the
    row's cells are then independent Po(``cell_mu[l]``).  Block ``b`` of the
    realization drawn from ``seed`` draws from row ``b`` of the point
    streams (:meth:`streams`): its row totals in one call, every point's
    angle ``-pi + 2 pi U`` in row order, then the points' times by rejection
    against the row's bound of ``g`` (:meth:`place_block`).  A cell's count
    is the number of its row's points whose angle lies in it
    (:meth:`count_block`).  The streams are shared, so draw one block
    before the next."""

    def __init__(self, spec, grid):
        self.g, self.grid = spec.control.g, grid
        self.mass = grid.n_phi * grid.cell_mu(spec.control)
        if np.any(self.mass < 0):
            raise ValueError("cell measures must be nonnegative")
        self.t_edges = grid.t_edges
        self.left_edges = np.append(grid.phi_edges[:-1], np.inf)  # the last cell has no right end
        self.g_max = self.g.max_on(self.t_edges[:-1], self.t_edges[1:])
        self.n_blocks = -(-grid.n_t // POINT_BLOCK)

    @staticmethod
    def streams(seed):
        """The point streams of ``seed``: the row streams of
        ``mix_seed(seed, _POINTS_STREAM)``."""
        return RowStreams(mix_seed(seed, _POINTS_STREAM))

    def _totals(self, streams, b):
        """Block ``b``'s rows, its stream after the row totals, and the row
        totals."""
        rows = slice(b * POINT_BLOCK, min((b + 1) * POINT_BLOCK, self.grid.n_t))
        rng = streams.at(b)
        return rows, rng, rng.poisson(self.mass[rows])

    def _angles(self, streams, b):
        """Block ``b``'s rows, its stream after the angles, its row totals
        and its points' angles."""
        rows, rng, totals = self._totals(streams, b)
        theta = rng.random(int(totals.sum()))
        theta *= TWO_PI
        theta -= np.pi
        return rows, rng, totals, theta

    def cells(self, theta):
        """The angle cell of each of the angles ``theta``: the last cell
        whose left edge is at or below the angle.  A guess from the angle's
        offset, off by at most one cell by rounding, is corrected against
        the edges."""
        cell = ((theta + np.pi) * (1.0 / self.grid.dphi)).astype(np.intp)
        np.clip(cell, 0, self.grid.n_phi - 1, out=cell)
        cell -= theta < self.left_edges[cell]
        cell += theta >= self.left_edges[cell + 1]
        return cell

    def count_block(self, streams, b):
        """Block ``b``'s cell counts, (rows, n_phi): per row, the histogram
        of its points' angles over the cells (:meth:`cells`)."""
        _, _, totals, theta = self._angles(streams, b)
        n_phi = self.grid.n_phi
        index = self.cells(theta)
        index += np.repeat(np.arange(0, totals.size * n_phi, n_phi), totals)
        return np.bincount(index, minlength=totals.size * n_phi).reshape(-1, n_phi)

    def counts(self, seed, rows):
        """The cell counts of time ``rows`` drawn from ``seed``, each block
        holding some of them counted once."""
        streams, rows = self.streams(seed), np.asarray(rows, dtype=np.intp)
        blocks = rows // POINT_BLOCK
        out = np.empty((rows.size, self.grid.n_phi))
        for b in np.unique(blocks):
            at = np.flatnonzero(blocks == b)
            out[at] = self.count_block(streams, b)[rows[at] % POINT_BLOCK]
        return out

    def place_block(self, streams, b):
        """The points of block ``b``, in row order: after its angles, every
        point's proposed time and its acceptance uniform, then further
        rounds for the rejected points."""
        rows, rng, totals, theta = self._angles(streams, b)
        grid, g = self.grid, self.g
        row = np.repeat(np.arange(rows.start, rows.stop), totals)
        t_lo = np.repeat(self.t_edges[rows], totals)
        g_max = np.repeat(self.g_max[rows], totals)
        # Every point proposes, then the rejected ones propose again.
        s = rng.random(row.size)
        s *= grid.dt
        s += t_lo
        height = rng.random(row.size)
        height *= g_max
        pending = np.flatnonzero(height > g(s))
        while pending.size:
            prop = t_lo[pending] + grid.dt * rng.random(pending.size)
            accept = rng.random(pending.size) * g_max[pending] <= g(prop)
            s[pending[accept]] = prop[accept]
            pending = pending[~accept]
        return PointPattern(theta, s, row)

    def place(self, seed):
        """Every block's points drawn from ``seed``, in row order, in arrays
        sized by a first pass over the blocks' row totals."""
        streams = self.streams(seed)
        total = sum(int(self._totals(streams, b)[2].sum()) for b in range(self.n_blocks))
        out = PointPattern(np.empty(total), np.empty(total), np.empty(total, dtype=np.intp))
        at = 0
        for b in range(self.n_blocks):
            block = self.place_block(streams, b)
            n = block.row.size
            out.theta[at : at + n], out.s[at : at + n], out.row[at : at + n] = block.theta, block.s, block.row
            at += n
        return out


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
    lo = max(t_lo, realization.spec.control.g.support[0])  # no mass below the support
    if not grid.covers(lo, t_hi):
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
