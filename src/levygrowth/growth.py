"""Radial growth simulation on an angle/time grid.

Model kinds
-----------
* ``rate_linear``: the growth *rate* is drift plus a weighted basis integral
  over the ambit set; the radius is simulated through the induced
  time-integrated form (accumulated drift, accumulated weight, one shared
  realization) rather than by stepping rates, which avoids compounding
  discretization error.
* ``direct`` / ``direct_scaled``: the radius itself is drift plus the ambit
  integral (optionally times an angular profile).
* ``rate_of_log``: the linear form drives ``log R``.
* ``exponential_tumour``: ``log R = mu_t + alpha(t) * (cosine band integral)
  + beta(t) * (shrinking band integral)`` over the two disjoint time bands
  of the tumour ambit family.

Evaluation conventions
----------------------
Every kind is ``scale * link(level + term)``; the term, the ambit integral
at time t, carries its own mean and variance, which centring and
``levygrowth moments`` read.  Cell-valued bases (Gaussian, Gamma, inverse
Gaussian) are integrated on the mesh: weights and memberships at cell
midpoints, matching the analytic engine in :mod:`levygrowth.moments`.
Poisson realizations are integrated over their exact point pattern
(unbiased against the continuum formulas) for constant weights, harmonic
weights on a full-angle ambit (direct kinds only) and the tumour weight;
other weight/family combinations fall back to the mesh path.

A call of :func:`simulate` or :func:`simulate_replicates` first builds a
plan holding everything that does not depend on the realization: the
kernels, kept as the spectra of their nonzero (ambit-window) rows, the
centring shifts and the drift values.  Each replicate then samples its
realization and transforms only the window rows of its increments.

Drifts are :class:`~levygrowth.timefn.TimeFn` values (``Drift`` is an alias
kept for callers): the direct and exponential kinds evaluate ``drift(t)``,
the rate kinds its exact integral ``drift.integral(t)`` over [0, t].
Weights are coerced once by :func:`levygrowth.ambit.as_weight`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import ambit as _ambit
from .ambit import (
    AmbitFamily,
    ConstantWeight,
    FullAngle,
    Tumour,
    WedgeOverS,
    as_weight,
    check_covered,
    mesh_kernel,
)
from .circle_cov import FourierWeight
from .cyclic import TWO_PI, cyc_dist
from .errors import NonFiniteValue, UnknownId, WrongBasisKind
from .levy_core import (
    BasisSpec,
    GridSpec,
    check_kumulant_domain,
    config_hash,
    constant_weight_cumulant,
    cumulant_sum,
    sample_realization,
)
from .quadrature import adaptive_simpson
from .rngtools import mix_seed
from .timefn import TimeFn

Drift = TimeFn

_EPS = 1e-12


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TumourWeight:
    """Cosine weight on the old full-angle band, flat weight on the recent cone."""

    family: Tumour
    alpha: TimeFn
    beta: TimeFn

    apex_dependent = True

    def value(self, t, theta, s, phi=0.0):
        """The weight at points of the ambit set (membership is not checked)."""
        _, mid, _ = self.family.band_split(t)
        band1 = np.asarray(s, dtype=float) <= mid + _EPS
        cosine = float(self.alpha(t)) * np.cos(np.asarray(theta, dtype=float) - phi)
        return np.where(band1, cosine, float(self.beta(t)))

    def max_positive_value(self, t):
        a = abs(float(self.alpha(t)))
        b = float(self.beta(t))
        return max(a, b, 0.0)

    def describe(self):
        return {
            "weight": "tumour",
            "alpha": self.alpha.describe(),
            "beta": self.beta.describe(),
        }


# ---------------------------------------------------------------------------
# model specification and history
# ---------------------------------------------------------------------------

MODEL_KINDS = (
    "rate_linear",
    "direct",
    "direct_scaled",
    "rate_of_log",
    "exponential_tumour",
)


@dataclass(frozen=True)
class GrowthModelSpec:
    kind: str
    drift: TimeFn
    weight: object  # coerced by ambit.as_weight
    basis: BasisSpec
    ambit: AmbitFamily
    r0: object = 0.0  # constant or callable of angle, rate models only
    multiplier: Optional[Callable] = None  # angular profile, direct_scaled only
    center_stochastic_mean: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weight", as_weight(self.weight))
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "direct_scaled" and self.multiplier is None:
            raise ValueError("direct_scaled needs an angular multiplier")
        if self.kind == "exponential_tumour":
            if not isinstance(self.weight, TumourWeight):
                raise ValueError("exponential_tumour needs a TumourWeight")
            if not isinstance(self.ambit, Tumour):
                raise ValueError("exponential_tumour needs the tumour ambit family")

    def r0_profile(self, angles):
        if callable(self.r0):
            return np.asarray(self.r0(angles), dtype=float)
        return np.full(angles.shape, float(self.r0))

    def describe(self):
        return {
            "kind": self.kind,
            "drift": self.drift.describe(),
            "weight": self.weight.describe(),
            "basis": self.basis.describe(),
            "ambit": self.ambit.describe(),
            "centered": self.center_stochastic_mean,
        }


@dataclass
class GrowthHistory:
    """Radial profiles on the angular grid at the requested times."""

    times: np.ndarray
    angles: np.ndarray
    profiles: np.ndarray  # (n_times, n_phi)
    seed: int
    grid: GridSpec
    spec_hash: str
    flags: dict = field(default_factory=dict)

    def provenance(self):
        from . import __version__

        return f"# levygrowth v{__version__} config={self.spec_hash} seed={self.seed}"

    def angular_mean(self):
        return self.profiles.mean(axis=1)

    def to_csv(self, path):
        from .inference import ProfileDataset

        dataset = ProfileDataset(self.times, self.angles, self.profiles[None])
        dataset.to_csv(path, self.provenance())

    def to_polyline_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.provenance() + "\n")
            fh.write("t,x,y\n")
            for i, t in enumerate(self.times):
                x = self.profiles[i] * np.cos(self.angles)
                y = self.profiles[i] * np.sin(self.angles)
                for xv, yv in zip(x, y):
                    fh.write(f"{float(t)!r},{float(xv)!r},{float(yv)!r}\n")


# ---------------------------------------------------------------------------
# terms: the ambit integral at one time, with its mean and variance
# ---------------------------------------------------------------------------


def _correlate_rows(z_rows, kernel_rows, n_phi):
    """sum_l circular cross-correlation of data row l with kernel row l."""
    zf = np.fft.rfft(z_rows, axis=1)
    kf = np.fft.rfft(kernel_rows, axis=1)
    return np.fft.irfft((zf * np.conj(kf)).sum(axis=0), n=n_phi)


def _kernel_moments(kernel, grid, basis):
    """Mean and variance of the sum of ``kernel`` times the increments."""
    mu = grid.cell_mu(basis.control)
    return cumulant_sum(basis.spot, mu, kernel), cumulant_sum(basis.spot, mu, kernel, kernel)


class _MeshTerm:
    """:func:`_correlate_rows` of the increments with one fixed kernel.

    Only the kernel's nonzero rows (the ambit window) are kept, with their
    conjugated spectra, so a call transforms just those increment rows.
    ``moments`` is the (mean, variance) of the value at each angle.
    """

    def __init__(self, kernel, grid, basis):
        self.rows = np.flatnonzero(np.any(kernel != 0.0, axis=1))
        self.n_phi = kernel.shape[1]
        self.spectrum = np.conj(np.fft.rfft(kernel[self.rows], axis=1))
        self.moments = _kernel_moments(kernel, grid, basis)

    def __call__(self, realization):
        if self.rows.size == 0:
            return np.zeros(self.n_phi)
        zf = np.fft.rfft(realization.increments[self.rows], axis=1)
        return np.fft.irfft((zf * self.spectrum).sum(axis=0), n=self.n_phi)


class _PointTerm:
    """A sum over the points of a Poisson realization,
    ``profile(spec, grid, realization, t)``; its ``moments``, the (mean,
    variance) of the value at each angle, are computed on first use."""

    def __init__(self, profile, moments, spec, grid, t):
        self.profile, self._moments, self.args = profile, moments, (spec, grid, t)

    def __call__(self, realization):
        spec, grid, t = self.args
        return self.profile(spec, grid, realization, t)

    @cached_property
    def moments(self):
        return self._moments(*self.args)


def _rate_kernel(spec, grid, t):
    fbar = _ambit.induced_weight(
        spec.ambit, spec.weight, t, phi=grid.phi_mids[0], step=grid.dt
    )
    return np.asarray(fbar(grid.phi_mids[None, :], grid.t_mids[:, None]), dtype=float)


def _arc_add(profile, theta, widths, values, dphi):
    """Add ``values`` to all grid angles within ``widths`` of each point."""
    n = profile.size
    full = widths >= np.pi - _EPS
    if np.any(full):
        profile += float(np.sum(values[full]))
    theta = theta[~full]
    widths = widths[~full]
    values = values[~full]
    if theta.size == 0:
        return profile
    center = (theta + np.pi) / dphi - 0.5
    lo = np.ceil(center - (widths + _EPS) / dphi).astype(np.int64)
    hi = np.floor(center + (widths + _EPS) / dphi).astype(np.int64)
    length = np.clip(hi - lo + 1, 0, n)
    keep = length > 0
    lo, length, values = lo[keep] % n, length[keep], values[keep]
    diff = np.zeros(n + 1)
    end = lo + length
    wrap_over = end > n
    np.add.at(diff, lo, values)
    np.add.at(diff, np.where(wrap_over, n, end), -values)
    if np.any(wrap_over):
        np.add.at(diff, np.zeros(int(wrap_over.sum()), dtype=np.int64), values[wrap_over])
        np.add.at(diff, end[wrap_over] - n, -values[wrap_over])
    profile += np.cumsum(diff[:-1])
    return profile


def _point_path(spec, mode):
    """Whether the ``mode`` term of a Poisson model is summed over its points.

    The direct point sum handles constant weights, harmonic weights on a
    full-angle ambit and the tumour weight on the tumour family; the rate
    point sum handles constant weights on factorizing families.  Everything
    else takes the mesh path.
    """
    if spec.basis.spot.kind != "poisson":
        return False
    if mode == "rate":
        return isinstance(spec.weight, ConstantWeight) and spec.ambit.factorizes
    if isinstance(spec.weight, FourierWeight):
        return isinstance(spec.ambit, FullAngle)
    if isinstance(spec.weight, TumourWeight):
        return isinstance(spec.ambit, Tumour)
    return isinstance(spec.weight, ConstantWeight)


def _poisson_direct_profile(spec, grid, realization, t):
    pts = realization.points()
    lo, hi = spec.ambit.window(t)
    keep = (pts.s >= lo - _EPS) & (pts.s <= hi + _EPS)
    theta, s = pts.theta[keep], pts.s[keep]
    profile = np.zeros(grid.n_phi)
    if theta.size == 0:
        return profile
    if isinstance(spec.weight, FourierWeight):
        return _harmonic_point_profile(spec.weight, grid, t, theta, s, profile)
    if isinstance(spec.weight, TumourWeight):
        return _tumour_point_profile(spec.weight, grid, t, theta, s, profile)
    c = float(spec.weight.constant_value)
    widths = np.asarray(spec.ambit.half_width(t, s), dtype=float)
    return _arc_add(profile, theta, widths, np.full(theta.shape, c), grid.dphi)


def _harmonic_point_profile(weight, grid, t, theta, s, profile):
    angles = grid.phi_mids
    for k in range(weight.k_max + 1):
        a = weight.coef(k, t, s)
        ck = float(np.sum(a * np.cos(k * theta)))
        sk = float(np.sum(a * np.sin(k * theta)))
        profile += np.cos(k * angles) * ck + np.sin(k * angles) * sk
    return profile


def _tumour_point_profile(weight, grid, t, theta, s, profile):
    """alpha(t) times the cosine harmonic of the old band's points plus
    beta(t) times the count of recent-band points whose cone covers each
    angle."""
    _, mid, _ = weight.family.band_split(t)
    old = s <= mid + _EPS
    angles = grid.phi_mids
    band1 = np.cos(angles) * float(np.sum(np.cos(theta[old]))) + np.sin(angles) * float(
        np.sum(np.sin(theta[old]))
    )
    widths = weight.family.shrink_half_width(t, s[~old])
    band2 = _arc_add(profile, theta[~old], widths, np.ones(widths.shape), grid.dphi)
    return float(weight.alpha(t)) * band1 + float(weight.beta(t)) * band2


def _direct_point_moments(spec, grid, t):
    """Mean and variance of :func:`_poisson_direct_profile` at one angle: from
    the ambit measure for a constant weight, else from the weight's kernel."""
    if not isinstance(spec.weight, ConstantWeight):
        kernel = mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0])
        return _kernel_moments(kernel, grid, spec.basis)
    c, spot = spec.weight.c, spec.basis.spot
    measure = spec.ambit.measure(t, spec.basis.control)
    return tuple(constant_weight_cumulant(spot, c, measure, p) for p in (1, 2))


def _poisson_rate_profile(spec, grid, realization, t):
    pts = realization.points()
    keep = (pts.s <= t + _EPS) & (pts.s >= min(0.0, grid.t_min) - _EPS)
    theta, s = pts.theta[keep], pts.s[keep]
    profile = np.zeros(grid.n_phi)
    if theta.size == 0:
        return profile
    lengths = _ambit.window_length_in_union(spec.ambit, s, t)
    c = float(spec.weight.constant_value)
    values = c * lengths
    live = values != 0.0
    widths = np.asarray(spec.ambit.half_width(t, s[live]), dtype=float)
    return _arc_add(profile, theta[live], widths, values[live], grid.dphi)


def _rate_point_moments(spec, grid, t):
    """Mean and variance of :func:`_poisson_rate_profile` at one angle:
    ``c^p m_p int 2 hw(t, s) L(s)^p g(s) ds`` for p = 1, 2, with ``m_p`` the
    spot mean and variance and ``L`` the window length in the time union,
    integrated between the kinks of ``hw`` and ``L``."""
    family, g, spot = spec.ambit, spec.basis.control.g, spec.basis.spot
    lo = max(grid.t_min, g.support_lo)
    kinks = {family.window(0.0)[0], 0.0, family.window(t)[0]}
    if isinstance(family, WedgeOverS):
        kinks.add(family.theta / np.pi)
    edges = [lo, *sorted(k for k in kinks if lo < k < t), t]
    c = float(spec.weight.constant_value)

    def integral(p):
        def f(s):
            length = float(_ambit.window_length_in_union(family, s, t))
            return 2.0 * float(family.half_width(t, s)) * length**p * float(g(s))

        tol = 1e-12 * (TWO_PI * abs(t - lo) ** p * float(g.integral(lo, t)) + 1.0)
        return sum(adaptive_simpson(f, a, b, tol=tol) for a, b in zip(edges, edges[1:]))

    return tuple(constant_weight_cumulant(spot, c, integral(p), p) for p in (1, 2))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _term(spec, grid, t, mode):
    """The ambit integral at time t, ``mode`` ``"direct"`` (instantaneous
    set) or ``"rate"`` (time union): called on a realization it returns the
    profile over all grid angles, and its ``moments`` are the (mean,
    variance) of that value.  Mesh kernels are built here, once."""
    if _point_path(spec, mode):
        if mode == "rate":
            return _PointTerm(_poisson_rate_profile, _rate_point_moments, spec, grid, t)
        return _PointTerm(_poisson_direct_profile, _direct_point_moments, spec, grid, t)
    if mode == "direct":
        kernel = mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0])
    else:
        kernel = _rate_kernel(spec, grid, t)
    return _MeshTerm(kernel, grid, spec.basis)


@dataclass(frozen=True)
class _Radius:
    """The radius at one time, ``scale * link(level + term(realization))``;
    ``level + term`` is the linear predictor (see :mod:`levygrowth.cli`)."""

    term: object
    level: object  # a number, or one value per grid angle
    scale: object = 1.0
    link: Optional[Callable] = None

    def __call__(self, realization):
        x = self.level + self.term(realization)
        return self.scale * (x if self.link is None else self.link(x))

    def moments(self):
        """Mean and variance of the linear predictor at the first grid angle."""
        mean, var = self.term.moments
        return float(np.ravel(self.level)[0]) + mean, var


class _Plan:
    """Everything in a simulation of (spec, grid, times) but the realization.

    Holds the validated, sorted times and, per time, the :class:`_Radius`
    with its term's kernel spectra, centring, drift and profile values
    computed up front.  Replicates run the same plan, so each does exactly
    the arithmetic of a single :func:`simulate`; ``levygrowth moments``
    reads the same radii's moments.
    """

    def __init__(self, spec, grid, times):
        self.spec, self.grid = spec, grid
        self.times = np.sort(np.asarray(times, dtype=float))
        union = spec.kind in ("rate_linear", "rate_of_log")
        for t in self.times:
            check_covered(spec.ambit, spec.basis.control, grid, t, union=union)
        self.radii = [self._radius(t) for t in self.times]
        self.spec_hash = config_hash(spec, grid)

    def _radius(self, t):
        spec, grid = self.spec, self.grid
        angles = grid.phi_mids
        if spec.kind in ("rate_linear", "rate_of_log"):
            term = _term(spec, grid, t, "rate")
            accumulated = spec.drift.integral(t)
            r0 = spec.r0_profile(angles)
            if spec.kind == "rate_linear":
                return _Radius(term, r0 + accumulated)
            return _Radius(term, accumulated, r0, np.exp)
        if spec.kind == "exponential_tumour":
            check_kumulant_domain(spec.basis.spot, spec.weight.max_positive_value(t))
            return _Radius(_term(spec, grid, t, "direct"), spec.drift(t), link=np.exp)
        term = _term(spec, grid, t, "direct")
        level = spec.drift(t) - (term.moments[0] if spec.center_stochastic_mean else 0.0)
        if spec.kind == "direct":
            return _Radius(term, level)
        return _Radius(term, level, np.asarray(spec.multiplier(angles), dtype=float))

    def profiles(self, seed):
        """Radii (n_times, n_phi) on the realization drawn from ``seed``."""
        realization = sample_realization(self.spec.basis, self.grid, seed)
        out = np.empty((self.times.size, self.grid.n_phi))
        for i, radius in enumerate(self.radii):
            out[i] = radius(realization)
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue("simulation produced non-finite radii")
        return out

    def history(self, seed):
        profiles = self.profiles(seed)
        return GrowthHistory(
            times=self.times.copy(),
            angles=self.grid.phi_mids,
            profiles=profiles,
            seed=int(seed),
            grid=self.grid,
            spec_hash=self.spec_hash,
            flags={"nonpositive_values": int(np.sum(profiles <= 0.0))},
        )


def simulate(spec: GrowthModelSpec, grid: GridSpec, seed: int, times) -> GrowthHistory:
    """Simulate the model at the requested times from one shared realization.

    Deterministic in (spec, grid, seed).  Negative radii under signed bases
    are kept and counted in ``flags['nonpositive_values']`` rather than
    clamped, so moment checks stay unbiased.
    """
    return _Plan(spec, grid, times).history(seed)


def simulate_replicates(spec, grid, seed, times, n_replicates):
    """Radii (n_replicates, n_times, n_phi) of replicates r = 0..n-1, seeded
    mix(seed, r), from kernels built once; replicate r equals
    ``simulate(spec, grid, mix_seed(seed, r), times).profiles`` bit for bit."""
    plan = _Plan(spec, grid, times)
    out = np.empty((n_replicates, plan.times.size, grid.n_phi))
    for r in range(n_replicates):
        out[r] = plan.profiles(mix_seed(seed, r))
    return out


# ---------------------------------------------------------------------------
# Poisson outburst view
# ---------------------------------------------------------------------------


@dataclass
class OutburstView:
    points_cyl: np.ndarray  # (n, 2): angle, arrival time
    points_xy: Optional[np.ndarray]  # embedded positions, when a history is given
    rate_terms: np.ndarray  # (n_phi,): sum of weights over covered points


def poisson_outburst_view(spec, grid, seed, t, history=None):
    """Outburst points arrived by ``t`` and per-direction rate sums.

    The rate term at each grid angle is the sum of the instantaneous weight
    over the points inside that direction's ambit set; it equals the
    stochastic part of the growth rate evaluated by
    :func:`levygrowth.levy_core.integrate` on the same realization.
    """
    if spec.basis.spot.kind != "poisson":
        raise WrongBasisKind("outburst view requires a Poisson basis")
    realization = sample_realization(spec.basis, grid, seed)
    pts = realization.points()
    arrived = pts.s <= t + _EPS
    theta, s = pts.theta[arrived], pts.s[arrived]
    angles = grid.phi_mids
    terms = np.zeros(grid.n_phi)
    chunk = max(1, int(2e6 // max(theta.size, 1)))
    for start in range(0, grid.n_phi, chunk):
        sl = slice(start, min(start + chunk, grid.n_phi))
        member = spec.ambit.contains(t, angles[sl, None], theta[None, :], s[None, :])
        w = spec.weight.value(t, theta[None, :], s[None, :], angles[sl, None])
        terms[sl] = np.sum(np.where(member, w, 0.0), axis=1)
    points_xy = None
    if history is not None:
        from .ambit import _radius_lookup

        r = _radius_lookup(history, theta, np.minimum(s, history.times[-1]))
        points_xy = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return OutburstView(
        points_cyl=np.stack([theta, s], axis=1), points_xy=points_xy, rate_terms=terms
    )


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------


def moment_match_gamma(mu_t, sigma2, beta, ambit_measure):
    """Gamma parameters reproducing a centered Gaussian model's mean/variance.

    Returns ``(shifted_drift, alpha)`` with ``alpha = sqrt(beta / sigma2)``
    and the drift lowered by the Gamma integral's mean
    ``sigma * sqrt(beta) * ambit_measure``.
    """
    if sigma2 <= 0 or beta <= 0 or ambit_measure <= 0:
        raise ValueError("sigma2, beta and the ambit measure must be positive")
    sigma = math.sqrt(sigma2)
    return mu_t - sigma * math.sqrt(beta) * ambit_measure, math.sqrt(beta / sigma2)


def moment_match_ig(target_mean, target_var, ambit_measure):
    """Inverse Gaussian spot parameters hitting a target integral mean/variance.

    For ``Z(A) ~ IG(eta * m, gamma)`` with ``m = ambit_measure``:
    ``gamma = sqrt(mean / var)`` and ``eta = mean * gamma / m``.
    """
    if target_mean <= 0 or target_var <= 0 or ambit_measure <= 0:
        raise ValueError("target mean/variance and the ambit measure must be positive")
    gamma = math.sqrt(target_mean / target_var)
    eta = target_mean * gamma / ambit_measure
    return eta, gamma


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    name: str
    spec: GrowthModelSpec
    grid: GridSpec
    times: tuple


def asymmetry_profile(angles):
    """Angular multiplier favoring the direction opposite to pi."""
    return 0.35 * np.exp(cyc_dist(angles, np.pi) / np.pi)


def example_preset(preset_id, **overrides) -> Preset:
    """Built-in demonstration parameterizations.

    The preset is :func:`levygrowth.config.preset_document` parsed by
    :func:`levygrowth.config.parse_config`, after two optional edits:
    ``theta=`` sets ``model.ambit.theta`` and ``mu=((t, value), ...)`` sets
    ``model.tumour.mu``.

    ``ex3``: Poisson basis, growth-rate model with unit weight over a
    1/s-wedge (theta = 1/2, lag 1) and density g(s) = 10 s.
    ``ex4``: Gaussian basis (unit variance, Lebesgue control), radius =
    drift + ambit integral over a cone of half-width theta (default
    pi/100) and lag T(t) = t/5; drift levels 16 / 24 / 32 at
    t = 20 / 45 / 80.
    ``ex5``: as ex4 with a Gamma basis (beta = 1, alpha = 1), recentered so
    mean and variance match the Gaussian run.
    ``ex6``: as ex4 with the asymmetric angular multiplier
    0.35 * exp(d(phi, pi) / pi).
    ``tumour``: exponential two-band model with the built-in reference
    parameter rows at t = 21 / 25 / 55 (drift levels are synthetic
    placeholders).
    """
    from .config import PRESET_DOCUMENTS, parse_config, preset_document

    name = str(preset_id).lower()
    if name not in PRESET_DOCUMENTS:
        raise UnknownId(f"unknown preset {preset_id!r}")
    doc = preset_document(name)
    model = doc["model"]
    for key, value in overrides.items():
        if key == "theta" and "ambit" in model:
            model["ambit"]["theta"] = float(value)
        elif key == "mu" and "tumour" in model:
            model["tumour"]["mu"] = [[float(t), float(v)] for t, v in value]
        else:
            raise UnknownId(f"unsupported override {key!r} for {name}")
    cfg = parse_config(doc)
    return Preset(name, cfg.spec, cfg.grid, cfg.times)
