"""Closed-form space-time covariances on the circle.

For full-angle ambit windows and a cosine-series weight the covariance of
the induced field splits into per-harmonic coefficients::

    Cov(R_t1(phi1), R_t2(phi2)) = 2*c_0(t1, t2)
        + sum_k c_k(t1, t2) * cos(k * (phi1 - phi2)),

    c_k(t1, t2) = pi * int_{shared window} a_k^{t1}(s) a_k^{t2}(s) g(s) ds,

where ``g`` is the *variance density*: the time density of
``Var(Z') mu(d-xi)``.  Build it from a basis via
``BasisSpec.variance_density()``.

The module also inverts stationary circle covariances into weights, carries
the p-th order target family, and maps boundary-profile coefficients to
self-overlap cosine coefficients (with a brute-force quadrature oracle and
a discrepancy report: the conventional closed form of the constant
coefficient disagrees with the direct evaluation, so the quadrature is
treated as the authority).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cyclic import TWO_PI, cyc_dist, wrap
from .errors import AssumptionViolation, NegativeTargetCoefficient
from .quadrature import kink_integral
from .timefn import TimeFn
from . import ambit as _ambit

DEFAULT_K_MAX = 256


# ---------------------------------------------------------------------------
# cosine-series weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierWeight:
    """Weight function given by cosine coefficients ``a_k^t(s)``.

    ``coef_fn(k, t, s)`` must be vectorized in ``s``.  ``s_independent``
    marks coefficients constant in the slice coordinate (enables closed
    forms and the separable-correlation results); ``apex_dependent`` marks
    dependence on the apex time ``t``.
    """

    coef_fn: Callable
    k_max: int
    s_independent: bool = False
    apex_dependent: bool = False
    label: str = "tabulated"

    @staticmethod
    def constant_coeffs(coeffs):
        c = np.asarray(coeffs, dtype=float)

        def fn(k, t, s):
            val = c[k] if k < c.size else 0.0
            return np.full(np.asarray(s, dtype=float).shape, val)

        return FourierWeight(fn, c.size - 1, True, False, "constant")

    @staticmethod
    def separable(b_of_t, coeffs):
        c = np.asarray(coeffs, dtype=float)
        b = TimeFn.of(b_of_t)

        def fn(k, t, s):
            val = (c[k] if k < c.size else 0.0) * float(b(t))
            return np.full(np.asarray(s, dtype=float).shape, val)

        return FourierWeight(fn, c.size - 1, True, True, "separable")

    @staticmethod
    def stationary(b_fns):
        fns = list(b_fns)

        def fn(k, t, s):
            s = np.asarray(s, dtype=float)
            if k >= len(fns):
                return np.zeros(s.shape)
            return np.asarray(fns[k](t - s), dtype=float)

        return FourierWeight(fn, len(fns) - 1, False, True, "stationary")

    def coef(self, k, t, s):
        return np.asarray(self.coef_fn(k, t, np.asarray(s, dtype=float)), dtype=float)

    def value(self, t, theta, s, phi=0.0):
        """Pointwise weight  sum_k a_k^t(s) cos(k d(theta, phi))."""
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        d = cyc_dist(theta, phi)
        shape = np.broadcast(d, s).shape
        out = np.zeros(shape)
        for k in range(self.k_max + 1):
            out = out + self.coef(k, t, s) * np.cos(k * d)
        return out

    def describe(self):
        return {"weight": "cosine_series", "k_max": self.k_max, "label": self.label}


# ---------------------------------------------------------------------------
# harmonic covariance coefficients
# ---------------------------------------------------------------------------


def harmonic_cov(weight: FourierWeight, g: TimeFn, T, t1, t2, k):
    """Per-harmonic covariance coefficient over the shared time window.

    ``k`` (one order or an integer array of them), ``t1`` and ``t2``
    broadcast against each other.  ``g`` is the variance density; ``T`` the
    window lag (anything accepted by :class:`TimeFn`).  The window bounds
    and the window mass ``g.integral`` are computed once per time pair,
    whatever the number of orders.  Exact when the coefficients are
    slice-independent (a table with one row per order and one column per
    distinct time, each entry evaluated once), otherwise
    :func:`~levygrowth.quadrature.kink_integral` per element, split at the
    kinks of ``g``, to 1e-12 of the window mass plus 1.  Zero where the
    windows do not overlap or the order exceeds the truncation.  Every
    element equals its one-order, one-pair value bit for bit; scalar inputs
    give a float.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    k = np.asarray(k)
    out = np.zeros(np.broadcast_shapes(k.shape, t1.shape))
    wanted = k <= weight.k_max
    if np.any(wanted):
        T = TimeFn.of(T)
        T1, T2 = T(t1), T(t2)
        if np.any(np.minimum(T1, T2) < 0.0):
            raise AssumptionViolation("time lags must be nonnegative")
        lo, hi = np.maximum(t1 - T1, t2 - T2), np.minimum(t1, t2)
        live = hi > lo
        mass = np.zeros(t1.shape)
        mass[live] = g.integral(lo[live], hi[live])
        todo = wanted & live
        if not weight.s_independent:
            ks, x1s, x2s, los, his, masses = np.broadcast_arrays(k, t1, t2, lo, hi, mass)
            for i in np.flatnonzero(todo):
                order, x1, x2 = ks.flat[i].item(), x1s.flat[i], x2s.flat[i]
                f = lambda s: weight.coef(order, x1, s) * weight.coef(order, x2, s) * g(s)
                s_lo, s_hi, tol = los.flat[i], his.flat[i], 1e-12 * (abs(masses.flat[i]) + 1.0)
                out.flat[i] = math.pi * kink_integral(f, s_lo, s_hi, g.kinks, tol)
        elif np.any(live):
            times, at = np.unique(np.stack([t1[live], t2[live]]), return_inverse=True)
            # not np.unique: without an inverse it imports numpy.ma, tens of ms
            orders = sorted(set(k[wanted].tolist()))
            a = np.array([[float(weight.coef(o, t, 0.0)) for t in times.tolist()] for o in orders])
            row = np.minimum(np.searchsorted(orders, k), len(orders) - 1)
            col = np.zeros((2, *t1.shape), dtype=np.intp)  # 0 where the windows miss
            col[:, live] = at.reshape(2, -1)
            out = np.where(todo, math.pi * a[row, col[0]] * a[row, col[1]] * mass, 0.0)
    return out if out.ndim else float(out)


@dataclass
class CircleCovModel:
    """Covariance on the circle as harmonic coefficients tau(k, t1, t2).

    Convention: ``cov = 2*tau_0 + sum_{k>=1} tau_k cos(k dphi)``; the
    coefficients are symmetric in the two times.  ``tau(k, t1, t2)`` must
    broadcast its three arguments: it is called once, with the orders
    0..k_max as a leading axis ``(k_max + 1, 1, ...)`` against the times
    (or it may return one value for every order and pair).
    """

    tau: Callable
    k_max: int

    @staticmethod
    def from_weight(weight: FourierWeight, g: TimeFn, T, k_max=None):
        km = weight.k_max if k_max is None else k_max
        return CircleCovModel(lambda k, t1, t2: harmonic_cov(weight, g, T, t1, t2, k), km)

    def cov(self, t1, phi1, t2, phi2):
        """Covariance between (t1, phi1) and (t2, phi2); the arguments
        broadcast.  ``tau`` is called once on the orders and the times
        alone, so times shaped (P, 1) against angles shaped (D,) cost
        (k_max + 1) x P coefficients."""
        d = cyc_dist(phi1, phi2)
        times_shape = np.broadcast_shapes(np.shape(t1), np.shape(t2))
        ks = np.arange(self.k_max + 1).reshape(-1, *(1,) * len(times_shape))
        tau = np.broadcast_to(self.tau(ks, t1, t2), (ks.size, *times_shape))
        total = 2.0 * tau[0]
        for k in range(1, self.k_max + 1):
            total = total + tau[k] * np.cos(k * d)
        total = np.broadcast_to(total, np.broadcast_shapes(times_shape, d.shape))
        return total.copy() if total.ndim else float(total)

    def table(self, time_pairs, dphis):
        """Rows (t1, t2, dphi, cov) for export, pair-major, as an array."""
        pairs = np.asarray(time_pairs, dtype=float).reshape(-1, 2)
        dphis = np.asarray(dphis, dtype=float).reshape(-1)
        cov = self.cov(pairs[:, :1], 0.0, pairs[:, 1:], dphis)
        rows = np.broadcast_arrays(pairs[:, :1], pairs[:, 1:], dphis, cov)
        return np.stack([col.ravel() for col in rows], axis=1)


def cov_full_angle(weight, g, T, t1, phi1, t2, phi2, k_max=None):
    """Truncated harmonic covariance between two space-time points."""
    return CircleCovModel.from_weight(weight, g, T, k_max).cov(t1, phi1, t2, phi2)


# ---------------------------------------------------------------------------
# separable correlations
# ---------------------------------------------------------------------------


def spatial_corr(weight: FourierWeight, t=0.0):
    """Angle-lag correlation function for slice-independent coefficients."""
    if not weight.s_independent:
        raise AssumptionViolation(
            "spatial correlation profile needs slice-independent coefficients"
        )
    a = np.array(
        [float(weight.coef(k, t, np.asarray(0.0))) for k in range(weight.k_max + 1)]
    )
    denom = 2.0 * a[0] ** 2 + np.sum(a[1:] ** 2)

    def rho(dphi):
        d = cyc_dist(dphi, 0.0)
        ks = np.arange(1, a.size)
        num = 2.0 * a[0] ** 2 + np.tensordot(
            a[1:] ** 2, np.cos(np.multiply.outer(ks, d)), axes=(0, 0)
        )
        return num / denom

    return rho


def temporal_corr(g: TimeFn, T, t1, t2):
    """Time correlation under fully separable coefficients a_k^t = b_t c_k.

    Ratio of the shared-window mass to the geometric mean of the two full
    window masses; equals 1 at equal times.
    """
    T = TimeFn.of(T)
    ov = _ambit.time_overlap(t1, float(T(t1)), t2, float(T(t2)))
    if ov is None:
        return 0.0
    num = float(g.integral(ov[0], ov[1]))
    d1 = float(g.integral(t1 - float(T(t1)), t1))
    d2 = float(g.integral(t2 - float(T(t2)), t2))
    if d1 <= 0 or d2 <= 0:
        return 0.0
    return num / math.sqrt(d1 * d2)


# ---------------------------------------------------------------------------
# target covariances on the circle
# ---------------------------------------------------------------------------


def weight_from_targets(targets, g: TimeFn, T, k_max=None):
    """Weight whose harmonic coefficients reproduce target values exactly.

    ``targets`` is an array (or callable of (k, t)) of nonnegative values
    ``c_k^t`` in the ``2*c_0 + sum c_k cos`` convention; the weight
    coefficients are ``a_k^t = sqrt(c_k^t / (pi * window mass))``.
    """
    T = TimeFn.of(T)
    if callable(targets):
        target_fn = targets
        km = k_max
        if km is None:
            raise ValueError("k_max required with callable targets")
    else:
        arr = np.asarray(targets, dtype=float)
        if np.any(arr < 0):
            raise NegativeTargetCoefficient("target coefficients must be >= 0")
        target_fn = lambda k, t: arr[k] if k < arr.size else 0.0
        km = arr.size - 1 if k_max is None else k_max

    masses = {}  # the window mass per time, computed once

    def fn(k, t, s):
        lam = float(target_fn(k, t))
        if lam < 0:
            raise NegativeTargetCoefficient("target coefficients must be >= 0")
        denom = masses.get(float(t))
        if denom is None:
            denom = masses[float(t)] = float(g.integral(t - float(T(t)), t))
        val = math.sqrt(lam / (math.pi * denom)) if denom > 0 and lam > 0 else 0.0
        return np.full(np.asarray(s, dtype=float).shape, val)

    apex_dep = callable(targets) or not T.is_constant
    return FourierWeight(fn, km, True, apex_dep, "target")


@dataclass(frozen=True)
class PthOrderParams:
    """Stationary circle-covariance family with polynomial spectral decay."""

    p: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.p < 1 or int(self.p) != self.p:
            raise ValueError("order p must be a positive integer")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


def pth_order_target(params: PthOrderParams, k):
    """Target coefficient: zero for k in {0, 1}, else the reciprocal polynomial."""
    if k < 0 or int(k) != k:
        raise ValueError("harmonic index must be a nonnegative integer")
    if k < 2:
        return 0.0
    return 1.0 / (
        params.alpha + params.beta * (float(k) ** (2 * params.p) - 2.0 ** (2 * params.p))
    )


def pth_order_weight(params: PthOrderParams, g: TimeFn, T, k_max=DEFAULT_K_MAX):
    """Weight realizing the p-th order covariance, plus its truncation tail bound.

    The discarded coefficients decay like ``k**(-2p)``, so the absolute
    covariance tail beyond ``k_max`` is at most
    ``sum_{k > k_max} 1 / (beta (k^{2p} - 2^{2p}))`` which is bounded by the
    integral test value returned alongside the weight.
    """
    w = weight_from_targets(lambda k, t: pth_order_target(params, k), g, T, k_max=k_max)
    p2 = 2 * params.p
    tail = (k_max ** (1 - p2)) / (params.beta * (p2 - 1)) if k_max >= 3 else math.inf
    return w, tail


# ---------------------------------------------------------------------------
# overlap coefficients from boundary profiles
# ---------------------------------------------------------------------------


def overlap_coeffs_from_boundary(gammas, n_terms=None):
    """Cosine coefficients of the self-overlap measure of a boundary set.

    ``gammas`` are the cosine coefficients of the integrated boundary
    profile.  Returns the conventional closed forms (plain cosine series,
    index 0 is the constant term)::

        lam_0 = sum_{k odd} (2*pi - 16/(pi k^2)) gamma_k
                - 2*pi * sum_{k even, incl. 0} gamma_k
        lam_j = (16/pi) * sum_{k odd} gamma_k / ((2j)^2 - k^2)

    The closed-form constant term is known to disagree with direct
    quadrature of the overlap integral (the oscillatory terms agree); see
    :func:`boundary_overlap_report`, which treats the quadrature as the
    authority and surfaces the difference.
    """
    g = np.asarray(gammas, dtype=float)
    if n_terms is None:
        n_terms = max(8, g.size)
    ks = np.arange(g.size)
    odd = ks % 2 == 1
    even = ~odd
    lam = np.zeros(n_terms + 1)
    lam[0] = float(
        np.sum((2.0 * np.pi - 16.0 / (np.pi * ks[odd] ** 2)) * g[odd])
        - 2.0 * np.pi * np.sum(g[even])
    )
    js = np.arange(1, n_terms + 1)
    if np.any(odd):
        denom = (2.0 * js[:, None]) ** 2 - ks[odd][None, :] ** 2
        lam[1:] = (16.0 / np.pi) * np.sum(g[odd][None, :] / denom, axis=1)
    return lam


def overlap_constant_term(gammas):
    """Constant term of the self-overlap cosine series, derived by
    integrating the overlap formula term by term::

        lam_0 = sum_{k odd} (2*pi - 8/(pi k^2)) gamma_k
                - 2*pi * sum_{k even, k >= 2} gamma_k

    It agrees with :func:`boundary_overlap_oracle`.  The closed form of
    :func:`overlap_coeffs_from_boundary` has 16 in place of 8 and a
    ``gamma_0`` term, which cancels in the overlap integral.
    """
    g = np.asarray(gammas, dtype=float)
    ks = np.arange(g.size)
    odd = ks % 2 == 1
    return float(
        np.sum((2.0 * np.pi - 8.0 / (np.pi * ks[odd] ** 2)) * g[odd])
        - 2.0 * np.pi * np.sum(g[2::2])
    )


def boundary_overlap_oracle(gammas, n_grid=2048, n_terms=8):
    """Brute-force coefficients: quadrature of the overlap integral, then DFT.

    Works at the integrated-profile level (the overlap depends on the
    boundary only through it): the overlap formula of
    :func:`levygrowth.ambit.self_intersection_measure` with a unit control
    density and ``hbar(x) = sum gamma_k cos(k x)``.  Its two integrals at
    every grid angle take one Gauss-Legendre rule of ``2 * len(gammas) + 16``
    nodes, which integrates ``cos(k x)`` to round-off on the intervals of
    half-length at most pi/2 that occur.
    """
    g = np.asarray(gammas, dtype=float)
    phis = 2.0 * np.pi * np.arange(n_grid) / n_grid - np.pi
    half_a = 0.5 * np.abs(wrap(phis))
    nodes, weights = np.polynomial.legendre.leggauss(2 * g.size + 16)
    lo = np.stack([np.full(n_grid, -np.pi), half_a])  # (2 intervals, n_grid)
    hi = np.stack([half_a - np.pi, np.full(n_grid, np.pi)])
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[..., None] + half[..., None] * nodes
    hbar = sum((gk * np.cos(k * x) for k, gk in enumerate(g)), np.zeros_like(x))
    vals = 2.0 * np.sum(half * (hbar @ weights), axis=0) - TWO_PI * np.sum(
        g * np.cos(np.arange(g.size) * np.pi)
    )
    lam = 2.0 * np.mean(vals * np.cos(np.multiply.outer(np.arange(n_terms + 1), phis)), axis=1)
    lam[0] /= 2.0
    return lam


def boundary_overlap_report(gammas, n_grid=2048, n_terms=8, tol=1e-5):
    """Compare the closed-form coefficients against the quadrature oracle.

    Returns a list of per-index findings ``{k, closed_form, oracle,
    abs_diff, within_tol}``; callers must surface (not drop) entries with
    ``within_tol == False``.  The oracle value is authoritative.
    """
    closed = overlap_coeffs_from_boundary(gammas, n_terms)
    oracle = boundary_overlap_oracle(gammas, n_grid, n_terms)
    return [
        {
            "k": k,
            "closed_form": float(c),
            "oracle": float(o),
            "abs_diff": float(abs(c - o)),
            "within_tol": bool(abs(c - o) <= tol),
        }
        for k, (c, o) in enumerate(zip(closed, oracle))
    ]
