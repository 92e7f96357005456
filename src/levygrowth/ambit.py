"""Ambit-set geometry on the cylinder [-pi, pi) x R.

An ambit set ``A_t(phi)`` is the space-time region whose basis mass feeds
the value (or growth rate) at angle ``phi`` and time ``t``.  Every family
here is translation covariant in the angle, contains its apex ``(phi, t)``
and lies in the past ``{s <= t}``.  Geometrically each family is described
by a time window ``[lo(t), t]`` and an angular half-width profile
``half_width(t, s)`` (clamped to pi, where pi means the full circle).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .csvrows import csv_block, reprs
from .cyclic import TWO_PI, arc_overlap_length, cyc_dist, wrap
from .errors import AssumptionViolation, NonMonotoneRadius, RegionOutsideGrid
from .levy_core import ControlMeasure, GridSpec
from .quadrature import kink_integral
from .timefn import TimeFn


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class AmbitFamily:
    """Shared predicate/measure machinery; subclasses fix the geometry."""

    def window(self, t):
        raise NotImplementedError

    def half_width(self, t, s):
        """Angular half-width at slice ``s`` for apex time ``t``, in [0, pi]."""
        raise NotImplementedError

    def kinks(self, t):
        """Slices where ``half_width(t, .)`` has a known kink or jump."""
        return ()

    # True when the angular part does not depend on the apex time, i.e. the
    # set factorizes into (time window) x (angle cone).
    factorizes = False

    def contains(self, t, phi, theta, s):
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        lo, hi = self.window(t)
        in_window = (s >= lo) & (s <= hi)
        hw = np.where(in_window, self.half_width(t, np.where(in_window, s, hi)), 0.0)
        out = in_window & (cyc_dist(theta, phi) <= hw)
        return out if out.ndim else bool(out)

    def measure(self, t, control: ControlMeasure):
        """mu(A_t(phi)); closed form where the geometry allows, else
        :func:`~levygrowth.quadrature.kink_integral` of ``2 hw g`` at the
        kinks of both, to 1e-10 of ``2 pi |int g| + 1``."""
        lo, hi = self.window(t)
        if hi <= lo:
            return 0.0
        g = control.g
        closed = self._measure_closed_form(t, g)
        if closed is not None:
            return closed
        tol = 1e-10 * (TWO_PI * abs(g.integral(lo, hi)) + 1.0)
        f = lambda s: 2.0 * self.half_width(t, s) * g(s)
        return kink_integral(f, lo, hi, (*self.kinks(t), *g.kinks), tol)

    def _measure_closed_form(self, t, g: TimeFn):
        return None

    def describe(self):
        return {"family": type(self).__name__}


@dataclass(frozen=True)
class FullAngle(AmbitFamily):
    """Full angular range over the window [t - T(t), t]."""

    T: TimeFn

    factorizes = True

    @staticmethod
    def of(T):
        return FullAngle(TimeFn.of(T))

    def window(self, t):
        return (t - float(self.T(t)), t)

    def half_width(self, t, s):
        return np.full(np.asarray(s, dtype=float).shape, np.pi)

    def _measure_closed_form(self, t, g):
        lo, hi = self.window(t)
        return TWO_PI * float(g.integral(lo, hi))

    def describe(self):
        return {"family": "full_angle", "T": self.T.describe()}


@dataclass(frozen=True)
class Rectangular(AmbitFamily):
    """Cone of half-width Theta(s) over the window [t - T(t), t]."""

    theta: TimeFn  # half-width as a function of the slice s
    T: TimeFn

    factorizes = True

    @staticmethod
    def of(theta, T):
        return Rectangular(TimeFn.of(theta), TimeFn.of(T))

    def window(self, t):
        return (t - float(self.T(t)), t)

    def half_width(self, t, s):
        return np.minimum(np.asarray(self.theta(s), dtype=float), np.pi)

    def kinks(self, t):
        return self.theta.kinks

    def _measure_closed_form(self, t, g):
        if self.theta.is_constant:
            lo, hi = self.window(t)
            return 2.0 * min(self.theta.value, np.pi) * float(g.integral(lo, hi))
        return None

    def describe(self):
        return {
            "family": "rectangular",
            "theta": self.theta.describe(),
            "T": self.T.describe(),
        }


@dataclass(frozen=True)
class WedgeOverS(AmbitFamily):
    """Half-width Theta / s over [max(0, t - T), t]; full circle for s <= Theta/pi."""

    theta: float
    T: float

    factorizes = True

    def window(self, t):
        return (max(0.0, t - self.T), t)

    def half_width(self, t, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            hw = np.where(s > 0, self.theta / np.maximum(s, 1e-300), np.inf)
        return np.minimum(hw, np.pi)

    def kinks(self, t):
        return (self.theta / np.pi,)  # where Theta / s reaches pi

    def describe(self):
        return {"family": "wedge_over_s", "theta": self.theta, "T": self.T}


@dataclass(frozen=True)
class BoundaryFn(AmbitFamily):
    """Set bounded above by an even, decreasing profile: h(pi) <= s <= h(d(theta, phi)).

    ``h`` maps an apex time to the boundary profile ``h_t`` (an even function
    of the angle, decreasing on [0, pi), with ``h_t(0) = t``).
    """

    h: Callable[[float], Callable]

    def _ht(self, t):
        return self.h(t)

    def window(self, t):
        ht = self._ht(t)
        return (float(ht(np.pi)), t)

    def half_width(self, t, s):
        """pi up to ``h_t(pi)``, 0 above ``h_t(0)``, else the largest angle
        with ``h_t >= s``, by 60 bisections of every slice at once."""
        ht = self._ht(t)
        s = np.asarray(s, dtype=float)
        a, b = np.zeros(s.shape), np.full(s.shape, np.pi)
        for _ in range(60):
            mid = 0.5 * (a + b)
            above = np.asarray(ht(mid), dtype=float) >= s
            a, b = np.where(above, mid, a), np.where(above, b, mid)
        inside = np.where(s > float(ht(0.0)), 0.0, 0.5 * (a + b))
        out = np.where(s <= float(ht(np.pi)), np.pi, inside)
        return out if out.ndim else float(out)

    def contains(self, t, phi, theta, s):
        # Direct predicate; avoids the numeric inversion of h.
        ht = self._ht(t)
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        d = cyc_dist(theta, phi)
        out = (s >= float(ht(np.pi))) & (s <= np.asarray(ht(d), dtype=float))
        return out if out.ndim else bool(out)

    def describe(self):
        return {"family": "boundary_fn", "h": getattr(self.h, "__name__", "h")}


@dataclass(frozen=True)
class Tumour(AmbitFamily):
    """Full-angle band over [t-T(t), t-t0(t)] plus a linearly shrinking cone.

    On the recent band the half-width falls linearly from ``phi0(t)/2`` at
    ``s = t - t0(t)`` to 0 at ``s = t``.
    """

    T: TimeFn
    t0: TimeFn
    phi0: TimeFn

    @staticmethod
    def of(T, t0, phi0):
        return Tumour(TimeFn.of(T), TimeFn.of(t0), TimeFn.of(phi0))

    def window(self, t):
        return (t - float(self.T(t)), t)

    def band_split(self, t):
        """(t - T, t - t0, t): the full-angle band and the shrinking band."""
        T = float(self.T(t))
        t0 = float(self.t0(t))
        if not (0.0 < t0 <= T):
            raise ValueError("tumour family needs 0 < t0(t) <= T(t)")
        return (t - T, t - t0, t)

    def half_width(self, t, s):
        """pi on the full-angle band, h_t(s - t + t0(t)) on the shrinking one."""
        _, mid, _ = self.band_split(t)
        t0, phi0 = float(self.t0(t)), float(self.phi0(t))
        s = np.asarray(s, dtype=float)
        shrink = np.clip(0.5 * phi0 * (1.0 - (s - t + t0) / t0), 0.0, np.pi)
        return np.where(s <= mid, np.pi, shrink)

    def kinks(self, t):
        return (self.band_split(t)[1],)

    def describe(self):
        return {
            "family": "tumour",
            "T": self.T.describe(),
            "t0": self.t0.describe(),
            "phi0": self.phi0.describe(),
        }


# ---------------------------------------------------------------------------
# overlap machinery
# ---------------------------------------------------------------------------


def time_overlap(t1, T1, t2, T2):
    """Shared time interval of two windows [t_i - T_i, t_i]; None when empty."""
    if T1 < 0 or T2 < 0:
        raise AssumptionViolation("time lags must be nonnegative")
    lo = max(t1 - T1, t2 - T2)
    hi = min(t1, t2)
    return (lo, hi) if lo <= hi else None


def intersection_measure(
    family: AmbitFamily,
    t1,
    phi1,
    t2,
    phi2,
    control: ControlMeasure,
    *,
    method="auto",
):
    """mu(A_t1(phi1) ∩ A_t2(phi2)).

    Uses closed forms for full-angle windows and for equal-time
    self-intersections of boundary-profile sets; the generic path integrates
    the exact arc-overlap length over the shared time window with
    :func:`~levygrowth.quadrature.kink_integral` at the kinks of both
    half-widths and of ``g`` (not where the overlap starts to grow, which
    its halving finds) to 1e-8 of ``mu(A_t1)``; ``method='quadrature'``
    takes that path in every case.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown intersection-measure method {method!r}")
    g = control.g
    lo1, hi1 = family.window(t1)
    lo2, hi2 = family.window(t2)
    s_lo, s_hi = max(lo1, lo2), min(hi1, hi2)
    if s_hi <= s_lo:
        return 0.0
    delta = float(cyc_dist(phi1, phi2))
    if method == "auto":
        if isinstance(family, FullAngle):
            return TWO_PI * float(g.integral(s_lo, s_hi))
        if delta == 0.0 and t1 == t2:
            return family.measure(t1, control)
        if isinstance(family, BoundaryFn) and t1 == t2:
            return self_intersection_measure(family._ht(t1), g, delta)
    tol = 1e-8 * (family.measure(t1, control) + 1e-300)
    hw = family.half_width
    f = lambda s: arc_overlap_length(delta, hw(t1, s), hw(t2, s)) * g(s)
    return kink_integral(f, s_lo, s_hi, (*family.kinks(t1), *family.kinks(t2), *g.kinks), tol)


def self_intersection_measure(h, g: TimeFn, phi):
    """Overlap measure of a boundary-profile set with its own rotation.

    For a set bounded above by the even decreasing profile ``h`` and control
    density ``g``, with ``hbar = int_0^h g``, the overlap of the set at angle
    0 with its copy rotated by ``phi`` equals::

        2 * int_{-pi}^{-pi + phi/2} hbar  +  2 * int_{phi/2}^{pi} hbar
            - 2*pi * hbar(pi)

    evaluated here by :func:`~levygrowth.quadrature.kink_integral` to 1e-10
    of ``2 pi (|hbar(0)| + |hbar(pi)|) + 1``; symmetric in ``phi -> -phi``.
    """
    a = abs(float(wrap(phi)))

    def hbar(x):
        return g.integral(0.0, h(np.abs(x)))

    tol = 1e-10 * (TWO_PI * (abs(hbar(0.0)) + abs(hbar(np.pi))) + 1.0)
    first = kink_integral(hbar, -np.pi, -np.pi + a / 2.0, (), tol)
    second = kink_integral(hbar, a / 2.0, np.pi, (), tol)
    return 2.0 * first + 2.0 * second - TWO_PI * hbar(np.pi)


def check_covered(family: AmbitFamily, control, grid, t, *, union=False):
    """Raise :class:`RegionOutsideGrid` unless the grid's time window holds
    the part of ``A_t`` (with ``union``, of the union of ``A_u`` over apexes
    ``u`` in [0, t]) where the control measure lives."""
    lo = min(family.window(0.0)[0], 0.0) if union else family.window(t)[0]
    if not grid.covers(max(lo, control.g.support[0]), t):
        raise RegionOutsideGrid(f"grid window does not cover the model at t={t}")


# ---------------------------------------------------------------------------
# regions for stochastic integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbitRegion:
    """One ambit set as an integration region."""

    family: AmbitFamily
    t: float
    phi: float

    def time_window(self):
        return self.family.window(self.t)

    def contains(self, theta, s):
        return self.family.contains(self.t, self.phi, theta, s)

    def measure(self, control):
        return self.family.measure(self.t, control)


# ---------------------------------------------------------------------------
# weights and mesh kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    apex_dependent = False

    def value(self, t, theta, s, phi=0.0):
        return np.full(np.broadcast(np.asarray(theta), np.asarray(s)).shape, self.c)

    def describe(self):
        return {"weight": "constant", "c": self.c}


@dataclass(frozen=True)
class _FunctionWeight:
    """Apex-free weight ``fn(theta, s)`` evaluated at the integration point."""

    fn: Callable

    apex_dependent = False

    def value(self, t, theta, s, phi=0.0):
        return np.asarray(self.fn(theta, s), dtype=float)

    def describe(self):
        return {"weight": "callable", "name": getattr(self.fn, "__name__", "fn")}


def as_weight(x):
    """Weight object for ``x``: a number becomes a :class:`ConstantWeight`, a
    callable ``w(theta, s)`` a wrapper evaluating it; objects with
    ``value(t, theta, s, phi)`` pass through."""
    if isinstance(x, numbers.Real):
        return ConstantWeight(float(x))
    if callable(x):
        return _FunctionWeight(x)
    return x


def mesh_kernel(family: AmbitFamily, weight, grid: GridSpec, t, phi, rows=None):
    """Weight times membership in ``A_t(phi)`` at every cell midpoint.

    Shape (n_t, n_phi), rows indexed by time slice; with ``rows``, only
    those time rows, in that order.  ``weight`` is a weight object (see
    :func:`as_weight`).
    """
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None] if rows is None else grid.t_mids[rows, None]
    member = family.contains(t, phi, theta, s)
    return np.where(member, weight.value(t, theta, s, phi), 0.0)


# ---------------------------------------------------------------------------
# time unions and induced weights
# ---------------------------------------------------------------------------


def window_length_in_union(family: AmbitFamily, s, t):
    """Length of {apex u in [0, t] whose window covers slice s}.

    ``t`` may be an array broadcasting against ``s``: the last apex whose
    window covers a slice is then found once, up to the largest ``t``.
    Requires the window start ``u - T(u)`` to be non-decreasing.  Nothing
    here checks it: the caller checks with :func:`check_union_window_start`.
    """
    s = np.asarray(s, dtype=float)
    upper = _union_upper(family, s, t if np.isscalar(t) else float(np.max(t)))
    return np.maximum(0.0, np.minimum(upper, t) - np.maximum(s, 0.0))


def _union_upper(family, s, t):
    T = getattr(family, "T", None)
    if isinstance(family, WedgeOverS):
        # slices below 0 carry no mass for this family
        return np.where(s >= 0.0, np.minimum(s + family.T, t), s)
    if isinstance(T, TimeFn) and T.is_constant:
        return np.minimum(s + T.value, t)
    if isinstance(T, TimeFn) and T.kind == "proportional" and T.support == (-math.inf, math.inf):
        c = T.params[0]
        if c >= 1.0:
            return np.full(s.shape, t)
        return np.minimum(s / (1.0 - c), t)
    # generic: largest u <= t with window_lo(u) <= s, by bisection of every
    # slice at once; the window start is u - T(u) where T is a time function
    if isinstance(T, TimeFn) and T.kind != "callable":
        lo_fn = lambda u: u - T(u)
    else:
        lo_fn = np.vectorize(lambda u: family.window(u)[0], otypes=[float])
    start = np.maximum(s, 0.0)
    a, b = start, np.full(s.shape, float(t))
    for _ in range(60):
        mid = 0.5 * (a + b)
        below = lo_fn(mid) <= s
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    return np.where(lo_fn(t) <= s, t, np.where(lo_fn(start) > s, start, 0.5 * (a + b)))


def check_union_window_start(family: AmbitFamily, t_grid, floor=-np.inf):
    """Raise :class:`AssumptionViolation` where the window start ``t - T(t)``,
    raised to at least ``floor``, decreases (by more than 1e-9) along
    ``t_grid``: :func:`window_length_in_union` needs it non-decreasing."""
    starts = np.maximum([family.window(t)[0] for t in np.atleast_1d(t_grid)], floor)
    drops = np.flatnonzero(np.diff(starts) < -1e-9)
    if drops.size:
        raise AssumptionViolation(
            f"the ambit window start t - T(t) decreases after t = {t_grid[drops[0]]:g}; "
            "the time-union length needs it non-decreasing"
        )


def induced_weight(family: AmbitFamily, weight, t, phi=0.0, *, method="auto", step=None):
    """Accumulated weight for the time-integrated model.

    Returns a vectorized ``fbar(theta, s)`` equal to the apex-time integral
    of (ambit indicator x instantaneous weight) over apexes in [0, t].

    ``weight`` is anything :func:`as_weight` accepts: a constant, a callable
    ``w(theta, s)`` applied at the integration point (apex-independent), or
    an object with ``value(t_apex, theta, s, phi)`` and flag
    ``apex_dependent``.

    ``method='exact'`` uses the closed-form window length (factorizing
    families, apex-independent weights); ``'direct'`` integrates the set
    indicator over an apex mesh of spacing ``step``.
    """
    weight = as_weight(weight)
    w_apex_dep = weight.apex_dependent
    if method == "auto":
        method = "exact" if (family.factorizes and not w_apex_dep) else "direct"
    if method not in ("exact", "direct"):
        raise ValueError(f"unknown induced-weight method {method!r}")
    if method == "exact" and (w_apex_dep or not family.factorizes):
        raise ValueError("exact induced weight needs a factorizing family and apex-free weight")

    if method == "exact":

        def fbar(theta, s):
            theta = np.asarray(theta, dtype=float)
            s = np.asarray(s, dtype=float)
            hw = family.half_width(t, s)
            cone = cyc_dist(theta, phi) <= hw
            w = weight.value(t, theta, s, phi)
            return cone * window_length_in_union(family, s, t) * w

        return fbar

    if step is None:
        step = max(t / 512.0, 1e-6)
    n = max(1, int(round(t / step)))
    apexes = (np.arange(n) + 0.5) * (t / n)
    dt_apex = t / n

    def fbar(theta, s):
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        shape = np.broadcast(theta, s).shape
        acc = np.zeros(shape)
        for u in apexes:
            member = family.contains(u, phi, theta, s)
            acc += member * weight.value(u, theta, s, phi) * dt_apex
        return acc

    return fbar


# ---------------------------------------------------------------------------
# Euclidean embedding
# ---------------------------------------------------------------------------


@dataclass
class EmbeddedAmbit:
    """Planar image of an ambit set under the grown object's radial map."""

    boundary_xy: np.ndarray  # (n, 2) closed polyline
    touch_xy: np.ndarray  # (2,) boundary contact point
    points_xy: Optional[np.ndarray] = None  # embedded outbursts, Poisson only

    def to_csv(self, path, header=""):
        with open(path, "w") as fh:
            if header:
                fh.write(header if header.endswith("\n") else header + "\n")
            fh.write("x,y\n")
            fh.write(csv_block(reprs(self.boundary_xy[:, 0]), reprs(self.boundary_xy[:, 1])))


def _radius_lookup(history, theta, s):
    """R_s(theta) from a history, linear in time, circular-linear in angle."""
    times = history.times
    profs = history.profiles
    theta = np.asarray(theta, dtype=float)
    s = np.clip(np.asarray(s, dtype=float), times[0], times[-1])
    it = np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2)
    w = np.where(
        times[it + 1] > times[it], (s - times[it]) / (times[it + 1] - times[it]), 0.0
    )
    n_phi = profs.shape[1]
    dphi = TWO_PI / n_phi
    pos = (np.asarray(wrap(theta)) - history.angles[0]) / dphi
    j0 = np.floor(pos).astype(int) % n_phi
    j1 = (j0 + 1) % n_phi
    fa = pos - np.floor(pos)
    r_lo = profs[it, j0] * (1 - fa) + profs[it, j1] * fa
    r_hi = profs[it + 1, j0] * (1 - fa) + profs[it + 1, j1] * fa
    return r_lo * (1 - w) + r_hi * w


def euclidean_embedding(
    history, family: AmbitFamily, t, phi, realization=None, n_samples=256
):
    """Embed A_t(phi) into the plane through the radial map of a history.

    Requires the history to be non-decreasing in time at every angle.  For
    Poisson realizations the embedded outbursts arrived up to ``t`` are
    returned as well.  The polyline always passes through the boundary
    contact point at angle ``phi``.
    """
    if np.any(np.diff(history.profiles, axis=0) < -1e-12):
        raise NonMonotoneRadius("history is not non-decreasing in time")
    lo, hi = family.window(t)
    lo = max(lo, float(history.times[0]))
    s_levels = np.linspace(lo, t, n_samples)
    hw = np.array([float(family.half_width(t, s)) for s in s_levels])
    # Perimeter: bottom arc, right flank rising, top arc (through the apex
    # angle exactly), left flank falling.
    theta_bottom = np.linspace(phi - hw[0], phi + hw[0], n_samples)
    right = np.stack([phi + hw, s_levels], axis=1)
    half = n_samples // 2
    theta_top = np.concatenate(
        [np.linspace(phi + hw[-1], phi, half), np.linspace(phi, phi - hw[-1], half)]
    )
    left = np.stack([phi - hw[::-1], s_levels[::-1]], axis=1)
    bottom = np.stack([theta_bottom, np.full(n_samples, lo)], axis=1)
    top = np.stack([theta_top, np.full(theta_top.size, t)], axis=1)
    path = np.concatenate([bottom, right, top, left], axis=0)
    r = _radius_lookup(history, path[:, 0], path[:, 1])
    ang = wrap(path[:, 0])
    xy = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
    r_touch = float(_radius_lookup(history, np.asarray(phi), np.asarray(t)))
    touch = np.array([r_touch * math.cos(phi), r_touch * math.sin(phi)])
    points_xy = None
    if realization is not None and realization.kind == "poisson":
        pts = realization.points()
        keep = pts.s <= t
        r_pts = _radius_lookup(history, pts.theta[keep], pts.s[keep])
        points_xy = np.stack(
            [r_pts * np.cos(pts.theta[keep]), r_pts * np.sin(pts.theta[keep])], axis=1
        )
    return EmbeddedAmbit(boundary_xy=xy, touch_xy=touch, points_xy=points_xy)
