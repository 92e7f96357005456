"""Adaptive Simpson quadrature for piecewise-smooth 1-D integrands."""

import math

import numpy as np


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=40, min_intervals=8):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    The interval is pre-split into ``min_intervals`` panels so that kinks
    well inside the domain (piecewise ambit boundaries) are localized, then
    each panel is refined recursively with the usual Richardson criterion.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0
    edges = np.linspace(a, b, min_intervals + 1)
    per_panel_tol = tol / min_intervals
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += _simpson_panel(f, lo, hi, per_panel_tol, max_depth)
    return total


def _simp(f_lo, f_mid, f_hi, h):
    return h / 6.0 * (f_lo + 4.0 * f_mid + f_hi)


def _simpson_panel(f, lo, hi, tol, max_depth):
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = float(f(lo)), float(f(mid)), float(f(hi))
    whole = _simp(f_lo, f_mid, f_hi, hi - lo)
    return _refine(f, lo, hi, f_lo, f_mid, f_hi, whole, tol, max_depth)


def _refine(f, lo, hi, f_lo, f_mid, f_hi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    f_lmid, f_rmid = float(f(lmid)), float(f(rmid))
    left = _simp(f_lo, f_lmid, f_mid, mid - lo)
    right = _simp(f_mid, f_rmid, f_hi, hi - mid)
    estimate = left + right
    if not math.isfinite(estimate):
        # a NaN or infinite integrand value: refining cannot converge, so the
        # non-finite estimate is returned as it is
        return estimate
    error = estimate - whole
    if depth <= 0 or abs(error) <= 15.0 * tol:
        return estimate + error / 15.0
    return _refine(f, lo, mid, f_lo, f_lmid, f_mid, left, tol / 2.0, depth - 1) + _refine(
        f, mid, hi, f_mid, f_rmid, f_hi, right, tol / 2.0, depth - 1
    )


# tanh-sinh abscissae t = k / 8, |k| <= 32: beyond |t| = 4 a node lies within
# 1e-37 of its piece's end
_TS_T = np.arange(-32, 33) / 8.0


def tanh_sinh(edges):
    """Nodes and weights of the tanh-sinh (double exponential) rule on each
    piece ``[edges[i], edges[i + 1]]`` of positive length, concatenated.

    A piece maps to the line by ``s = a + (b - a) / (1 + exp(-pi sinh t))``,
    whose derivative decays double exponentially, so an integrand that is
    smooth inside each piece is integrated to rounding even when it has an
    algebraic singularity at a piece end, as ``sqrt(s)`` has at 0 (Takahasi
    & Mori 1974).  Nodes near a piece's upper end are measured from that
    end, so none is lost to cancellation.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    keep = (b > a)[:, 0]
    a, b = a[keep], b[keep]
    u = np.pi * np.sinh(_TS_T)
    left, right = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))  # fractions from a and b
    nodes = np.where(_TS_T < 0.0, a + (b - a) * left, b - (b - a) * right)
    weights = (b - a) * (np.pi / 8.0) * np.cosh(_TS_T) * left * right
    return nodes.ravel(), weights.ravel()
