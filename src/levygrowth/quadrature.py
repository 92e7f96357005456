"""Quadrature over the slice coordinate: :func:`kink_integral` for every
integrand whose kinks the code can name, :func:`adaptive_simpson` for
callable time functions, whose kinks are unknown."""

import math

import numpy as np

from .errors import NonConvergence


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
# 1e-37 of its piece's end.  The even k make the rule at twice the step.
_TS_T = np.arange(-32, 33) / 8.0
# kink_integral's limits.  An unnamed kink takes some 30 halvings at 1e-12;
# more pieces than the cap means failures everywhere.  The rule at twice
# the step integrates a constant to 3.7e-14, so the two levels need not
# agree closer than the floor, relative to the piece's absolute sum.
_MAX_HALVINGS, _MAX_PIECES, _LEVEL_FLOOR = 40, 1 << 12, 1e-13


def _pieces(lo, hi, kinks):
    """Ends ``(a, b)`` of the pieces of [lo, hi] between the kinks inside it."""
    edges = np.array([lo, *sorted({k for k in kinks if lo < k < hi}), hi], dtype=float)
    return (edges[:-1], edges[1:]) if hi > lo else (edges[:0], edges[:0])


def _rule(a, b):
    """Tanh-sinh nodes and weights, shape (pieces, 65), on the pieces [a, b]."""
    a, b = a[:, None], b[:, None]
    u = np.pi * np.sinh(_TS_T)
    left, right = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))  # fractions from a and b
    nodes = np.where(_TS_T < 0.0, a + (b - a) * left, b - (b - a) * right)
    weights = (b - a) * (np.pi / 8.0) * np.cosh(_TS_T) * left * right
    return nodes, weights


def tanh_sinh(lo, hi, kinks):
    """Nodes and weights of the tanh-sinh (double exponential) rule on each
    piece of [lo, hi] between the ``kinks`` inside it, concatenated.

    A piece maps to the line by ``s = a + (b - a) / (1 + exp(-pi sinh t))``,
    whose derivative decays double exponentially, so an integrand that is
    smooth inside each piece is integrated to rounding even when it has an
    algebraic singularity at a piece end, as ``sqrt(s)`` has at 0 (Takahasi
    & Mori 1974).  Nodes near a piece's upper end are measured from that
    end, so none is lost to cancellation.
    """
    nodes, weights = _rule(*_pieces(lo, hi, kinks))
    return nodes.ravel(), weights.ravel()


def kink_integral(f, lo, hi, kinks, tol):
    """``int f`` over [lo, hi] to absolute tolerance ``tol``, by the
    :func:`tanh_sinh` rule on its pieces between the ``kinks``.

    ``f`` maps a 1-D array of slices to their values.  A piece whose sum
    differs from the sum at twice the step (the even nodes) by more than its
    share of ``tol``, in proportion to its length, is halved: a kink left
    out costs evaluations, not accuracy.  A non-finite value returns at
    once; failures left after the halvings raise
    :class:`~levygrowth.errors.NonConvergence`.
    """
    a, b = _pieces(lo, hi, kinks)
    total, halvings = 0.0, 0
    while a.size:
        if halvings > _MAX_HALVINGS or a.size > _MAX_PIECES:
            where = f"tanh-sinh pieces from s = {a.min():g}"
            raise NonConvergence(f"{where} miss the tolerance {tol:g}")
        nodes, weights = _rule(a, b)
        terms = weights * np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        fine = terms.sum(axis=1)
        if not np.all(np.isfinite(fine)):
            return total + float(fine.sum())
        allowed = np.maximum(tol * (b - a) / (hi - lo), _LEVEL_FLOOR * np.abs(terms).sum(axis=1))
        done = np.abs(fine - 2.0 * terms[:, ::2].sum(axis=1)) <= allowed
        total += float(fine[done].sum())
        a, b = a[~done], b[~done]
        a, b = np.concatenate([a, 0.5 * (a + b)]), np.concatenate([0.5 * (a + b), b])
        halvings += 1
    return total
