"""The one type for functions of time: densities, lags, widths and drifts.

The control density ``g(s)`` of ``mu(d-theta ds) = g(s) ds d-theta``, the
window lag ``T(t)``, the cone width ``Theta(s)`` and the drift are all
:class:`TimeFn` values.  Keeping the common shapes (constant, proportional,
affine, exponential, power, table, step, gompertz) as tagged data rather
than bare lambdas lets ambit geometry pick exact closed-form paths, gives
every shape an exact vectorized integral and keeps run configurations
hashable.  A function may carry a support interval, unbounded by default,
outside which it is 0; the nonnegative control densities of
:data:`levygrowth.levy_core.TimeDensity` live on ``s >= 0`` (or their own
support start) this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import UnboundedRegion
from .quadrature import adaptive_simpson

_UNBOUNDED = (-math.inf, math.inf)


@dataclass(frozen=True)
class TimeFn:
    kind: str
    params: tuple = ()
    fn: Optional[Callable] = None
    support: tuple = _UNBOUNDED

    @staticmethod
    def constant(value):
        return TimeFn("constant", (float(value),))

    @staticmethod
    def zero():
        return TimeFn.constant(0.0)

    @staticmethod
    def proportional(factor):
        """t -> factor * t."""
        return TimeFn("proportional", (float(factor),))

    @staticmethod
    def affine(intercept, slope):
        return TimeFn("affine", (float(intercept), float(slope)))

    @staticmethod
    def exponential(a, b):
        """t -> a * exp(-b t)."""
        return TimeFn("exponential", (float(a), float(b)))

    @staticmethod
    def power(a, alpha):
        """t -> a * t ** alpha for t >= 0, and 0 before."""
        return TimeFn("power", (float(a), float(alpha)))

    @staticmethod
    def table(ts, values):
        """Linear interpolation between nodes, flat outside them."""
        ts, values = TimeFn._check_nodes(ts, values)
        return TimeFn("table", (ts, values))

    @staticmethod
    def step(ts, values):
        """Piecewise constant: holds each value from its abscissa onward."""
        ts, values = TimeFn._check_nodes(ts, values)
        return TimeFn("step", (ts, values))

    @staticmethod
    def gompertz(kappa0, eta, gamma):
        """Gompertz growth rate, the derivative of
        ``kappa0 * exp((eta / gamma) * (1 - exp(-gamma t)))``, gamma != 0."""
        if float(gamma) == 0.0:
            raise ValueError("gompertz needs a nonzero gamma")
        return TimeFn("gompertz", (float(kappa0), float(eta), float(gamma)))

    @staticmethod
    def _check_nodes(ts, values):
        ts = tuple(float(t) for t in ts)
        values = tuple(float(v) for v in values)
        if len(ts) != len(values) or len(ts) == 0:
            raise ValueError("table needs matching, nonempty ts/values")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("table abscissae must be strictly increasing")
        return ts, values

    @staticmethod
    def of(x):
        """Coerce floats, TimeFns and (vectorized) callables to a TimeFn."""
        if isinstance(x, TimeFn):
            return x
        if callable(x):
            return TimeFn("callable", (), x)
        return TimeFn.constant(x)

    def on(self, lo, hi=math.inf):
        """The same shape, zero outside [lo, hi]."""
        return replace(self, support=(float(lo), float(hi)))

    @property
    def is_constant(self):
        return self.kind == "constant" and self.support == _UNBOUNDED

    @property
    def value(self):
        if not self.is_constant:
            raise ValueError("not a constant time function")
        return self.params[0]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        kind, p = self.kind, self.params
        if kind == "constant":
            out = np.full_like(t, p[0])
        elif kind == "proportional":
            out = p[0] * t
        elif kind == "affine":
            out = p[0] + p[1] * t
        elif kind == "exponential":
            out = p[0] * np.exp(-p[1] * t)
        elif kind == "power":
            out = np.where(t >= 0.0, p[0] * np.power(np.maximum(t, 0.0), p[1]), 0.0)
        elif kind == "table":
            out = np.interp(t, np.asarray(p[0]), np.asarray(p[1]))
        elif kind == "step":
            ts, values = p
            idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
            out = np.asarray(values)[idx]
        elif kind == "gompertz":
            k0, eta, gam = p
            out = k0 * np.exp(self._gompertz_exponent(t)) * eta * np.exp(-gam * t)
        else:
            out = np.asarray(self.fn(t), dtype=float)
        if self.support != _UNBOUNDED:
            lo, hi = self.support
            out = np.where((t >= lo) & (t <= hi), out, 0.0)
        return out if out.ndim else float(out)

    def integral(self, a, b):
        """Exact integral over [a, b] within the support, zero where b <= a.

        The bounds broadcast; scalar bounds give a float.  Callables are
        integrated by adaptive quadrature, one interval at a time.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise UnboundedRegion("time bounds must be finite")
        s_lo, s_hi = self.support
        lo = np.minimum(np.maximum(a, s_lo), s_hi)
        hi = np.maximum(np.minimum(b, s_hi), lo)
        if self.kind == "callable":
            out = np.vectorize(self._quadrature, otypes=[float])(lo, hi)
        elif self.kind == "exponential":
            out = self._exponential_integral(lo, hi)
        else:
            out = self._antiderivative(hi) - self._antiderivative(lo)
        return out if out.ndim else float(out)

    def _quadrature(self, lo, hi):
        return adaptive_simpson(self, lo, hi, tol=1e-10 * (1 + abs(hi - lo)))

    def _exponential_integral(self, lo, hi):
        """``a exp(-b lo) (hi - lo) expm1(x) / x`` with ``x = -b (hi - lo)``:
        a difference of antiderivatives ``-(a/b) exp(-b s)`` loses every digit
        when ``|x|`` is tiny."""
        a, b = self.params
        x = -b * (hi - lo)
        with np.errstate(invalid="ignore"):
            rel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
        return a * np.exp(-b * lo) * (hi - lo) * rel

    def _antiderivative(self, x):
        """Antiderivative of the shape, ignoring the support; ``x`` an array."""
        kind, p = self.kind, self.params
        if kind == "constant":
            return p[0] * x
        if kind == "proportional":
            return 0.5 * p[0] * x * x
        if kind == "affine":
            return p[0] * x + 0.5 * p[1] * x * x
        if kind == "power":
            a, alpha = p
            return a * np.power(np.maximum(x, 0.0), alpha + 1.0) / (alpha + 1.0)
        if kind == "gompertz":
            return p[0] * np.expm1(self._gompertz_exponent(x))
        # table / step: the whole pieces below x plus the partial piece
        # holding it, then the flat extensions before the first node and
        # after the last
        ts, vs = (np.asarray(q) for q in p)
        widths = np.diff(ts)
        if kind == "table":
            slopes = np.diff(vs) / widths
            pieces = 0.5 * (vs[1:] + vs[:-1]) * widths
        else:
            slopes = np.zeros(widths.size)
            pieces = vs[:-1] * widths
        cum = np.concatenate(([0.0], np.cumsum(pieces)))
        slopes = np.append(slopes, 0.0)
        xc = np.clip(x, ts[0], ts[-1])
        i = np.clip(np.searchsorted(ts, xc, side="right") - 1, 0, max(ts.size - 2, 0))
        dx = xc - ts[i]
        inside = cum[i] + vs[i] * dx + 0.5 * slopes[i] * dx * dx
        return inside + vs[0] * np.minimum(x - ts[0], 0.0) + vs[-1] * np.maximum(x - ts[-1], 0.0)

    def _gompertz_exponent(self, t):
        """``(eta / gamma) (1 - exp(-gamma t))`` as ``eta t expm1(x) / x``
        with ``x = -gamma t``: the quotient form is inf * 0 for a subnormal
        gamma and cancels for a tiny one, while its limit is ``eta t``."""
        _, eta, gam = self.params
        x = -gam * t
        with np.errstate(invalid="ignore"):
            rel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
        return eta * t * rel

    @property
    def kinks(self):
        """Abscissae where the function or its slope may jump: the finite
        support ends and the nodes of a table or step."""
        knots = [s for s in self.support if math.isfinite(s)]
        if self.kind in ("table", "step"):
            knots += self.params[0]
        return knots

    def max_on(self, a, b):
        """Upper bound of the function on each interval [a[i], b[i]].

        The larger end value, raised to the value at any of the :attr:`kinks`
        inside the interval: exact for every kind but gompertz and callables,
        which need not be monotone between nodes and raise ``ValueError``.
        """
        if self.kind in ("gompertz", "callable"):
            raise ValueError(f"max_on needs a monotone kind, not {self.kind!r}")
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = np.maximum(self(a), self(b))
        kinks = self.kinks
        if kinks:
            k = np.asarray(kinks)[:, None]
            inside = (k >= a) & (k <= b)
            out = np.maximum(out, np.where(inside, self(k), -np.inf).max(axis=0))
        return out

    def scaled(self, factor):
        """Pointwise ``factor * self`` on the same support."""
        kind, p = self.kind, self.params
        if kind == "callable":
            raise ValueError("a callable time function cannot be scaled")
        if kind in ("table", "step"):
            params = (p[0], tuple(float(factor * v) for v in p[1]))
        elif kind == "affine":
            params = tuple(float(factor * v) for v in p)
        else:
            params = (float(factor * p[0]), *p[1:])
        return replace(self, params=params)

    def describe(self):
        if self.kind == "callable":
            out = {"kind": "callable", "name": getattr(self.fn, "__name__", "fn")}
        else:
            out = {"kind": self.kind, "params": self.params}
        if self.support != _UNBOUNDED:
            out["support"] = self.support
        return out
