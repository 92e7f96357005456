"""Small serializable time-function wrapper (lags, widths, drifts).

Keeping the common shapes (constant, proportional, affine, table, step,
gompertz) as tagged data rather than bare lambdas lets ambit geometry pick
exact closed-form paths, gives every shape an exact integral and keeps run
configurations hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class TimeFn:
    kind: str
    params: tuple = ()
    fn: Optional[Callable] = None

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
        ``kappa0 * exp((eta / gamma) * (1 - exp(-gamma t)))``."""
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
        """Coerce floats, TimeFns and callables to a TimeFn."""
        if isinstance(x, TimeFn):
            return x
        if callable(x):
            return TimeFn("callable", (), x)
        return TimeFn.constant(x)

    @property
    def is_constant(self):
        return self.kind == "constant"

    @property
    def value(self):
        if not self.is_constant:
            raise ValueError("not a constant time function")
        return self.params[0]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, self.params[0])
        elif self.kind == "proportional":
            out = self.params[0] * t
        elif self.kind == "affine":
            out = self.params[0] + self.params[1] * t
        elif self.kind == "table":
            ts, values = self.params
            out = np.interp(t, np.asarray(ts), np.asarray(values))
        elif self.kind == "step":
            ts, values = self.params
            idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
            out = np.asarray(values)[idx]
        elif self.kind == "gompertz":
            k0, eta, gam = self.params
            decay = np.exp(-gam * t)
            out = k0 * np.exp((eta / gam) * (1.0 - decay)) * eta * decay
        else:
            out = np.asarray(self.fn(t), dtype=float)
        return out if out.ndim else float(out)

    def integral(self, t):
        """Exact integral over [0, t]; adaptive quadrature for callables only."""
        t = float(t)
        if self.kind == "callable":
            return adaptive_simpson(self, 0.0, t, tol=1e-10 * (1 + abs(t)))
        return self._antiderivative(t) - self._antiderivative(0.0)

    def _antiderivative(self, x):
        if self.kind == "constant":
            return self.params[0] * x
        if self.kind == "proportional":
            return 0.5 * self.params[0] * x * x
        if self.kind == "affine":
            a, b = self.params
            return a * x + 0.5 * b * x * x
        if self.kind == "gompertz":
            k0, eta, gam = self.params
            return k0 * (math.exp((eta / gam) * (1.0 - math.exp(-gam * x))) - 1.0)
        # table / step: whole pieces before x plus the partial piece holding
        # x, with the function flat before the first and after the last node
        ts, vs = (np.asarray(p) for p in self.params)
        if x <= ts[0]:
            return float(vs[0] * (x - ts[0]))
        i = int(np.searchsorted(ts, x, side="right")) - 1
        widths = np.diff(ts)
        slopes = np.diff(vs) / widths if self.kind == "table" else np.zeros(widths.size)
        slopes = np.append(slopes, 0.0)
        whole = np.sum((vs[:i] + 0.5 * slopes[:i] * widths[:i]) * widths[:i])
        dx = x - ts[i]
        return float(whole + (vs[i] + 0.5 * slopes[i] * dx) * dx)

    def describe(self):
        if self.kind == "callable":
            return {"kind": "callable", "name": getattr(self.fn, "__name__", "fn")}
        return {"kind": self.kind, "params": self.params}
