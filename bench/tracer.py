"""In-memory span tracer that wraps levygrowth's public functions from outside.

``install`` replaces each traced function (or method) by a timing wrapper, in
its defining module and in every ``levygrowth`` module that imported it, so
calls made through any of those names are recorded.  Spans nest: a span's
self time is its duration minus the time covered by the spans it caused.
Only per-name totals (self time, call count) and counters are kept; they are
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.self_ns = {}
        self.calls = {}
        self.counters = {}
        self.active = True
        self._stack = []  # child-time accumulators of the open spans

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name, *, call=True):
        if not self.active:
            yield
            return
        self._stack.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            children = self._stack.pop()
            self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - children
            if call:
                self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1] += elapsed

    @contextmanager
    def paused(self):
        """Record nothing inside the block (checks made outside the timed phase)."""
        before, self.active = self.active, False
        try:
            yield
        finally:
            self.active = before

    def snapshot(self):
        return {
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def _cells_sampled(tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.count("levy_core.cells_sampled", grid.n_t * grid.n_phi)


def _profile_values(tracer, args, kwargs, result):
    tracer.count("growth.profile_values", result.profiles.size)


def _mc_replicates(tracer, args, kwargs, result):
    tracer.count("moments.mc_replicates", result.n_replicates)


def _fit_nfev(tracer, args, kwargs, result):
    tracer.count("inference.fit_nfev", result.n_evaluations)


def _rows_read(tracer, args, kwargs, result):
    tracer.count("inference.rows_read", result.profiles.size)


def _csv_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("inference.csv_bytes_written", os.path.getsize(path))


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("levygrowth.levy_core", "sample_realization", "levy_core.sample_realization", _cells_sampled),
    ("levygrowth.growth", "simulate", "growth.simulate", _profile_values),
    ("levygrowth.growth", "simulate_replicates", "growth.simulate_replicates", None),
    ("levygrowth.growth", "GrowthHistory.to_csv", "growth.to_csv", None),
    ("levygrowth.growth", "GrowthHistory.to_polyline_csv", "growth.to_csv", None),
    ("levygrowth.ambit", "window_length_in_union", "ambit.window_length_in_union", None),
    ("levygrowth.ambit", "self_intersection_measure", "ambit.self_intersection_measure", None),
    ("levygrowth.moments", "mean_linear", "moments.linear", None),
    ("levygrowth.moments", "var_linear", "moments.linear", None),
    ("levygrowth.moments", "cov_linear", "moments.linear", None),
    ("levygrowth.moments", "mixed_exponential_moment", "moments.exponential", None),
    ("levygrowth.moments", "relative_second_moment", "moments.exponential", None),
    ("levygrowth.moments", "mc_verify", "moments.mc_verify", _mc_replicates),
    ("levygrowth.circle_cov", "harmonic_cov", "circle_cov.harmonic_cov", None),
    ("levygrowth.circle_cov", "CircleCovModel.table", "circle_cov.table", None),
    ("levygrowth.circle_cov", "boundary_overlap_oracle", "circle_cov.boundary_overlap_oracle", None),
    ("levygrowth.fourier_radial", "radial_fourier", "fourier_radial.radial_fourier", None),
    ("levygrowth.fourier_radial", "gaussian_loglik", "fourier_radial.gaussian_loglik", None),
    ("levygrowth.inference", "empirical_moments", "inference.empirical_moments", None),
    ("levygrowth.inference", "fit_moments", "inference.fit", _fit_nfev),
    ("levygrowth.inference", "fit_fourier_mle", "inference.fit", _fit_nfev),
    ("levygrowth.inference", "ingest_profiles", "inference.ingest_profiles", _rows_read),
    ("levygrowth.inference", "ProfileDataset.to_csv", "inference.to_csv", _csv_bytes),
    ("levygrowth.config", "parse_config", "config.parse_config", None),
)


def _plain_wrapper(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None and tracer.active:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _points_wrapper(tracer, fn):
    # Points are placed once per realization and cached; count them then.
    @functools.wraps(fn)
    def points(self):
        fresh = self._points is None
        with tracer.span("levy_core.points"):
            result = fn(self)
        if fresh and tracer.active:
            tracer.count("levy_core.points_placed", result.theta.size)
        return result

    return points


def _induced_weight_wrapper(tracer, fn):
    # induced_weight returns a closure that does the work when evaluated on
    # the mesh; its evaluations are timed under the same span name.
    @functools.wraps(fn)
    def induced_weight(*args, **kwargs):
        with tracer.span("ambit.induced_weight"):
            fbar = fn(*args, **kwargs)

        @functools.wraps(fbar)
        def timed_fbar(*a, **k):
            with tracer.span("ambit.induced_weight", call=False):
                return fbar(*a, **k)

        return timed_fbar

    return induced_weight


def _simpson_wrapper(tracer, fn):
    @functools.wraps(fn)
    def adaptive_simpson(f, *args, **kwargs):
        def counted(x):
            if tracer.active:
                tracer.count("quadrature.integrand_evals")
            return f(x)

        with tracer.span("quadrature.adaptive_simpson"):
            return fn(counted, *args, **kwargs)

    return adaptive_simpson


def _replace_everywhere(original, replacement):
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("levygrowth") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every traced function and method for the rest of the process."""
    plans = [
        (m, a, functools.partial(_plain_wrapper, tracer, name=n, hook=h))
        for m, a, n, h in TARGETS
    ]
    plans += [
        ("levygrowth.levy_core", "BasisRealization.points", functools.partial(_points_wrapper, tracer)),
        ("levygrowth.ambit", "induced_weight", functools.partial(_induced_weight_wrapper, tracer)),
        ("levygrowth.quadrature", "adaptive_simpson", functools.partial(_simpson_wrapper, tracer)),
    ]
    for mod_name, attr, make in plans:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, make(original))
