"""mesh-ensemble: one ``growth.simulate_replicates`` call per model.

Cell-valued bases only, so mesh sampling and the kernel/FFT path do the work:
no Poisson points, quadrature or CSV.  A round runs the seven models once,
each with fresh seeds; ex4 and ex6 share a seed so ex6 can be checked as an
exact rescaling of ex4.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import checks
from common import round_rng, round_seed
from levygrowth import growth
from levygrowth.growth import example_preset
from levygrowth.levy_core import BasisSpec, ControlMeasure, SpotLaw
from levygrowth.rngtools import mix_seed

REPLICATES = 40
IG_ETA = 5.0  # inverse Gaussian with eta / gamma^3 = 1: unit variance density


def cone_cells(n_phi, theta):
    """(fewest, most) grid cells whose midpoint lies within theta of a midpoint.

    Midpoints sit at whole multiples of the cell width from each other, so a
    cone edge can fall exactly on one; rounding then decides membership and
    both counts are possible.
    """
    dphi = 2.0 * math.pi / n_phi
    k = np.arange(n_phi)
    dist = np.minimum(k, n_phi - k) * dphi
    return int(np.sum(dist <= theta - 1e-9)), int(np.sum(dist <= theta + 1e-9))


def window_rows(grid, lo, hi):
    mids = grid.t_min + grid.dt * (np.arange(grid.n_t) + 0.5)
    return int(np.sum((mids >= lo) & (mids <= hi)))


def table_integral(ts, values, t):
    """Exact integral over [0, t] of the linear interpolant, held flat outside."""
    nodes = np.concatenate(([0.0], ts, [max(t, ts[-1])]))
    vals = np.concatenate(([values[0]], values, [values[-1]]))
    keep = nodes < t
    xs = np.concatenate((nodes[keep], [t]))
    ys = np.interp(xs, nodes, vals)
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))


class Workload:
    known_faults = frozenset()

    def __init__(self, seed, workdir):
        self.seed = seed
        narrow = example_preset("ex4")
        wide = example_preset("ex4", theta=math.pi / 5)
        tumour = example_preset("tumour")
        ig_basis = BasisSpec(
            SpotLaw.inverse_gaussian(IG_ETA, IG_ETA ** (1.0 / 3.0)), ControlMeasure.lebesgue()
        )
        self.grid = narrow.grid
        self.times = narrow.times
        self.models = {
            "ex4-narrow": narrow.spec,
            "ex4-wide": wide.spec,
            "ex5": example_preset("ex5").spec,
            "ex6": example_preset("ex6").spec,
            "tumour": tumour.spec,
            "ex4-ig": replace(narrow.spec, basis=ig_basis, center_stochastic_mean=True),
            "ex4-rate": replace(narrow.spec, kind="rate_linear"),
        }
        self.grids = {name: self.grid for name in self.models}
        self.grids["tumour"] = tumour.grid
        self.model_times = {name: self.times for name in self.models}
        self.model_times["tumour"] = tumour.times
        self.expected = self._expected()
        for name, spec in self.models.items():  # warm-up
            growth.simulate_replicates(
                spec, self.grids[name], round_seed(seed, -1), self.model_times[name], 1
            )

    def _expected(self):
        """Mean and variance range per model and time, from the grid."""
        grid, times = self.grid, np.asarray(self.times)
        dphi, n_phi = grid.dphi, grid.n_phi
        drift = np.interp(times, (20.0, 45.0, 80.0), (16.0, 24.0, 32.0))
        rows = np.array([window_rows(grid, 0.8 * t, t) for t in times])
        out = {}
        for name, theta in (("ex4-narrow", math.pi / 100), ("ex4-wide", math.pi / 5)):
            lo, hi = cone_cells(n_phi, theta)
            out[name] = (drift, lo * dphi * rows * grid.dt, hi * dphi * rows * grid.dt)
        out["ex5"] = out["ex4-ig"] = out["ex4-narrow"]
        # rate kind: the time-union weight of slice s is the length of apexes
        # u in [s, t] whose window [0.8u, u] covers s, min(1.25 s, t) - s.
        lo, hi = cone_cells(n_phi, math.pi / 100)
        s = grid.t_mids
        sum_l2 = np.array(
            [np.sum(np.clip(np.minimum(s / 0.8, t) - s, 0.0, None) ** 2) for t in times]
        )
        accumulated = np.array(
            [table_integral((20.0, 45.0, 80.0), (16.0, 24.0, 32.0), t) for t in times]
        )
        out["ex4-rate"] = (
            accumulated,
            lo * dphi * grid.dt * sum_l2,
            hi * dphi * grid.dt * sum_l2,
        )
        out["tumour-log-mean"] = np.array([5.0, 5.2, 5.8])
        angles = grid.phi_mids
        d_pi = np.abs(np.mod(angles, 2 * np.pi) - np.pi)  # cyclic distance to pi
        out["ex6-multiplier"] = 0.35 * np.exp(d_pi / np.pi)
        return out

    def _seeds(self, i):
        seeds = {name: round_seed(self.seed, i, k) for k, name in enumerate(self.models)}
        seeds["ex6"] = seeds["ex4-narrow"]
        return seeds

    def ops(self, i):
        seeds = self._seeds(i)
        return [(name, self._op(name, seeds[name])) for name in self.models]

    def _op(self, name, seed):
        spec, grid, times = self.models[name], self.grids[name], self.model_times[name]
        return lambda: growth.simulate_replicates(spec, grid, seed, times, REPLICATES)

    def check(self, i, outputs):
        exp = self.expected
        seeds = self._seeds(i)
        problems = {}
        for name, profiles in outputs.items():
            out = []
            if name in ("ex4-narrow", "ex4-wide", "ex5", "ex4-ig", "ex4-rate"):
                mean, var_lo, var_hi = exp[name]
                mean = mean[:, None]
                out += checks.ensemble_mean(name, profiles, mean)
                out += checks.ensemble_variance(name, profiles, mean, var_lo, var_hi)
            elif name == "ex6":
                mult = exp["ex6-multiplier"]
                drift = exp["ex4-narrow"][0][:, None]
                out += checks.ensemble_mean(name, profiles, mult * drift)
                if "ex4-narrow" in outputs:
                    out += checks.exact_scaling(name, profiles, outputs["ex4-narrow"], mult)
            elif name == "tumour":
                if np.all(profiles > 0):
                    out += checks.ensemble_mean(
                        name, np.log(profiles), exp["tumour-log-mean"][:, None]
                    )
                else:
                    out.append("tumour: non-positive radius")
            # determinism contract on one sampled replicate, outside the timed phase
            r = int(round_rng(self.seed, i, 99).integers(REPLICATES))
            ref = growth.simulate(
                self.models[name],
                self.grids[name],
                mix_seed(seeds[name], r),
                self.model_times[name],
            )
            out += checks.identical(f"{name} replicate {r}", profiles[r], ref.profiles)
            problems[name] = out
        return problems
