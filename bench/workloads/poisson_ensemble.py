"""poisson-ensemble: ``growth.simulate_replicates`` on Poisson bases.

Point placement and arc accumulation do the work and the FFT is bypassed.
ex3 (about 490k points per replicate) goes through the growth-rate point
path, ex4 with a Poisson basis through the direct point path.  A round runs
two ex3 calls and one ex4 call, so the median operation time falls inside
the ex3 cluster rather than between two clusters.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import checks
from common import round_rng, round_seed
from levygrowth import growth, levy_core
from levygrowth.growth import example_preset
from levygrowth.levy_core import BasisSpec, ControlMeasure, SpotLaw, TimeDensity
from levygrowth.rngtools import mix_seed

EX3_REPLICATES = 4
EX4_REPLICATES = 40
EX4_INTENSITY = 100.0  # control density c of the Poisson ex4 variant
EX3_SLOPE_TIMES = (75.0, 125.0)


class Workload:
    known_faults = frozenset()

    def __init__(self, seed, workdir):
        self.seed = seed
        ex3 = example_preset("ex3")
        ex4 = example_preset("ex4")
        self.models = {
            "ex3": (ex3.spec, ex3.grid, ex3.times, EX3_REPLICATES),
            "ex4-poisson": (
                replace(
                    ex4.spec,
                    basis=BasisSpec(
                        SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(EX4_INTENSITY))
                    ),
                ),
                ex4.grid,
                ex4.times,
                EX4_REPLICATES,
            ),
        }
        # ex3: g(s) = 10 s on the wedge of half-width 0.5/s, lag 1.
        self.slope_sd = checks.slope_sd(
            10.0, 0.5, 1.0, EX3_SLOPE_TIMES[0], EX3_SLOPE_TIMES[1], ex3.grid.n_phi
        )
        self.slope_rows = [ex3.times.index(t) for t in EX3_SLOPE_TIMES]
        times = np.asarray(ex4.times)
        drift = np.interp(times, (20.0, 45.0, 80.0), (16.0, 24.0, 32.0))
        self.ex4_mean = drift + EX4_INTENSITY * 2.0 * (math.pi / 100) * (0.2 * times)
        for spec, grid, times, _ in self.models.values():  # warm-up
            growth.simulate_replicates(spec, grid, round_seed(seed, -1), times, 1)

    def _plan(self, i):
        return {
            "ex3-a": ("ex3", round_seed(self.seed, i, 0)),
            "ex3-b": ("ex3", round_seed(self.seed, i, 1)),
            "ex4-poisson": ("ex4-poisson", round_seed(self.seed, i, 2)),
        }

    def ops(self, i):
        ops = []
        for name, (model, seed) in self._plan(i).items():
            spec, grid, times, reps = self.models[model]
            ops.append(
                (name, lambda s=spec, g=grid, t=times, n=reps, sd=seed: growth.simulate_replicates(s, g, sd, t, n))
            )
        return ops

    def check(self, i, outputs):
        problems = {}
        plan = self._plan(i)
        for name, profiles in outputs.items():
            model, seed = plan[name]
            spec, grid, times, reps = self.models[model]
            if model == "ex3":
                i1, i2 = self.slope_rows
                out = checks.wedge_slope(
                    name, profiles, i1, i2, EX3_SLOPE_TIMES[1] - EX3_SLOPE_TIMES[0], 10.0, self.slope_sd
                )
            else:
                out = checks.ensemble_mean(name, profiles, self.ex4_mean[:, None])
            # point count of one sampled replicate, outside the timed phase
            r = int(round_rng(self.seed, i, 99).integers(reps))
            real = levy_core.sample_realization(spec.basis, grid, mix_seed(seed, r))
            out += checks.equal_counts(
                f"{name} replicate {r}", real.points().theta.size, real.increments.sum()
            )
            problems[name] = out
        return problems
