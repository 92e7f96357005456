"""Pinned summaries of the simulator's outputs at fixed seeds.

Each output is reduced to its shape, the sum and the sum of squares of its
values (``math.fsum``, so the summation order does not matter), and its first
and last values, and compared with ``tests/data/output_summary.json`` at 1e-12
relative.  A change that should keep outputs per seed keeps every entry; one
that changes them on purpose rewrites the file, which shows in review which
outputs moved.

Run as a script to rewrite the file::

    PYTHONPATH=src python tests/test_output_summary.py
"""

import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from levygrowth.ambit import Rectangular
from levygrowth.circle_cov import FourierWeight
from levygrowth.cyclic import TWO_PI
from levygrowth.growth import (
    GrowthModelSpec,
    _Plan,
    example_preset,
    simulate,
    simulate_replicates,
)
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
    sample_realization,
)
from levygrowth.timefn import TimeFn

DATA = pathlib.Path(__file__).with_name("data") / "output_summary.json"
SEED = 7
REPLICATES = 3
PRESETS = ("ex3", "ex4", "ex5", "ex6", "tumour")
EX3_GRID = GridSpec(TWO_PI / 100, 0.5, 0.0, 21.0)  # 42 rows: the last point block has 2


def _poisson(c):
    return BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(c)))


def _plans():
    """Name -> (spec, grid, times) of every simulated model."""
    presets = {name: example_preset(name) for name in PRESETS}
    plans = {name: (p.spec, p.grid, p.times) for name, p in presets.items()}
    ex4, tumour = presets["ex4"], presets["tumour"]
    bases = {
        "poisson": _poisson(100.0),
        "gamma": BasisSpec(SpotLaw.gamma_law(1.0, 1.0), ControlMeasure.lebesgue()),
        "ig": BasisSpec(SpotLaw.inverse_gaussian(5.0, 5.0 ** (1.0 / 3.0)), ControlMeasure.lebesgue()),
    }
    for basis_name, basis in bases.items():
        for kind in ("direct", "rate_linear"):
            spec = replace(ex4.spec, basis=basis, kind=kind)
            plans[f"ex4-{basis_name}-{kind}"] = (spec, ex4.grid, ex4.times)
    plans["tumour-poisson"] = (replace(tumour.spec, basis=_poisson(1.0)), tumour.grid, tumour.times)
    cosine = GrowthModelSpec(
        "rate_linear",
        TimeFn.constant(0.5),
        FourierWeight.constant_coeffs([1.0, 0.5]),
        _poisson(20.0),
        Rectangular.of(1.0, TimeFn.constant(2.0)),
    )
    plans["cosine-poisson-rate"] = (cosine, GridSpec(TWO_PI / 64, 0.25, 0.0, 8.0), (2.0, 3.0, 8.0))
    plans["ex3-42-rows"] = (presets["ex3"].spec, EX3_GRID, (5.0, 12.0, 21.0))
    return plans


def _outputs():
    """Name -> a function giving that output, as an array."""
    out = {}
    for name, (spec, grid, times) in _plans().items():
        out[f"{name}/simulate"] = lambda a=(spec, grid, SEED, times): simulate(*a).profiles
        out[f"{name}/moments"] = lambda a=(spec, grid, times): np.array(
            [radius.moments() for radius in _Plan(*a).radii]
        )
        if name in PRESETS:
            out[f"{name}/replicates"] = lambda a=(spec, grid, SEED, times, REPLICATES): simulate_replicates(*a)

    def points(field):
        real = sample_realization(example_preset("ex3").spec.basis, EX3_GRID, SEED)
        return getattr(real.points(), field)

    for field in ("theta", "s", "row"):
        out[f"ex3-points/{field}"] = lambda f=field: points(f)
    return out


OUTPUTS = _outputs()


def summary(values):
    x = np.asarray(values, dtype=float)
    flat = x.ravel()
    return {
        "shape": list(x.shape),
        "sum": math.fsum(flat),
        "sum_sq": math.fsum(flat * flat),
        "first": float(flat[0]),
        "last": float(flat[-1]),
    }


def _pinned():
    return json.loads(DATA.read_text())


def test_every_pinned_output_is_computed():
    assert sorted(_pinned()) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_summary_is_unchanged(name):
    got, want = summary(OUTPUTS[name]()), _pinned()[name]
    assert got["shape"] == want["shape"]
    for key in ("sum", "sum_sq", "first", "last"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {name: summary(fn()) for name, fn in sorted(OUTPUTS.items())}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} summaries to {DATA}")
