"""Growth simulation: evaluation paths, presets, matching, outburst view."""

import itertools
import json
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levygrowth.ambit import (
    AmbitRegion,
    FullAngle,
    Rectangular,
    Tumour,
    WedgeOverS,
    induced_weight,
    intersection_measure,
)
from levygrowth.cyclic import arc_overlap_length, cyc_dist
from levygrowth.errors import KumulantDomainError, RegionOutsideGrid, UnknownId, WrongBasisKind
from levygrowth.growth import (
    MODEL_KINDS,
    ConstantWeight,
    Drift,
    GrowthModelSpec,
    TumourWeight,
    asymmetry_profile,
    example_preset,
    moment_match_gamma,
    moment_match_ig,
    poisson_outburst_view,
    simulate,
    simulate_replicates,
)
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
    cumulant_sum,
    draw_cells,
    draw_rows,
    integrate,
    sample_realization,
    spot_mean,
    spot_variance,
)
from levygrowth.quadrature import adaptive_simpson
from levygrowth.rngtools import RowStreams, mix_seed, seeded_generator
from levygrowth.timefn import TimeFn

TWO_PI = 2 * math.pi


def small_grid(n_phi=16, dt=0.5, t_max=4.0):
    return GridSpec(TWO_PI / n_phi, dt, 0.0, t_max)


def gaussian_basis(b=1.0, g=None):
    return BasisSpec(SpotLaw.gaussian(0.0, b), ControlMeasure(g or TimeDensity.constant(1.0)))


# ---------------------------------------------------------------------------
# drift helpers
# ---------------------------------------------------------------------------


def test_gompertz_drift_value_and_integral():
    k0, eta, gam = 2.0, 0.8, 0.3
    d = Drift.gompertz(k0, eta, gam)
    t = 1.7
    expected = k0 * math.exp((eta / gam) * (1 - math.exp(-gam * t))) * eta * math.exp(-gam * t)
    assert d(t) == pytest.approx(expected, rel=1e-12)
    closed = k0 * (math.exp((eta / gam) * (1 - math.exp(-gam * t))) - 1.0)
    assert d.integral(0.0, t) == pytest.approx(closed, rel=1e-12)
    # numeric cross-check of the closed-form integral
    numeric = adaptive_simpson(lambda u: d(u), 0.0, t, tol=1e-12)
    assert d.integral(0.0, t) == pytest.approx(numeric, rel=1e-9)


@pytest.mark.parametrize("gam", [1e-12, 1e-300, 1e-320])
def test_gompertz_drift_with_a_tiny_gamma_keeps_its_limit(gam):
    k0, eta, t = 1.0, 0.05, 20.0
    d = Drift.gompertz(k0, eta, gam)
    x = gam * t  # to first order in x the exponent is eta t (1 - x / 2)
    expected = k0 * eta * math.exp(eta * t) * (1.0 - x * (1.0 + 0.5 * eta * t))
    assert d(t) == pytest.approx(expected, rel=1e-13)
    closed = k0 * math.expm1(eta * t * (1.0 - 0.5 * x))
    assert d.integral(0.0, t) == pytest.approx(closed, rel=1e-13)


def test_step_drift_holds_values():
    d = Drift.step((21.0, 25.0, 55.0), (1.0, 2.0, 3.0))
    assert d(21.0) == 1.0
    assert d(24.9) == 1.0
    assert d(25.0) == 2.0
    assert d(80.0) == 3.0
    assert d(0.0) == 1.0  # clamped before the first node


def test_step_and_table_drift_integrals_are_exact():
    assert TimeFn.step((0, 10.3), (1, 3)).integral(0.0, 20) == pytest.approx(39.4, abs=1e-12)
    ex4_drift = example_preset("ex4").spec.drift
    assert ex4_drift.kind == "table"
    assert ex4_drift.integral(0.0, 45) == pytest.approx(820.0, abs=1e-12)


def _time_function_shape(draw, kind):
    num = st.floats(-10.0, 10.0)
    if kind == "constant":
        return TimeFn.constant(draw(num))
    if kind == "proportional":
        return TimeFn.proportional(draw(num))
    if kind == "affine":
        return TimeFn.affine(draw(num), draw(num))
    if kind == "exponential":
        return TimeFn.exponential(draw(num), draw(st.floats(-1.0, 1.0)))
    if kind == "power":
        return TimeFn.power(draw(num), draw(st.floats(0.0, 3.0)))
    if kind == "gompertz":
        return TimeFn.gompertz(
            draw(st.floats(0.1, 5.0)), draw(st.floats(0.05, 2.0)), draw(st.floats(0.1, 2.0))
        )
    gaps = draw(st.lists(st.floats(0.1, 8.0), max_size=5))
    ts = np.cumsum([draw(st.floats(-5.0, 25.0)), *gaps])
    vs = draw(st.lists(num, min_size=len(ts), max_size=len(ts)))
    return TimeFn.table(ts, vs) if kind == "table" else TimeFn.step(ts, vs)


@st.composite
def time_functions(draw):
    """Every kind but callables, unbounded or on a support (the form control
    densities take: zero below a start, or outside a node range)."""
    kind = draw(
        st.sampled_from(
            ["constant", "proportional", "affine", "exponential", "power", "table", "step", "gompertz"]
        )
    )
    fn = _time_function_shape(draw, kind)
    support = draw(st.sampled_from(["unbounded", "from", "between"]))
    if support == "unbounded":
        return fn
    lo = draw(st.floats(-5.0, 25.0))
    return fn.on(lo) if support == "from" else fn.on(lo, lo + draw(st.floats(0.1, 8.0)))


def _quadrature_reference(fn, a, b):
    """``int_a^b fn`` by adaptive Simpson over the support, split at 0 and at
    the nodes so each panel integrates a smooth piece, and the scale of its
    absolute tolerance."""
    scale = abs(b - a) * max(1.0, float(np.max(np.abs(fn(np.linspace(a, b, 101))))))
    lo, hi = max(a, fn.support[0]), min(b, fn.support[1])
    shape = replace(fn, support=(-math.inf, math.inf))
    nodes = fn.params[0] if fn.kind in ("table", "step") else ()
    cuts = [lo, *sorted(x for x in (0.0, *nodes) if lo < x < hi), hi]
    ref = sum(
        adaptive_simpson(shape, p, q, tol=1e-13 * scale) for p, q in zip(cuts, cuts[1:])
    )
    return ref, scale


@settings(deadline=None)
@given(time_functions(), st.floats(0.5, 30.0))
def test_time_function_integral_matches_quadrature(fn, t):
    ref, scale = _quadrature_reference(fn, 0.0, t)
    assert fn.integral(0.0, t) == pytest.approx(ref, rel=1e-9, abs=1e-9 * scale)


@settings(deadline=None)
@given(
    time_functions(),
    st.lists(
        st.tuples(st.floats(-5.0, 30.0), st.floats(0.5, 30.0), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
def test_time_function_integral_on_arrays_equals_its_scalar_calls(fn, intervals):
    # A difference of antiderivatives (the cell measures' arithmetic) is exact
    # to about 1e-16 of the antiderivative's size, not of the interval's, so
    # intervals are at least 0.5 long, as in the test above.  A reversed
    # interval is empty.
    bounds = [(a + w, a) if reverse else (a, a + w) for a, w, reverse in intervals]
    a, b = (np.array(x) for x in zip(*bounds))
    got = fn.integral(a, b)
    assert got.shape == a.shape
    for (lo, hi), value in zip(bounds, got):
        assert value == fn.integral(lo, hi)
        ref, scale = _quadrature_reference(fn, lo, hi) if lo < hi else (0.0, 0.0)
        assert value == pytest.approx(ref, rel=1e-9, abs=1e-9 * scale)


@pytest.mark.parametrize(
    "g",
    [
        TimeDensity.constant(0.7, support_lo=1.5),
        TimeDensity.tabulated([1.5, 3.0, 5.0], [0.7, 0.2, 0.9]),
    ],
    ids=["constant", "tabulated"],
)
def test_the_support_start_of_a_density_reaches_coverage(g):
    # the window [0.5, 3] of t = 3 starts below the grid, where g is 0
    grid = GridSpec(TWO_PI / 16, 0.5, 1.5, 4.0)
    family = Rectangular.of(0.4, TimeFn.constant(2.5))
    spec = GrowthModelSpec("direct", Drift.zero(), ConstantWeight(1.0), gaussian_basis(g=g), family)
    history = simulate(spec, grid, 5, [3.0])
    assert np.all(np.isfinite(history.profiles)) and np.ptp(history.profiles) > 0
    unsupported = replace(spec, basis=gaussian_basis(g=TimeDensity.constant(0.7)))
    with pytest.raises(RegionOutsideGrid):
        simulate(unsupported, grid, 5, [3.0])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_adaptive_simpson_returns_non_finite_integrand_at_once(value):
    start = time.perf_counter()
    result = adaptive_simpson(lambda x: value, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == math.inf


# ---------------------------------------------------------------------------
# evaluation-path consistency (brute force oracles)
# ---------------------------------------------------------------------------


def brute_force_direct(spec, grid, realization, t):
    """Reference: membership and weight at every (angle, cell) pair."""
    out = np.empty(grid.n_phi)
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None]
    for i, phi in enumerate(grid.phi_mids):
        member = spec.ambit.contains(t, phi, theta, s)
        if hasattr(spec.weight, "value"):
            w = spec.weight.value(t, theta, s, phi)
        else:
            w = np.full(member.shape, float(spec.weight.c))
        out[i] = float(np.sum(np.where(member, w, 0.0) * realization.increments))
    return out


def _read_rows(term, realization, n_phi):
    """A mesh term's value on a realization: its kept rows of increments
    read with its kernel spectrum."""
    zf = np.fft.rfft(realization.increments[term.rows], axis=1)
    return np.fft.irfft((zf * term.spectrum).sum(0), n_phi)


def test_direct_kernel_matches_brute_force_gaussian():
    from levygrowth.growth import _term

    grid = small_grid()
    fam = Rectangular.of(0.9, TimeFn.constant(2.0))
    spec = GrowthModelSpec("direct", Drift.zero(), ConstantWeight(1.0), gaussian_basis(), fam)
    real = sample_realization(spec.basis, grid, 21)
    got = _read_rows(_term(spec, grid, 3.5, "direct"), real, grid.n_phi)
    ref = brute_force_direct(spec, grid, real, 3.5)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_direct_point_path_matches_brute_force_poisson():
    from levygrowth.growth import _Plan

    grid = small_grid()
    fam = Rectangular.of(0.9, TimeFn.constant(2.0))
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(1.0))),
        fam,
    )
    real = sample_realization(spec.basis, grid, 22)
    got = _Plan(spec, grid, [3.5]).sampler.values(22)[0]
    pts = real.points()
    ref = np.empty(grid.n_phi)
    for i, phi in enumerate(grid.phi_mids):
        member = spec.ambit.contains(3.5, phi, pts.theta, pts.s)
        ref[i] = float(np.sum(member))
    assert np.max(np.abs(got - ref)) < 1e-9


def test_rate_point_path_matches_brute_force_poisson():
    from levygrowth.ambit import window_length_in_union
    from levygrowth.growth import _Plan

    grid = small_grid(n_phi=32, dt=0.25, t_max=4.0)
    fam = WedgeOverS(theta=0.5, T=1.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.linear(2.0))),
        fam,
    )
    t = 3.5
    real = sample_realization(spec.basis, grid, 23)
    got = _Plan(spec, grid, [t]).sampler.values(23)[0]
    pts = real.points()
    lengths = window_length_in_union(fam, pts.s, t)
    widths = fam.half_width(t, pts.s)
    ref = np.empty(grid.n_phi)
    for i, phi in enumerate(grid.phi_mids):
        inside = cyc_dist(pts.theta, phi) <= widths + 1e-12
        ref[i] = float(np.sum(lengths * inside))
    assert np.max(np.abs(got - ref)) < 1e-9


ARC_ANGLES = st.one_of(
    st.floats(-math.pi, -math.pi + 0.1),
    st.floats(math.pi - 0.1, math.pi, exclude_max=True),
    st.floats(-math.pi, math.pi, exclude_max=True),
)
# half-widths in cells (0, below one cell, several cells), or in radians
# from pi - 1e-12 to pi, which cover the whole circle
ARC_WIDTHS = st.one_of(
    st.just(("cells", 0.0)),
    st.tuples(st.just("cells"), st.floats(0.0, 1.0)),
    st.tuples(st.just("cells"), st.floats(1.0, 6.0)),
    st.tuples(st.just("radians"), st.floats(math.pi - 1e-12, math.pi)),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(ARC_ANGLES, ARC_WIDTHS, st.floats(-5.0, 5.0)), max_size=30),
    st.sampled_from([8, 16, 40]),
)
def test_arc_sum_equals_brute_force_membership(points, n_phi):
    from levygrowth.growth import _ArcSum, _arcs

    grid = GridSpec(TWO_PI / n_phi, 1.0, 0.0, 1.0)
    theta = np.array([p[0] for p in points], dtype=float)
    widths = np.array(
        [min(w * grid.dphi, math.pi) if unit == "cells" else w for _, (unit, w), _ in points],
        dtype=float,
    )
    values = np.array([p[2] for p in points], dtype=float)
    got = _ArcSum(n_phi).add(_arcs(theta, widths, grid), values).profile()
    inside = cyc_dist(theta[None, :], grid.phi_mids[:, None]) <= widths[None, :] + 1e-12
    want = (inside * values[None, :]).sum(axis=1)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9


def test_point_selection_is_a_slice_only_when_contiguous():
    from levygrowth.growth import _PointBlock

    block = object.__new__(_PointBlock)
    block.s = np.array([0.2, 0.5, 1.0 + 1e-13, 1.4, 2.5, 1.2])
    assert block.select(0.0, 1.0) == slice(0, 3)
    assert block.select(1.1, 1.3) == slice(5, 6)
    inside = block.select(0.3, 1.3)
    assert np.array_equal(block.s[inside], [0.5, 1.0 + 1e-13, 1.2])
    assert block.select(5.0, 6.0) == slice(0, 0)


def _poisson_basis(c):
    return BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(c)))


def _mesh_kernels(spec, grid, times):
    """Each time's whole-grid mesh kernel (the time-union kernel for the
    rate kinds)."""
    from levygrowth.ambit import mesh_kernel
    from levygrowth.growth import _rate_kernel

    if spec.kind in ("rate_linear", "rate_of_log"):
        return [_rate_kernel(spec, grid, t) for t in times]
    return [mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0]) for t in times]


def _segment_reference(spec, grid, times, seed):
    """The segments and radii of a Gamma or inverse Gaussian mesh plan, from
    their definition: rows that every time's kernel weighs with the bitwise
    same row (or not at all) form a segment, in order of first row; a
    segment is one row of cells of the summed cell measure, drawn from the
    row stream of its first row; each time correlates its kernel's rows
    with the segments' cells."""
    from levygrowth.growth import _Plan, _correlate_rows

    plan = _Plan(spec, grid, times)
    kernels = _mesh_kernels(spec, grid, plan.times)
    weighed = np.array([np.any(k != 0.0, axis=1) for k in kernels])
    groups = {}
    for row in np.flatnonzero(weighed.any(axis=0)):
        key = tuple(k[row].tobytes() if w[row] else None for k, w in zip(kernels, weighed))
        groups.setdefault(key, []).append(row)
    segments = list(groups.values())
    mu, streams = grid.cell_mu(spec.basis.control), RowStreams(seed)
    cells = np.array(
        [draw_cells(spec.basis.spot, streams.at(rows[0]), mu[rows].sum(), grid.n_phi) for rows in segments]
    )
    first = [rows[0] for rows in segments]
    profiles = [
        radius(_correlate_rows(cells, k[first], grid.n_phi)) for radius, k in zip(plan.radii, kernels)
    ]
    return segments, np.array(profiles)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def _point_sum_reference(spec, grid, points, t, mode):
    """A constant weight's point sum at time t by brute force over
    ``points``: each point in the window (to 1e-12) adds ``c`` (direct) or
    ``c L(s, t)`` (rate, where ``L`` is 0 outside the time union) at every
    grid angle within its half-width (+1e-12)."""
    from levygrowth.ambit import window_length_in_union

    c = float(spec.weight.c)
    if mode == "rate":
        keep, values = slice(None), c * window_length_in_union(spec.ambit, points.s, t)
    else:
        lo, hi = spec.ambit.window(t)
        keep = (points.s >= lo - 1e-12) & (points.s <= hi + 1e-12)
        values = np.full(points.s.shape, c)
    theta, s, values = points.theta[keep], points.s[keep], values[keep]
    widths = spec.ambit.half_width(t, s) + 1e-12
    return np.array([np.sum(values[cyc_dist(theta, phi) <= widths]) for phi in grid.phi_mids])


def _multi_time_case(name):
    ex4 = example_preset("ex4")
    if name == "ex3":
        ex3 = example_preset("ex3")
        return ex3.spec, GridSpec(TWO_PI / 100, 0.5, 0.0, 20.0), (5.0, 12.0, 20.0)
    if name == "ex4-poisson":  # windows of 20 and 22 overlap, 45 and 80 stand alone
        return replace(ex4.spec, basis=_poisson_basis(100.0)), ex4.grid, (20.0, 22.0, 45.0, 80.0)
    if name == "tumour-poisson":
        tumour = example_preset("tumour")
        return replace(tumour.spec, basis=_poisson_basis(1.0)), tumour.grid, tumour.times
    if name == "cosine-full-angle-poisson":
        from levygrowth.circle_cov import FourierWeight

        weight = FourierWeight.constant_coeffs([1.0, 0.5])
        spec = GrowthModelSpec(
            "direct", Drift.zero(), weight, _poisson_basis(20.0), FullAngle.of(2.0)
        )
        return spec, GridSpec(TWO_PI / 64, 0.25, 0.0, 8.0), (2.0, 3.0, 8.0)
    if name == "constant-tumour-family-poisson":  # half-width depends on t
        spec = GrowthModelSpec(
            "direct", Drift.zero(), 1.0, _poisson_basis(5.0), Tumour.of(3.0, 1.0, 1.0)
        )
        return spec, small_grid(n_phi=32, dt=0.25, t_max=6.0), (3.0, 4.0, 6.0)
    # a Gaussian basis draws its joint spectrum, not rows, so the mesh cases
    # take the Gamma basis of ex5
    ex5 = example_preset("ex5")
    if name == "ex5-mesh":
        return ex5.spec, ex5.grid, (20.0, 22.0, 45.0, 80.0)
    return replace(ex5.spec, kind="rate_linear"), ex5.grid, ex5.times


@pytest.mark.parametrize(
    "name",
    [
        "ex3",
        "ex4-poisson",
        "tumour-poisson",
        "cosine-full-angle-poisson",
        "constant-tumour-family-poisson",
        "ex5-mesh",
        "ex5-rate-mesh",
    ],
)
def test_multi_time_simulation_equals_single_time_terms(name):
    # the work shared by a call's times gives each time what a plan of it alone gives
    from levygrowth.growth import _Plan

    spec, grid, times = _multi_time_case(name)
    seed = 31
    profiles = simulate(spec, grid, seed, times).profiles
    if name.startswith("ex5"):  # equally weighted rows: drawn one segment at a time
        segments, expected = _segment_reference(spec, grid, times, seed)
        if name == "ex5-mesh":
            assert len(segments) == 5  # windows [16, 20] and [17.6, 22] overlap
        assert _close(profiles, expected)
        return
    # a Poisson plan's terms read their own rows' counts or blocks' points
    for i, t in enumerate(sorted(times)):
        assert np.any(_Plan(spec, grid, [t]).sampler.values(seed)[0] != 0.0)
        assert np.array_equal(profiles[i], simulate(spec, grid, seed, [t]).profiles[0]), (name, t)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["ex3", "ex4-poisson"]), seed=st.integers(0, 2**64 - 1))
def test_block_by_block_point_sums_equal_each_term_on_the_full_draw(name, seed):
    # the plan draws only its point blocks' rows and places their points block
    # by block; each time's brute-force sum reads every point of the full draw
    from levygrowth.growth import _Plan

    spec, grid, times = _multi_time_case(name)
    if name == "ex3":  # 42 rows: the last point block has 2
        grid, times = GridSpec(TWO_PI / 100, 0.5, 0.0, 21.0), (5.0, 12.0, 21.0)
    mode = "rate" if spec.kind == "rate_linear" else "direct"
    plan = _Plan(spec, grid, times)
    got = plan.profiles(seed)
    points = sample_realization(spec.basis, grid, seed).points()
    for i, (t, radius) in enumerate(zip(plan.times, plan.radii)):
        want = radius(_point_sum_reference(spec, grid, points, t, mode))
        assert np.max(np.abs(got[i] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["direct", "rate_linear"])
@pytest.mark.parametrize("weight", ["constant", "cosine"])
def test_poisson_plans_sum_the_full_draws_points_or_counts(weight, kind):
    # A point plan places its blocks' points and a mesh plan counts its
    # blocks' angles; each gives what the full realization's points sum to,
    # or its counts correlate to with each time's whole-grid kernel.
    from levygrowth.circle_cov import FourierWeight
    from levygrowth.growth import _correlate_rows, _MeshRows, _Plan, _PointSums

    w = 0.7 if weight == "constant" else FourierWeight.constant_coeffs([0.7, 0.4])
    basis = BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.linear(6.0)))
    spec = GrowthModelSpec(kind, Drift.zero(), w, basis, Rectangular.of(0.4, TimeFn.constant(1.0)))
    grid = small_grid(n_phi=16, dt=0.25, t_max=5.0)  # 20 rows: point blocks of 8, 8 and 4
    times = (1.5, 3.0, 5.0)
    plan = _Plan(spec, grid, times)
    assert isinstance(plan.sampler, _PointSums if weight == "constant" else _MeshRows)
    mode = "rate" if kind == "rate_linear" else "direct"
    kernels = _mesh_kernels(spec, grid, plan.times)
    for seed in (0, 1, 2**63 + 5):
        values = plan.sampler.values(seed)
        real = sample_realization(basis, grid, seed)
        assert real.increments.sum() > 100
        for i, t in enumerate(plan.times):
            if weight == "constant":
                want = _point_sum_reference(spec, grid, real.points(), t, mode)
            else:
                want = _correlate_rows(real.increments, kernels[i], grid.n_phi)
            assert _close(values[i], want), (seed, t)


@pytest.mark.parametrize(
    "name", ["ex3", "ex4", "ex4-rate", "ex5", "ex6", "tumour", "cosine-full-angle-poisson"]
)
def test_a_plan_without_times_has_the_sampler_of_its_spec(name):
    # the sampler follows the spec, so a plan with no times draws nothing
    # through the class a plan with times draws through
    from levygrowth.growth import _Plan

    if name == "cosine-full-angle-poisson":
        spec, grid, times = _multi_time_case(name)
    else:
        preset = example_preset(name.removesuffix("-rate"))
        spec, grid, times = preset.spec, preset.grid, preset.times
        if name.endswith("-rate"):  # a cone plan in the rate mode
            spec = replace(spec, kind="rate_linear")
    assert simulate(spec, grid, 3, []).profiles.shape == (0, grid.n_phi)
    assert simulate_replicates(spec, grid, 3, [], 2).shape == (2, 0, grid.n_phi)
    assert type(_Plan(spec, grid, []).sampler) is type(_Plan(spec, grid, times).sampler)


def test_point_sum_over_windows_without_points_is_zero():
    spec = GrowthModelSpec(
        "direct", Drift.zero(), 1.0, _poisson_basis(1e-9), Rectangular.of(0.5, TimeFn.constant(1.0))
    )
    assert np.all(simulate(spec, small_grid(), 3, [2.0, 4.0]).profiles == 0.0)


@pytest.mark.parametrize("name", ["ex5-mesh", "ex5-rate-mesh", "ex4-poisson", "tumour-poisson"])
def test_plan_draws_only_the_rows_its_mesh_terms_read(monkeypatch, name):
    from levygrowth import growth

    spec, grid, times = _multi_time_case(name)
    plan = growth._Plan(spec, grid, times)
    drawn = []
    draw_rows = growth.draw_rows

    def recording_rows(spot, seed, rows, mu, n_phi):
        out = draw_rows(spot, seed, rows, mu, n_phi)
        drawn.append((rows, out))
        return out

    monkeypatch.setattr(growth, "draw_rows", recording_rows)
    if spec.basis.spot.kind != "poisson":  # one row of cells per segment
        segments, expected = _segment_reference(spec, grid, times, 5)
        assert _close(plan.profiles(5), expected)
        sampler = plan.sampler
        assert len(drawn) == 1
        assert np.array_equal(drawn[0][0], [rows[0] for rows in segments])
        assert [list(rows) for rows in sampler.segments] == segments
        mesh = np.concatenate([radius.term.rows for radius in plan.radii])
        assert np.array_equal(sampler.rows, np.unique(mesh))
        return

    # a Poisson plan draws no cells: it draws whole point blocks, each once
    blocks = []
    totals = growth._PointPlacer._totals

    def recording_totals(placer, streams, b):
        blocks.append(b)
        return totals(placer, streams, b)

    monkeypatch.setattr(growth._PointPlacer, "_totals", recording_totals)
    plan.profiles(5)
    sampler = plan.sampler
    assert drawn == []
    if isinstance(sampler, growth._PointSums):  # the whole point blocks their windows touch
        assert sampler.blocks == sorted({b for radius in plan.radii for b in radius.term.blocks})
        assert 0 < len(sampler.blocks) < -(-grid.n_t // 8)
        assert blocks == sampler.blocks
    else:
        assert sampler.rows.size > 0
        mesh = np.concatenate([radius.term.rows for radius in plan.radii])
        assert np.array_equal(sampler.rows, np.unique(mesh))
        assert blocks == sorted(set(sampler.rows // 8))


WINDOW_ROW_FAMILIES = {
    "rectangular": Rectangular.of(TimeFn.affine(0.3, 0.1), TimeFn.proportional(0.4)),
    "wedge": WedgeOverS(theta=0.5, T=1.0),
    "tumour": Tumour.of(3.0, 1.0, 1.0),
}


@pytest.mark.parametrize("mode", ["direct", "rate"])
@pytest.mark.parametrize("family", sorted(WINDOW_ROW_FAMILIES))
def test_window_row_kernels_keep_the_full_kernels_rows_and_moments(family, mode):
    # a term built on its window rows keeps the rows, spectra and moments
    # (bit for bit) of the kernel evaluated on the whole grid
    from levygrowth.ambit import mesh_kernel
    from levygrowth.circle_cov import FourierWeight
    from levygrowth.growth import _rate_kernel, _term
    from levygrowth.levy_core import cumulant_sum

    basis = BasisSpec(SpotLaw.gamma_law(1.5, 2.0), ControlMeasure(TimeDensity.exponential(1.3, 0.2)))
    weight = FourierWeight.constant_coeffs([0.7, 0.3, 0.2])
    spec = GrowthModelSpec("direct", Drift.zero(), weight, basis, WINDOW_ROW_FAMILIES[family])
    grid = GridSpec(TWO_PI / 24, 0.125, 0.0, 20.0)
    mu = grid.cell_mu(basis.control)
    for t in (2.3, 11.0, 19.9):
        term = _term(spec, grid, t, mode)
        if mode == "direct":
            full = mesh_kernel(spec.ambit, weight, grid, t, grid.phi_mids[0])
        else:
            full = _rate_kernel(spec, grid, t)
        rows = np.flatnonzero(np.any(full != 0.0, axis=1))
        assert np.array_equal(term.rows, rows)
        assert np.array_equal(term.spectrum, np.conj(np.fft.rfft(full[rows], axis=1)))
        spot = basis.spot
        assert term.moments == (cumulant_sum(spot, mu, full), cumulant_sum(spot, mu, full, full))


def test_rate_kernel_matches_induced_weight_sum_gamma():
    from levygrowth.growth import _term

    grid = small_grid(n_phi=16, dt=0.5, t_max=4.0)
    fam = Rectangular.of(0.8, TimeFn.constant(1.5))
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.gamma_law(1.0, 1.0), ControlMeasure(TimeDensity.constant(1.0))),
        fam,
    )
    t = 3.5
    real = sample_realization(spec.basis, grid, 24)
    got = _read_rows(_term(spec, grid, t, "rate"), real, grid.n_phi)
    fbar = induced_weight(fam, 1.0, t, phi=0.0)
    ref = np.empty(grid.n_phi)
    theta = grid.phi_mids[None, :]
    s = grid.t_mids[:, None]
    for i, phi in enumerate(grid.phi_mids):
        w = fbar(theta - phi + 0.0, s)  # translation covariance
        ref[i] = float(np.sum(np.asarray(w) * real.increments))
    assert np.max(np.abs(got - ref)) < 1e-9


POISSON_COSINE_RATE = {
    "model": {
        "kind": "rate_linear",
        "weight": {"kind": "cosine", "coeffs": [1.0, 0.5]},
        "basis": {"kind": "poisson"},
        "ambit": {"kind": "full_angle", "T": 1.0},
    },
    "grid": {"dphi_divisor": 32, "dt": 0.5, "t_max": 4.0},
    "times": [2.0],
}
# Poisson models whose weight is not constant: the cosine-series weight on
# the rate and direct kinds, and the tumour model
POISSON_MESH_MODELS = {
    "rate-cosine": POISSON_COSINE_RATE,
    "direct-cosine": {
        "model": {
            "kind": "direct",
            "weight": {"kind": "cosine", "coeffs": [1.0, 0.5]},
            "basis": {"kind": "poisson"},
            "control": {"kind": "constant", "c": 20.0},
            "ambit": {"kind": "full_angle", "T": 2.0},
        },
        "grid": {"dphi_divisor": 64, "dt": 0.25, "t_max": 8.0},
        "times": [3.0],
    },
    "tumour": {
        "preset": "tumour",
        "model": {"basis": {"kind": "poisson"}},
        "grid": {"dphi_divisor": 100},
        "times": [25.0],
    },
}


@pytest.mark.parametrize("name", sorted(POISSON_MESH_MODELS))
def test_poisson_model_with_a_nonconstant_weight_takes_mesh_path(tmp_path, name):
    # point sums handle constant weights only; every other weight's term is
    # the mesh kernel's correlation with the cell counts
    from levygrowth.ambit import mesh_kernel
    from levygrowth.cli import main
    from levygrowth.config import parse_config
    from levygrowth.growth import _correlate_rows, _rate_kernel

    doc = POISSON_MESH_MODELS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    cfg = parse_config(json.loads(json.dumps(doc)))
    spec, grid, (t,) = cfg.spec, cfg.grid, cfg.times
    hist = simulate(spec, grid, 5, [t])
    real = sample_realization(spec.basis, grid, 5)
    if spec.kind == "rate_linear":
        kernel = _rate_kernel(spec, grid, t)
        level = spec.r0_profile(grid.phi_mids) + spec.drift.integral(0.0, t)
    else:
        kernel = mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0])
        level = spec.drift(t)
    term = _correlate_rows(real.increments, kernel, grid.n_phi)
    expected = level + term
    if spec.kind == "exponential_tumour":
        expected = np.exp(expected)
    assert np.any(term != 0.0)
    assert np.max(np.abs(hist.profiles[0] - expected)) <= 1e-12 * max(
        1.0, float(np.max(np.abs(expected)))
    )


# ---------------------------------------------------------------------------
# simulate semantics
# ---------------------------------------------------------------------------


def test_zero_weight_rate_model_is_deterministic_line():
    grid = small_grid()
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.constant(1.5),
        ConstantWeight(0.0),
        gaussian_basis(),
        FullAngle.of(1.0),
        r0=2.0,
    )
    hist = simulate(spec, grid, 7, [1.0, 2.0, 4.0])
    for i, t in enumerate(hist.times):
        assert np.allclose(hist.profiles[i], 2.0 + 1.5 * t, atol=1e-12)


def test_simulate_deterministic_bitwise():
    preset = example_preset("ex4")
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 80.0)
    h1 = simulate(preset.spec, grid, 77, [20.0, 45.0])
    h2 = simulate(preset.spec, grid, 77, [20.0, 45.0])
    assert np.array_equal(h1.profiles, h2.profiles)
    h3 = simulate(preset.spec, grid, 78, [20.0, 45.0])
    assert not np.array_equal(h1.profiles, h3.profiles)


DETERMINISM_SPOTS = (
    SpotLaw.gaussian(0.0, 1.0),
    SpotLaw.gamma_law(1.0, 1.0),
    SpotLaw.inverse_gaussian(1.0, 1.0),
    SpotLaw.poisson(),
)


def determinism_spec(kind, spot, lag=1.0):
    basis = BasisSpec(spot, ControlMeasure(TimeDensity.constant(1.0)))
    if kind == "exponential_tumour":
        family = Tumour.of(3.0, 1.0, 1.0)
        weight = TumourWeight(family, TimeFn.constant(0.1), TimeFn.constant(0.2))
        return GrowthModelSpec(kind, Drift.constant(1.0), weight, basis, family)
    return GrowthModelSpec(
        kind,
        Drift.constant(1.0),
        ConstantWeight(0.3),
        basis,
        Rectangular.of(0.7, TimeFn.constant(lag)),
        r0=1.0,
        multiplier=asymmetry_profile if kind == "direct_scaled" else None,
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.sampled_from(DETERMINISM_SPOTS),
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
)
def test_replicate_equals_simulate_on_its_derived_seed(kind, spot, seed, n_replicates):
    spec = determinism_spec(kind, spot)
    grid, times = small_grid(), [3.0, 4.0]
    profiles = simulate_replicates(spec, grid, seed, times, n_replicates)
    assert profiles.shape == (n_replicates, 2, grid.n_phi)
    for r in range(n_replicates):
        single = simulate(spec, grid, mix_seed(seed, r), times).profiles
        assert np.array_equal(profiles[r], single)


GAUSSIAN_TIMES = st.lists(st.sampled_from([3.3, 3.4, 3.5, 4.0]), min_size=1, max_size=4, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.sampled_from([15, 16]),
    st.sampled_from([0.0, 0.7]),
    st.sampled_from([0.0, 1.3]),
    st.sampled_from([0.3, 1.0]),
    GAUSSIAN_TIMES,
)
# three times whose windows hold one and the same kernel row
@example("direct", 16, 0.7, 1.3, 0.3, [3.3, 3.4, 3.5])
# no noise (b = 0) but a mean, on an odd number of angles
@example("direct", 15, 0.7, 0.0, 1.0, [3.3, 4.0])
def test_joint_spectrum_factor_is_the_mesh_law(kind, n_phi, a, b, lag, times):
    # a Gaussian mesh plan's factor reproduces the covariance the shared
    # increment rows give its terms: per harmonic, at each time and across
    # times
    from levygrowth.ambit import mesh_kernel
    from levygrowth.growth import _JointSpectrum, _Plan, _rate_kernel
    from levygrowth.levy_core import cumulant_sum

    spec = determinism_spec(kind, SpotLaw.gaussian(a, b), lag=lag)
    if kind != "exponential_tumour":
        # a half-width varying with s keeps the plan off the cone law
        spec = replace(spec, ambit=Rectangular.of(TimeFn.affine(0.5, 0.05), TimeFn.constant(lag)))
    grid = small_grid(n_phi=n_phi)
    plan = _Plan(spec, grid, times)
    law = plan.sampler
    assert isinstance(law, _JointSpectrum)
    terms = [radius.term for radius in plan.radii]
    n, mu = grid.n_phi, grid.cell_mu(spec.basis.control)
    stack = np.zeros((len(terms), grid.n_t, n // 2 + 1), dtype=complex)
    for i, term in enumerate(terms):
        stack[i, term.rows] = term.spectrum
    gram = n * b * np.einsum("l,tlk,ulk->ktu", mu, stack, np.conj(stack))
    factored = law.factor @ np.conj(np.swapaxes(law.factor, 1, 2))
    scale = np.abs(gram).max()
    assert np.abs(law.gram - gram).max() <= 1e-12 * scale
    assert np.abs(factored - gram).max() <= 1e-12 * scale
    assert np.all(law.factor[law.real].imag == 0.0)

    # Parseval: the profile covariance at one angle sums the harmonics, the
    # inner ones twice (their conjugates)
    twice = np.full(n // 2 + 1, 2.0)
    twice[law.real] = 1.0
    cov = np.einsum("k,ktu->tu", twice, factored).real / n**2
    kernels = [
        _rate_kernel(spec, grid, t)
        if kind in ("rate_linear", "rate_of_log")
        else mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0])
        for t in plan.times
    ]
    var = np.array([term.moments[1] for term in terms])
    assert np.abs(np.diag(cov) - var).max() <= 1e-12 * max(var.max(), 1e-300)
    for i, j in zip(*np.triu_indices(len(terms), 1)):
        exact = cumulant_sum(spec.basis.spot, mu, kernels[i], kernels[j])
        assert abs(cov[i, j] - exact) <= 1e-12 * max(math.sqrt(var[i] * var[j]), 1e-300)

    # the draw: unit complex normals h_k from the seed's stream, real at the
    # real harmonics, coefficients A_k h_k, plus the terms' means
    assert np.array_equal(law.mean[:, 0], [term.moments[0] for term in terms])
    z = seeded_generator(9).standard_normal((n // 2 + 1, len(terms), 2))
    h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
    h[law.real] = z[law.real, :, 0]
    coeffs = np.einsum("ktj,kj->tk", law.factor, h)
    expected = np.fft.irfft(coeffs, n=n, axis=1) + law.mean
    values = law.values(9)
    assert np.abs(values - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)
    if b == 0.0:  # no noise: every draw is the mean
        assert np.abs(values - law.mean).max() <= 1e-12 * max(np.abs(law.mean).max(), 1.0)


@pytest.mark.parametrize("preset", ["ex4", "ex6", "tumour"])
def test_gaussian_plan_draws_no_realization(monkeypatch, preset):
    from levygrowth import growth, levy_core

    p = example_preset(preset)
    plan = growth._Plan(p.spec, p.grid, p.times)

    def forbidden(*args, **kwargs):
        raise AssertionError("a Gaussian plan drew increment rows")

    for attr in ("sample_realization", "draw_rows"):
        monkeypatch.setattr(growth, attr, forbidden)
        monkeypatch.setattr(levy_core, attr, forbidden)
    profiles = plan.profiles(5)
    assert profiles.shape == (len(p.times), p.grid.n_phi)
    assert np.all(np.isfinite(profiles))


# ---------------------------------------------------------------------------
# the cone law: Gaussian bases on a rectangular cone of constant half-width
# ---------------------------------------------------------------------------

CONE_KINDS = ("direct", "direct_scaled", "rate_linear", "rate_of_log")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CONE_KINDS),
    st.sampled_from([0.3, 1.9, math.pi, 4.0]),  # half-widths below, at and above pi
    st.sampled_from([15, 16]),
    st.sampled_from([0.0, 0.7]),
    st.sampled_from([0.0, 1.3]),
    GAUSSIAN_TIMES,
    st.integers(0, 2**64 - 1),
)
def test_cone_law_factor_is_the_continuum_covariance(kind, theta, n_phi, a, b, times, seed):
    # per harmonic k the factor gives n kappa2 c^2 a(k) M, a the rfft of the
    # arc overlap at the grid lags; summed over the harmonics it gives each
    # term's variance, and a draw is the irfft of scale[k] A h_k plus the mean
    from levygrowth.growth import _ConeLaw, _Plan

    spec = replace(
        determinism_spec(kind, SpotLaw.gaussian(a, b)), ambit=Rectangular.of(theta, TimeFn.constant(1.0))
    )
    grid = small_grid(n_phi=n_phi)
    plan = _Plan(spec, grid, times)
    law = plan.sampler
    assert isinstance(law, _ConeLaw)
    n, c, nt = grid.n_phi, spec.weight.c, len(times)
    overlap = arc_overlap_length(grid.dphi * np.arange(n), theta, theta)
    assert np.array_equal(law.spectrum, np.fft.rfft(overlap).real)
    assert law.spectrum.min() >= -1e-12 * law.spectrum.max()
    if kind in ("direct", "direct_scaled"):  # int g over the windows' intersection
        for i, j in np.ndindex(nt, nt):
            shared = intersection_measure(
                spec.ambit, plan.times[i], 0.0, plan.times[j], 0.0, spec.basis.control
            )
            assert law.mass[i, j] == pytest.approx(shared / (2 * min(theta, math.pi)), rel=1e-12)

    want = n * b * c**2 * law.spectrum[:, None, None] * law.mass
    factor = law.scale[:, None, None] * law.factor
    got = factor @ np.swapaxes(factor, 1, 2)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    real = [0, n // 2] if n % 2 == 0 else [0]
    twice = np.full(n // 2 + 1, 2.0)
    twice[real] = 1.0
    var = np.array([radius.term.moments[1] for radius in plan.radii])
    cov = np.einsum("k,ktu->tu", twice, got) / n**2
    assert np.abs(np.diag(cov) - var).max() <= 1e-12 * max(var.max(), 1e-300)

    mean = np.array([radius.term.moments[0] for radius in plan.radii])
    z = seeded_generator(seed).standard_normal((n // 2 + 1, nt, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
    h[real] = z[real, :, 0]
    coeffs = law.scale[:, None] * (h @ law.factor.T)
    expected = np.fft.irfft(coeffs.T, n=n, axis=1) + mean[:, None]
    values = law.values(seed)
    assert np.abs(values - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)


CONE_DENSITIES = {
    "constant": TimeDensity.constant(1.3),
    "constant-from": TimeDensity.constant(0.7, support_lo=1.5),
    "linear": TimeDensity.linear(0.8),
    "exponential": TimeDensity.exponential(2.0, 0.4),
    "power": TimeDensity.power(1.5, 0.5),  # its derivative is singular at s = 0
    "tabulated": TimeDensity.tabulated([0.0, 1.5, 3.0, 5.0], [0.5, 2.0, 0.2, 0.9]),
}


@pytest.mark.parametrize("density", sorted(CONE_DENSITIES))
@pytest.mark.parametrize("lag", [TimeFn.constant(1.2), TimeFn.proportional(0.4)], ids=["constant", "proportional"])
def test_cone_rate_mass_matches_scalar_quadrature(density, lag):
    # M(t, u) = int L(s, t) L(s, u) g(s) ds; its diagonal times the cone
    # width is the variance integral the point sums read
    from levygrowth.ambit import window_length_in_union
    from levygrowth.growth import _ConeLaw, _union_integrals

    g = CONE_DENSITIES[density]
    grid = small_grid(dt=0.25, t_max=5.0)
    times = np.array([1.0, 2.7, 4.1, 5.0])
    family = Rectangular.of(0.9, lag)
    spec = GrowthModelSpec("rate_linear", Drift.zero(), 1.0, gaussian_basis(g=g), family)
    mass = _ConeLaw(spec, grid, times, "rate").mass
    lo = max(grid.t_min, g.support[0])
    kinks = {0.0, *times, *g.support, *(family.window(t)[0] for t in (0.0, *times))}
    if g.kind == "table":
        kinks.update(g.params[0])
    for (i, t), (j, u) in itertools.combinations_with_replacement(enumerate(times), 2):
        hi = min(t, u)
        edges = [lo, *sorted(k for k in kinks if lo < k < hi), hi]

        def f(s):
            lengths = window_length_in_union(family, s, t) * window_length_in_union(family, s, u)
            return float(lengths * g(s))

        ref = sum(adaptive_simpson(f, a, b, tol=1e-13) for a, b in zip(edges, edges[1:]))
        assert abs(mass[i, j] - ref) <= 1e-12 * abs(ref), (t, u)
        assert mass[j, i] == pytest.approx(mass[i, j], rel=1e-14)
    for theta in (0.9, 4.0):  # below and above pi
        wide = replace(spec, ambit=Rectangular.of(theta, lag))
        assert np.array_equal(_ConeLaw(wide, grid, times, "rate").mass, mass)
        for i, t in enumerate(times):
            union = _union_integrals(wide, grid, t)[1]
            assert abs(2 * min(theta, math.pi) * mass[i, i] - union) <= 1e-12 * union


def _union_length_with_nodes(lag, s, t):
    """``L(s, t)`` for a table or step lag whose window start ``u - T(u)``
    does not decrease: the last apex covering ``s`` inverts that start,
    piecewise linear for a table (slope 1 past the last node, or held at
    the end of a support that ends before the last node, past which the lag
    is 0) and, for a step, the largest ``u`` of the last node interval with
    ``u - T(u) <= s``."""
    nodes, values = (np.asarray(x, dtype=float) for x in lag.params)
    if lag.kind == "table":
        end = lag.support[1]
        past = s + values[-1]
        if end < nodes[-1]:
            inside = nodes < end
            nodes, values = np.append(nodes[inside], end), np.append(values[inside], lag(end))
            past = np.maximum(s, end)
        starts = nodes - values
        upper = np.where(s <= starts[-1], np.interp(s, starts, nodes), past)
    else:
        ends = np.append(nodes[1:], np.inf)
        reach = [np.where(s + v >= u, np.minimum(s + v, end), -np.inf) for u, v, end in
                 zip(nodes, values, ends)]
        upper = np.max(reach, axis=0)
    return np.clip(np.minimum(upper, t) - np.maximum(s, 0.0), 0.0, None)


@pytest.mark.parametrize(
    "lag",
    [
        TimeFn.table([0, 30, 60, 80], [0, 9, 6, 20]),
        TimeFn.step([0, 30, 60], [12, 5, 2]),
        TimeFn.table([0, 30, 60, 80], [0, 9, 6, 20]).on(0, 70),
    ],
    ids=["table", "step", "table-on"],
)
def test_rate_moments_take_the_union_kinks_of_a_lag_with_nodes(lag):
    # L(s, t) kinks at s = u - T(u) for each node u of the lag (on both sides
    # of a step's jump) and at both sides of a support end, where the lag
    # drops to 0: missing them put the ex4 rate cone's variance 6.7e-4 low
    # at t = 80 with the table lag, and its mass 7.3e-4 high on [0, 70]
    from levygrowth import growth

    p = example_preset("ex4")
    family = Rectangular(p.spec.ambit.theta, lag)
    spec = replace(p.spec, kind="rate_linear", ambit=family)
    plan = growth._Plan(spec, p.grid, p.times)
    width = 2.0 * family.theta.value
    poisson = replace(spec, basis=BasisSpec(SpotLaw.poisson(), spec.basis.control))
    nodes, values = lag.params
    end = lag.support[1]
    kinks = {u - v for u, v in zip(nodes, values) if u <= end}
    if lag.kind == "step":  # the value each node replaces
        kinks |= {u - v for u, v in zip(nodes[1:], values)}
    if math.isfinite(end):
        kinks |= {end - float(lag(end)), end}
    refs = []
    for i, t in enumerate(plan.times):
        f = lambda s: float(_union_length_with_nodes(lag, np.asarray(s), t)) ** 2
        refs.append(adaptive_simpson(f, 0.0, t, tol=1e-13 * t**3, min_intervals=64))
        assert abs(plan.cone.mass[i, i] - refs[i]) <= 1e-10 * refs[i], t
        assert abs(plan.radii[i].moments()[1] - width * refs[i]) <= 1e-10 * width * refs[i], t
    for t, ref in zip(plan.times, refs):
        # the point path's quadrature is split at every kink, so it needs no
        # halving to find them
        assert {k for k in kinks if 0.0 < k < t} <= growth._union_span(poisson, p.grid, [t])[2]
        union = growth._union_integrals(poisson, p.grid, t)[1]
        assert abs(union - width * ref) <= 1e-10 * width * ref, t
    if lag.kind == "table" and math.isinf(end):  # what `levygrowth moments` prints for this lag
        got = [radius.moments()[1] for radius in plan.radii[1:]]
        assert got == pytest.approx([115.2179105704, 391.2330051273], rel=1e-10)


@pytest.mark.parametrize("name", ["ex4", "ex6", "ex4-rate"])
def test_cone_plan_builds_no_mesh_kernel(monkeypatch, name):
    from levygrowth import growth

    p = example_preset(name.split("-")[0])
    spec = replace(p.spec, kind="rate_linear") if name == "ex4-rate" else p.spec

    def forbidden(*args, **kwargs):
        raise AssertionError("a cone plan built a mesh kernel or a per-harmonic law")

    for attr in ("mesh_kernel", "_rate_kernel", "_JointSpectrum", "sample_realization", "draw_rows"):
        monkeypatch.setattr(growth, attr, forbidden)
    plan = growth._Plan(spec, p.grid, p.times)
    assert isinstance(plan.sampler, growth._ConeLaw)
    assert np.all(np.isfinite(plan.profiles(5)))


def test_forty_time_cone_plan_stays_small():
    # 40 times on ex4's 1000 angles: no n_times^2 per-harmonic stack
    from levygrowth.growth import _Plan

    p = example_preset("ex4")
    tracemalloc.start()
    try:
        plan = _Plan(p.spec, p.grid, np.linspace(2.0, 80.0, 40))
        plan.profiles(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


PLAN_FAMILIES = {
    "rectangular": Rectangular.of(0.7, TimeFn.constant(1.0)),
    "wedge": WedgeOverS(theta=0.5, T=1.0),
    "full_angle": FullAngle.of(1.0),
    "tumour": Tumour.of(3.0, 1.0, 1.0),  # does not factorize
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MODEL_KINDS),
    st.sampled_from(DETERMINISM_SPOTS),
    st.sampled_from(sorted(PLAN_FAMILIES)),
    st.sampled_from(["constant", "cosine"]),
)
def test_a_plans_terms_are_all_of_one_kind(kind, spot, family, weight):
    # a plan draws all its terms with one sampler, chosen from its spec
    from levygrowth.circle_cov import FourierWeight
    from levygrowth.growth import _Plan, _PointTerm, _point_path

    spec = determinism_spec(kind, spot)
    if kind != "exponential_tumour":  # which takes the tumour family and weight alone
        w = ConstantWeight(0.3) if weight == "constant" else FourierWeight.constant_coeffs([0.3, 0.2])
        spec = replace(spec, weight=w, ambit=PLAN_FAMILIES[family])
    plan = _Plan(spec, small_grid(), [1.0, 2.5, 3.0, 4.0])
    classes = {type(radius.term) for radius in plan.radii}
    mode = "rate" if kind in ("rate_linear", "rate_of_log") else "direct"
    assert len(classes) == 1
    assert (classes.pop() is _PointTerm) == _point_path(spec, mode)


@pytest.mark.parametrize(
    "spot",
    [SpotLaw.poisson(), SpotLaw.gamma_law(1.0, 1.0), SpotLaw.inverse_gaussian(1.0, 1.0)],
)
def test_monotone_growth_nonnegative_bases(spot):
    grid = small_grid(n_phi=32, dt=0.25, t_max=4.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.constant(0.2),
        ConstantWeight(1.0),
        BasisSpec(spot, ControlMeasure(TimeDensity.constant(0.5))),
        Rectangular.of(0.7, TimeFn.constant(1.0)),
    )
    hist = simulate(spec, grid, 13, [0.5, 1.5, 2.5, 3.5])
    assert np.all(np.diff(hist.profiles, axis=0) >= -1e-9)


def test_direct_gaussian_keeps_negative_values_with_flag():
    # a half-width below one cell: the 16 angles read disjoint cells, so
    # their signs are independent fair coins
    grid = small_grid()
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        ConstantWeight(1.0),
        gaussian_basis(4.0),
        Rectangular.of(0.2, TimeFn.constant(2.0)),
    )
    hist = simulate(spec, grid, 3, [3.0])
    assert hist.flags["nonpositive_values"] > 0
    assert np.min(hist.profiles) < 0


def test_angular_stationarity_of_covariance():
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 4.0)
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        ConstantWeight(1.0),
        gaussian_basis(),
        Rectangular.of(0.6, TimeFn.constant(2.0)),
    )
    profs = simulate_replicates(spec, grid, 29, [4.0], 600)[:, 0, :]
    lag = 8  # angle cells
    c = profs - profs.mean(axis=0)
    cov_anchor0 = np.mean(c[:, 0] * c[:, lag])
    cov_anchor1 = np.mean(c[:, 31] * c[:, (31 + lag) % 64])
    pooled = np.mean(c * np.roll(c, -lag, axis=1))
    sd = np.std(c[:, 0] * c[:, lag], ddof=1) / math.sqrt(profs.shape[0])
    assert abs(cov_anchor0 - cov_anchor1) < 6 * sd
    assert abs(cov_anchor0 - pooled) < 6 * sd


def test_independence_split_past_vs_increment():
    # window start t - T is non-decreasing for constant T
    grid = GridSpec(TWO_PI / 32, 0.25, 0.0, 6.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.4))),
        Rectangular.of(0.7, TimeFn.constant(1.0)),
    )
    n = 500
    t1, t2 = 3.0, 5.0  # t1 - T(t1) = 2.0
    past = np.empty(n)
    incr = np.empty(n)
    for r in range(n):
        hist = simulate(spec, grid, mix_seed(41, r), [2.0, t1, t2])
        past[r] = hist.profiles[0].mean()  # feature of R up to t1 - T(t1)
        incr[r] = (hist.profiles[2] - hist.profiles[1]).mean()
    corr = np.corrcoef(past, incr)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_grid_refinement_shrinks_moment_gap():
    # a Gamma basis stays on the mesh (a Gaussian one on this cone draws the
    # continuum law at any grid); the mesh variances are exact, 0.78540 and
    # 0.88357 against the continuum's 0.962, and each grid draws its own law
    from levygrowth.growth import _Plan

    fam = Rectangular.of(0.37, TimeFn.constant(1.3))
    control = ControlMeasure(TimeDensity.constant(1.0))
    continuum = fam.measure(4.1, control)  # variance, unit spot variance
    basis = BasisSpec(SpotLaw.gamma_law(1.0, 1.0), control)
    n = 3000
    gaps = []
    for factor in (1, 2):
        grid = GridSpec(TWO_PI / (40 * factor), 0.5 / factor, 0.0, 5.0)
        spec = GrowthModelSpec("direct", Drift.zero(), ConstantWeight(1.0), basis, fam)
        var = _Plan(spec, grid, [4.1]).radii[0].term.moments[1]
        gaps.append(abs(var - continuum))
        profs = simulate_replicates(spec, grid, 55, [4.1], n)[:, 0, 0]
        # Gamma(1, 1) over an indicator kernel: kappa_4 = 6 var, so the
        # sample variance has variance about (6 var + 2 var^2) / n
        se = math.sqrt((6.0 * var + 2.0 * var**2) / n)
        assert abs(profs.var(ddof=1) - var) <= 3.0 * se, factor
    assert gaps[1] < gaps[0]


def _ig_ex4():
    """ex4 with an inverse Gaussian basis of unit variance density, centred."""
    basis = BasisSpec(SpotLaw.inverse_gaussian(5.0, 5.0 ** (1.0 / 3.0)), ControlMeasure.lebesgue())
    return replace(example_preset("ex4").spec, basis=basis, center_stochastic_mean=True)


@pytest.mark.parametrize("name", ["ex5", "ex4-ig"])
def test_segment_draws_have_the_mesh_law(name):
    # times whose windows overlap ([16, 20] and [17.6, 22]) split the rows
    # into 5 segments; at one angle over 4000 replicates, the mean, variance
    # and third cumulant of each time are those of the mesh law
    from levygrowth.growth import _Plan

    preset = example_preset("ex5")
    spec = preset.spec if name == "ex5" else _ig_ex4()
    grid, times, n = preset.grid, (20.0, 22.0, 45.0, 80.0), 4000
    plan = _Plan(spec, grid, times)
    assert plan.sampler.draws == "31 rows, 5 segments"
    x = simulate_replicates(spec, grid, 2026, times, n)[:, :, 0]
    mu, spot = grid.cell_mu(spec.basis.control), spec.basis.spot
    for i, (radius, kernel) in enumerate(zip(plan.radii, _mesh_kernels(spec, grid, plan.times))):
        k2, k3, k4, k6 = (cumulant_sum(spot, mu, *[kernel] * p) for p in (2, 3, 4, 6))
        mean, var = radius.moments()
        assert var == k2
        d = x[:, i] - x[:, i].mean()
        sample_k3 = n * np.sum(d**3) / ((n - 1) * (n - 2))
        z_mean = (x[:, i].mean() - mean) / math.sqrt(var / n)
        z_var = (x[:, i].var(ddof=1) - var) / math.sqrt((k4 + 2 * var**2) / n)
        z_k3 = (sample_k3 - k3) / math.sqrt((k6 + 9 * k4 * var + 9 * k3**2 + 6 * var**3) / n)
        assert max(abs(z_mean), abs(z_var), abs(z_k3)) <= 3.0, (name, times[i], z_mean, z_var, z_k3)


SEGMENT_SPOTS = {
    "gamma": SpotLaw.gamma_law(1.5, 2.0),
    "inverse_gaussian": SpotLaw.inverse_gaussian(1.0, 1.3),
    "poisson": SpotLaw.poisson(),
}
# constant lags give overlapping windows, a lag t - 1 nested ones [1, t]; a
# half-width growing with s weighs every row of a direct window differently
SEGMENT_FAMILIES = {
    "cone": Rectangular.of(0.6, TimeFn.constant(1.5)),
    "nested": Rectangular.of(0.6, TimeFn.affine(-1.0, 1.0)),
    "growing": Rectangular.of(TimeFn.affine(0.3, 0.2), TimeFn.constant(1.5)),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SEGMENT_SPOTS)),
    st.sampled_from(["direct", "rate_linear"]),
    st.sampled_from(sorted(SEGMENT_FAMILIES)),
    st.booleans(),
    st.sampled_from([(12, 0.5), (16, 0.25)]),
    st.lists(st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0]), min_size=1, max_size=4, unique=True),
    st.integers(0, 2**64 - 1),
    st.integers(1, 3),
)
@example("gamma", "direct", "cone", False, (16, 0.25), [3.0, 3.5, 4.0], 7, 2)
@example("inverse_gaussian", "direct", "nested", True, (12, 0.5), [2.0, 3.0, 4.0], 8, 1)
@example("gamma", "rate_linear", "growing", False, (16, 0.25), [2.5, 4.0], 9, 1)
@example("gamma", "direct", "cone", False, (12, 0.5), [2.0, 2.5, 3.0], 0, 1)
def test_segment_draw_is_the_merged_law(spot, kind, family, cosine, cells, times, seed, n_reps):
    # a plan draws each segment as one row of cells of the summed measure
    # (the reference); a plan whose segments are single rows, and every
    # Poisson plan, draws the full realization's rows bit for bit
    from levygrowth.circle_cov import FourierWeight
    from levygrowth.growth import _correlate_rows, _MeshRows, _Plan

    weight = FourierWeight.constant_coeffs([0.7, 0.4]) if cosine or spot == "poisson" else 0.7
    basis = BasisSpec(SEGMENT_SPOTS[spot], ControlMeasure(TimeDensity.exponential(1.3, 0.2)))
    spec = GrowthModelSpec(kind, Drift.constant(1.0), weight, basis, SEGMENT_FAMILIES[family])
    grid = small_grid(n_phi=cells[0], dt=cells[1])
    plan = _Plan(spec, grid, times)
    sampler = plan.sampler
    assert isinstance(sampler, _MeshRows)
    got = plan.profiles(seed)
    if spot != "poisson":
        segments, expected = _segment_reference(spec, grid, times, seed)
        assert [list(rows) for rows in sampler.segments] == segments
        assert _close(got, expected)
    if all(rows.size == 1 for rows in sampler.segments):
        real = sample_realization(basis, grid, seed)
        if spot == "poisson":
            drawn = sampler.placer.counts(seed, sampler.first)
        else:
            drawn = draw_rows(basis.spot, seed, sampler.first, sampler.mu, grid.n_phi)
        assert np.array_equal(drawn, real.increments[sampler.first])
        kernels = _mesh_kernels(spec, grid, plan.times)
        for i, (radius, kernel) in enumerate(zip(plan.radii, kernels)):
            assert _close(got[i], radius(_correlate_rows(real.increments, kernel, grid.n_phi)))
    else:
        assert spot != "poisson"
    replicates = simulate_replicates(spec, grid, seed, times, n_reps)
    for r in range(n_reps):
        assert np.array_equal(replicates[r], simulate(spec, grid, mix_seed(seed, r), times).profiles)


# ---------------------------------------------------------------------------
# exponential tumour model
# ---------------------------------------------------------------------------


def test_tumour_simulation_positive_and_log_cov():
    preset = example_preset("tumour")
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 55.0)
    hist = simulate(preset.spec, grid, 17, [25.0])
    assert np.all(hist.profiles > 0)

    # empirical log covariance vs the analytic two-band form at lag pi
    n = 400
    profs = simulate_replicates(preset.spec, grid, 91, [25.0], n)[:, 0, :]
    logs = np.log(profs)
    c = logs - logs.mean(axis=0)
    lag_cells = 100  # pi at 200 angles
    emp = np.mean(np.mean(c * np.roll(c, -lag_cells, axis=1), axis=1))
    t, T, t0 = 25.0, 25.0, 17.0
    alpha = 0.02
    # band 2 has zero overlap at lag pi (cone width << pi)
    expected = alpha**2 * math.pi * (T - t0) * math.cos(math.pi)
    per_rep = np.mean(c * np.roll(c, -lag_cells, axis=1), axis=1)
    se = per_rep.std(ddof=1) / math.sqrt(n)
    assert abs(emp - expected) < 3 * se


def test_tumour_rejects_divergent_exponential_moments():
    spec = replace(
        example_preset("tumour").spec,
        basis=BasisSpec(SpotLaw.gamma_law(1.0, 0.01), ControlMeasure.lebesgue()),
    )
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 55.0)
    with pytest.raises(KumulantDomainError):
        simulate(spec, grid, 5, [25.0])


# ---------------------------------------------------------------------------
# Poisson outburst view
# ---------------------------------------------------------------------------


def test_outburst_view_requires_poisson():
    preset = example_preset("ex4")
    with pytest.raises(WrongBasisKind):
        poisson_outburst_view(preset.spec, preset.grid, 1, 20.0)


def test_outburst_view_empty_before_first_arrival():
    grid = small_grid()
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(1e-9))),
        FullAngle.of(1.0),
    )
    view = poisson_outburst_view(spec, grid, 2, 3.0)
    assert np.all(view.rate_terms == 0.0)


def test_outburst_view_matches_integrate_exactly():
    grid = small_grid(n_phi=24, dt=0.5, t_max=4.0)
    fam = Rectangular.of(0.8, TimeFn.constant(2.0))
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.8))),
        fam,
    )
    t = 3.5
    view = poisson_outburst_view(spec, grid, 10, t)
    real = sample_realization(spec.basis, grid, 10)
    for i, phi in enumerate(grid.phi_mids):
        got = integrate(1.0, AmbitRegion(fam, t, phi), real)
        assert got == pytest.approx(view.rate_terms[i], abs=1e-12)


def test_outburst_view_single_point_unit_weight():
    grid = small_grid(n_phi=8, dt=1.0, t_max=4.0)
    fam = FullAngle.of(10.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.zero(),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.002))),
        fam,
    )
    for seed in range(40):
        view = poisson_outburst_view(spec, grid, seed, 4.0)
        total = view.points_cyl.shape[0]
        if total == 1:
            assert np.all(view.rate_terms == 1.0)
            break
    else:
        pytest.fail("no single-point realization found")


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------


def test_moment_match_gamma_frozen_cases():
    mu_shift, alpha = moment_match_gamma(10.0, 1.0, 1.0, 4.0)
    assert alpha == pytest.approx(1.0)
    assert mu_shift == pytest.approx(10.0 - 4.0)
    mu_shift, alpha = moment_match_gamma(10.0, 4.0, 1.0, 1.0)
    assert alpha == pytest.approx(0.5)
    assert mu_shift == pytest.approx(8.0)


def test_moment_match_gamma_reproduces_moments():
    sigma2, beta, m = 2.3, 3.7, 1.9
    _, alpha = moment_match_gamma(0.0, sigma2, beta, m)
    spot = SpotLaw.gamma_law(beta, alpha)
    assert spot_mean(spot) * m == pytest.approx(math.sqrt(sigma2 * beta) * m, rel=1e-12)
    assert spot_variance(spot) * m == pytest.approx(sigma2 * m, rel=1e-12)


def test_moment_match_gamma_large_beta_is_nearly_symmetric():
    beta, m = 1.0e4, 4.0
    skew = 2.0 / math.sqrt(beta * m)
    assert skew < 0.03


def test_moment_match_ig_cases_and_round_trip():
    eta, gam = moment_match_ig(2.0, 2.0, 1.0)
    assert (eta, gam) == (pytest.approx(2.0), pytest.approx(1.0))
    eta, gam = moment_match_ig(1.0, 1.0, 1.0)
    assert (eta, gam) == (pytest.approx(1.0), pytest.approx(1.0))
    e_z, v_z, m = 3.1, 0.7, 2.4
    eta, gam = moment_match_ig(e_z, v_z, m)
    spot = SpotLaw.inverse_gaussian(eta, gam)
    assert spot_mean(spot) * m == pytest.approx(e_z, rel=1e-12)
    assert spot_variance(spot) * m == pytest.approx(v_z, rel=1e-12)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_ex3_fields():
    p = example_preset("ex3")
    assert p.spec.basis.spot.kind == "poisson"
    assert isinstance(p.spec.ambit, WedgeOverS)
    assert p.spec.ambit.theta == 0.5
    assert p.spec.ambit.T == 1.0
    assert p.spec.basis.control.g.kind == "proportional"
    assert p.spec.basis.control.g.support == (0.0, math.inf)
    assert p.spec.basis.control.g.params[0] == 10.0
    assert p.times == (75.0, 100.0, 125.0)


def test_preset_ex4_drift_and_window():
    p = example_preset("ex4")
    assert p.spec.drift(20.0) == 16.0
    assert p.spec.drift(45.0) == 24.0
    assert p.spec.drift(80.0) == 32.0
    assert isinstance(p.spec.ambit, Rectangular)
    assert float(p.spec.ambit.T(20.0)) == pytest.approx(4.0)
    p5 = example_preset("ex4", theta=math.pi / 5)
    assert p5.spec.ambit.theta.value == pytest.approx(math.pi / 5)


def test_preset_ex5_is_centered_gamma():
    p = example_preset("ex5")
    assert p.spec.basis.spot.kind == "gamma"
    assert p.spec.basis.spot.beta == 1.0
    assert p.spec.basis.spot.alpha == 1.0
    assert p.spec.center_stochastic_mean


def test_preset_ex6_multiplier_profile():
    p = example_preset("ex6")
    vals = asymmetry_profile(np.array([0.0, math.pi]))
    assert vals[0] == pytest.approx(0.35 * math.e)
    assert vals[1] == pytest.approx(0.35)
    assert p.spec.multiplier is asymmetry_profile


def test_preset_tumour_rows():
    p = example_preset("tumour")
    fam = p.spec.ambit
    assert isinstance(fam, Tumour)
    assert float(fam.T(21.0)) == 21.0
    assert float(fam.t0(55.0)) == 4.0
    w = p.spec.weight
    assert float(w.alpha(25.0)) == 0.02
    assert float(w.beta(55.0)) == -0.067
    assert float(fam.phi0(25.0)) == 0.19


def test_preset_unknown_id():
    with pytest.raises(UnknownId):
        example_preset("ex99")


def test_ex4_mean_matches_drift():
    p = example_preset("ex4", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    n = 300
    profs = simulate_replicates(p.spec, grid, 101, [20.0], n)[:, 0, 0]
    se = profs.std(ddof=1) / math.sqrt(n)
    assert abs(profs.mean() - 16.0) < 3 * se


def test_ex5_centered_mean_matches_gaussian_target():
    p = example_preset("ex5", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    n = 300
    profs = simulate_replicates(p.spec, grid, 103, [20.0], n)[:, 0, 0]
    se = profs.std(ddof=1) / math.sqrt(n)
    assert abs(profs.mean() - 16.0) < 3 * se
