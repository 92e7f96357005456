"""Ambit geometry: membership, overlap measures, induced weights, embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levygrowth.ambit import (
    AmbitRegion,
    BoundaryFn,
    FullAngle,
    Rectangular,
    Tumour,
    WedgeOverS,
    check_monotone_window_start,
    euclidean_embedding,
    induced_weight,
    intersection_measure,
    self_intersection_measure,
    time_overlap,
    window_length_in_union,
)
from levygrowth.cyclic import arc_overlap_length, cyc_dist, wrap
from levygrowth.errors import NonMonotoneRadius
from levygrowth.growth import GrowthHistory
from levygrowth.levy_core import ControlMeasure, GridSpec, TimeDensity
from levygrowth.timefn import TimeFn

UNIT = ControlMeasure(TimeDensity.constant(1.0))

FAMILIES = [
    FullAngle.of(2.0),
    Rectangular.of(math.pi / 5, TimeFn.proportional(0.2)),
    WedgeOverS(theta=0.5, T=1.0),
    Tumour.of(TimeFn.constant(8.0), TimeFn.constant(3.0), TimeFn.constant(0.4)),
]


def cosine_boundary(gamma0, gamma1):
    def h(x):
        return gamma0 + gamma1 * np.cos(x)

    return h


# ---------------------------------------------------------------------------
# cyclic primitives
# ---------------------------------------------------------------------------


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_periodic(phi, k):
    assert wrap(phi + 2 * math.pi * k) == pytest.approx(float(wrap(phi)), abs=1e-9)
    assert -math.pi <= float(wrap(phi)) < math.pi


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_cyc_dist_range_and_symmetry(a, b):
    d = float(cyc_dist(a, b))
    assert 0.0 <= d <= math.pi + 1e-12
    assert d == pytest.approx(float(cyc_dist(b, a)))


@given(
    st.floats(0.0, math.pi),
    st.floats(0.0, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_arc_overlap_bounds(w1, w2, delta):
    ov = float(arc_overlap_length(delta, w1, w2))
    assert -1e-12 <= ov <= 2.0 * min(w1, w2) + 1e-12
    assert ov == pytest.approx(float(arc_overlap_length(-delta, w1, w2)), abs=1e-12)


def test_arc_overlap_wraparound_component():
    # two arcs wider than a half circle overlap on both sides
    got = float(arc_overlap_length(math.pi, 0.9 * math.pi, 0.9 * math.pi))
    assert got == pytest.approx(2 * (0.9 * math.pi - 0.1 * math.pi))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("t,phi", [(10.0, 0.0), (20.0, 2.5), (35.0, -3.0)])
def test_apex_is_member(family, t, phi):
    assert family.contains(t, phi, phi, t)


@pytest.mark.parametrize("family", FAMILIES)
def test_future_not_member(family):
    assert not family.contains(10.0, 0.0, 0.0, 10.0 + 1e-6)


def test_rectangular_membership_frozen_case():
    family = Rectangular.of(math.pi / 5, TimeFn.proportional(0.2))
    assert not family.contains(20.0, 0.0, math.pi / 4, 18.0)
    assert family.contains(20.0, 0.0, math.pi / 6, 18.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_translation_covariance(family):
    rng = np.random.default_rng(5)
    t = 12.0
    for _ in range(200):
        phi = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(-math.pi, math.pi)
        s = rng.uniform(t - 9.0, t + 0.5)
        lhs = family.contains(t, phi, theta, s)
        rhs = family.contains(t, 0.0, float(wrap(theta - phi)), s)
        assert lhs == rhs


def test_wedge_full_circle_cap():
    family = WedgeOverS(theta=0.5, T=10.0)
    # below theta/pi every angle is inside
    s_cap = 0.5 / math.pi
    assert family.contains(5.0, 0.0, math.pi - 1e-9, 0.5 * s_cap)
    assert not family.contains(5.0, 0.0, math.pi / 2, 2.0)


# ---------------------------------------------------------------------------
# time overlap
# ---------------------------------------------------------------------------


def test_time_overlap_cases():
    assert time_overlap(5.0, 3.0, 6.0, 4.0) == (2.0, 5.0)
    assert time_overlap(0.0, 1.0, 10.0, 1.0) is None
    assert time_overlap(7.0, 2.5, 7.0, 2.5) == (4.5, 7.0)


# ---------------------------------------------------------------------------
# intersection measures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_intersection_identical_args_is_measure(family):
    t = 10.0
    m = family.measure(t, UNIT)
    got = intersection_measure(family, t, 0.3, t, 0.3, UNIT)
    assert got == pytest.approx(m, rel=1e-9)


def test_intersection_disjoint_windows_zero():
    family = FullAngle.of(1.0)
    assert intersection_measure(family, 1.0, 0.0, 10.0, 0.0, UNIT) == 0.0


def test_intersection_full_angle_band():
    family = FullAngle.of(3.0)
    # windows [2, 5] and [1, 4]: shared length 2
    got = intersection_measure(family, 5.0, 1.0, 4.0, -2.0, UNIT)
    assert got == pytest.approx(2 * math.pi * 2.0)


def test_intersection_symmetry_and_bound():
    family = Rectangular.of(0.7, TimeFn.constant(4.0))
    a = intersection_measure(family, 10.0, 0.2, 8.5, 1.1, UNIT)
    b = intersection_measure(family, 8.5, 1.1, 10.0, 0.2, UNIT)
    assert a == pytest.approx(b, rel=1e-9)
    assert a <= min(family.measure(10.0, UNIT), family.measure(8.5, UNIT)) + 1e-9


def test_intersection_depends_only_on_angle_gap():
    family = Rectangular.of(0.7, TimeFn.constant(4.0))
    rng = np.random.default_rng(17)
    base = intersection_measure(family, 10.0, 0.0, 9.0, 0.9, UNIT)
    for _ in range(5):
        rot = rng.uniform(-math.pi, math.pi)
        got = intersection_measure(
            family, 10.0, float(wrap(rot)), 9.0, float(wrap(0.9 + rot)), UNIT
        )
        assert got == pytest.approx(base, rel=1e-6)


def test_rectangular_intersection_closed_form():
    theta, T = 0.6, 2.0
    family = Rectangular.of(theta, TimeFn.constant(T))
    d = 0.5
    got = intersection_measure(family, 10.0, 0.0, 10.0, d, UNIT)
    assert got == pytest.approx((2 * theta - d) * T, rel=1e-8)


# ---------------------------------------------------------------------------
# boundary-profile sets
# ---------------------------------------------------------------------------


def test_self_intersection_at_zero_is_measure():
    g0, g1 = 1.0, 0.5
    t = g0 + g1
    h = cosine_boundary(g0, g1)
    # direct formula: the full set has measure 2 pi gamma1 under g = 1
    got = self_intersection_measure(h, TimeDensity.constant(1.0, -math.inf), 0.0)
    assert got == pytest.approx(2 * math.pi * g1, rel=1e-9)
    fam = BoundaryFn(lambda tt: h)
    assert fam.measure(t, UNIT) == pytest.approx(2 * math.pi * g1, rel=1e-7)


def test_self_intersection_half_turn_frozen():
    # hand value: 2 pi g1 - 4 g1 sin(phi/2) at phi = pi
    g1 = 0.5
    h = cosine_boundary(1.0, g1)
    got = self_intersection_measure(h, TimeDensity.constant(1.0, -math.inf), math.pi)
    assert got == pytest.approx(2 * math.pi * g1 - 4 * g1, rel=1e-9)


def test_self_intersection_matches_hit_or_miss_area():
    g0, g1 = 1.0, 0.5
    h = cosine_boundary(g0, g1)
    phi = math.pi
    rng = np.random.default_rng(23)
    n = 1_000_000
    theta = rng.uniform(-math.pi, math.pi, n)
    lo, hi = g0 - g1, g0 + g1
    s = rng.uniform(lo, hi, n)
    inside = (s <= h(theta)) & (s <= h(wrap(theta - phi)))
    box = 2 * math.pi * (hi - lo)
    p = inside.mean()
    est = box * p
    se = box * math.sqrt(p * (1 - p) / n)
    got = self_intersection_measure(h, TimeDensity.constant(1.0, -math.inf), phi)
    assert abs(got - est) < 3 * se


def test_self_intersection_monotone_in_gap():
    h = cosine_boundary(1.0, 0.5)
    unit = TimeDensity.constant(1.0, -math.inf)
    v_half = self_intersection_measure(h, unit, math.pi / 2)
    v_full = self_intersection_measure(h, unit, math.pi)
    assert v_full <= v_half


def test_self_intersection_symmetric():
    h = cosine_boundary(1.2, 0.7)
    unit = TimeDensity.constant(1.0, -math.inf)
    assert self_intersection_measure(h, unit, 1.1) == pytest.approx(
        self_intersection_measure(h, unit, -1.1), rel=1e-12
    )


def test_boundary_family_generic_quadrature_agrees():
    g0, g1 = 2.0, 0.9
    fam = BoundaryFn(lambda t: cosine_boundary(g0, g1))
    t = g0 + g1
    for phi in (0.4, 1.3, 2.8):
        direct = self_intersection_measure(
            cosine_boundary(g0, g1), TimeDensity.constant(1.0, -math.inf), phi
        )
        generic = intersection_measure(
            fam, t, 0.0, t, phi, ControlMeasure(TimeDensity.constant(1.0, -math.inf)),
            method="quadrature",
        )
        assert generic == pytest.approx(direct, rel=1e-6)


# ---------------------------------------------------------------------------
# induced weights and time unions
# ---------------------------------------------------------------------------


def test_induced_weight_full_angle_constant_lag():
    T0 = 2.0
    family = FullAngle.of(T0)
    t = 10.0
    fbar = induced_weight(family, 1.0, t)
    # deep past slice: covered by apexes [s, s + T0]
    assert float(fbar(0.3, 4.0)) == pytest.approx(T0)
    assert float(fbar(0.3, t + 0.5)) == 0.0
    # recent slice: apexes capped at t
    assert float(fbar(0.3, t - 0.5)) == pytest.approx(0.5)


def test_induced_weight_shortcut_equivalence():
    family = Rectangular.of(0.6, TimeFn.constant(2.0))
    t = 6.0
    direct = induced_weight(family, 1.0, t, method="direct", step=0.05)
    fact = induced_weight(family, 1.0, t, method="factorized", step=0.05)
    theta = np.linspace(-math.pi, math.pi, 41)
    s = np.linspace(-1.0, 7.0, 33)
    a = direct(theta[None, :], s[:, None])
    b = fact(theta[None, :], s[:, None])
    assert np.max(np.abs(a - b)) <= 1e-10


def test_induced_weight_exact_matches_quadrature():
    family = Rectangular.of(0.6, TimeFn.proportional(0.25))
    t = 6.0
    exact = induced_weight(family, 1.0, t, method="exact")
    quad = induced_weight(family, 1.0, t, method="direct", step=0.002)
    theta = np.linspace(-math.pi, math.pi, 21)
    s = np.linspace(0.1, 6.5, 27)
    a = exact(theta[None, :], s[:, None])
    b = quad(theta[None, :], s[:, None])
    assert np.max(np.abs(a - b)) < 5e-3


def test_window_length_wedge_negative_slice():
    family = WedgeOverS(theta=0.5, T=1.0)
    assert float(window_length_in_union(family, np.asarray(-0.5), 10.0)) == 0.0
    assert float(window_length_in_union(family, np.asarray(5.0), 10.0)) == pytest.approx(1.0)


def test_time_union_region_contains():
    family = Rectangular.of(0.5, TimeFn.constant(2.0))
    fbar = induced_weight(family, 1.0, 5.0)
    assert float(fbar(0.2, 3.0)) > 0
    assert not float(fbar(2.5, 3.0)) > 0
    assert not float(fbar(0.0, 6.0)) > 0


def test_monotone_window_start_warning():
    # T(t) = 2t makes the window start t - T(t) = -t strictly decreasing
    shrinking = Rectangular.of(0.5, TimeFn.proportional(2.0))
    with pytest.warns(UserWarning):
        ok = check_monotone_window_start(shrinking, np.linspace(1.0, 4.0, 7))
    assert not ok
    assert check_monotone_window_start(FullAngle.of(2.0), np.linspace(0.0, 5.0, 6))


# ---------------------------------------------------------------------------
# Euclidean embedding
# ---------------------------------------------------------------------------


def _history(times, angles, fn):
    profs = np.array([[fn(t, a) for a in angles] for t in times])
    return GrowthHistory(
        times=np.asarray(times, float),
        angles=np.asarray(angles),
        profiles=profs,
        seed=0,
        grid=GridSpec(2 * math.pi / len(angles), 1.0, 0.0, max(times)),
        spec_hash="synthetic",
    )


def _angles(n):
    return -math.pi + (np.arange(n) + 0.5) * (2 * math.pi / n)


def test_embedding_singleton_limit():
    times = [0.0, 1.0, 2.0]
    hist = _history(times, _angles(64), lambda t, a: 1.0 + 0.1 * t)
    family = Rectangular.of(0.0, TimeFn.constant(0.0))
    emb = euclidean_embedding(hist, family, 2.0, 0.7)
    assert np.allclose(emb.boundary_xy, emb.touch_xy[None, :], atol=1e-9)


def test_embedding_constant_unit_circle():
    times = [0.0, 1.0, 2.0]
    hist = _history(times, _angles(64), lambda t, a: 1.0)
    family = Rectangular.of(0.8, TimeFn.constant(1.5))
    emb = euclidean_embedding(hist, family, 2.0, 0.0)
    norms = np.hypot(emb.boundary_xy[:, 0], emb.boundary_xy[:, 1])
    assert np.all(norms <= 1.0 + 1e-9)
    assert np.hypot(*emb.touch_xy) == pytest.approx(1.0)


def test_embedding_respects_radial_bound():
    times = np.linspace(0.0, 4.0, 9)
    angles = _angles(128)
    fn = lambda t, a: 1.0 + 0.3 * t + 0.05 * math.cos(2 * a)
    hist = _history(times, angles, fn)
    family = Rectangular.of(0.9, TimeFn.constant(2.0))
    t, phi = 4.0, 1.2
    emb = euclidean_embedding(hist, family, t, phi)
    r = np.hypot(emb.boundary_xy[:, 0], emb.boundary_xy[:, 1])
    ang = np.arctan2(emb.boundary_xy[:, 1], emb.boundary_xy[:, 0])
    from levygrowth.ambit import _radius_lookup

    cap = _radius_lookup(hist, ang, np.full(ang.shape, t))
    assert np.all(r <= cap + 1e-9)
    # the apex contact point lies on the path
    gap = np.min(np.hypot(*(emb.boundary_xy - emb.touch_xy[None, :]).T))
    assert gap < 1e-9


def test_embedding_rejects_nonmonotone_history():
    times = [0.0, 1.0, 2.0]
    hist = _history(times, _angles(32), lambda t, a: 1.0 - 0.1 * t)
    family = FullAngle.of(1.0)
    with pytest.raises(NonMonotoneRadius):
        euclidean_embedding(hist, family, 2.0, 0.0)


def test_embedding_includes_poisson_points(tmp_path):
    from levygrowth.growth import ConstantWeight, Drift, GrowthModelSpec, simulate
    from levygrowth.levy_core import BasisSpec, ControlMeasure, SpotLaw, sample_realization

    grid = GridSpec(2 * math.pi / 64, 0.5, 0.0, 4.0)
    spec = GrowthModelSpec(
        "rate_linear",
        Drift.constant(0.5),
        ConstantWeight(1.0),
        BasisSpec(SpotLaw.poisson(), ControlMeasure(TimeDensity.constant(0.3))),
        Rectangular.of(0.7, TimeFn.constant(1.0)),
        r0=1.0,
    )
    hist = simulate(spec, grid, 6, [1.0, 2.0, 3.0, 4.0])
    real = sample_realization(spec.basis, grid, 6)
    emb = euclidean_embedding(hist, spec.ambit, 4.0, 0.0, realization=real)
    pts = real.points()
    assert emb.points_xy is not None
    assert emb.points_xy.shape[0] == int(np.sum(pts.s <= 4.0))
    path = tmp_path / "outline.csv"
    emb.to_csv(path, header="# outline export")
    lines = path.read_text().splitlines()
    assert lines[0] == "# outline export"
    assert lines[1] == "x,y"
