"""Empirical moments, ingestion, and fitting round trips."""

import csv
import inspect
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levygrowth import inference
from levygrowth.ambit import Rectangular, intersection_measure
from levygrowth.circle_cov import FourierWeight, harmonic_cov
from levygrowth.cyclic import arc_overlap_length, wrap
from levygrowth.errors import (
    InfeasibleBounds,
    MalformedFile,
    NonConvergence,
    NonPositiveRadius,
    NonUniformGrid,
)
from levygrowth.growth import (
    ConstantWeight,
    Drift,
    GrowthModelSpec,
    example_preset,
    simulate,
    simulate_replicates,
)
from levygrowth.inference import (
    EmpiricalMoments,
    ProfileDataset,
    empirical_moments,
    fit_fourier_mle,
    fit_moments,
    ingest_profiles,
    minimize_bounded,
    rect_direct_cov_model,
    tumour_log_cov_model,
)
from levygrowth.levy_core import (
    BasisSpec,
    ControlMeasure,
    GridSpec,
    SpotLaw,
    TimeDensity,
)
from levygrowth.rngtools import mix_seed
from levygrowth.timefn import TimeFn

TWO_PI = 2 * math.pi
UNIT = TimeDensity.constant(1.0)


def toy_dataset(n_reps=3, n_times=2, n_phi=16, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(1.0, n_times + 1.0)
    angles = -math.pi + (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
    if fill is None:
        profiles = rng.normal(5.0, 1.0, size=(n_reps, n_times, n_phi))
    else:
        profiles = np.full((n_reps, n_times, n_phi), fill)
    return ProfileDataset(times, angles, profiles)


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------


def test_constant_profiles_zero_variance():
    ds = toy_dataset(fill=4.2)
    emp = empirical_moments(ds)
    assert np.all(emp.variance == 0.0)
    assert np.all(emp.spatial_cov == 0.0)


def test_lag_zero_equals_variance_and_rotation_invariance():
    ds = toy_dataset(n_reps=5, seed=3)
    emp = empirical_moments(ds)
    assert np.allclose(emp.spatial_cov[:, 0], emp.variance)
    rotated = ProfileDataset(ds.times, ds.angles, np.roll(ds.profiles, 5, axis=2))
    emp_rot = empirical_moments(rotated)
    assert np.max(np.abs(emp_rot.spatial_cov - emp.spatial_cov)) < 1e-12


def test_empirical_variance_matches_mesh_analytic():
    from levygrowth.moments import MomentQuery, var_linear

    p = example_preset("ex4", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    n = 400
    profs = np.asarray([simulate(p.spec, grid, s, [20.0]).profiles[0] for s in range(n)])
    q = MomentQuery(p.spec.basis, p.spec.ambit, p.spec.weight, grid, ((20.0, grid.phi_mids[0]),))
    target = var_linear(q)
    v = profs[:, 0].var(ddof=1)
    se = math.sqrt(2.0 / (n - 1)) * v
    assert abs(v - target) < 3 * se


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_ingest_round_trip(tmp_path):
    p = example_preset("ex4")
    grid = GridSpec(TWO_PI / 50, 1.0, 0.0, 80.0)
    hist = simulate(p.spec, grid, 9, [20.0, 45.0])
    path = tmp_path / "hist.csv"
    hist.to_csv(path)
    ds = ingest_profiles(path)
    assert np.array_equal(ds.times, hist.times)
    assert np.allclose(ds.angles, hist.angles)
    assert np.array_equal(ds.profiles[0], hist.profiles)


def test_ingest_replicates_round_trip(tmp_path):
    ds = toy_dataset(n_reps=4, seed=5)
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    back = ingest_profiles(path)
    assert np.array_equal(back.profiles, ds.profiles)


def test_ingest_missing_row_nonuniform(tmp_path):
    ds = toy_dataset(n_reps=1)
    path = tmp_path / "broken.csv"
    ds.to_csv(path)
    lines = path.read_text().splitlines()
    del lines[3]  # drop one angle row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonUniformGrid):
        ingest_profiles(path)


def test_ingest_wraps_angles(tmp_path):
    # angles given in [0, 2 pi): wrapped onto [-pi, pi)
    n_phi = 8
    angles = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
    path = tmp_path / "wrapped.csv"
    with open(path, "w") as fh:
        fh.write("t,phi,r\n")
        for a in angles:
            fh.write(f"1.0,{float(a)!r},{math.cos(a)!r}\n")
    ds = ingest_profiles(path)
    assert ds.angles.min() >= -math.pi
    assert ds.angles.max() < math.pi
    # the value written at 3 pi / 2 must now sit at -pi / 2
    j = int(np.argmin(np.abs(ds.angles - (-math.pi / 2 + TWO_PI / 16))))
    assert ds.profiles[0, 0, j] == pytest.approx(math.cos(3 * math.pi / 2 + TWO_PI / 16))


def test_ingest_malformed_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(MalformedFile):
        ingest_profiles(path)


def test_ingest_rejects_nonpositive_for_exponential(tmp_path):
    ds = toy_dataset(n_reps=1, fill=-1.0)
    path = tmp_path / "neg.csv"
    ds.to_csv(path)
    with pytest.raises(NonPositiveRadius):
        ingest_profiles(path, require_positive=True)
    ingest_profiles(path)  # fine without the flag


def _reference_to_csv(ds, path, header_comment=None):
    """Reference writer: one f-string and one ``write`` per row."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(header_comment.rstrip("\n") + "\n")
        with_rep = ds.n_reps > 1
        fh.write("t,phi,r,replicate\n" if with_rep else "t,phi,r\n")
        for r in range(ds.n_reps):
            for i, t in enumerate(ds.times):
                for j, phi in enumerate(ds.angles):
                    row = f"{float(t)!r},{float(phi)!r},{float(ds.profiles[r, i, j])!r}"
                    fh.write(row + (f",{r}\n" if with_rep else "\n"))


def _reference_ingest(path):
    """Reference reader: one tuple per row, grouped into blocks in a dict."""
    rows = []
    with open(path) as fh:
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedFile("empty file") from None
        cols = [c.strip().lower() for c in header]
        if cols[:3] != ["t", "phi", "r"] or len(cols) > 4 or (
            len(cols) == 4 and cols[3] != "replicate"
        ):
            raise MalformedFile(f"expected header t,phi,r[,replicate]; got {header}")
        has_rep = len(cols) == 4
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cols):
                raise MalformedFile(f"line {lineno}: wrong field count")
            try:
                t = float(row[0])
                phi = float(row[1])
                r = float(row[2])
                rep = int(row[3]) if has_rep else 0
            except ValueError as exc:
                raise MalformedFile(f"line {lineno}: {exc}") from None
            rows.append((rep, t, phi, r))
    if not rows:
        raise MalformedFile("no data rows")
    reps = sorted({r[0] for r in rows})
    times = sorted({r[1] for r in rows})
    by_key = {}
    for rep, t, phi, r in rows:
        by_key.setdefault((rep, t), []).append((float(wrap(phi)), r))
    angles_ref = None
    n_phi = None
    for key, vals in by_key.items():
        vals.sort()
        a = np.array([v[0] for v in vals])
        if angles_ref is None:
            n_phi = a.size
            if n_phi < 2:
                raise NonUniformGrid("need at least two angles")
            d = np.diff(a)
            if np.any(np.abs(d - d[0]) > 1e-9) or abs(n_phi * d[0] - TWO_PI) > 1e-6:
                raise NonUniformGrid("angles are not one uniform grid over the circle")
            angles_ref = a
        else:
            if a.size != n_phi or np.any(np.abs(a - angles_ref) > 1e-9):
                raise NonUniformGrid(f"angle grid differs in block {key}")
    profiles = np.empty((len(reps), len(times), n_phi))
    for (rep, t), vals in by_key.items():
        profiles[reps.index(rep), times.index(t)] = [v[1] for v in vals]
    return ProfileDataset(np.asarray(times), angles_ref, profiles)


def _assert_same_dataset(got, want):
    for name in ("times", "angles", "profiles"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1e308, math.nan]


@settings(max_examples=60, deadline=None)
@given(
    n_reps=st.integers(1, 4),
    n_times=st.integers(1, 3),
    n_phi=st.integers(2, 40),
    shift=st.sampled_from([-math.pi, 0.0]),
    data=st.data(),
)
def test_block_csv_io_equals_the_row_by_row_reference(n_reps, n_times, n_phi, shift, data):
    times = data.draw(
        st.lists(st.floats(-1e6, 1e6), min_size=n_times, max_size=n_times, unique=True)
    )
    values = data.draw(
        st.lists(
            st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES)),
            min_size=n_reps * n_times * n_phi,
            max_size=n_reps * n_times * n_phi,
        )
    )
    offset = data.draw(st.floats(0.0, 0.99))
    angles = shift + (np.arange(n_phi) + offset) * (TWO_PI / n_phi)
    ds = ProfileDataset(
        np.array(times), angles, np.array(values).reshape(n_reps, n_times, n_phi)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path, ref_path = os.path.join(tmp, "block.csv"), os.path.join(tmp, "ref.csv")
        ds.to_csv(path, "# provenance")
        _reference_to_csv(ds, ref_path, "# provenance")
        with open(path, "rb") as a, open(ref_path, "rb") as b:
            assert a.read() == b.read()
        _assert_same_dataset(ingest_profiles(path), _reference_ingest(path))


def _toy_lines(tmp_path, n_reps=2):
    path = tmp_path / "toy.csv"
    toy_dataset(n_reps=n_reps, n_phi=8, seed=11).to_csv(path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "case, error, line",
    [
        ("replicate 1.0", MalformedFile, 18),
        ("replicate x", MalformedFile, 5),
        ("field count", MalformedFile, 5),
        ("comment", MalformedFile, 5),
        ("duplicated block", NonUniformGrid, None),
        ("shifted block", NonUniformGrid, None),
    ],
)
def test_ingest_errors_match_the_row_by_row_reference(tmp_path, case, error, line):
    path, lines = _toy_lines(tmp_path)
    if case == "replicate 1.0":  # every row of replicate 1, so the blocks stay whole
        lines = [row[:-2] + ",1.0" if row.endswith(",1") else row for row in lines]
    elif case == "replicate x":
        lines[4] = lines[4].rsplit(",", 1)[0] + ",x"
    elif case == "field count":
        lines[4] = lines[4].rsplit(",", 1)[0]
    elif case == "comment":
        lines.insert(4, "# a comment after the header")
    elif case == "duplicated block":
        lines += lines[9:17]  # replicate 0's second time block, again
    else:  # replicate 1's first block, half a cell round the circle
        for i in range(17, 25):
            t, phi, rest = lines[i].split(",", 2)
            lines[i] = f"{t},{float(phi) + math.pi / 8!r},{rest}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as got:
        ingest_profiles(path)
    with pytest.raises(error) as want:
        _reference_ingest(path)
    assert str(got.value) == str(want.value)
    if line is not None:
        assert str(got.value).startswith(f"line {line}:")


@pytest.mark.parametrize(
    "case, error, message, oracle",
    [
        ("block sizes", NonUniformGrid, "angle grid differs in block (1, 1.0)", True),
        ("non-uniform first block", NonUniformGrid, "angles are not one uniform", True),
        ("no data rows", MalformedFile, "no data rows", True),
        ("missing blocks", NonUniformGrid, "block (replicate, t) = (0, 2.0) is missing", False),
        ("digit grouping", MalformedFile, "data rows are not plain decimal numbers", False),
        ("non-ASCII digit", MalformedFile, "data rows are not plain decimal numbers", False),
    ],
)
def test_each_check_of_the_single_reader(tmp_path, case, error, message, oracle):
    path, lines = _toy_lines(tmp_path)  # blocks (0, 1.0) (0, 2.0) (1, 1.0) (1, 2.0)
    if case == "block sizes":  # in file order (1, 1.0) is the first bad block
        moved = lines[9:16]  # (0, 2.0) less one row, moved to the end
        lines = lines[:9] + lines[17:25] + ["1.0,0.1,5.0,1"] + lines[25:] + moved
    elif case == "non-uniform first block":
        t, phi, rest = lines[3].split(",", 2)
        lines[3] = f"{t},{float(phi) + 0.01!r},{rest}"
    elif case == "no data rows":
        lines = ["# provenance"] + lines[:1]
    elif case == "missing blocks":  # sorted order names (0, 2.0) before (1, 1.0)
        lines = lines[:9] + lines[25:]
    elif case == "digit grouping":
        lines[6] = lines[6].rsplit(",", 2)[0] + ",1_0,0"
    else:
        lines[6] = lines[6].rsplit(",", 2)[0] + ",\u0661.5,0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(error) as got:
        ingest_profiles(path)
    assert message in str(got.value)
    if oracle:
        with pytest.raises(error) as want:
            _reference_ingest(path)
        assert str(got.value) == str(want.value)


def test_ingest_reads_quoted_fields_as_the_reference_does(tmp_path):
    path, lines = _toy_lines(tmp_path, n_reps=3)
    want = ingest_profiles(path)
    quoted = [",".join(f'"{field}"' for field in row.split(",")) for row in lines[1:]]
    path.write_text("\n".join(lines[:1] + quoted) + "\n")
    _assert_same_dataset(ingest_profiles(path), want)
    _assert_same_dataset(_reference_ingest(path), want)


@pytest.mark.parametrize(
    "column, value, error",
    [
        ("phi", "nan", NonUniformGrid),
        ("phi", "inf", NonUniformGrid),
        ("t", "inf", MalformedFile),
        ("t", "nan", MalformedFile),
    ],
)
def test_ingest_rejects_non_finite_times_and_angles(tmp_path, column, value, error):
    angles = [repr(float(a)) for a in -math.pi + (np.arange(4) + 0.5) * (TWO_PI / 4)]
    rows = [["1.0", a, "2.0"] for a in angles]
    rows[3][0 if column == "t" else 1] = value
    path = tmp_path / "nonfinite.csv"
    path.write_text("t,phi,r\n" + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(error, match="not finite"):
        ingest_profiles(path)


def test_ingest_rejects_a_missing_block(tmp_path):
    angles = -math.pi + (np.arange(4) + 0.5) * (TWO_PI / 4)
    rows = ["t,phi,r,replicate"]
    for rep, t in [(0, 1.0), (0, 2.0), (1, 1.0)]:  # replicate 1 lacks t = 2
        rows += [f"{t!r},{float(a)!r},1.0,{rep}" for a in angles]
    path = tmp_path / "missing.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(NonUniformGrid, match=r"\(1, 2\.0\) is missing"):
        ingest_profiles(path)


def test_ingest_names_the_physical_line_below_provenance(tmp_path):
    path = tmp_path / "prov.csv"
    path.write_text("# prov\nt,phi,r\n1.0,0.0,1.0\n1.0,x,1.0\n")
    with pytest.raises(MalformedFile, match="^line 4:"):
        ingest_profiles(path)


def test_ingest_counts_every_line_of_a_quoted_field(tmp_path):
    path = tmp_path / "multiline.csv"
    path.write_text('# prov\nt,phi,r\n1.0,0.0,1.0\n1.0,"1.5\n",1.0\n1.0,x,1.0\n')
    with pytest.raises(MalformedFile, match="^line 6:"):
        ingest_profiles(path)


def test_ingest_skips_blank_lines_and_accepts_any_row_order(tmp_path):
    path, lines = _toy_lines(tmp_path, n_reps=3)
    want = ingest_profiles(path)
    body = lines[1:]
    np.random.default_rng(4).shuffle(body)
    rows = [lines[0], ""]
    for i, row in enumerate(body):
        rows += [row, ""] if i % 2 else [row]
    path.write_text("\n".join(rows) + "\n")
    _assert_same_dataset(ingest_profiles(path), want)
    _assert_same_dataset(_reference_ingest(path), want)


def test_ingest_takes_the_angle_grid_of_the_first_rows_block(tmp_path):
    # blocks may differ by up to 1e-9 in angle; the returned grid is that of
    # the block holding the first data row, here not the first block in order
    angles = -math.pi + (np.arange(8) + 0.5) * (TWO_PI / 8)
    rows = ["t,phi,r,replicate"]
    for rep, t in [(1, 2.0), (0, 1.0), (1, 1.0), (0, 2.0)]:
        for a in angles + 1e-10 * (2 * rep + t):
            rows.append(f"{t!r},{float(a)!r},{float(a) + rep!r},{rep}")
    path = tmp_path / "jitter.csv"
    path.write_text("\n".join(rows) + "\n")
    got = ingest_profiles(path)
    _assert_same_dataset(got, _reference_ingest(path))
    assert np.array_equal(got.angles, wrap(angles + 4e-10))


def test_ingest_wraps_angles_of_every_block(tmp_path):
    n_phi = 12
    angles = (np.arange(n_phi) + 0.25) * (TWO_PI / n_phi)  # in [0, 2 pi)
    profiles = np.arange(3 * 2 * n_phi, dtype=float).reshape(3, 2, n_phi)
    ds = ProfileDataset(np.array([1.0, 2.0]), angles, profiles)
    path = tmp_path / "wrapped.csv"
    ds.to_csv(path)
    got = ingest_profiles(path)
    assert got.angles.min() >= -math.pi and got.angles.max() < math.pi
    _assert_same_dataset(got, _reference_ingest(path))
    # the value written at angle a sits at wrap(a)
    j = int(np.argmin(np.abs(got.angles - wrap(angles[-1]))))
    assert np.array_equal(got.profiles[:, :, j], ds.profiles[:, :, -1])


# ---------------------------------------------------------------------------
# model covariance builders
# ---------------------------------------------------------------------------


def test_rect_model_matches_geometry():
    T0, theta, sigma2 = 2.0, 0.6, 1.7
    model = rect_direct_cov_model(TimeFn.constant(T0), UNIT)
    fam = Rectangular.of(theta, TimeFn.constant(T0))
    control = ControlMeasure(UNIT)
    lags = np.array([0.0, 0.3, 0.9, 2.5])
    got = model({"sigma2": sigma2, "theta": theta}, 6.0, lags)
    for i, d in enumerate(lags):
        mu_cap = intersection_measure(fam, 6.0, 0.0, 6.0, d, control)
        assert got[i] == pytest.approx(sigma2 * mu_cap, rel=1e-7, abs=1e-12)


def test_tumour_model_matches_quadrature():
    T, t0, phi0 = 25.0, 17.0, 0.19
    model = tumour_log_cov_model(T, t0, phi0)
    params = {"alpha": 0.02, "beta": -0.033}
    lags = np.array([0.0, 0.05, 0.12, 0.5, math.pi])
    got = model(params, 25.0, lags)
    # quadrature reference for the shrinking-band term
    u = np.linspace(0.0, t0, 20001)
    h = 0.5 * phi0 * (1.0 - u / t0)
    for i, d in enumerate(lags):
        band2 = np.trapezoid(np.maximum(2 * h - d, 0.0), u)
        expected = params["alpha"] ** 2 * math.pi * (T - t0) * math.cos(d)
        expected += params["beta"] ** 2 * band2
        assert got[i] == pytest.approx(expected, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_zero_noise_objective_at_truth():
    truth = {"sigma2": 1.3, "theta": 0.45}
    T0 = 2.0
    model = rect_direct_cov_model(TimeFn.constant(T0), UNIT)
    times = np.array([5.0, 6.0])
    lags = np.linspace(0.0, math.pi, 16)
    cov_rows = np.stack([model(truth, t, lags) for t in times])
    emp = EmpiricalMoments(
        times=times,
        mean=np.zeros(2),
        variance=cov_rows[:, 0].copy(),
        lags=lags,
        spatial_cov=cov_rows,
        time_pairs=[],
        temporal_cov=np.array([]),
    )
    result = fit_moments(
        model, emp, {"sigma2": (0.1, 4.0), "theta": (0.1, 1.2)}, seed=1, n_starts=3
    )
    assert result.objective <= 1e-12
    assert result.params["sigma2"] == pytest.approx(truth["sigma2"], rel=1e-3)
    assert result.params["theta"] == pytest.approx(truth["theta"], rel=1e-3)
    # trace is the best-so-far objective: non-increasing
    assert all(b <= a + 1e-15 for a, b in zip(result.trace, result.trace[1:]))
    # regression guard: the reported objective reproduces at the optimum
    re_obj = sum(
        float(np.sum((emp.spatial_cov[i] - model(result.params, t, lags)) ** 2))
        / emp.variance[i] ** 2
        for i, t in enumerate(times)
    )
    assert re_obj == pytest.approx(result.objective, rel=1e-9, abs=1e-15)


def test_fit_infeasible_bounds():
    model = rect_direct_cov_model(TimeFn.constant(1.0), UNIT)
    ds = toy_dataset()
    with pytest.raises(InfeasibleBounds):
        fit_moments(model, ds, {"sigma2": (2.0, 1.0)})


@pytest.mark.parametrize("box", [(0.0, math.inf), (-math.inf, 1.0)])
def test_infinite_bounds_are_infeasible(box):
    with pytest.raises(InfeasibleBounds, match="must be finite"):
        minimize_bounded(lambda p: p["x"] ** 2, {"x": box})
    model = rect_direct_cov_model(TimeFn.constant(1.0), UNIT)
    with pytest.raises(InfeasibleBounds, match="must be finite"):
        fit_moments(model, toy_dataset(), {"sigma2": box, "theta": (0.1, 1.5)})


def test_fit_moments_recovers_simulated_parameters():
    sigma2, theta = 1.0, math.pi / 5
    p = example_preset("ex4", theta=theta)
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 80.0)
    profs = simulate_replicates(p.spec, grid, 301, [20.0, 45.0, 80.0], 300)
    ds = ProfileDataset(np.array([20.0, 45.0, 80.0]), grid.phi_mids, profs)
    model = rect_direct_cov_model(TimeFn.proportional(0.2), UNIT)
    result = fit_moments(
        model,
        ds,
        {"sigma2": (0.2, 3.0), "theta": (0.05, 1.5)},
        seed=5,
        n_starts=3,
    )
    assert abs(result.params["sigma2"] - sigma2) / sigma2 < 0.25
    assert abs(result.params["theta"] - theta) / theta < 0.25


def test_estimator_consistency_under_replication():
    # the empirical lag covariance converges to the exact covariance of the
    # simulated cone law, b ov(d) int_{W_t} g with ov the overlap of the cone
    # and its rotation by the lag d, at rate n^-1/2: from 150 to 600
    # replicates the root-mean-square error over four seed pairs should fall
    # by about half
    p = example_preset("ex4", theta=math.pi / 5)
    grid = GridSpec(TWO_PI / 100, 1.0, 0.0, 80.0)
    t_list = [20.0, 45.0]
    theta, g = p.spec.ambit.theta.value, p.spec.basis.control.g
    overlap = arc_overlap_length(grid.dphi * np.arange(grid.n_phi), theta, theta)
    exact = [p.spec.basis.spot.b_tilde * overlap * g.integral(*p.spec.ambit.window(t)) for t in t_list]

    def squared_error(n, seed):
        profs = simulate_replicates(p.spec, grid, seed, t_list, n)
        emp = empirical_moments(ProfileDataset(np.array(t_list), grid.phi_mids, profs))
        lags = np.round(emp.lags / grid.dphi).astype(int)
        return sum(float(np.sum((emp.spatial_cov[i] - exact[i][lags]) ** 2)) for i in range(2))

    pairs = ((11, 12), (13, 14), (15, 16), (17, 18))
    e1 = math.sqrt(np.mean([squared_error(150, seed) for seed, _ in pairs]))
    e4 = math.sqrt(np.mean([squared_error(600, seed) for _, seed in pairs]))
    assert e4 / e1 < 1.0
    assert e4 / e1 > 0.125


def test_mle_underdetermined_single_time():
    ds = toy_dataset(n_reps=2, n_times=1)
    with pytest.raises(NonConvergence):
        fit_fourier_mle(
            ds,
            lambda params: (lambda k, t1, t2: params["a"] + params["b"]),
            {"a": (0.1, 1.0), "b": (0.1, 1.0)},
            orders=[1],
        )


def test_mle_scale_round_trip_small():
    coeffs = [0.0, 0.3, 0.2]
    spec = GrowthModelSpec(
        "direct",
        Drift.zero(),
        FourierWeight.constant_coeffs(coeffs),
        BasisSpec(SpotLaw.gaussian(0.0, 1.0), ControlMeasure(UNIT)),
        __import__("levygrowth.ambit", fromlist=["FullAngle"]).FullAngle.of(2.0),
    )
    grid = GridSpec(TWO_PI / 64, 0.5, 0.0, 6.0)
    times = [4.0, 5.0, 6.0]
    profs = simulate_replicates(spec, grid, 401, times, 6)
    ds = ProfileDataset(np.array(times), grid.phi_mids, profs)
    w = spec.weight

    def tau_family(params):
        return lambda k, t1, t2: params["scale"] * harmonic_cov(w, UNIT, 2.0, t1, t2, k)

    result = fit_fourier_mle(ds, tau_family, {"scale": (0.1, 5.0)}, orders=[1, 2], seed=3)
    assert 0.5 < result.params["scale"] < 2.0


def test_minimize_bounded_trace_monotone():
    calls = []

    def f(params):
        calls.append(params)
        return (params["x"] - 0.3) ** 2 + 1e-3 * (params["y"] + 1.0) ** 2

    res = minimize_bounded(f, {"x": (-2.0, 2.0), "y": (-3.0, 3.0)}, seed=2, n_starts=2)
    assert res.params["x"] == pytest.approx(0.3, abs=1e-3)
    assert all(b <= a + 1e-15 for a, b in zip(res.trace, res.trace[1:]))


def _scipy_minimize_bounded(objective, bounds, *, seed=0, n_starts=3, max_iter=400, xatol=1e-6):
    """The multi-start search on scipy's bounded Nelder-Mead, as the package
    ran it before carrying the algorithm over (scipy is imported here only)."""
    import scipy.optimize

    names = list(bounds)
    lo = np.array([bounds[n][0] for n in names], dtype=float)
    hi = np.array([bounds[n][1] for n in names], dtype=float)
    trace = []
    best = {"x": None, "f": math.inf, "converged": False, "nfev": 0}

    def wrapped(x):
        val = float(objective(dict(zip(names, x))))
        trace.append(min(val, trace[-1]) if trace else val)
        return val

    for start in range(n_starts):
        if start == 0:
            x0 = 0.5 * (lo + hi)
        else:
            rng = np.random.default_rng(mix_seed(seed, start))
            x0 = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=lo.size)
        res = scipy.optimize.minimize(
            wrapped,
            x0,
            method="Nelder-Mead",
            bounds=list(zip(lo, hi)),
            options={"maxiter": max_iter, "xatol": xatol, "fatol": 1e-12},
        )
        best["nfev"] += res.nfev
        if res.fun < best["f"]:
            best.update(x=res.x, f=float(res.fun), converged=bool(res.success))
    if best["x"] is None or (not best["converged"] and best["f"] == math.inf):
        raise NonConvergence("no optimizer start produced a finite objective")
    params = dict(zip(names, map(float, best["x"])))
    return params, best["f"], trace, best["converged"], best["nfev"]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _search_outcomes(objective, bounds, **kwargs):
    """(package, reference) outcomes with every float as its bit pattern; a
    NonConvergence is an outcome too."""
    outcomes = []
    for run in (minimize_bounded, _scipy_minimize_bounded):
        try:
            with np.errstate(invalid="ignore"):
                res = run(objective, bounds, **kwargs)
        except NonConvergence:
            outcomes.append("NonConvergence")
            continue
        if isinstance(res, tuple):
            params, f, trace, converged, nfev = res
        else:
            params, f, trace = res.params, res.objective, res.trace
            converged, nfev = res.converged, res.n_evaluations
        outcomes.append((list(params), _bits(list(params.values())), _bits(f), _bits(trace), converged, nfev))
    return outcomes


@st.composite
def _boxes(draw, n):
    """Boxes whose center has a zero coordinate, whose starts sit close
    enough to a positive upper bound for the simplex to step past it, or
    anything in between."""
    kind = draw(st.sampled_from(["symmetric", "narrow", "any"]))
    box = []
    for _ in range(n):
        if kind == "symmetric":
            w = draw(st.floats(0.1, 5.0))
            box.append((-w, w))
        elif kind == "narrow":
            a = draw(st.floats(0.1, 10.0))
            box.append((a, a * (1.0 + draw(st.floats(0.001, 0.1)))))
        else:
            lo = draw(st.floats(-5.0, 5.0))
            box.append((lo, lo + draw(st.floats(0.1, 10.0))))
    return box


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_minimize_bounded_equals_scipy_nelder_mead_bitwise(data, n):
    box = data.draw(_boxes(n))
    names = ["p", "q", "r"][:n]
    bounds = dict(zip(names, box))
    lo, hi = np.array(box).T
    center = lo + (hi - lo) * np.array(data.draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n)))
    scale = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    inf_above = data.draw(st.one_of(st.none(), st.floats(0.2, 1.0)))
    nan_below = data.draw(st.one_of(st.none(), st.floats(0.0, 0.5)))

    def objective(params):
        x = np.array([params[k] for k in names])
        u = (x - lo) / (hi - lo)
        if inf_above is not None and u[0] > inf_above:
            return math.inf
        if nan_below is not None and u[-1] < nan_below:
            return math.nan
        return float(np.sum(scale * (x - center) ** 2) + np.prod(np.sin(3.0 * x)))

    kwargs = dict(
        seed=data.draw(st.integers(0, 2**32 - 1)),
        n_starts=data.draw(st.integers(1, 3)),
        max_iter=data.draw(st.one_of(st.integers(1, 40), st.just(400), st.just(1000))),
    )
    ours, reference = _search_outcomes(objective, bounds, **kwargs)
    assert ours == reference


def _lines_run(fn, *args, **kwargs):
    """The stripped source lines of ``inference._nelder_mead`` that ``fn`` runs."""
    code = inference._nelder_mead.__code__

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            seen.add(frame.f_lineno)
        return tracer

    seen = set()
    sys.settrace(tracer)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(None)
    src, first = inspect.getsourcelines(inference._nelder_mead)
    return {src[line - first].strip() for line in seen}


def test_minimize_bounded_equals_scipy_on_every_branch():
    # Rosenbrock's valley with an infinite wall at x > 1.5: the search
    # expands, contracts on both sides and shrinks off the wall
    def rosenbrock(params):
        x, y = params["x"], params["y"]
        return math.inf if x > 1.5 else (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

    bounds = {"x": (-2.0, 2.0), "y": (-1.0, 3.0)}
    with np.errstate(invalid="ignore"):
        lines = _lines_run(minimize_bounded, rosenbrock, bounds, seed=4)
    for step in (
        "xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)",
        "xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)",
        "xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)",
        "sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)",
    ):
        assert step in lines, step
    for max_iter in (20, 400):
        ours, reference = _search_outcomes(rosenbrock, bounds, seed=4, max_iter=max_iter)
        assert ours == reference
        assert ours[4] is (max_iter == 400)


def test_minimize_bounded_equals_scipy_on_nan_vertices_and_ties():
    # a start whose simplex keeps a NaN vertex reports NaN and is never chosen
    def nan_wall(params):
        return params["x"] ** 2 if params["x"] < 0.51 else math.nan

    for n_starts in (1, 2):
        ours, reference = _search_outcomes(nan_wall, {"x": (0.0, 1.0)}, n_starts=n_starts, max_iter=1)
        assert ours == reference
    assert ours == "NonConvergence" if n_starts == 1 else ours[4] is False

    # 16 tied vertices and a NaN: numpy's argsort of more than 16 values with
    # a NaN does not keep ties in order, so the sorts must be scipy's
    def steps(params):
        return math.nan if params["x0"] > 0.51 else float(np.floor(4.0 * sum(params.values())))

    bounds = {f"x{i}": (0.0, 1.0) for i in range(16)}
    ours, reference = _search_outcomes(steps, bounds, seed=1, n_starts=1, max_iter=30)
    assert ours == reference


# ---------------------------------------------------------------------------
# tumour fit: magnitudes from second moments, orientation from bounds
# ---------------------------------------------------------------------------


def test_tumour_fit_recovers_signed_parameters():
    # The variance/lag-ladder objective is even in both parameters (the
    # cosine band contributes alpha**2, the cone band beta**2), so the
    # caller-declared bounds carry the sign convention; the fit must land on
    # the reference orientation (alpha > 0, beta < 0) and near the truth.
    p = example_preset("tumour")
    t = 25.0
    truth = {"alpha": 0.02, "beta": -0.033}
    grid = GridSpec(TWO_PI / 200, 1.0, 0.0, 55.0)
    model = tumour_log_cov_model(T=25.0, t0=17.0, phi0=0.19)
    sign_hits = 0
    errs = []
    for seed in range(20):
        profs = simulate_replicates(p.spec, grid, 7000 + seed, [t], 200)
        logs = np.log(profs)
        ds = ProfileDataset(np.array([t]), grid.phi_mids, logs)
        result = fit_moments(
            model,
            ds,
            {"alpha": (1e-4, 0.2), "beta": (-0.2, -1e-4)},
            seed=seed,
            n_starts=2,
            max_iter=300,
        )
        a, b = result.params["alpha"], result.params["beta"]
        sign_hits += (a > 0) and (b < 0)
        errs.append(max(abs(a - truth["alpha"]) / 0.02, abs(b - truth["beta"]) / 0.033))
    assert sign_hits >= 18, sign_hits
    assert float(np.median(errs)) < 0.5, errs
