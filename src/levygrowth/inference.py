"""Empirical moments, dataset ingestion, and parameter fitting.

Fitting strategy: per observed time, the empirical variance and the
spatial covariance at a ladder of angle lags are matched against the
model's analytic values, equally weighted after normalizing by the
empirical variance.  Optimization is a bounded derivative-free local
search (Nelder-Mead) restarted from a few quasi-random interior points;
the best run wins and the reported trace is the best objective seen so
far, which is non-increasing by construction.  The Nelder-Mead is SciPy's
bounded algorithm carried over step for step, so fitting needs numpy only.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
import numpy as np

from .csvrows import csv_block, reprs
from .cyclic import TWO_PI, arc_overlap_length, wrap
from .errors import (
    InfeasibleBounds,
    InsufficientData,
    MalformedFile,
    NonConvergence,
    NonPositiveRadius,
    NonUniformGrid,
    SingularCovariance,
)
from .fourier_radial import _reduce_series, _score_series, radial_fourier
from .rngtools import mix_seed
from .timefn import TimeFn


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class ProfileDataset:
    """Radial profiles on a shared angular grid, replicate-major."""

    times: np.ndarray  # (n_times,)
    angles: np.ndarray  # (n_phi,)
    profiles: np.ndarray  # (n_reps, n_times, n_phi)

    @property
    def n_reps(self):
        return self.profiles.shape[0]

    def to_csv(self, path, header_comment=None):
        """Write ``t,phi,r[,replicate]`` rows (the replicate column only when
        there are several), one ``write`` per (replicate, time) block."""
        times, phis = reprs(self.times), reprs(self.angles)
        with_rep = self.n_reps > 1
        with open(path, "w") as fh:
            if header_comment:
                fh.write(header_comment.rstrip("\n") + "\n")
            fh.write("t,phi,r,replicate\n" if with_rep else "t,phi,r\n")
            for r in range(self.n_reps):
                tail = (str(r),) if with_rep else ()
                for t, values in zip(times, self.profiles[r]):
                    fh.write(csv_block(t, phis, reprs(values), *tail))


def ingest_profiles(path, require_positive=False) -> ProfileDataset:
    """Read a (t, phi, r[, replicate]) CSV into a validated dataset.

    Angles are wrapped to [-pi, pi) and must form one uniform grid shared
    by every (time, replicate) block; rows may come in any order.  The data
    rows are parsed in one numpy call and checked as arrays.  Only when the
    parse fails is the file read again, to name the malformed line.
    """
    with open(path) as fh:
        has_rep = _read_header(fh)[0]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                rows = np.loadtxt(
                    fh,
                    dtype=_FIELDS[: 3 + has_rep],
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    ndmin=1,
                )
        except ValueError:
            fh.seek(0)
            raise _malformed_line(fh) from None
    t, phi, r = (np.array(rows[name]) for name in ("t", "phi", "r"))
    rep = np.array(rows["replicate"]) if has_rep else np.zeros(rows.size, np.int64)
    del rows
    dataset = _blocks(rep, t, phi, r)
    if require_positive and np.any(dataset.profiles <= 0):
        raise NonPositiveRadius("exponential-model fitting needs strictly positive radii")
    return dataset


def _read_header(fh):
    """Skip the provenance comments and check the header; ``fh`` is left at
    the first data row.  Returns whether there is a replicate column and the
    header's line number."""
    lineno, line = 1, fh.readline()
    while line.startswith("#"):
        lineno, line = lineno + 1, fh.readline()
    if not line:
        raise MalformedFile("empty file")
    header = next(csv.reader([line]))
    cols = [c.strip().lower() for c in header]
    if cols[:3] != ["t", "phi", "r"] or len(cols) > 4 or (
        len(cols) == 4 and cols[3] != "replicate"
    ):
        raise MalformedFile(f"expected header t,phi,r[,replicate]; got {header}")
    return len(cols) == 4, lineno


def _malformed_line(fh):
    """The :class:`MalformedFile` naming the first physical line of ``fh``
    (read from the start) whose field count or ``float``/``int`` conversion
    fails.  The integer dtype of the parse rejects a replicate field such as
    ``1.0``, as ``int`` does; what only the parse rejects (``1_0`` digit
    grouping, non-ASCII digits) gets no line."""
    has_rep, header_line = _read_header(fh)
    reader = csv.reader(fh)
    for row in reader:
        lineno = header_line + reader.line_num  # a quoted field may span lines
        if row and len(row) != 3 + has_rep:
            return MalformedFile(f"line {lineno}: wrong field count")
        try:
            for value, kind in zip(row, (float, float, float, int)):
                kind(value)
        except ValueError as exc:
            return MalformedFile(f"line {lineno}: {exc}")
    return MalformedFile("data rows are not plain decimal numbers")


def _check_grid(angles):
    """``angles`` (sorted) must be one uniform grid over the circle."""
    if angles.size < 2:
        raise NonUniformGrid("need at least two angles")
    d = np.diff(angles)
    if np.any(np.abs(d - d[0]) > 1e-9) or abs(angles.size * d[0] - TWO_PI) > 1e-6:
        raise NonUniformGrid("angles are not one uniform grid over the circle")


_FIELDS = [("t", float), ("phi", float), ("r", float), ("replicate", np.int64)]


def _blocks(rep, t, phi, r):
    """The dataset of data rows given in file order as columns.

    The angle grid is that of the block holding the first row.  Every other
    block must match it to 1e-9, else the first such block in file order is
    named; then the first missing (replicate, time) block in sorted order is.
    """
    n = t.size
    if n == 0:
        raise MalformedFile("no data rows")
    if not np.all(np.isfinite(t)):
        raise MalformedFile(f"time {t[~np.isfinite(t)][0]} is not finite")
    if not np.all(np.isfinite(phi)):
        raise NonUniformGrid(f"angle {phi[~np.isfinite(phi)][0]} is not finite")
    a = wrap(phi)
    same_rep, same_t = rep[1:] == rep[:-1], t[1:] == t[:-1]
    if np.all(
        (rep[1:] > rep[:-1])
        | (same_rep & ((t[1:] > t[:-1]) | (same_t & (a[1:] > a[:-1]))))
    ):
        order = np.arange(n)  # writer order: replicate, then time, then angle
    else:
        order = np.lexsort((a, t, rep))
        rep, t, a, r = rep[order], t[order], a[order], r[order]
    starts = np.flatnonzero(np.r_[True, (rep[1:] != rep[:-1]) | (t[1:] != t[:-1])])
    sizes = np.diff(np.r_[starts, n])
    first_row = np.minimum.reduceat(order, starts)  # each block's first file row
    b = int(np.argmin(first_row))
    n_phi = int(sizes[b])
    ref = a[starts[b] : starts[b] + n_phi].copy()
    _check_grid(ref)
    # each row's position in its block, capped: a longer block fails on size
    within = np.minimum(np.arange(n) - np.repeat(starts, sizes), n_phi - 1)
    off = np.abs(a - ref[within]) > 1e-9
    bad = (sizes != n_phi) | np.logical_or.reduceat(off, starts)
    if np.any(bad):
        b = np.flatnonzero(bad)[np.argmin(first_row[bad])]
        key = (int(rep[starts[b]]), float(t[starts[b]]))
        raise NonUniformGrid(f"angle grid differs in block {key}")
    reps, times = _unique(rep[starts]), _unique(t[starts])
    if starts.size != reps.size * times.size:
        code = np.searchsorted(reps, rep[starts]) * times.size + np.searchsorted(
            times, t[starts]
        )
        # codes rise from 0 in steps of one up to the first missing block
        i = int(np.argmax(np.r_[code, -1] != np.arange(code.size + 1)))
        key = (int(reps[i // times.size]), float(times[i % times.size]))
        raise NonUniformGrid(f"block (replicate, t) = {key} is missing")
    return ProfileDataset(times, ref, r.reshape(reps.size, times.size, n_phi))


def _unique(x):
    """The sorted distinct values of ``x``.  Asked for their first indices,
    ``np.unique`` does not import ``numpy.ma``, which it does without them
    (about 13 ms on first use)."""
    return np.unique(x, return_index=True)[0]


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMoments:
    times: np.ndarray
    mean: np.ndarray  # (n_times,)
    variance: np.ndarray  # (n_times,)
    lags: np.ndarray  # (n_lags,) grid-aligned angle lags
    spatial_cov: np.ndarray  # (n_times, n_lags); lag 0 equals the variance
    time_pairs: list  # [(i, j), ...] with i < j
    temporal_cov: np.ndarray  # one value per pair


def empirical_moments(dataset: ProfileDataset, n_lags=16) -> EmpiricalMoments:
    """Moment estimates pooling replicates and angles.

    Centering uses the per-time global mean; with a single replicate the
    angular average is the only source of replication (valid under
    rotational stationarity).  Spatial covariances are circular lag
    products, so they are symmetric in the lag sign and the lag-0 entry is
    the variance by construction.
    """
    if dataset.profiles.size == 0:
        raise InsufficientData("dataset has no profiles")
    n_reps, n_times, n_phi = dataset.profiles.shape
    if n_reps * n_phi < 2:
        raise InsufficientData("need at least two observations per time")
    dphi = TWO_PI / n_phi
    lag_idx = _unique(np.round(np.linspace(0.0, np.pi, n_lags) / dphi).astype(int) % n_phi)
    lags = lag_idx * dphi
    mean = dataset.profiles.mean(axis=(0, 2))
    centered = dataset.profiles - mean[None, :, None]
    spatial = np.empty((n_times, lag_idx.size))
    for li, lag in enumerate(lag_idx):
        rolled = np.roll(centered, -int(lag), axis=2)
        spatial[:, li] = np.mean(centered * rolled, axis=(0, 2))
    variance = spatial[:, 0].copy()
    pairs = [(i, j) for i in range(n_times) for j in range(i + 1, n_times)]
    temporal = np.array(
        [float(np.mean(centered[:, i] * centered[:, j])) for i, j in pairs]
    )
    return EmpiricalMoments(
        dataset.times, mean, variance, lags, spatial, pairs, temporal
    )


# ---------------------------------------------------------------------------
# bounded derivative-free fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    params: dict
    objective: float
    trace: list
    converged: bool
    n_evaluations: int
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(
            {
                "params": self.params,
                "objective": self.objective,
                "converged": self.converged,
                "n_evaluations": self.n_evaluations,
                "trace": self.trace,
                "meta": self.meta,
            }
        )


def _check_bounds(bounds):
    names = list(bounds)
    lo = np.array([bounds[n][0] for n in names], dtype=float)
    hi = np.array([bounds[n][1] for n in names], dtype=float)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
        raise InfeasibleBounds(f"bounds for {names} must be finite with low < high")
    return names, lo, hi


def _sorted(sim, fsim):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0, lo, hi, max_iter, xatol):
    """Nelder-Mead on the box [lo, hi] with every trial point clipped into it,
    until the simplex spans at most ``xatol`` and its values at most 1e-12;
    returns ``(x, f, converged)``.

    This is SciPy 1.17's ``_minimize_neldermead`` with bounds, no evaluation
    cap and the standard coefficients (reflection 1, expansion 2,
    contraction and shrink 1/2), carried over step for step so that its
    arithmetic, comparisons and sort order give the same iterates.  With
    ties, argsort can reorder a sorted array (a NaN among 17+ values), so
    the initial simplex is sorted twice, as there.
    """
    n = x0.size
    sim = np.repeat(np.clip(x0, lo, hi)[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[k + 1, k] if sim[k + 1, k] != 0 else 0.00025
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)  # reflect, then clip
    fsim = np.array([f(x) for x in sim], dtype=float)
    sim, fsim = _sorted(*_sorted(sim, fsim))
    iterations = 1
    while iterations < max_iter:
        if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= 1e-12:
            break
        xbar = sim[:-1].sum(0) / n
        xr = np.clip(2 * xbar - sim[-1], lo, hi)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                fxc = f(xc)
                keep = fxc <= fxr
            else:  # inside contraction
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _sorted(sim, fsim)
    return sim[0], np.min(fsim), iterations < max_iter


def minimize_bounded(objective, bounds, *, seed=0, n_starts=3, max_iter=400, xatol=1e-6):
    """Multi-start bounded Nelder-Mead; returns the best run.

    Start 0 is the box center; further starts are uniform interior points
    from the derived stream ``mix(seed, start_index)``.  The trace records
    the best objective after each evaluation.
    """
    names, lo, hi = _check_bounds(bounds)
    trace = []
    best = {"x": None, "f": math.inf, "converged": False}

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
        x, fun, converged = _nelder_mead(wrapped, x0, lo, hi, max_iter, xatol)
        if fun < best["f"]:
            best.update(x=x, f=float(fun), converged=converged)
    if best["x"] is None or (not best["converged"] and best["f"] == math.inf):
        raise NonConvergence("no optimizer start produced a finite objective")
    return FitResult(
        params=dict(zip(names, map(float, best["x"]))),
        objective=best["f"],
        trace=trace,
        converged=best["converged"],
        n_evaluations=len(trace),
    )


def fit_moments(model_cov, dataset, bounds, *, seed=0, n_starts=3, max_iter=400, n_lags=16):
    """Method-of-moments fit against variance plus the spatial-lag ladder.

    ``model_cov(params, t, lags)`` must return the model's spatial
    covariance at the given angle lags (lag 0 is the variance).  The
    objective is the squared mismatch summed over times and lags, each
    time's row normalized by its empirical variance.  ``dataset`` may be a
    :class:`ProfileDataset` or precomputed :class:`EmpiricalMoments`.
    """
    if isinstance(dataset, EmpiricalMoments):
        emp = dataset
    else:
        emp = empirical_moments(dataset, n_lags=n_lags)
    weights = 1.0 / np.maximum(emp.variance, 1e-300) ** 2

    def objective(params):
        total = 0.0
        for i, t in enumerate(emp.times):
            model_vals = np.asarray(model_cov(params, float(t), emp.lags), dtype=float)
            total += weights[i] * float(np.sum((emp.spatial_cov[i] - model_vals) ** 2))
        return total

    result = minimize_bounded(
        objective, bounds, seed=seed, n_starts=n_starts, max_iter=max_iter
    )
    if not result.converged:
        raise NonConvergence("moment fit hit its iteration cap")
    result.meta["n_lags"] = int(emp.lags.size)
    result.meta["bounds"] = {k: list(v) for k, v in bounds.items()}
    return result


def rect_direct_cov_model(T, g):
    """Spatial covariance family of the cone-window direct Gaussian model.

    Parameters ``sigma2`` (basis variance density) and ``theta`` (constant
    angular half-width); at time ``t`` the covariance at angle lag ``d`` is
    ``sigma2 * arc_overlap(d, theta, theta) * int_{t - T(t)}^{t} g``.
    """
    T = TimeFn.of(T)

    masses = {}  # the window mass per time, computed once

    def model_cov(params, t, lags):
        mass = masses.get(float(t))
        if mass is None:
            mass = masses[float(t)] = float(g.integral(t - float(T(t)), t))
        return params["sigma2"] * arc_overlap_length(np.asarray(lags), params["theta"], params["theta"]) * mass

    return model_cov


def tumour_log_cov_model(T, t0, phi0, spot_var=1.0):
    """Log-radius spatial covariance family of the two-band tumour model.

    Free parameters ``alpha`` and ``beta``; the old full-angle band
    contributes ``alpha**2 * pi * (T - t0) * cos(d)`` and the shrinking
    cone (linear profile, unit control density) contributes
    ``beta**2 * t0 * (phi0 - d)**2 / (2 phi0)`` for lags below ``phi0``.
    The covariance ladder is even in both signs, so sign conventions must
    come from the caller's bounds.
    """

    def model_cov(params, t, lags):
        lags = np.asarray(lags, dtype=float)
        band1 = params["alpha"] ** 2 * math.pi * (T - t0) * np.cos(lags)
        u = np.maximum(phi0 - lags, 0.0)
        band2 = params["beta"] ** 2 * t0 * u * u / (2.0 * phi0)
        return spot_var * (band1 + band2)

    return model_cov


def fit_fourier_mle(dataset, tau_family, bounds, *, orders, seed=0, n_starts=3, max_iter=400):
    """Maximum likelihood over a parameterized coefficient-covariance family.

    ``tau_family(params)`` returns a callable ``tau(k, t1, t2)`` that
    broadcasts over an order array as over the times (see
    :func:`levygrowth.fourier_radial.gaussian_loglik`).  The coefficient
    series of every replicate are scored jointly; orders are k >= 1.  They
    are reduced to one triangular factor per order once, before the
    optimizer, so an evaluation costs the same whatever the replicate
    count.  A single observation time cannot identify more than one
    temporal parameter and raises :class:`NonConvergence` up front.
    """
    orders = list(orders)
    if any(k < 1 for k in orders):
        raise ValueError("likelihood orders must be >= 1")
    if dataset.times.size == 1 and len(bounds) > 1:
        raise NonConvergence(
            "one observation time cannot identify multiple temporal parameters"
        )
    fs = radial_fourier(dataset.profiles, dataset.angles, max(orders))
    times = np.asarray(dataset.times, dtype=float)
    reduced = _reduce_series(fs.cos_coef, fs.sin_coef, orders)

    def objective(params):
        tau = tau_family(params)
        try:
            ll = _score_series(times, reduced, tau)
        except SingularCovariance:
            return math.inf
        return -ll

    result = minimize_bounded(
        objective, bounds, seed=seed, n_starts=n_starts, max_iter=max_iter
    )
    if not math.isfinite(result.objective):
        raise SingularCovariance("likelihood undefined everywhere in bounds")
    if not result.converged:
        raise NonConvergence("likelihood fit hit its iteration cap")
    result.meta["orders"] = orders
    result.meta["bounds"] = {k: list(v) for k, v in bounds.items()}
    return result
