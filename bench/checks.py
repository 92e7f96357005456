"""Output checks.  Each returns a list of failure messages; empty means pass.

Expected values come from computations made here or from properties the
method must have, never from stored copies of earlier output.  Monte Carlo
checks compare against |z| <= Z_MAX.  Z_MAX is 6 rather than the customary 3
or 4 because a run makes hundreds of z-checks and the benchmark is run
hundreds of times: at |z| <= 4 a correct program would fail one check in
about 16,000, at 6 one in about 500 million.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

Z_MAX = 6.0


def z_score(label, z):
    if not math.isfinite(z) or abs(z) > Z_MAX:
        return [f"{label}: |z| = {abs(z):.2f} > {Z_MAX}"]
    return []


def replicate_z(per_replicate, expected_lo, expected_hi=None):
    """z of the replicate mean against [expected_lo, expected_hi] (0 inside).

    ``per_replicate`` holds one statistic per independent replicate; its
    standard error is estimated from their spread.
    """
    x = np.asarray(per_replicate, dtype=float)
    hi = expected_lo if expected_hi is None else expected_hi
    m = float(x.mean())
    se = float(x.std(ddof=1)) / math.sqrt(x.size)
    gap = m - expected_lo if m < expected_lo else (m - hi if m > hi else 0.0)
    if gap == 0.0:
        return 0.0
    return gap / se if se > 0 else math.inf


# ---------------------------------------------------------------------------
# ensembles: profiles shaped (replicates, times, angles)
# ---------------------------------------------------------------------------


def ensemble_mean(label, profiles, mean):
    """Angular-mean deviation from the expected mean, one z per time.

    ``mean`` broadcasts against one replicate's (times, angles) block.
    """
    dev = np.asarray(profiles, float) - np.asarray(mean, float)
    per_rep = dev.mean(axis=2)  # (reps, times)
    out = []
    for i in range(per_rep.shape[1]):
        out += z_score(f"{label} mean, time {i}", replicate_z(per_rep[:, i], 0.0))
    return out


def ensemble_variance(label, profiles, mean, var_lo, var_hi, scale=1.0):
    """Mean squared deviation per replicate against [var_lo, var_hi] per time.

    Deviations are divided by ``scale`` (an angular profile) first.  A range
    rather than a value allows for cells whose midpoint lies exactly on the
    cone edge, where floating-point rounding decides membership.
    """
    dev = (np.asarray(profiles, float) - np.asarray(mean, float)) / np.asarray(scale, float)
    per_rep = (dev * dev).mean(axis=2)
    out = []
    for i in range(per_rep.shape[1]):
        z = replicate_z(per_rep[:, i], var_lo[i], var_hi[i])
        out += z_score(f"{label} variance, time {i}", z)
    return out


def exact_scaling(label, scaled, base, multiplier, rtol=1e-12):
    """``scaled`` equals ``multiplier * base`` to ``rtol`` of the magnitude."""
    expected = np.asarray(multiplier, float) * np.asarray(base, float)
    err = np.abs(np.asarray(scaled, float) - expected)
    bound = rtol * np.maximum(1.0, np.abs(expected))
    if np.all(err <= bound):
        return []
    return [f"{label}: max |diff| {float(err.max()):.3e} exceeds {rtol:g} relative"]


def identical(label, got, reference):
    """Bit-for-bit equality (the determinism contract)."""
    got = np.asarray(got)
    reference = np.asarray(reference)
    if got.shape == reference.shape and np.array_equal(got, reference):
        return []
    return [f"{label}: replicate differs from its single-seed simulation"]


def slope_sd(a, theta, lag, t1, t2, n_phi):
    """Per-replicate s.d. of the angular-mean slope of the 1/s-wedge model.

    Growth-rate model with unit weight, Poisson basis with g(s) = a*s, wedge
    half-width theta/s and lag T.  Only points with s in [t1 - T, t2] move
    the slope; there the wedge is narrower than half an angular cell, so a
    point reaches one grid angle with probability theta*n/(pi*s) and none
    otherwise.  Summing the squared contributions over the Poisson points
    gives Var = 2*a*theta/(dt^2 n) * int dL(s)^2 ds, with dL the change of
    the covered window length between t1 and t2 and dt = t2 - t1.
    """
    if not (t1 - lag) > theta * n_phi / math.pi:
        raise ValueError("wedge must be narrower than half a cell on the slope window")
    dt = t2 - t1
    if dt < lag:
        raise ValueError("times must be at least one lag apart")
    int_dl2 = (dt - lag) * lag**2 + 2.0 * lag**3 / 3.0
    return math.sqrt(2.0 * a * theta / (dt * dt * n_phi) * int_dl2)


def wedge_slope(label, profiles, i1, i2, dt, expected, sd):
    """Angular-mean slope between time rows i1 and i2, known per-replicate s.d."""
    means = np.asarray(profiles, float).mean(axis=2)
    slopes = (means[:, i2] - means[:, i1]) / dt
    z = (float(slopes.mean()) - expected) / (sd / math.sqrt(slopes.size))
    return z_score(f"{label} slope {float(slopes.mean()):.4f} vs {expected}", z)


def equal_counts(label, n_points, increment_total):
    if int(n_points) == int(round(increment_total)) and float(increment_total).is_integer():
        return []
    return [f"{label}: {n_points} points vs increments summing to {increment_total}"]


# ---------------------------------------------------------------------------
# analytic values
# ---------------------------------------------------------------------------


def close(label, got, expected, tol):
    if abs(float(got) - float(expected)) <= tol:
        return []
    return [f"{label}: {float(got)!r} vs {float(expected)!r} (tolerance {tol:.3g})"]


def relative(label, got, truth, rel_tol):
    err = abs(float(got) - truth) / abs(truth)
    if err <= rel_tol:
        return []
    return [f"{label}: {float(got):.5g} is {err:.1%} from {truth:.5g} (limit {rel_tol:.0%})"]


def cov_rows(label, rows, expected_fn, rtol=1e-9):
    """Rows (t1, t2, dphi, cov) against ``expected_fn(t1, t2, dphi)``.

    ``expected_fn`` returns the expected value and the sum of the absolute
    harmonic terms, which scales the tolerance where terms cancel.
    """
    out = []
    for t1, t2, d, cov in rows:
        exp, scale = expected_fn(float(t1), float(t2), float(d))
        if not abs(float(cov) - exp) <= rtol * scale + 1e-15:
            out.append(f"{label}: cov({t1}, {t2}, {d}) = {cov!r}, expected {exp!r}")
    return out


def window_overlap(t1, t2, lag):
    """Length of the shared part of the windows [t1 - lag, t1] and [t2 - lag, t2]."""
    return max(0.0, min(t1, t2) - max(t1 - lag, t2 - lag))


def cosine_weight_cov(coeffs, lag):
    """Expected-value function for :func:`cov_rows` under a cosine-series weight.

    Full-angle windows of length ``lag``, unit variance density and constant
    coefficients a_k: tau_k = pi a_k^2 |shared window| and
    cov = 2 tau_0 + sum_{k>=1} tau_k cos(k dphi).
    """
    a = np.asarray(coeffs, float)

    def expected(t1, t2, d):
        tau = math.pi * a**2 * window_overlap(t1, t2, lag)
        terms = tau[1:] * np.cos(np.arange(1, a.size) * d)
        return 2 * tau[0] + float(terms.sum()), 2 * tau[0] + float(np.abs(terms).sum())

    return expected


def overlap_closed_forms(gammas, n_terms):
    """Self-overlap cosine coefficients of a boundary set, derived in closed form.

    j >= 1: (16/pi) sum_{k odd} gamma_k / ((2j)^2 - k^2);
    j = 0:  sum_{k odd} (2 pi - 8/(pi k^2)) gamma_k - 2 pi sum_{k even >= 2} gamma_k.
    """
    g = np.asarray(gammas, float)
    ks = np.arange(g.size)
    odd = ks % 2 == 1
    even_pos = (ks % 2 == 0) & (ks >= 2)
    lam = np.zeros(n_terms + 1)
    lam[0] = float(
        np.sum((2.0 * np.pi - 8.0 / (np.pi * ks[odd] ** 2)) * g[odd])
        - 2.0 * np.pi * np.sum(g[even_pos])
    )
    for j in range(1, n_terms + 1):
        lam[j] = (16.0 / np.pi) * float(np.sum(g[odd] / ((2.0 * j) ** 2 - ks[odd] ** 2)))
    return lam


def overlap_coefficients(label, lam, gammas, tol):
    expected = overlap_closed_forms(gammas, len(lam) - 1)
    out = []
    for j, (got, exp) in enumerate(zip(lam, expected)):
        out += close(f"{label} lambda_{j}", got, exp, tol)
    return out


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def exit_code(label, code):
    return [] if code == 0 else [f"{label}: exit code {code}"]


def history_csv(label, path, n_rows, seed):
    """Provenance header, column header and row count of a replicate CSV."""
    with open(path) as fh:
        first = fh.readline()
        second = fh.readline()
        rows = sum(1 for _ in fh)
    out = []
    if not (first.startswith("# levygrowth v") and " config=" in first and first.split()[-1] == f"seed={seed}"):
        out.append(f"{label}: bad provenance line {first.strip()!r}")
    if second.strip() != "t,phi,r,replicate":
        out.append(f"{label}: bad header {second.strip()!r}")
    if rows != n_rows:
        out.append(f"{label}: {rows} rows, expected {n_rows}")
    return out


def read_table(path):
    """Data rows of a provenance-headed CSV as tuples of floats."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [tuple(float(v) for v in row) for row in csv.reader(lines[1:])]


def fit_report(label, path, truth, rel_tol):
    with open(path) as fh:
        payload = json.load(fh)
    out = [] if payload.get("converged") is True else [f"{label}: not converged"]
    for name, value in truth.items():
        out += relative(f"{label} {name}", payload["params"][name], value, rel_tol)
    return out


def moments_table(label, rows, expected_mean, expected_var, tol_mean, tol_var):
    """Rows (t, mean, variance) against per-time expectations (dicts by t)."""
    out = []
    if sorted(r[0] for r in rows) != sorted(expected_mean):
        return [f"{label}: times {[r[0] for r in rows]} != {sorted(expected_mean)}"]
    for t, mean, var in rows:
        out += close(f"{label} mean at t={t:g}", mean, expected_mean[t], tol_mean[t])
        out += close(f"{label} variance at t={t:g}", var, expected_var[t], tol_var[t])
    return out


def mc_report(label, path):
    with open(path) as fh:
        reports = json.load(fh)["reports"]
    out = [] if reports else [f"{label}: no reports"]
    for rep in reports:
        if rep["flagged"] or not abs(rep["z"]) <= 3.0:
            out.append(f"{label}: {rep['statistic']} flagged, z = {rep['z']:.2f}")
    return out
