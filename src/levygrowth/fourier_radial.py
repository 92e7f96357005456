"""Fourier analysis of radial profiles and the induced Gaussian likelihood.

Coefficients follow the half-constant convention: with ``A_k`` the cosine
and ``B_k`` the sine coefficient (``B_0 = 0``), a profile reconstructs as
``A_0 / 2 + sum_{k>=1} (A_k cos(k phi) + B_k sin(k phi))``.  On a uniform
angular grid the midpoint rule below is the exact discrete transform, so a
band-limited profile reconstructs to round-off.

For a full-angle ambit model with a cosine-series weight, the coefficient
processes of order k >= 1 are uncorrelated across orders and channels and
share the per-harmonic covariance of :func:`levygrowth.circle_cov.harmonic_cov`
across time; under a Gaussian basis that makes the joint likelihood of
observed coefficient series a product of multivariate normals.  (The k = 0
identity depends on the chosen A_0 normalization and is not used here;
likelihoods run over orders k >= 1.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .ambit import FullAngle
from .circle_cov import FourierWeight, harmonic_cov
from .errors import AliasError, AssumptionViolation, SingularCovariance
from .levy_core import TimeDensity


@dataclass
class FourierSeries:
    """Cosine/sine coefficients of one radial profile."""

    cos_coef: np.ndarray  # (k_max + 1,)
    sin_coef: np.ndarray  # (k_max + 1,), index 0 is identically 0
    n_grid: int
    quadrature: str = "midpoint-dft"

    @property
    def k_max(self):
        return self.cos_coef.size - 1

    def reconstruct(self, angles):
        angles = np.asarray(angles, dtype=float)
        out = np.full(angles.shape, 0.5 * self.cos_coef[0])
        for k in range(1, self.k_max + 1):
            out += self.cos_coef[k] * np.cos(k * angles) + self.sin_coef[k] * np.sin(
                k * angles
            )
        return out


def _default_angles(n):
    return -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def radial_fourier(profile, angles=None, k_max=None) -> FourierSeries:
    """Coefficients of a profile sampled on a uniform angular grid.

    ``k_max`` must stay below half the grid size (aliasing); the default is
    the largest exactly invertible order ``(n - 1) // 2``.
    """
    profile = np.asarray(profile, dtype=float)
    n = profile.size
    if angles is None:
        angles = _default_angles(n)
    else:
        angles = np.asarray(angles, dtype=float)
        if angles.size != n:
            raise ValueError("angles and profile must have the same length")
    if k_max is None:
        k_max = (n - 1) // 2
    if 2 * k_max >= n:
        raise AliasError(f"order {k_max} is not resolved by {n} grid angles")
    ks = np.arange(k_max + 1)
    phase = ks[:, None] * angles[None, :]
    cos_coef = (2.0 / n) * (np.cos(phase) @ profile)
    sin_coef = (2.0 / n) * (np.sin(phase) @ profile)
    sin_coef[0] = 0.0
    return FourierSeries(cos_coef, sin_coef, n)


def parseval_gap(series: FourierSeries, profile):
    """Relative gap between the profile's mean square and its coefficient sum.

    With this module's normalization the mean of ``profile**2`` equals
    ``A_0**2 / 4 + (1/2) sum_{k>=1} (A_k**2 + B_k**2)`` for band-limited
    profiles.
    """
    profile = np.asarray(profile, dtype=float)
    lhs = float(np.mean(profile**2))
    rhs = 0.25 * series.cos_coef[0] ** 2 + 0.5 * float(
        np.sum(series.cos_coef[1:] ** 2 + series.sin_coef[1:] ** 2)
    )
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def series_for_history(history, k_max):
    """Coefficient arrays (n_times, k_max + 1) for each history time."""
    cos_rows, sin_rows = [], []
    for row in history.profiles:
        fs = radial_fourier(row, history.angles, k_max)
        cos_rows.append(fs.cos_coef)
        sin_rows.append(fs.sin_coef)
    return np.asarray(cos_rows), np.asarray(sin_rows)


def fourier_cov_structure(weight: FourierWeight, g: TimeDensity, ambit, t1, t2, k, j):
    """Cross-covariances of coefficient processes under a full-angle model.

    Returns ``(cov_AA, cov_BB, cov_AB)``: the per-harmonic covariance when
    the orders match (k = j >= 1; the sine channel is degenerate at order
    0), zero otherwise.  Raises :class:`AssumptionViolation` for ambit
    families other than full-angle windows.
    """
    if not isinstance(ambit, FullAngle):
        raise AssumptionViolation("coefficient covariances need a full-angle ambit")
    if k != j:
        return (0.0, 0.0, 0.0)
    tau = harmonic_cov(weight, g, ambit.T, t1, t2, k)
    return (tau, tau if k >= 1 else 0.0, 0.0)


def gaussian_loglik(times, cos_coef, sin_coef, tau, orders=None):
    """Log-likelihood of observed coefficient series under a Gaussian model.

    ``cos_coef`` / ``sin_coef`` have shape (n_times, K+1) or
    (n_reps, n_times, K+1); ``tau(k, t_i, t_j)`` supplies the per-harmonic
    covariance.  Each order's cosine and sine series are independent
    zero-mean multivariate normals with the same Gram matrix across the
    observation times.  Raises :class:`SingularCovariance` when a Gram
    matrix has no Cholesky factor (e.g. duplicated observation times).
    """
    import scipy.linalg  # imported here: scipy costs start-up time

    times = np.asarray(times, dtype=float)
    cos_coef = _as_reps(cos_coef)
    sin_coef = _as_reps(sin_coef)
    n_times = times.size
    k_max = cos_coef.shape[2] - 1
    if orders is None:
        orders = range(1, k_max + 1)
    total = 0.0
    for k in orders:
        if k < 1 or k > k_max:
            raise ValueError(f"order {k} outside the available range 1..{k_max}")
        gram = np.empty((n_times, n_times))
        for i in range(n_times):
            for j in range(i, n_times):
                gram[i, j] = gram[j, i] = tau(k, times[i], times[j])
        try:
            chol = scipy.linalg.cho_factor(gram, lower=True)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularCovariance(
                f"coefficient Gram matrix at order {k} is not positive definite"
            ) from exc
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        for series in (cos_coef, sin_coef):
            x = series[:, :, k]  # (n_reps, n_times)
            solved = scipy.linalg.cho_solve(chol, x.T)
            quad = float(np.sum(x.T * solved))
            n_reps = x.shape[0]
            total += -0.5 * (
                quad + n_reps * (logdet + n_times * math.log(2.0 * math.pi))
            )
    return total


def _as_reps(arr):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return arr
    raise ValueError("coefficient arrays must be (n_times, K+1) or (reps, n_times, K+1)")
