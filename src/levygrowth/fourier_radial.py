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
from .timefn import TimeFn


@dataclass
class FourierSeries:
    """Cosine/sine coefficients of radial profiles, order on the last axis."""

    cos_coef: np.ndarray  # (..., k_max + 1)
    sin_coef: np.ndarray  # (..., k_max + 1), index 0 is identically 0

    @property
    def k_max(self):
        return self.cos_coef.shape[-1] - 1

    def reconstruct(self, angles):
        """One profile's values at ``angles`` (coefficients of shape (k_max + 1,))."""
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
    """Coefficients of profiles of shape (..., n) sampled on a uniform
    angular grid of ``n`` angles; the coefficients have shape (..., k_max + 1).

    ``k_max`` must stay below half the grid size (aliasing); the default is
    the largest exactly invertible order ``(n - 1) // 2``.
    """
    profile = np.asarray(profile, dtype=float)
    n = profile.shape[-1]
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
    phase = angles[:, None] * np.arange(k_max + 1)
    cos_coef = (2.0 / n) * (profile @ np.cos(phase))
    sin_coef = (2.0 / n) * (profile @ np.sin(phase))
    sin_coef[..., 0] = 0.0
    return FourierSeries(cos_coef, sin_coef)


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
    fs = radial_fourier(history.profiles, history.angles, k_max)
    return fs.cos_coef, fs.sin_coef


def fourier_cov_structure(weight: FourierWeight, g: TimeFn, ambit, t1, t2, k, j):
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
    (n_reps, n_times, K+1).  ``tau(k, t1, t2)``, the per-harmonic
    covariance, is called once: with the orders as an integer array of
    shape (n_orders, 1, 1) and the times as a column and a row.  It must
    broadcast the three arguments and return their (n_orders, n_times,
    n_times) array, or one value for every order and pair.  Each order's
    cosine and sine series are independent zero-mean multivariate normals
    with that Gram matrix.  The series are first reduced to one triangular
    factor per order (:func:`_reduce_series`), so scoring costs the same
    whatever the replicate count.  Raises :class:`SingularCovariance` when
    a Gram matrix has no Cholesky factor (e.g. duplicated observation
    times).
    """
    times = np.asarray(times, dtype=float)
    return _score_series(times, _reduce_series(cos_coef, sin_coef, orders), tau)


def _reduce_series(cos_coef, sin_coef, orders):
    """``(orders, factor, n_reps)``: each order's coefficient series reduced
    to what the likelihood reads of them.

    The order-k series are the columns of X_k, (n_times, 2 n_reps): every
    replicate's cosine and sine series.  ``factor[i]`` is R_k with
    R_k R_k^T = X_k X_k^T, the transposed triangle of a QR factorization of
    X_k^T, of shape (n_times, min(n_times, 2 n_reps)); the quadratic form
    sum_j x_j^T G^-1 x_j over the columns of X_k equals that over R_k.
    """
    cos_coef = _as_reps(cos_coef)
    sin_coef = _as_reps(sin_coef)
    k_max = cos_coef.shape[2] - 1
    orders = list(range(1, k_max + 1) if orders is None else orders)
    for k in orders:
        if k < 1 or k > k_max:
            raise ValueError(f"order {k} outside the available range 1..{k_max}")
    # each order's replicate cosine and sine series, as the rows of X_k^T
    x_t = np.concatenate([cos_coef[:, :, orders], sin_coef[:, :, orders]]).transpose(2, 0, 1)
    return orders, np.linalg.qr(x_t, mode="r").swapaxes(1, 2), cos_coef.shape[0]


def _score_series(times, reduced, tau):
    """The log-likelihood of series reduced by :func:`_reduce_series` under
    ``tau``, called once on the orders (n_orders, 1, 1), the times as a
    column and as a row."""
    orders, factor, n_reps = reduced
    if not orders:
        return 0.0
    n_times = times.size
    shape, col = (len(orders), n_times, n_times), times[:, None]
    full = np.broadcast_to(tau(np.array(orders)[:, None, None], col, col.T), shape)
    upper = np.triu(np.ones(shape[1:], dtype=bool))
    gram = np.where(upper, full, full.swapaxes(1, 2))  # mirrors tau(k, t_i, t_j), i <= j
    chol = _cholesky(gram)
    if chol is None:
        bad = next(k for k, g in zip(orders, gram) if _cholesky(g) is None)
        raise SingularCovariance(
            f"coefficient Gram matrix at order {bad} is not positive definite"
        )
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))
    quad = float(np.sum(np.linalg.solve(chol, factor) ** 2))
    return -0.5 * (quad + 2 * n_reps * (logdet + len(orders) * n_times * math.log(2.0 * math.pi)))


def _cholesky(gram):
    """Lower Cholesky factors of a finite (stack of) Gram matrices, else None."""
    if not np.isfinite(gram).all():
        return None
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None


def _as_reps(arr):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return arr
    raise ValueError("coefficient arrays must be (n_times, K+1) or (reps, n_times, K+1)")
