"""Radial growth simulation on an angle/time grid.

Model kinds
-----------
* ``rate_linear``: the growth *rate* is drift plus a weighted basis integral
  over the ambit set; the radius is simulated through the induced
  time-integrated form (accumulated drift, accumulated weight, one shared
  realization) rather than by stepping rates, which avoids compounding
  discretization error.
* ``direct`` / ``direct_scaled``: the radius itself is drift plus the ambit
  integral (optionally times an angular profile).
* ``rate_of_log``: the linear form drives ``log R``.
* ``exponential_tumour``: ``log R = mu_t + alpha(t) * (cosine band integral)
  + beta(t) * (shrinking band integral)`` over the two disjoint time bands
  of the tumour ambit family.

Evaluation conventions
----------------------
Every kind is ``scale * link(level + term)``; the term, the ambit integral
at time t, carries its own mean and variance, which centring and
``levygrowth moments`` read.  Cell-valued bases (Gaussian, Gamma, inverse
Gaussian) are integrated on the mesh: weights and memberships at cell
midpoints, matching the analytic engine in :mod:`levygrowth.moments`.
A Poisson realization with a constant weight is summed over its exact
point pattern, whose moments are the continuum formulas: on any family for
the direct kinds, on a factorizing family for the rate kinds.  Every other
Poisson weight, cosine-series and tumour weights included, integrates its
cell counts on the mesh like the other bases, so ``levygrowth moments``
prints its law exactly.  A Gaussian basis with a constant weight on a
rectangular cone of constant half-width (:func:`_cone_plan`) follows the
continuum law instead: its terms carry the continuum moments of point sums,
and its plan draws the exact law of the continuum field (:class:`_ConeLaw`).

A call of :func:`simulate` or :func:`simulate_replicates` first builds a
plan holding everything that does not depend on the realization: the
kernels, kept as the spectra of their nonzero (ambit-window) rows, the
centring shifts and the drift values.  A plan's terms are all of one kind,
mesh terms, point sums or cone terms, since the path depends only on the
spec and the model kind, so one sampler draws them all:

* On a Gaussian cone plan one lag spectrum and one factor over the times
  give every harmonic's covariance, with no kernel (:class:`_ConeLaw`).
* On any other Gaussian basis the spectra fix the joint law of every
  time's term: per harmonic k, the terms' profile coefficients are complex
  normal across the times, independent over k (the circle's exact form of
  circulant embedding).  The plan factors each harmonic's covariance once, and a
  replicate draws the coefficients directly, one block of normals from the
  start of its seed's stream, with no increment rows (:class:`_JointSpectrum`).
* Other mesh terms draw only the rows they read, grouped into segments:
  rows that every term weighs with the bitwise same kernel row, or not at
  all (:class:`_MeshRows`).  Every segment is drawn with
  :func:`~levygrowth.levy_core.draw_rows` as one row of cells of the summed
  measure, from the row-addressed stream (:mod:`levygrowth.rngtools`) of its
  first row, and transformed once.  The Gamma and inverse Gaussian cell
  laws are convolution semigroups in the measure, so the draw is exact, but
  a time's values depend on which other times the plan holds, as a Gaussian
  plan's do.  A Poisson plan keeps one segment per row, and its cells are
  the realization's point counts: it draws the row totals and angles of
  the whole point blocks (``POINT_BLOCK`` rows) that hold its rows, and
  counts the angles per cell (:func:`~levygrowth.levy_core.draw_counts`).
* Point sums draw the points of whole point blocks, with no cell counts:
  block by block, the points are placed and, on a factorizing family,
  their arcs built, and each time whose window the block touches adds its
  points to its own difference array, so no array grows with the whole
  point pattern (:class:`_PointSums`).

Drifts are :class:`~levygrowth.timefn.TimeFn` values (``Drift`` is an alias
kept for callers): the direct and exponential kinds evaluate ``drift(t)``,
the rate kinds its exact integral ``drift.integral(0, t)`` over [0, t].
Weights are coerced once by :func:`levygrowth.ambit.as_weight`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import ambit as _ambit
from .ambit import (
    AmbitFamily,
    ConstantWeight,
    Rectangular,
    Tumour,
    as_weight,
    check_covered,
    check_union_window_start,
    mesh_kernel,
)
from .csvrows import csv_block, reprs
from .cyclic import TWO_PI, arc_overlap_length, cyc_dist
from .errors import AssumptionViolation, NonFiniteValue, UnknownId, WrongBasisKind
from .levy_core import (
    BasisSpec,
    GridSpec,
    _PointPlacer,
    check_kumulant_domain,
    config_hash,
    constant_weight_cumulant,
    cumulant_sum,
    draw_rows,
    sample_realization,
)
from .quadrature import kink_integral, tanh_sinh
from .rngtools import POINT_BLOCK, mix_seed, seeded_generator
from .timefn import TimeFn

Drift = TimeFn

_EPS = 1e-12
_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TumourWeight:
    """Cosine weight on the old full-angle band, flat weight on the recent cone."""

    family: Tumour
    alpha: TimeFn
    beta: TimeFn

    apex_dependent = True

    def value(self, t, theta, s, phi=0.0):
        """The weight at points of the ambit set (membership is not checked)."""
        _, mid, _ = self.family.band_split(t)
        band1 = np.asarray(s, dtype=float) <= mid + _EPS
        cosine = float(self.alpha(t)) * np.cos(np.asarray(theta, dtype=float) - phi)
        return np.where(band1, cosine, float(self.beta(t)))

    def max_positive_value(self, t):
        a = abs(float(self.alpha(t)))
        b = float(self.beta(t))
        return max(a, b, 0.0)

    def describe(self):
        return {
            "weight": "tumour",
            "alpha": self.alpha.describe(),
            "beta": self.beta.describe(),
        }


# ---------------------------------------------------------------------------
# model specification and history
# ---------------------------------------------------------------------------

MODEL_KINDS = (
    "rate_linear",
    "direct",
    "direct_scaled",
    "rate_of_log",
    "exponential_tumour",
)


@dataclass(frozen=True)
class GrowthModelSpec:
    kind: str
    drift: TimeFn
    weight: object  # coerced by ambit.as_weight
    basis: BasisSpec
    ambit: AmbitFamily
    r0: object = 0.0  # constant or callable of angle, rate models only
    multiplier: Optional[Callable] = None  # angular profile, direct_scaled only
    center_stochastic_mean: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weight", as_weight(self.weight))
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "direct_scaled" and self.multiplier is None:
            raise ValueError("direct_scaled needs an angular multiplier")
        if self.kind == "exponential_tumour":
            if not isinstance(self.weight, TumourWeight):
                raise ValueError("exponential_tumour needs a TumourWeight")
            if not isinstance(self.ambit, Tumour):
                raise ValueError("exponential_tumour needs the tumour ambit family")

    def r0_profile(self, angles):
        if callable(self.r0):
            return np.asarray(self.r0(angles), dtype=float)
        return np.full(angles.shape, float(self.r0))

    def describe(self):
        return {
            "kind": self.kind,
            "drift": self.drift.describe(),
            "weight": self.weight.describe(),
            "basis": self.basis.describe(),
            "ambit": self.ambit.describe(),
            "centered": self.center_stochastic_mean,
        }


@dataclass
class GrowthHistory:
    """Radial profiles on the angular grid at the requested times."""

    times: np.ndarray
    angles: np.ndarray
    profiles: np.ndarray  # (n_times, n_phi)
    seed: int
    grid: GridSpec
    spec_hash: str
    flags: dict = field(default_factory=dict)

    def provenance(self):
        from . import __version__

        return f"# levygrowth v{__version__} config={self.spec_hash} seed={self.seed}"

    def angular_mean(self):
        return self.profiles.mean(axis=1)

    def to_csv(self, path):
        from .inference import ProfileDataset

        dataset = ProfileDataset(self.times, self.angles, self.profiles[None])
        dataset.to_csv(path, self.provenance())

    def to_polyline_csv(self, path):
        cos, sin = np.cos(self.angles), np.sin(self.angles)
        with open(path, "w") as fh:
            fh.write(self.provenance() + "\n")
            fh.write("t,x,y\n")
            for t, profile in zip(reprs(self.times), self.profiles):
                fh.write(csv_block(t, reprs(profile * cos), reprs(profile * sin)))


# ---------------------------------------------------------------------------
# terms: the ambit integral at one time, with its mean and variance
# ---------------------------------------------------------------------------


def _correlate_rows(z_rows, kernel_rows, n_phi):
    """sum_l circular cross-correlation of data row l with kernel row l."""
    zf = np.fft.rfft(z_rows, axis=1)
    kf = np.fft.rfft(kernel_rows, axis=1)
    return np.fft.irfft((zf * np.conj(kf)).sum(axis=0), n=n_phi)


class _MeshTerm:
    """:func:`_correlate_rows` of the increments with one fixed kernel.

    ``kernel`` holds the time rows ``rows`` (the window), the kernel being
    zero on the others.  Only its nonzero rows are kept, as their conjugated
    ``spectrum``, which :class:`_MeshRows` reads.  ``moments`` is the (mean,
    variance) of the value at each angle.
    """

    def __init__(self, kernel, rows, grid, basis):
        nonzero = np.any(kernel != 0.0, axis=1)
        self.rows = rows[nonzero]
        self.spectrum = np.conj(np.fft.rfft(kernel[nonzero], axis=1))
        mu, spot = grid.cell_mu(basis.control), basis.spot
        self.moments = (
            cumulant_sum(spot, mu, kernel, rows=rows),
            cumulant_sum(spot, mu, kernel, kernel, rows=rows),
        )


class _PointTerm:
    """A constant weight ``c`` summed over the points of a Poisson
    realization that arrived in the term's window (to 1e-12), each point
    adding over the grid angles its arc covers: ``c`` in ``"direct"`` mode,
    ``c * L(s, t)`` in ``"rate"`` mode, with ``L`` the length of the point's
    window in the time union.  The window's points lie in the point
    ``blocks`` (whole blocks of time rows); :class:`_PointSums` adds each
    block's points to the term's :class:`_ArcSum` (:meth:`add`) in block
    order, on a factorizing family as the block's
    :meth:`_PointBlock.arc_sum`, so the term's value does not depend on what
    other terms read.  ``moments``,
    the (mean, variance) of the value at each angle, are computed on first
    use."""

    def __init__(self, spec, grid, t, mode):
        self.spec, self.grid, self.t, self.mode = spec, grid, t, mode
        self.c = float(spec.weight.c)
        self.window = (min(0.0, grid.t_min), t) if mode == "rate" else spec.ambit.window(t)
        edges = grid.t_edges
        # Points of row l lie in [edges[l], edges[l] + dt]; one spare row
        # below absorbs the rounding of that upper end.
        lo = int(np.searchsorted(edges, self.window[0] - _EPS, side="left")) - 2
        hi = int(np.searchsorted(edges, self.window[1] + _EPS, side="right"))
        lo, hi = max(lo, 0), min(hi, grid.n_t)
        self.blocks = range(lo // POINT_BLOCK, -(-hi // POINT_BLOCK))

    def add(self, block, total):
        """Add the points of the :class:`_PointBlock` ``block`` that lie in
        the window to the :class:`_ArcSum` ``total``."""
        sel = block.select(*self.window)
        s = block.s[sel]
        if self.mode == "rate":
            values = self.c * _ambit.window_length_in_union(self.spec.ambit, s, self.t)
        else:
            values = np.full(s.shape, self.c)
        if block.arcs is None:
            widths = np.asarray(self.spec.ambit.half_width(self.t, s), dtype=float)
            total.add(_arcs(block.theta[sel], widths, self.grid), values)
        else:
            total.add_sum(block.arc_sum(sel, values))

    @cached_property
    def moments(self):
        """:func:`_continuum_moments` with ``I_p`` the ambit measure
        ``mu(A_t)`` (direct) or :func:`_union_integrals` (rate)."""
        spec = self.spec
        if self.mode == "rate":
            integrals = _union_integrals(spec, self.grid, self.t)
        else:
            integrals = (spec.ambit.measure(self.t, spec.basis.control),) * 2
        return _continuum_moments(spec, integrals)


def _continuum_moments(spec, integrals):
    """``c^p m_p I_p`` for p = 1, 2: the (mean, variance) of a constant
    weight ``c``'s ambit integral, with ``m_p`` the spot mean and variance
    and ``I_p`` the ``integrals``, ``int k^p dmu`` for the integrand ``c k``."""
    spot, c = spec.basis.spot, float(spec.weight.c)
    return tuple(constant_weight_cumulant(spot, c, x, p) for p, x in zip((1, 2), integrals))


class _Arcs(NamedTuple):
    """The grid cells whose midpoints lie within the half-width (+1e-12) of
    each point's angle: ``full`` marks half-widths >= pi, the others cover
    cells ``start .. end - 1`` taken mod n.  Full arcs and arcs covering no
    midpoint have ``start = end = n``."""

    full: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def take(self, sel):
        return _Arcs(*(a[sel] for a in self))


def _arcs(theta, widths, grid):
    """The :class:`_Arcs` of points at angles ``theta`` with half-widths
    ``widths``."""
    n = grid.n_phi
    full = widths >= np.pi - _EPS
    center = (theta + np.pi) / grid.dphi - 0.5
    reach = (widths + _EPS) / grid.dphi
    lo = np.ceil(center - reach)
    length = np.clip(np.floor(center + reach) - lo + 1, 0, n)
    length[full] = 0
    start = np.where(length == 0, n, lo.astype(np.int32) % n)
    return _Arcs(full, start, start + length.astype(np.int32))


class _ArcSum:
    """Per grid angle, the sum of values over the arcs covering it, added one
    batch of points at a time (:meth:`add`) or one finished sum at a time
    (:meth:`add_sum`).

    The difference array takes each batch's arc starts in point order, then
    its arc ends (slot n collects what no cell reads), so the same batches of
    points give the same bits whether or not zero values or empty arcs are
    among them.  Zero values are left out of the full-circle sum for that
    reason.
    """

    def __init__(self, n):
        self.n, self.diff, self.full = n, np.zeros(n + 1), 0.0

    def add(self, arcs, values):
        n, diff = self.n, self.diff
        np.add.at(diff, arcs.start, values)
        np.add.at(diff, np.minimum(arcs.end, n), -values)
        wrap = arcs.end > n
        if wrap.any():
            np.add.at(diff, np.zeros(np.count_nonzero(wrap), dtype=np.int32), values[wrap])
            np.add.at(diff, arcs.end[wrap] - n, -values[wrap])
        if arcs.full.any():
            full = values[arcs.full]
            self.full += float(np.sum(full[full != 0.0]))
        return self

    def add_sum(self, other):
        self.diff += other.diff
        self.full += other.full

    def profile(self):
        profile = np.zeros(self.n)
        profile += self.full
        profile += np.cumsum(self.diff[: self.n])
        return profile


class _PointBlock:
    """The :class:`~levygrowth.levy_core.PointPattern` ``points`` of one
    point block, in row order, and their :class:`_Arcs` when the ambit family
    factorizes, so that every time reads the same arcs (``term`` is any term
    reading the block)."""

    def __init__(self, points, term):
        self.theta, self.s = points.theta, points.s
        self.arcs = None
        if term.spec.ambit.factorizes:
            widths = np.asarray(term.spec.ambit.half_width(term.t, self.s), dtype=float)
            self.arcs = _arcs(self.theta, widths, term.grid)
        self.n_phi, self.sums = term.grid.n_phi, []

    def arc_sum(self, sel, values):
        """The :class:`_ArcSum` of ``values`` over the arcs of the points
        ``sel``, made once per slice and values, so that times whose windows
        hold the same points with bitwise equal values share it: on the rate
        kinds, every time by which ``L(s, t)`` has stopped growing for all
        of the block's points."""
        if not isinstance(sel, slice):
            return _ArcSum(self.n_phi).add(self.arcs.take(sel), values)
        for done, done_values, total in self.sums:
            if done == sel and np.array_equal(done_values, values):
                return total
        total = _ArcSum(self.n_phi).add(self.arcs.take(sel), values)
        self.sums.append((sel, values, total))
        return total

    def select(self, lo, hi):
        """Index of the points with ``lo - 1e-12 <= s <= hi + 1e-12``: a
        slice when they are contiguous, as a time window's points are
        except for rounding at its end rows, else a boolean mask."""
        inside = (self.s >= lo - _EPS) & (self.s <= hi + _EPS)
        count = int(np.count_nonzero(inside))
        first = int(np.argmax(inside)) if count else 0
        if inside[first : first + count].all():
            return slice(first, first + count)
        return inside


class _MeshRows:
    """Mesh terms, drawn and read one segment of rows at a time.

    A segment holds rows that every term reads with the bitwise same kernel
    row (a row of its ``spectrum``), or does not read.  So the terms read a
    segment's cells only through their sum at each angle, which, the basis
    being independently scattered and each cell law a convolution semigroup
    in the measure (Gamma(beta mu, alpha), IG(eta mu, gamma)), is one cell
    of the summed measure ``mu``.  Every segment is drawn as that row of
    cells by :func:`~levygrowth.levy_core.draw_rows`, from row ``first`` (its
    first row) of the seed's :class:`~levygrowth.rngtools.RowStreams`,
    transformed once, and read by each term with one kernel spectrum.  A
    segment of one row is drawn and read as the realization's row.

    A Poisson basis keeps one segment per row, and draws no cells of its
    own: its cells are the counts of the realization's points, from the
    row totals and angles of the whole point blocks holding its rows, with
    no times placed (``placer``, :meth:`~levygrowth.levy_core._PointPlacer.counts`).
    ``segments`` holds each segment's rows, in order of first row.
    """

    def __init__(self, terms, basis, grid):
        self.basis, self.grid = basis, grid
        # per row and term, which of the term's distinct kernel rows it reads (-1: none)
        signature = np.full((grid.n_t, len(terms)), -1)
        for i, term in enumerate(terms):
            seen = {}
            signature[term.rows, i] = [seen.setdefault(x.tobytes(), len(seen)) for x in term.spectrum]
        self.rows = np.flatnonzero(np.any(signature >= 0, axis=1))
        poisson = basis.spot.kind == "poisson"
        self.placer = _PointPlacer(basis, grid) if poisson else None
        segments = {}
        for row in self.rows:
            segments.setdefault(row if poisson else signature[row].tobytes(), []).append(row)
        self.segments = [np.array(rows) for rows in segments.values()]
        self.first = np.array([rows[0] for rows in self.segments], dtype=np.intp)
        mu = grid.cell_mu(basis.control)
        self.mu = np.array([mu[rows].sum() for rows in self.segments])
        segment = np.empty(grid.n_t, dtype=np.intp)
        for j, rows in enumerate(self.segments):
            segment[rows] = j
        self.reads = []  # per term: its segments and their kernel spectra
        for term in terms:
            segs, at = np.unique(segment[term.rows], return_index=True)
            self.reads.append((segs, term.spectrum[at] if at.size < term.rows.size else term.spectrum))

    @property
    def draws(self):
        if self.placer is not None:
            return _point_draws(self.rows // POINT_BLOCK, self.grid) + f", read as {self.rows.size} rows"
        return f"{self.rows.size} rows, {len(self.segments)} segments"

    def values(self, seed):
        """The terms' values, each segment drawn and read as described
        above."""
        if self.placer is not None:
            cells = self.placer.counts(seed, self.first)
        else:
            cells = draw_rows(self.basis.spot, seed, self.first, self.mu, self.grid.n_phi)
        spectra = np.fft.rfft(cells, axis=1)
        n = self.grid.n_phi
        return [np.fft.irfft((spectra[segs] * spectrum).sum(axis=0), n=n) for segs, spectrum in self.reads]


class _PointSums:
    """Point terms, drawn and read one point block at a time: the blocks
    are those the terms' windows touch.  Each block's points are placed
    from its own point stream
    (:meth:`~levygrowth.levy_core._PointPlacer.place_block`), its
    :class:`_PointBlock` is built, and each term whose window the block
    touches adds it to the term's :class:`_ArcSum`, so no array grows with
    the whole point pattern.  No cell counts are drawn."""

    def __init__(self, terms, basis, grid):
        self.terms, self.grid = terms, grid
        self.blocks = sorted({b for term in terms for b in term.blocks})
        self.placer = _PointPlacer(basis, grid)

    @property
    def draws(self):
        return _point_draws(self.blocks, self.grid)

    def values(self, seed):
        """The terms' values, the blocks' points placed from ``seed`` in
        block order."""
        streams = self.placer.streams(seed)
        sums = {term: _ArcSum(self.grid.n_phi) for term in self.terms}
        for b in self.blocks:
            terms = [term for term in self.terms if b in term.blocks]
            block = _PointBlock(self.placer.place_block(streams, b), terms[0])
            for term in terms:
                term.add(block, sums[term])
        return [sums[term].profile() for term in self.terms]


def _point_draws(blocks, grid):
    """What drawing the point blocks ``blocks`` takes, for the log."""
    blocks = np.unique(blocks)
    rows = np.minimum((blocks + 1) * POINT_BLOCK, grid.n_t) - blocks * POINT_BLOCK
    return f"{blocks.size} point blocks, {int(rows.sum())} row totals"


def _normals_drawn(n_phi, n_terms):
    """What :func:`_harmonic_normals` draws, for the log."""
    return f"{2 * (n_phi // 2 + 1) * n_terms} normals"


def _harmonic_normals(seed, n_phi, n_terms):
    """Unit complex normals ``h`` (n/2 + 1, n_terms), one block from the
    start of ``seed``'s stream: N(0, 1/2) real and imaginary parts, and a
    real N(0, 1) at the real harmonics (k = 0, and n/2 for an even n)."""
    real = [0, n_phi // 2] if n_phi % 2 == 0 else [0]
    h = seeded_generator(seed).standard_normal((n_phi // 2 + 1, n_terms, 2)).view(complex)[..., 0]
    scale = np.full((h.shape[0], 1), math.sqrt(0.5))
    scale[real] = 1.0
    h *= scale
    h.imag[real] = 0.0
    return h


class _JointSpectrum:
    """The joint law of Gaussian mesh terms, harmonic by harmonic.

    Term ``t`` has profile coefficients ``X_t(k) = sum_l Z_l(k) S^t_l(k)``,
    with ``Z_l`` the ``rfft`` of increment row ``l`` and ``S^t_l`` the term's
    ``spectrum`` row.  The rows are independent Gaussian, so off the mean
    ``X(k)`` is complex normal across the terms with covariance ``gram[k] =
    C_k(t, u) = n b sum_l mu_l S^t_l(k) conj(S^u_l(k))``, independent over
    k = 0..n/2 and real at k = 0 and at the Nyquist harmonic of an even n.
    ``factor[k]`` is ``A_k`` with ``A_k A_k^H = C_k``, from ``eigh`` with
    rounding-level negative eigenvalues clipped to 0 (``C_k`` is singular
    where the kernels have exact zeros, so Cholesky fails there), and real
    at the real harmonics.  ``mean`` is each term's ``moments[0]``.
    """

    def __init__(self, terms, grid, basis):
        n, nk = grid.n_phi, grid.n_phi // 2 + 1
        weights = n * basis.spot.b_tilde * grid.cell_mu(basis.control)
        gram = np.zeros((nk, len(terms), len(terms)), dtype=complex)
        for i, a in enumerate(terms):
            for j, b in enumerate(terms[: i + 1]):
                rows, ia, jb = np.intersect1d(a.rows, b.rows, return_indices=True)
                gram[:, i, j] = np.einsum(
                    "l,lk,lk->k", weights[rows], a.spectrum[ia], np.conj(b.spectrum[jb])
                )
                gram[:, j, i] = np.conj(gram[:, i, j])
        self.n_phi, self.gram = n, gram
        self.real = np.array([0, n // 2] if n % 2 == 0 else [0])
        self.factor = _psd_factor(gram)
        self.factor[self.real] = _psd_factor(gram[self.real].real)
        self.mean = np.array([term.moments[0] for term in terms])[:, None]

    @property
    def draws(self):
        return _normals_drawn(self.n_phi, self.factor.shape[1])

    def values(self, seed):
        """The terms' values (n_terms, n_phi) drawn from ``seed``: the
        :func:`_harmonic_normals` ``h_k``, then the ``irfft`` of each term's
        ``A_k h_k``, plus the mean."""
        h = _harmonic_normals(seed, self.n_phi, self.factor.shape[1])
        coeffs = np.einsum("ktj,kj->tk", self.factor, h)
        return np.fft.irfft(coeffs, n=self.n_phi, axis=1) + self.mean


def _psd_factor(gram):
    """``A`` with ``A A^H = gram`` for a positive semidefinite Hermitian
    matrix or a stack of them, negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh(gram)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _cone_plan(spec):
    """Whether ``spec``'s plan draws from a :class:`_ConeLaw`: a Gaussian
    basis with a constant weight on a rectangular cone of constant
    half-width (every model kind but the tumour model, whose family and
    weight are its own)."""
    return (
        spec.basis.spot.kind == "gaussian"
        and isinstance(spec.weight, ConstantWeight)
        and isinstance(spec.ambit, Rectangular)
        and spec.ambit.theta.is_constant
    )


class _ConeTerm(NamedTuple):
    """One time's ambit integral on a cone plan: only its (mean, variance)
    at each angle, ``moments``; the plan's :class:`_ConeLaw` draws it."""

    moments: tuple


class _ConeLaw:
    """The exact joint law, at the grid angles and the requested ``times``,
    of a Gaussian basis's ambit integrals over a rectangular cone of
    constant half-width ``theta``, with a constant weight ``c``.

    At times t, u and angle lag d the covariance splits into a lag part and
    a time part, ``kappa2 c^2 ov(d) M(t, u)``: ``ov`` is
    :func:`~levygrowth.cyclic.arc_overlap_length` ``(d, theta, theta)``, and
    ``M`` (``mass``) is ``int g`` over the intersection of the two windows
    (``"direct"`` mode) or ``int L(s, t) L(s, u) g(s) ds`` (``"rate"``, ``L``
    the window length in the time union, by
    :func:`~levygrowth.quadrature.tanh_sinh` on :func:`_union_span`).  A
    profile at the n grid angles then has, per harmonic k = 0..n/2,
    coefficients complex normal across the times with
    covariance ``n kappa2 c^2 a(k) M``, ``a`` (``spectrum``) the ``rfft`` of
    ``ov`` at the grid lags, independent over k and real at the real
    harmonics: circulant embedding, which on the circle needs no padding
    (Wood & Chan 1994; Dietrich & Newsam 1997).  ``a >= 0`` up to rounding,
    since ``ov`` is the autocorrelation of an arc's indicator.  One
    ``factor`` ``A`` with ``A A^T = M`` and the per-harmonic ``scale``
    ``sqrt(n kappa2 c^2 a(k))`` (``a`` clipped at 0) make every harmonic's
    factor.  Each of the ``terms`` carries :func:`_continuum_moments`, with
    ``I_p = mu(A_t)`` (direct) or ``2 min(theta, pi) int L^p g`` (rate, on
    the nodes of ``M``).  No mesh kernel is involved.
    """

    def __init__(self, spec, grid, times, mode):
        family, g, n = spec.ambit, spec.basis.control.g, grid.n_phi
        theta = family.theta.value
        self.n_phi = n
        self.spectrum = np.fft.rfft(arc_overlap_length(grid.dphi * np.arange(n), theta, theta)).real
        kappa2 = spec.basis.spot.b_tilde * float(spec.weight.c) ** 2
        self.scale = np.sqrt(n * kappa2 * np.clip(self.spectrum, 0.0, None))
        if mode == "direct" or len(times) == 0:  # no times: an empty law in either mode
            starts = np.array([family.window(t)[0] for t in times])
            self.mass = g.integral(np.maximum.outer(starts, starts), np.minimum.outer(times, times))
            integrals = [(family.measure(t, spec.basis.control),) * 2 for t in times]
        else:
            s, w = tanh_sinh(*_union_span(spec, grid, times))
            lengths = _ambit.window_length_in_union(family, s[:, None], times)
            weighted = lengths * (w * g(s))[:, None]
            # einsum, not a BLAS product: on 2 CPUs a two-thread gemm of
            # 40 times over 4680 nodes took 112 ms, einsum 3 ms
            self.mass = np.einsum("si,sj->ij", weighted, lengths)
            width = 2.0 * min(theta, np.pi)
            first = width * weighted.sum(axis=0)
            integrals = [(float(x), float(width * m)) for x, m in zip(first, np.diag(self.mass))]
        self.factor = _psd_factor(self.mass)
        self.terms = [_ConeTerm(_continuum_moments(spec, x)) for x in integrals]
        self.mean = np.array([term.moments[0] for term in self.terms])[:, None]

    @property
    def draws(self):
        return _normals_drawn(self.n_phi, len(self.terms))

    def values(self, seed):
        """The terms' values (n_terms, n_phi) drawn from ``seed``: the
        :func:`_harmonic_normals` ``h_k``, coefficients ``scale[k] A h_k``,
        their ``irfft``, plus the mean; the stream layout of
        :class:`_JointSpectrum`."""
        h = _harmonic_normals(seed, self.n_phi, len(self.terms))
        coeffs = (self.factor @ h.T) * self.scale
        return np.fft.irfft(coeffs, n=self.n_phi, axis=1) + self.mean


def _union_span(spec, grid, times):
    """``(lo, hi, kinks)``: the slices from the lowest the grid and the
    control density reach up to the last of the (sorted, nonempty)
    ``times``, and the kinks of the rate terms' integrands, those of the
    half-width, of ``g`` and of ``L(s, t)``: 0, each ``t``, the window
    starts of apexes 0 and ``t``, and ``u - T(u)`` on both sides of each
    kink ``u`` of the lag."""
    family, g = spec.ambit, spec.basis.control.g
    kinks = {0.0, family.window(0.0)[0], *g.kinks}
    for t in times:
        kinks.update((t, family.window(t)[0], *family.kinks(t)))
    T = getattr(family, "T", None)
    if isinstance(T, TimeFn):  # past a support end T is 0: u - T(u) is u
        kinks.update((u - float(T(u)) for u in T.kinks), T.support)
        if T.kind == "step":  # the value each node replaces
            kinks.update(u - v for u, v in zip(T.params[0][1:], T.params[1]))
    return max(grid.t_min, g.support[0]), float(times[-1]), kinks


def _rate_kernel(spec, grid, t, rows=None):
    """The time-union kernel of the rate kinds at ``t``, on the time rows
    ``rows`` (all by default), as :func:`~levygrowth.ambit.mesh_kernel`."""
    fbar = _ambit.induced_weight(
        spec.ambit, spec.weight, t, phi=grid.phi_mids[0], step=grid.dt
    )
    s = grid.t_mids[:, None] if rows is None else grid.t_mids[rows, None]
    return np.asarray(fbar(grid.phi_mids[None, :], s), dtype=float)


def _point_path(spec, mode):
    """Whether the ``mode`` term of ``spec`` is a :class:`_PointTerm`: a
    Poisson basis with a constant weight, on any family for the direct mode
    and on a factorizing one for the rate mode, where the point sum has
    closed-form moments.  Every other Poisson weight, cosine-series and
    tumour weights included, integrates the cell counts on the mesh, so its
    ``moments`` are its law exactly."""
    return (
        spec.basis.spot.kind == "poisson"
        and isinstance(spec.weight, ConstantWeight)
        and (mode == "direct" or spec.ambit.factorizes)
    )


def _union_integrals(spec, grid, t):
    """``int 2 hw(t, s) L(s)^p g(s) ds`` for p = 1, 2, with ``L`` the window
    length in the time union, by :func:`~levygrowth.quadrature.kink_integral`
    on the :func:`_union_span` of ``t``, to 1e-12 of
    ``2 pi (t - lo)^p int g + 1``."""
    family, g = spec.ambit, spec.basis.control.g
    lo, hi, kinks = _union_span(spec, grid, [t])

    def integral(p):
        def f(s):
            length = _ambit.window_length_in_union(family, s, t)
            return 2.0 * family.half_width(t, s) * length**p * g(s)

        tol = 1e-12 * (TWO_PI * abs(t - lo) ** p * float(g.integral(lo, t)) + 1.0)
        return kink_integral(f, lo, hi, kinks, tol)

    return integral(1), integral(2)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _term(spec, grid, t, mode):
    """The ambit integral at time t, ``mode`` ``"direct"`` (instantaneous
    set) or ``"rate"`` (time union): its plan's sampler draws its profile
    over all grid angles, and its ``moments`` are the (mean, variance) of
    that value.  Mesh kernels are built here, once."""
    if _point_path(spec, mode):
        return _PointTerm(spec, grid, t, mode)
    # the kernel is built on the rows whose midpoints lie in the window (the
    # union window up to t for the rate mode); it is zero on the others
    lo, hi = spec.ambit.window(t) if mode == "direct" else (grid.t_min, t)
    rows = np.flatnonzero((grid.t_mids >= lo) & (grid.t_mids <= hi))
    if mode == "direct":
        kernel = mesh_kernel(spec.ambit, spec.weight, grid, t, grid.phi_mids[0], rows)
    else:
        kernel = _rate_kernel(spec, grid, t, rows)
    return _MeshTerm(kernel, rows, grid, spec.basis)


@dataclass(frozen=True)
class _Radius:
    """The radius at one time, ``scale * link(level + value)`` for a value
    of ``term``; ``level + value`` is the linear predictor (see
    :mod:`levygrowth.cli`)."""

    term: object
    level: object  # a number, or one value per grid angle
    scale: object = 1.0
    link: Optional[Callable] = None

    def __call__(self, value):
        x = self.level + value
        return self.scale * (x if self.link is None else self.link(x))

    def moments(self):
        """Mean and variance of the linear predictor at the first grid angle."""
        mean, var = self.term.moments
        return float(np.ravel(self.level)[0]) + mean, var


class _Plan:
    """Everything in a simulation of (spec, grid, times) but the realization.

    Holds the validated, sorted times and, per time, the :class:`_Radius`
    with its term's kernel spectra, centring, drift and profile values
    computed up front.  Replicates run the same plan, so each does exactly
    the arithmetic of a single :func:`simulate`; ``levygrowth moments``
    reads the same radii's moments.  On a cone plan (:func:`_cone_plan`) the
    :class:`_ConeLaw` (``cone``) is built here, since its terms' moments
    come from it.
    """

    def __init__(self, spec, grid, times):
        self.spec, self.grid = spec, grid
        self.times = np.sort(np.asarray(times, dtype=float))
        union = spec.kind in ("rate_linear", "rate_of_log")
        for t in self.times:
            if spec.ambit.window(t)[0] > t:
                raise AssumptionViolation(f"time lags must be nonnegative; T({t:g}) < 0")
            check_covered(spec.ambit, spec.basis.control, grid, t, union=union)
            if spec.kind == "exponential_tumour":
                check_kumulant_domain(spec.basis.spot, spec.weight.max_positive_value(t))
        if union and self.times.size and spec.ambit.factorizes and not spec.weight.apex_dependent:
            # rate terms read the time-union length (exact induced weight, point sum)
            edges = grid.t_edges[(grid.t_edges >= 0.0) & (grid.t_edges <= self.times[-1] + _EPS)]
            floor = max(grid.t_min, spec.basis.control.g.support[0])  # no mass below
            check_union_window_start(spec.ambit, edges, floor)
        self.mode = "rate" if union else "direct"
        self.cone = _ConeLaw(spec, grid, self.times, self.mode) if _cone_plan(spec) else None
        terms = self.cone.terms if self.cone else [_term(spec, grid, t, self.mode) for t in self.times]
        self.radii = [self._radius(t, term) for t, term in zip(self.times, terms)]
        self.spec_hash = config_hash(spec, grid)

    def _radius(self, t, term):
        spec, angles = self.spec, self.grid.phi_mids
        if spec.kind in ("rate_linear", "rate_of_log"):
            accumulated = spec.drift.integral(0.0, t)
            r0 = spec.r0_profile(angles)
            if spec.kind == "rate_linear":
                return _Radius(term, r0 + accumulated)
            return _Radius(term, accumulated, r0, np.exp)
        if spec.kind == "exponential_tumour":
            return _Radius(term, spec.drift(t), link=np.exp)
        level = spec.drift(t) - (term.moments[0] if spec.center_stochastic_mean else 0.0)
        if spec.kind == "direct":
            return _Radius(term, level)
        return _Radius(term, level, np.asarray(spec.multiplier(angles), dtype=float))

    @cached_property
    def sampler(self):
        """What draws the terms' values, ``values(seed)`` of shape (n_times,
        n_phi): the :class:`_ConeLaw` on a cone plan, the
        :class:`_JointSpectrum` on any other Gaussian basis, else
        :class:`_PointSums` where the spec's terms are point sums
        (:func:`_point_path`) and :class:`_MeshRows` where they are mesh
        terms.  The last three are built on first use, so ``levygrowth
        moments`` never builds them.  Logs, at DEBUG, what a replicate
        draws."""
        spec, terms = self.spec, [radius.term for radius in self.radii]
        if self.cone is not None:
            sampler = self.cone
        elif spec.basis.spot.kind == "gaussian":
            sampler = _JointSpectrum(terms, self.grid, spec.basis)
        elif _point_path(spec, self.mode):
            sampler = _PointSums(terms, spec.basis, self.grid)
        else:
            sampler = _MeshRows(terms, spec.basis, self.grid)
        _log.debug("%s sampler: a replicate draws %s", type(sampler).__name__, sampler.draws)
        return sampler

    def profiles(self, seed):
        """Radii (n_times, n_phi) drawn from ``seed`` by the :attr:`sampler`."""
        values = self.sampler.values(seed)
        out = np.empty((self.times.size, self.grid.n_phi))
        for i, radius in enumerate(self.radii):
            out[i] = radius(values[i])
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue("simulation produced non-finite radii")
        return out

    def replicates(self, seed, n_replicates):
        """Radii (n_replicates, n_times, n_phi) of replicates r = 0..n-1,
        replicate r drawn from ``mix_seed(seed, r)``."""
        out = np.empty((n_replicates, self.times.size, self.grid.n_phi))
        for r in range(n_replicates):
            out[r] = self.profiles(mix_seed(seed, r))
        return out

    def history(self, profiles, seed):
        """The :class:`GrowthHistory` of radii drawn from ``seed``."""
        return GrowthHistory(
            times=self.times.copy(),
            angles=self.grid.phi_mids,
            profiles=profiles,
            seed=int(seed),
            grid=self.grid,
            spec_hash=self.spec_hash,
            flags={"nonpositive_values": int(np.sum(profiles <= 0.0))},
        )


def simulate(spec: GrowthModelSpec, grid: GridSpec, seed: int, times) -> GrowthHistory:
    """Simulate the model at the requested times from one shared realization.

    Deterministic in (spec, grid, seed).  Negative radii under signed bases
    are kept and counted in ``flags['nonpositive_values']`` rather than
    clamped, so moment checks stay unbiased.
    """
    plan = _Plan(spec, grid, times)
    return plan.history(plan.profiles(seed), seed)


def simulate_replicates(spec, grid, seed, times, n_replicates):
    """Radii (n_replicates, n_times, n_phi) of replicates r = 0..n-1, seeded
    mix(seed, r), from kernels built once; replicate r equals
    ``simulate(spec, grid, mix_seed(seed, r), times).profiles`` bit for bit."""
    return _Plan(spec, grid, times).replicates(seed, n_replicates)


# ---------------------------------------------------------------------------
# Poisson outburst view
# ---------------------------------------------------------------------------


@dataclass
class OutburstView:
    points_cyl: np.ndarray  # (n, 2): angle, arrival time
    points_xy: Optional[np.ndarray]  # embedded positions, when a history is given
    rate_terms: np.ndarray  # (n_phi,): sum of weights over covered points


def poisson_outburst_view(spec, grid, seed, t, history=None):
    """Outburst points arrived by ``t`` and per-direction rate sums.

    The rate term at each grid angle is the sum of the instantaneous weight
    over the points inside that direction's ambit set; it equals the
    stochastic part of the growth rate evaluated by
    :func:`levygrowth.levy_core.integrate` on the same realization.
    """
    if spec.basis.spot.kind != "poisson":
        raise WrongBasisKind("outburst view requires a Poisson basis")
    realization = sample_realization(spec.basis, grid, seed)
    pts = realization.points()
    arrived = pts.s <= t + _EPS
    theta, s = pts.theta[arrived], pts.s[arrived]
    angles = grid.phi_mids
    terms = np.zeros(grid.n_phi)
    chunk = max(1, int(2e6 // max(theta.size, 1)))
    for start in range(0, grid.n_phi, chunk):
        sl = slice(start, min(start + chunk, grid.n_phi))
        member = spec.ambit.contains(t, angles[sl, None], theta[None, :], s[None, :])
        w = spec.weight.value(t, theta[None, :], s[None, :], angles[sl, None])
        terms[sl] = np.sum(np.where(member, w, 0.0), axis=1)
    points_xy = None
    if history is not None:
        from .ambit import _radius_lookup

        r = _radius_lookup(history, theta, np.minimum(s, history.times[-1]))
        points_xy = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return OutburstView(
        points_cyl=np.stack([theta, s], axis=1), points_xy=points_xy, rate_terms=terms
    )


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------


def moment_match_gamma(mu_t, sigma2, beta, ambit_measure):
    """Gamma parameters reproducing a centered Gaussian model's mean/variance.

    Returns ``(shifted_drift, alpha)`` with ``alpha = sqrt(beta / sigma2)``
    and the drift lowered by the Gamma integral's mean
    ``sigma * sqrt(beta) * ambit_measure``.
    """
    if sigma2 <= 0 or beta <= 0 or ambit_measure <= 0:
        raise ValueError("sigma2, beta and the ambit measure must be positive")
    sigma = math.sqrt(sigma2)
    return mu_t - sigma * math.sqrt(beta) * ambit_measure, math.sqrt(beta / sigma2)


def moment_match_ig(target_mean, target_var, ambit_measure):
    """Inverse Gaussian spot parameters hitting a target integral mean/variance.

    For ``Z(A) ~ IG(eta * m, gamma)`` with ``m = ambit_measure``:
    ``gamma = sqrt(mean / var)`` and ``eta = mean * gamma / m``.
    """
    if target_mean <= 0 or target_var <= 0 or ambit_measure <= 0:
        raise ValueError("target mean/variance and the ambit measure must be positive")
    gamma = math.sqrt(target_mean / target_var)
    eta = target_mean * gamma / ambit_measure
    return eta, gamma


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    name: str
    spec: GrowthModelSpec
    grid: GridSpec
    times: tuple


def asymmetry_profile(angles):
    """Angular multiplier favoring the direction opposite to pi."""
    return 0.35 * np.exp(cyc_dist(angles, np.pi) / np.pi)


def example_preset(preset_id, **overrides) -> Preset:
    """Built-in demonstration parameterizations.

    The preset is :func:`levygrowth.config.preset_document` parsed by
    :func:`levygrowth.config.parse_config`, after two optional edits:
    ``theta=`` sets ``model.ambit.theta`` and ``mu=((t, value), ...)`` sets
    ``model.tumour.mu``.

    ``ex3``: Poisson basis, growth-rate model with unit weight over a
    1/s-wedge (theta = 1/2, lag 1) and density g(s) = 10 s.
    ``ex4``: Gaussian basis (unit variance, Lebesgue control), radius =
    drift + ambit integral over a cone of half-width theta (default
    pi/100) and lag T(t) = t/5; drift levels 16 / 24 / 32 at
    t = 20 / 45 / 80.
    ``ex5``: as ex4 with a Gamma basis (beta = 1, alpha = 1), recentered so
    mean and variance match the Gaussian run.
    ``ex6``: as ex4 with the asymmetric angular multiplier
    0.35 * exp(d(phi, pi) / pi).
    ``tumour``: exponential two-band model with the built-in reference
    parameter rows at t = 21 / 25 / 55 (drift levels are synthetic
    placeholders).
    """
    from .config import PRESET_DOCUMENTS, parse_config, preset_document

    name = str(preset_id).lower()
    if name not in PRESET_DOCUMENTS:
        raise UnknownId(f"unknown preset {preset_id!r}")
    doc = preset_document(name)
    model = doc["model"]
    for key, value in overrides.items():
        if key == "theta" and "ambit" in model:
            model["ambit"]["theta"] = float(value)
        elif key == "mu" and "tumour" in model:
            model["tumour"]["mu"] = [[float(t), float(v)] for t, v in value]
        else:
            raise UnknownId(f"unsupported override {key!r} for {name}")
    cfg = parse_config(doc)
    return Preset(name, cfg.spec, cfg.grid, cfg.times)
