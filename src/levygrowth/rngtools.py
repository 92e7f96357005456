"""Seed derivation for reproducible, parallelizable Monte Carlo streams.

Replicate ``r`` of a simulation suite seeded with ``seed`` is the
realization drawn from ``mix_seed(seed, r)``, so replicates can run in any
order or concurrently and still reproduce bit-for-bit.  The replicates of
``moments.mc_verify``, never read alone, are consecutive draws of one generator.

A simulation drawn from ``seed`` reads the stream
``PCG64(SeedSequence(seed))`` (:func:`seeded_generator`).  On a Gaussian
basis it takes, in one call from the start of that stream, the joint
spectrum of its terms: ``n_times x (n_phi // 2 + 1)`` complex normals (see
:class:`levygrowth.growth._JointSpectrum` and
:class:`levygrowth.growth._ConeLaw`), and no increment rows.

The cell increments of a Gamma or inverse Gaussian basis, and of a Gaussian
realization, are row-addressed: row ``l`` of the realization drawn from
``seed`` draws from that stream advanced by ``l * ROW_STRIDE`` (2**40)
outputs, see :class:`RowStreams`.  A row takes far fewer than 2**40
outputs, so rows never overlap, and :func:`levygrowth.levy_core.draw_rows`
draws any set of rows alone with the values the whole grid's draw gives
them.  A realization (:func:`levygrowth.levy_core.sample_realization`) is
always the whole grid; simulation plans draw only the rows they read, with
``draw_rows``.  A Gamma or inverse Gaussian plan draws one row of cells per
segment, a set of rows that every requested time weighs with the same
kernel row (see :class:`levygrowth.growth._MeshRows`): with the summed
measure of its rows, from the stream of its first row.  A segment of one
row is that row of the realization; a longer one is not any realization's
row, so those simulations' values depend on which other times the plan
holds.

A Poisson basis draws no per-cell counts: it draws its points, one block of
``POINT_BLOCK`` (8) time rows at a time.  Block ``b``, rows ``8 b .. 8 b +
7``, draws from row ``b`` of the row streams of ``mix_seed(seed, tag)``:
the block's row totals in one Poisson call, then every point's angle, in
row order, then the points' proposed times, acceptance uniforms and
rejection rounds (see :class:`levygrowth.levy_core._PointPlacer`).  A
cell's count is the number of its row's points in it, so counts stop after
the angles (:func:`levygrowth.levy_core.draw_counts`).  The points or
counts of any set of whole blocks are drawn alone with the values the whole
grid's draw gives them.  Like ``ROW_STRIDE``, the block size is part of the
stream layout, not a setting.  ``moments.mc_verify`` draws its Poisson
cells per cell, with ``draw_cells``, from its own generator.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of splitmix64

ROW_STRIDE = 1 << 40  # stream outputs reserved for one row of increments
POINT_BLOCK = 8  # time rows whose Poisson points one point stream places


def _splitmix64(z):
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(seed, stream):
    """Derive a 64-bit sub-stream seed from (seed, stream index).

    Two splitmix64 finalization rounds on ``seed xor (stream * gamma)``;
    distinct streams decorrelate even for adjacent seeds.
    """
    x = (int(seed) & _MASK64) ^ ((int(stream) * _GAMMA) & _MASK64)
    return _splitmix64(_splitmix64(x))


def seeded_generator(seed):
    """The generator on ``PCG64(SeedSequence(seed mod 2**64))``."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


class RowStreams:
    """The row-addressed streams of one seed.

    One PCG64 is seeded once; :meth:`at` restores its seeded state and
    advances it to the row, which costs far less than seeding a generator
    per row.  The generator :meth:`at` returns is shared, so draw one row
    before asking for the next.
    """

    def __init__(self, seed):
        self._rng = seeded_generator(seed)
        self._bitgen = self._rng.bit_generator
        self._origin = self._bitgen.state

    def at(self, row):
        """The generator positioned at the start of row ``row``."""
        self._bitgen.state = self._origin
        self._bitgen.advance(int(row) * ROW_STRIDE)
        return self._rng
