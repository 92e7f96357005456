"""The kink-split tanh-sinh rule every s-integral with known kinks uses."""

import math
import time

import numpy as np
import pytest

from levygrowth.errors import NonConvergence
from levygrowth.quadrature import kink_integral, tanh_sinh


def _counted(f):
    def g(s):
        g.evaluations += s.size
        return f(s)

    g.evaluations = 0
    return g


def _one_level(f, a, b):
    """The fixed tanh-sinh level on one unsplit piece."""
    s, w = tanh_sinh(a, b, ())
    return float(w @ f(s))


@pytest.mark.parametrize(
    "f, lo, hi, kinks, exact",
    [
        (lambda s: np.where(s < 0.5, s * s, 3.0 - s**3), 0.0, 1.0, [0.5], 1 / 24 + 1.5 - 15 / 64),
        (lambda s: s**4 - 2.0 * s, -1.0, 2.0, [], 33 / 5 - 3.0),
        (np.sqrt, 0.0, 1.0, [], 2 / 3),  # singular derivative at the piece end
        (lambda s: np.sqrt(s) + np.where(s < 2.0, 1.0, s), 0.0, 3.0, [2.0], 2 / 3 * 3**1.5 + 4.5),
    ],
)
def test_polynomial_pieces_and_a_square_root_at_a_piece_end_are_exact(f, lo, hi, kinks, exact):
    assert kink_integral(f, lo, hi, kinks, 1e-12) == pytest.approx(exact, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize(
    "f, a, b, exact, fixed_error",
    [
        (lambda s: np.abs(s - 0.3), 0.0, 1.0, 0.29, 1.4e-3),  # a kink left unnamed
        (lambda s: 1.0 / (1.0 + 25.0 * s * s), -1.0, 1.0, 0.4 * math.atan(5.0), 4.0e-3),
    ],
    ids=["unnamed-kink", "runge"],
)
def test_what_one_fixed_level_misses_splitting_reaches(f, a, b, exact, fixed_error):
    assert abs(_one_level(f, a, b) - exact) > fixed_error * exact
    for tol in (1e-10, 1e-12):
        assert abs(kink_integral(f, a, b, (), tol) - exact) <= tol


def test_a_named_kink_needs_no_splitting():
    # kinks repeated, at an end or outside [lo, hi] add no piece
    f = _counted(lambda s: np.abs(s - 0.3))
    kinks = [0.3, 1.0, 0.3, 1.5, -2.0, 0.0]
    assert kink_integral(f, 0.0, 1.0, kinks, 1e-12) == pytest.approx(0.29, rel=1e-15)
    assert f.evaluations == 2 * 65  # two linear pieces, each passing the check at once
    s, w = tanh_sinh(0.0, 1.0, kinks)
    assert s.shape == w.shape == (2 * 65,) and np.all(np.diff(s) >= 0.0)


def test_an_empty_or_reversed_interval_integrates_to_zero():
    f = _counted(np.cos)
    assert kink_integral(f, 1.0, 1.0, [1.0], 1e-12) == 0.0
    assert kink_integral(f, 2.0, 1.0, [1.5], 1e-12) == 0.0
    assert f.evaluations == 0 and tanh_sinh(2.0, 1.0, [1.5])[0].size == 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kink_integral_returns_non_finite_integrand_at_once(value):
    f = _counted(lambda s: np.full(s.shape, value))
    start = time.perf_counter()
    result = kink_integral(f, 0.0, 1.0, [0.5], 1e-12)
    assert time.perf_counter() - start < 1.0 and f.evaluations == 2 * 65
    if math.isnan(value):
        assert math.isnan(result)
    else:
        assert result == math.inf


def test_an_unnamed_jump_raises_after_the_halvings():
    # a jump's error shrinks only like its piece, as its share of the
    # tolerance does, so halving never reaches the tolerance
    f = _counted(lambda s: np.where(s < 0.3, 0.0, 1.0))
    with pytest.raises(NonConvergence, match="miss the tolerance"):
        kink_integral(f, 0.0, 1.0, (), 1e-12)
    assert f.evaluations < 10_000  # only the pieces holding the jump were halved
    assert kink_integral(f, 0.0, 1.0, [0.3], 1e-12) == pytest.approx(0.7, rel=1e-15)


def test_failures_everywhere_raise_before_the_pieces_multiply():
    f = _counted(lambda s: np.sin(1e5 * s))
    with pytest.raises(NonConvergence):
        kink_integral(f, 0.0, 1.0, (), 1e-12)
    assert f.evaluations < 600_000


def test_a_tolerance_below_what_two_levels_resolve_still_returns():
    # the rule at twice the step integrates a constant only to 3.7e-14, so
    # a zero tolerance is met at that floor rather than halving without end
    assert kink_integral(np.exp, 0.0, 1.0, (), 0.0) == pytest.approx(math.e - 1.0, rel=1e-15)
