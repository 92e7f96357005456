"""Levy-driven growth of planar star-shaped objects.

Simulation of radial growth models driven by Levy bases over ambit sets,
closed-form space-time moments and circle covariances, Fourier analysis of
radial profiles, Monte Carlo verification, and moment / likelihood fitting.
"""

import logging

__version__ = "0.1.0"

# Silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

from . import ambit, circle_cov, fourier_radial, growth, inference, levy_core, moments
from .errors import LevyGrowthError

__all__ = [
    "ambit",
    "circle_cov",
    "fourier_radial",
    "growth",
    "inference",
    "levy_core",
    "moments",
    "LevyGrowthError",
    "__version__",
]
