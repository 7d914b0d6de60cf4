"""riglab: a random intersection graph laboratory.

Sampling and projection of G(n, m, p), the closed-form quantities attached
to it (edge probability, binomial tail bounds, envelope roots, the p(alpha)
curve, degree laws), and a seeded Monte Carlo harness that checks the one
against the other.
"""

from . import analytics, model, montecarlo
from ._version import __version__
from .model import *  # noqa: F403
from .analytics import *  # noqa: F403
from .montecarlo import *  # noqa: F403

__all__ = ["__version__", *model.__all__, *analytics.__all__, *montecarlo.__all__]
