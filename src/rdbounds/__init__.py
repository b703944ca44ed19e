"""Bounds on the rate-distortion function of the epsilon-insensitive distortion measure.

The library provides the closed-form tilted-kernel quantities, source models,
lower/upper rate bounds, characteristic-function certificates that the lower
bound is strict for Laplacian and Gaussian sources, and an independent
discretized Blahut-Arimoto solver used to certify the bound sandwich.
"""

from . import ba, bounds, convolution, sources, spectral, tilted
from .ba import *  # noqa: F403
from .bounds import *  # noqa: F403
from .convolution import *  # noqa: F403
from .sources import *  # noqa: F403
from .spectral import *  # noqa: F403
from .tilted import *  # noqa: F403

__version__ = "0.1.0"

# each layer's __all__ is the one list of its public names
__all__ = [*ba.__all__, *bounds.__all__, *convolution.__all__, *sources.__all__,
           *spectral.__all__, *tilted.__all__]
