"""Bounds on the rate-distortion function of the epsilon-insensitive distortion measure.

The library provides the closed-form tilted-kernel quantities, source models,
lower/upper rate bounds, characteristic-function certificates that the lower
bound is strict for Laplacian and Gaussian sources, and an independent
discretized Blahut-Arimoto solver used to certify the bound sandwich.
"""

from .ba import BAProblem, BAResult, auto_span, ba_curve, ba_iterate, build_problem
from .bounds import (
    RDPoint,
    analytic_upper_bound_laplacian,
    convolution_upper_bound,
    convolution_upper_bounds,
    gaussian_entropy_bound,
    laplacian_dmax_gaps,
    laplacian_upper_bound_terms,
    shannon_lower_bound,
    slb_at_matched_slope,
    slb_zero,
    trivial_upper_bound_laplacian,
)
from .convolution import conv_entropies, conv_entropy, conv_pdf, laplacian_conv_pdf
from .sources import Gaussian, Laplacian, Source, Tabulated, load_tabulated_csv
from .spectral import (
    first_witness_index,
    gaussian_deconvolution_density,
    laplace_cf,
    laplacian_witness,
    mixture_cf,
    tilted_cf,
)
from .tilted import (
    EpsilonLoss,
    distortion_of_slope,
    normalizer,
    slope_of_distortion,
    tilted_cdf,
    tilted_entropy,
    tilted_pdf,
    tilted_variance,
)

__version__ = "0.1.0"

__all__ = [
    "BAProblem",
    "BAResult",
    "EpsilonLoss",
    "Gaussian",
    "Laplacian",
    "RDPoint",
    "Source",
    "Tabulated",
    "analytic_upper_bound_laplacian",
    "auto_span",
    "ba_curve",
    "ba_iterate",
    "build_problem",
    "conv_entropies",
    "conv_entropy",
    "conv_pdf",
    "convolution_upper_bound",
    "convolution_upper_bounds",
    "distortion_of_slope",
    "first_witness_index",
    "gaussian_deconvolution_density",
    "gaussian_entropy_bound",
    "laplace_cf",
    "laplacian_conv_pdf",
    "laplacian_dmax_gaps",
    "laplacian_upper_bound_terms",
    "laplacian_witness",
    "load_tabulated_csv",
    "mixture_cf",
    "normalizer",
    "shannon_lower_bound",
    "slb_at_matched_slope",
    "slb_zero",
    "slope_of_distortion",
    "tilted_cdf",
    "tilted_cf",
    "tilted_entropy",
    "tilted_pdf",
    "tilted_variance",
    "trivial_upper_bound_laplacian",
]
