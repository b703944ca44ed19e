"""Lower and upper bounds on the rate-distortion function of the band-forgiving loss.

Implemented bounds, all in nats:

* ``shannon_lower_bound``      -- entropy-difference lower bound, closed form
* ``slb_zero``                 -- distortion where that lower bound crosses
  zero, closed form through the Lambert W function
* ``laplacian_dmax_gaps``      -- the gaps of slb_zero <= d_max(eps) <= d_max(0)
  for a Laplacian source, free of cancellation
* ``trivial_upper_bound_laplacian`` -- exact absolute-error rate -log(alpha D),
  an upper bound for every epsilon > 0
* ``convolution_upper_bounds`` -- h(g * p) - h(g) via the additive test channel
  at a batch of slopes, with h(g * p) from the exact convolution densities
  in ``convolution``: one panel layout for the whole batch, its nodes (a
  Gaussian's erfcx arguments) in chunks of at most ``convolution.NODE_BUDGET``,
  20-node panels for a Gaussian; ``convolution_upper_bound`` is its one-slope case
* ``gaussian_entropy_bound``   -- replaces h(g * p) by the max-entropy Gaussian
* ``analytic_upper_bound_laplacian`` -- closed-form upper bound on h(g * p)
  for Laplacian sources

Rates returned as :class:`RDPoint` are clamped at zero (the true curve is zero
past d_max) with the raw value kept alongside, never silently.  Public
functions check their inputs once; the ``_`` bodies take checked floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .convolution import _conv_entropies
from .sources import Source
from .tilted import (
    EpsilonLoss,
    _band_variance,
    _check_slope,
    _check_slopes,
    _distortion_of_slope,
    _normalizer,
    _positive,
    _tilted_entropy,
)

__all__ = [
    "RDPoint",
    "shannon_lower_bound",
    "slb_zero",
    "laplacian_dmax_gaps",
    "slb_at_matched_slope",
    "trivial_upper_bound_laplacian",
    "convolution_upper_bound",
    "convolution_upper_bounds",
    "gaussian_entropy_bound",
    "laplacian_upper_bound_terms",
    "analytic_upper_bound_laplacian",
]

@dataclass(frozen=True)
class RDPoint:
    """One (distortion, rate) point of a bound curve.

    ``r`` is clamped at zero; ``raw_rate`` keeps the unclamped value.
    """

    d: float
    r: float
    s: float | None = None
    raw_rate: float | None = None

    @property
    def clamped(self) -> bool:
        """Whether ``r`` was clamped up from a negative ``raw_rate``."""
        return self.raw_rate is not None and self.raw_rate < 0.0


def _rate_point(d: float, raw: float, s: float) -> RDPoint:
    return RDPoint(d=d, r=max(0.0, raw), s=s, raw_rate=raw)


def shannon_lower_bound(d: float, source_entropy: float, loss: EpsilonLoss) -> float:
    """Closed-form lower bound h(p) - log(2 eps + d + r) - 2d/(d + r), r = sqrt(d (d + 4 eps)).

    Returns the raw (possibly negative) value, strictly decreasing in d.  In
    units of m = max(d, eps) no sum overflows, so it is finite for every d > 0;
    at eps = 0 it is h(p) - log d - log 2 - 1, the limit of small eps.
    """
    d, eps = _positive(d, "distortion"), loss.epsilon
    m = max(d, eps)
    # r / m as a product of roots, which cannot overflow however small eps is;
    # 2d/(d + r) in quotient form, 0 where eps/d overflows; the terms summed exactly
    x, e = d / m, eps / m
    return math.fsum((source_entropy, -math.log(m),
                      -math.log(2.0 * e + x + math.sqrt(x) * math.sqrt(x + 4.0 * e)),
                      -2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (eps / d)))))


def _lambertw0(x: float) -> float:
    """Principal branch W0(x) for x >= 0, by Halley's iteration on w e^w = x.

    Starts from log(1 + x), less log of that for x > 3, and stops after the
    first step below 1e-8 relative: convergence is cubic, so what that step
    leaves is round-off.
    """
    w = math.log1p(x)
    if x > 3.0:
        w -= math.log(w)
    for _ in range(64):
        ew = math.exp(w)
        f = w * ew - x
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * w:
            break
    return w


def slb_zero(source: Source, loss: EpsilonLoss) -> float:
    """Distortion where the lower bound crosses zero, in closed form.

    Setting the bound to zero gives t e^t = 2 eps e^{1 - h(p)}, so with
    t = W0(2 eps e^{1 - h(p)}) the root is (1 - t)^2 e^{h(p) - 1 + t} / 2;
    t = 0 at eps = 0.  Raises if the bound is nonpositive for every distortion
    ("SLB vacuous"), which happens exactly when h(p) <= log(2 eps).
    """
    h_p = source.differential_entropy()
    eps = loss.epsilon
    if eps > 0.0 and h_p - math.log(2.0 * eps) <= 0.0:
        raise ValueError("SLB vacuous: nonpositive for every distortion")
    t = _lambertw0(2.0 * eps * math.exp(1.0 - h_p))
    return 0.5 * (1.0 - t) ** 2 * math.exp(h_p - 1.0 + t)


# alpha (d_max(eps) - slb_zero) / u^3 for u = alpha eps -> 0: the series of
# e^{-u} - (1 - t)^2 e^t, t = W0(u), from the Lagrange series of W0
_DMAX_GAP_SERIES = (1 / 6, -1 / 3, 21 / 40, -13 / 15, 1555 / 1008, -817 / 280)
_DMAX_GAP_SERIES_BELOW = 1e-3


def laplacian_dmax_gaps(alpha: float, loss: EpsilonLoss) -> tuple[float, float]:
    """The gaps of the chain slb_zero <= d_max(eps) <= d_max(0) for a Laplacian(alpha) source.

    With u = alpha eps and t = W0(u), alpha (d_max(eps) - slb_zero) =
    e^{-u} - (1 - t)^2 e^t and alpha (d_max(0) - d_max(eps)) = -expm1(-u).  The
    first starts u^3/6, below one ulp of either distortion at small eps, so
    comparing the two rounded values cannot decide it.  Returned are alpha
    times each gap, over u^3 and over u, which cannot underflow: both are
    positive exactly when the chain is strictly ordered.  Below u = 1e-3 the
    first is the six-term series, whose next term is under 4e-17 of it;
    above, the direct form's cancellation costs at most 3e-6 of it.
    """
    u = _positive(alpha, "alpha") * loss.epsilon
    if u < _DMAX_GAP_SERIES_BELOW:
        band = 0.0
        for c in reversed(_DMAX_GAP_SERIES):
            band = band * u + c
    else:
        t = _lambertw0(u)
        band = (math.exp(-u) - (1.0 - t) ** 2 * math.exp(t)) / u**3
    return band, (-math.expm1(-u) / u if u > 0.0 else 1.0)


def slb_at_matched_slope(alpha: float, loss: EpsilonLoss) -> float:
    """Lower-bound value at slope s = -alpha for a Laplacian(alpha) source.

    Equals 1 - log(1 + alpha eps) - 1/(1 + alpha eps), which is strictly
    negative for every alpha eps > 0 (and zero at eps = 0).
    """
    u = _positive(alpha, "alpha") * loss.epsilon
    return 1.0 - math.log1p(u) - 1.0 / (1.0 + u)


def trivial_upper_bound_laplacian(d: float, alpha: float) -> float:
    """Exact absolute-error rate -log(alpha d) of a Laplacian source.

    Upper-bounds the band-forgiving rate for every eps >= 0; zero for
    d >= 1/alpha.
    """
    d, alpha = _positive(d, "distortion"), _positive(alpha, "alpha")
    return max(0.0, -math.log(alpha * d))


def convolution_upper_bounds(source: Source, slopes, loss: EpsilonLoss) -> list[RDPoint]:
    """Upper bound h(g * p) - h(g) at the distortion fixed by each slope.

    One point per slope, in order.  The entropies come from one batched
    :func:`conv_entropies` call, and each slope's value is the same in any
    batch.  Supports the source types it does; others raise TypeError.
    """
    return _convolution_upper_bounds(source, _check_slopes(slopes).reshape(-1), loss)


def _convolution_upper_bounds(source: Source, s, loss: EpsilonLoss) -> list[RDPoint]:
    eps, entropies = loss.epsilon, _conv_entropies(source, s, loss)
    return [_rate_point(_distortion_of_slope(v, eps), h - _tilted_entropy(v, eps), v)
            for v, h in zip(s.tolist(), entropies.tolist())]


def convolution_upper_bound(source: Source, s: float, loss: EpsilonLoss) -> RDPoint:
    """Upper bound h(g * p) - h(g) at one slope: convolution_upper_bounds' one-slope case."""
    return _convolution_upper_bounds(source, _check_slopes([float(s)]), loss)[0]


def gaussian_entropy_bound(source: Source, s: float, loss: EpsilonLoss) -> RDPoint:
    """Upper bound replacing h(g * p) by the max-entropy Gaussian of equal variance.

    log(Var p + Var g) is the log-sum of the tails' log(2/s^2) and log(Var p
    + the band's share), taken in units of max(eps, 1): finite wherever h(g) is.
    """
    s, eps = _check_slope(s), loss.epsilon
    b, unit, two_pi_e = -s, max(eps, 1.0), 2.0 * math.pi * math.e
    band = 2.0 * math.log(unit) + math.log(
        two_pi_e * (source.variance() / unit / unit + _band_variance(b, eps, unit)))
    tails = math.log(2.0 * two_pi_e) - 2.0 * math.log(b)
    raw = (0.5 * (max(band, tails) + math.log1p(math.exp(-abs(band - tails))))
           - _tilted_entropy(s, eps))
    return _rate_point(_distortion_of_slope(s, eps), raw, s)


def laplacian_upper_bound_terms(
    s: float, alpha: float, loss: EpsilonLoss
) -> tuple[float, float, float]:
    """Floor constant and the two outer-tail integrals of the convolution density.

    c_s lower-bounds the band part of 2 C(s) (g * p); b_int and e_int are the
    zeroth and first moments of its outer branch on [eps, inf).
    """
    return _laplacian_upper_bound_terms(_check_slope(s), _positive(alpha, "alpha"), loss.epsilon)


def _laplacian_upper_bound_terms(s: float, alpha: float, eps: float) -> tuple[float, float, float]:
    # s < 0 and expm1 <= 0, so every term below is positive: 1 + c1 e2 and
    # c_s = 2 + c1 (1 + e2) with c1 = s / (alpha - s) -> -1 would cancel
    # as |s| grows, and c_s would round to 0 past |s| ~ 1e16
    band = s * math.expm1(-2.0 * alpha * eps)
    c_s = (2.0 * alpha + band) / (alpha - s)
    one_plus_c1_e2 = (alpha + band) / (alpha - s)
    # the (alpha + s) factor of the two-exponential tail cancels in both
    # integrals, which leaves them finite and smooth through |s| = alpha;
    # (s^2 - 2 alpha s + 2 alpha^2) / (s (s - alpha)) is split into terms
    # that cannot overflow to inf / inf at large |s|
    b_int = one_plus_c1_e2 / alpha - 1.0 / s + alpha / (s * (s - alpha))
    m1 = (1.0 + alpha * eps) / alpha**2
    e_int = (m1 * (one_plus_c1_e2 - alpha / s - alpha**2 / ((alpha - s) * s))
             + 2.0 * alpha / ((alpha - s) * s) / s)
    return c_s, b_int, e_int


def analytic_upper_bound_laplacian(s: float, alpha: float, loss: EpsilonLoss) -> RDPoint:
    """Closed-form upper bound on the Laplacian rate at the slope's distortion.

    Bounds h(g * p) from above through the floor constant c_s and the tail
    integrals, then subtracts h(g).  Valid on both sides of |s| = alpha and
    continuous through it.
    """
    s, alpha, eps = _check_slope(s), _positive(alpha, "alpha"), loss.epsilon
    c_s, b_int, e_int = _laplacian_upper_bound_terms(s, alpha, eps)
    c = _normalizer(s, eps)
    h_r_upper = (
        -math.log(c_s / (2.0 * c))
        - (alpha * eps / c) * b_int
        + (alpha / c) * e_int
    )
    raw = h_r_upper - _tilted_entropy(s, eps)
    return _rate_point(_distortion_of_slope(s, eps), raw, s)
