"""Truncated Poisson distribution: Poisson(rate) conditioned to be >= 1.

Everything downstream hangs off the mean map ``f(rate) = rate / (1 - e^-rate)``,
which is strictly increasing from (0, inf) onto (1, inf). Provides the
inverse solve, pmf, exact sampling, the size-biased law (which collapses
to a plain Poisson), and Chernoff-style tail bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError

__all__ = [
    "TruncatedPoissonParams",
    "implied_mean",
    "implied_variance",
    "solve_rate",
    "pmf",
    "pmf_table",
    "size_biased_pmf",
    "sample_truncated",
    "sample_truncated_streams",
    "sample_poisson",
    "tail_bounds",
]

_LN2 = math.log(2.0)


def implied_mean(rate: float) -> float:
    """Mean of Poisson(rate) conditioned on >= 1, i.e. rate / (1 - e^-rate)."""
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    return rate / -math.expm1(-rate)


def implied_variance(rate: float) -> float:
    """Variance of Poisson(rate) conditioned on >= 1."""
    mu = implied_mean(rate)
    return (rate + rate * rate) / -math.expm1(-rate) - mu * mu


@dataclass(frozen=True)
class TruncatedPoissonParams:
    """Parameter bundle: underlying Poisson rate, conditional mean and variance.

    Invariants: ``mean == rate / (1 - e^-rate) > 1`` and ``variance > 0``.
    """

    rate: float
    mean: float
    variance: float

    @classmethod
    def from_rate(cls, rate: float) -> "TruncatedPoissonParams":
        if not math.isfinite(rate):
            raise InputError(f"rate must be finite, got {rate}")
        return cls(rate=rate, mean=implied_mean(rate), variance=implied_variance(rate))


def _mean_derivative(rate: float) -> float:
    # d/da [a / (1 - e^-a)] = 1/(1-e^-a) - a e^-a / (1-e^-a)^2
    denom = -math.expm1(-rate)
    return 1.0 / denom - rate * math.exp(-rate) / (denom * denom)


def solve_rate(mean: float) -> TruncatedPoissonParams:
    """Invert the mean map: find rate with rate / (1 - e^-rate) == mean.

    Newton's method from rate = mean. The map is rate plus the convex
    rate / (e^rate - 1), so it is convex and increasing, and Newton started
    above the root descends monotonically onto it; iteration stops once a
    step is no longer positive or no longer moves the rate. The relative
    residual is then checked against 1e-12.

    Raises DomainError for mean <= 1 (the map's range is (1, inf)) and
    InputError for non-finite input.
    """
    if not isinstance(mean, (int, float)) or not math.isfinite(mean):
        raise InputError(f"mean must be a finite number, got {mean!r}")
    if mean <= 1.0:
        raise DomainError(
            f"no solution for mean={mean}: the conditioned mean exceeds 1 for every positive rate"
        )
    rate = float(mean)
    while True:
        excess = implied_mean(rate) - mean
        # the slope formula cancels to noise below rate ~ 1e-15, where the
        # excess of any mean above 1 has already reached 0
        slope = _mean_derivative(rate)
        if not (excess > 0 and slope > 0):
            break
        step = excess / slope
        if rate - step == rate:
            break
        rate -= step
    if abs(implied_mean(rate) - mean) > 1e-12 * mean:
        raise DomainError(f"rate solve did not converge for mean={mean}")
    return TruncatedPoissonParams(
        rate=rate, mean=implied_mean(rate), variance=implied_variance(rate)
    )


def pmf(params: TruncatedPoissonParams, k) -> float | np.ndarray:
    """P(Y = k) for the truncated distribution; 0 at k = 0.

    Evaluated in log space so large k cannot overflow rate**k / k!.
    Accepts a scalar or an integer array.
    """
    rate = params.rate
    log_norm = math.log(-math.expm1(-rate))
    if np.isscalar(k):
        if k < 0:
            raise InputError(f"k must be >= 0, got {k}")
        if k == 0:
            return 0.0
        return math.exp(-rate + k * math.log(rate) - math.lgamma(k + 1) - log_norm)
    karr = np.asarray(k)
    if (karr < 0).any():
        raise InputError("k must be >= 0")
    log_p = -rate + karr * math.log(rate) - _lgamma_arr(karr + 1) - log_norm
    out = np.exp(log_p)
    out[karr == 0] = 0.0
    return out


def size_biased_pmf(params: TruncatedPoissonParams, k) -> float | np.ndarray:
    """Pmf of the size-biased-and-shifted truncated Poisson.

    Biasing by k and shifting down by one cancels the truncation exactly,
    leaving plain Poisson(rate); this is the offspring law seen along a
    uniformly chosen edge.
    """
    rate = params.rate
    if np.isscalar(k):
        if k < 0:
            raise InputError(f"k must be >= 0, got {k}")
        return math.exp(-rate + k * math.log(rate) - math.lgamma(k + 1))
    karr = np.asarray(k)
    if (karr < 0).any():
        raise InputError("k must be >= 0")
    return np.exp(-rate + karr * math.log(rate) - _lgamma_arr(karr + 1))


def _lgamma_arr(x: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))


def pmf_table(params: TruncatedPoissonParams, kmax: int | None = None) -> np.ndarray:
    """Probabilities for k = 1..K as a vector (index 0 holds P(Y=1)).

    With kmax=None the table stops before the first term past the mode that
    no longer changes the running sum, or once the tail mass is below 1e-17,
    so cumulative sums reach 1 up to rounding and every entry of the
    cumulative sum exceeds the one before it. The recurrence
    p_k = p_(k-1) * rate / k starts at e^-rate; above rate ~ 708 that is no
    longer a normal double, and the table comes from the log-space
    :func:`pmf` instead.
    """
    rate = params.rate
    hard_cap = int(rate + 60 + 40 * math.sqrt(rate)) if kmax is None else kmax
    if math.exp(-rate) < sys.float_info.min:
        probs = pmf(params, np.arange(1, hard_cap + 1))
        if kmax is None:
            cum = np.cumsum(probs)[:-1]
            # the same two stops; the leading terms underflow to 0, so only
            # a positive sum can stall
            stalled = (cum == cum + probs[1:]) & (cum > 0.0)
            last = np.flatnonzero(stalled | (1.0 - cum < 1e-17))
            if last.size:
                probs = probs[: last[0] + 1]
        return probs
    norm = -math.expm1(-rate)
    probs = []
    p = math.exp(-rate) * rate / norm  # P(Y = 1)
    cum = 0.0
    k = 1
    while k <= hard_cap:
        if kmax is None and cum + p == cum:
            break
        probs.append(p)
        cum += p
        if kmax is None and 1.0 - cum < 1e-17:
            break
        k += 1
        p *= rate / k
    return np.asarray(probs)


# sample_truncated inverts a cached CDF table up to this rate, where the
# support is short, and redraws the zeros of Poisson(rate) above it
_INVERSE_CDF_MAX_RATE = 30.0


@lru_cache(maxsize=128)
def _sampler_cdf(rate: float) -> np.ndarray:
    """P(Y <= k) for k = 1, 2, ... over :func:`pmf_table`, whose last k
    takes the float-unresolvable tail: its entry is set to 1. The table is
    cached and shared, so it is read-only."""
    cdf = np.cumsum(pmf_table(TruncatedPoissonParams.from_rate(rate)))
    cdf[-1] = 1.0
    cdf.setflags(write=False)
    return cdf


# Uniform u lies in bucket floor(u * _GUIDE_BUCKETS) of the guide table; a
# power of two makes the product exact
_GUIDE_BUCKETS = 4096
# Arrays of fewer uniforms take one searchsorted call. The guide lookup
# has a fixed cost of some 5 to 8 us; at the genome fixtures' rates it took
# 1.03 times the search's time on 2,048 uniforms and 0.81 times on 2,560
_GUIDE_MIN_VALUES = 2500
# The guide lookup runs over slices of this many uniforms, which bounds its
# temporaries (np.take copies each slice's int16 index to intp)
_GUIDE_SLICE = 1 << 15


def _guide_from_cdf(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a sorted CDF whose last entry is 1 (Chen & Asau 1974):
    bucket b, the uniforms in [b/4096, (b+1)/4096), holds their common
    1 + #{cdf <= u}, which is 1 + #{cdf <= b/4096} when no CDF entry lies
    strictly inside the bucket; a bucket with one inside holds 0."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    start = np.searchsorted(cdf, edges[:-1], side="right")
    inside = np.searchsorted(cdf, edges[1:], side="left") - start
    return np.where(inside == 0, start + 1, 0)


@lru_cache(maxsize=128)
def _sampler_guide(rate: float) -> np.ndarray:
    """:func:`_guide_from_cdf` of :func:`_sampler_cdf`, cached and read-only."""
    guide = _guide_from_cdf(_sampler_cdf(rate))
    guide.setflags(write=False)
    return guide


def _guided_lookup(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right") + 1`` through ``guide``, the
    :func:`_guide_from_cdf` of ``cdf``: one table read per uniform, and a
    binary search for the few in buckets marked 0."""
    flat = u.reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    for start in range(0, flat.size, _GUIDE_SLICE):
        part = flat[start : start + _GUIDE_SLICE]
        k = out[start : start + _GUIDE_SLICE]
        # u < 1, so every index is a bucket and mode="clip" never clips
        np.take(guide, (part * _GUIDE_BUCKETS).astype(np.int16), out=k, mode="clip")
        marked = np.flatnonzero(k == 0)
        if marked.size:
            k[marked] = np.searchsorted(cdf, part[marked], side="right") + 1
    return out.reshape(u.shape)


def _inverse_cdf(rate: float, u: np.ndarray) -> np.ndarray:
    """Truncated-Poisson values of uniforms ``u`` in [0, 1), any shape,
    for rate <= _INVERSE_CDF_MAX_RATE."""
    cdf = _sampler_cdf(rate)
    if u.size >= _GUIDE_MIN_VALUES:
        return _guided_lookup(cdf, _sampler_guide(rate), u)
    # side="right" maps u < cdf[0] to 0, i.e. k = 1, and no u < 1 passes
    # the last entry
    out = np.searchsorted(cdf, u, side="right")
    out += 1
    return out


def sample_truncated(
    params: TruncatedPoissonParams, rng: np.random.Generator, size: int | None = None
):
    """Exact samples of the truncated distribution (never 0).

    Inverse CDF against a precomputed table for rate <= 30 (the support
    is short there); rejection from Poisson(rate) discarding zeros above,
    where zeros are vanishingly rare. The inverse CDF is one binary search
    per uniform in arrays of fewer than 2,500; larger ones first read a
    4,096-bucket guide table (indexed search, Chen & Asau 1974), which
    gives k at once for every uniform whose bucket holds no CDF entry and
    binary-searches the rest, so both routes return the same k for every
    double.
    """
    scalar = size is None
    count = 1 if scalar else int(size)
    if params.rate <= _INVERSE_CDF_MAX_RATE:
        out = _inverse_cdf(params.rate, rng.random(count))
    else:
        out = rng.poisson(params.rate, count)
        zero = out == 0
        while zero.any():
            out[zero] = rng.poisson(params.rate, int(zero.sum()))
            zero = out == 0
    if scalar:
        return int(out[0])
    return out if out.dtype == np.int64 else out.astype(np.int64)


def sample_truncated_streams(
    params: TruncatedPoissonParams, rngs: Sequence[np.random.Generator], size: int
) -> np.ndarray:
    """``size`` samples from each stream, shape (len(rngs), size); row r is
    exactly ``sample_truncated(params, rngs[r], size)``.

    At rate <= 30 every stream draws its uniforms into one array, which one
    inverse-CDF lookup maps; above, each stream samples on its own.
    """
    if params.rate > _INVERSE_CDF_MAX_RATE:
        return np.stack([sample_truncated(params, rng, size) for rng in rngs])
    u = np.empty((len(rngs), size))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return _inverse_cdf(params.rate, u).astype(np.int64, copy=False)


def sample_poisson(rate: float, rng: np.random.Generator, size: int | None = None):
    """Plain Poisson samples (numpy backend), validated rate >= 0."""
    if not math.isfinite(rate) or rate < 0:
        raise InputError(f"rate must be finite and >= 0, got {rate}")
    if size is None:
        return int(rng.poisson(rate))
    return rng.poisson(rate, int(size)).astype(np.int64)


def tail_bounds(rate: float, upper_multiple: float) -> tuple[float, float]:
    """Chernoff bounds for Z ~ truncated Poisson whose underlying rate is ``rate``.

    Returns ``(lower, upper)`` with
      P(Z <= rate/2)              <= lower = exp(-0.15 * rate)
      P(Z >= upper_multiple*rate) <= upper = exp(rate - upper_multiple*rate*ln 2) / (1 - e^-rate)

    The upper bound requires upper_multiple > 1/ln 2.
    """
    if not math.isfinite(rate) or rate <= 0:
        raise InputError(f"rate must be finite and positive, got {rate}")
    if upper_multiple <= 1.0 / _LN2:
        raise DomainError(
            f"upper_multiple must exceed 1/ln 2 ~= {1.0 / _LN2:.4f}, got {upper_multiple}"
        )
    lower = math.exp(-0.15 * rate)
    upper = math.exp(rate - upper_multiple * rate * _LN2) / -math.expm1(-rate)
    return lower, upper
