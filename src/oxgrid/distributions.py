"""Truncated Poisson distribution: Poisson(rate) conditioned to be >= 1.

Everything downstream hangs off the mean map ``f(rate) = rate / (1 - e^-rate)``,
which is strictly increasing from (0, inf) onto (1, inf). Provides the
inverse solve, pmf, exact sampling, the size-biased law (which collapses
to a plain Poisson), and Chernoff-style tail bounds. The Poisson pmf is
written once, in log space, in ``_poisson_log_pmf``; both pmfs, the
support the sampler tables share, and ``theory.poisson_tail`` read it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError
from .rng import stream_uniforms

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
    residual is then checked against 1e-12. Solves are cached: the
    replicates of one size condition each side at the same mean, and the
    conditioning recursion's rests at a few.

    Raises DomainError for mean <= 1 (the map's range is (1, inf)) and
    InputError for non-finite input.
    """
    if not isinstance(mean, (int, float)) or not math.isfinite(mean):
        raise InputError(f"mean must be a finite number, got {mean!r}")
    if mean <= 1.0:
        raise DomainError(
            f"no solution for mean={mean}: the conditioned mean exceeds 1 for every positive rate"
        )
    return _solve_rate(mean)


@lru_cache(maxsize=256)
def _solve_rate(mean: float) -> TruncatedPoissonParams:
    """:func:`solve_rate` after its checks, cached on the mean."""
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
    return TruncatedPoissonParams.from_rate(rate)


# math.lgamma over an array, elementwise, so every entry is bit-equal to it
_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma(x) -> np.ndarray:
    """``math.lgamma`` of every entry of ``x``, as a float array."""
    return np.asarray(_LGAMMA(x), dtype=float)


def _poisson_log_pmf(rate: float, k) -> float | np.ndarray:
    """``-rate + k ln rate - ln k!``, the log of the Poisson(rate) pmf at k,
    for a rate > 0: the one place the law's pmf is written. Takes an
    integer or an integer array; a scalar or 0-d array gives a float back.
    Raises InputError for any k that is not an integer >= 0."""
    karr = np.asarray(k)
    if karr.dtype.kind not in "iu" or (karr < 0).any():
        raise InputError(f"k must be integers >= 0, got {k}")
    out = -rate + karr * math.log(rate) - _lgamma(karr + 1)
    return float(out) if out.ndim == 0 else out


def pmf(params: TruncatedPoissonParams, k) -> float | np.ndarray:
    """P(Y = k) for the truncated distribution; 0 at k = 0.

    Evaluated in log space so large k cannot overflow rate**k / k!.
    Accepts a scalar or an integer array.
    """
    rate = params.rate
    log_p = _poisson_log_pmf(rate, k) - math.log(-math.expm1(-rate))
    return np.exp(log_p) * (np.asarray(k) != 0)


def size_biased_pmf(params: TruncatedPoissonParams, k) -> float | np.ndarray:
    """Pmf of the size-biased-and-shifted truncated Poisson.

    Biasing by k and shifting down by one cancels the truncation exactly,
    leaving plain Poisson(rate); this is the offspring law seen along a
    uniformly chosen edge.
    """
    return np.exp(_poisson_log_pmf(params.rate, k))


def _support_pmf(params: TruncatedPoissonParams) -> np.ndarray:
    """:func:`pmf` at k = 1..K with K = floor(rate + 60 + 40 sqrt(rate)),
    uncut: the mass past K lies over 40 sd above the mean."""
    rate = params.rate
    return pmf(params, np.arange(1, int(rate + 60 + 40 * math.sqrt(rate)) + 1))


def pmf_table(params: TruncatedPoissonParams) -> np.ndarray:
    """Probabilities for k = 1..K as a vector (index 0 holds P(Y=1)).

    The table stops before the first term past the mode that no longer
    changes the running sum, or once the tail mass is below 1e-17, so
    cumulative sums reach 1 up to rounding and every entry of the
    cumulative sum exceeds the one before it. The recurrence
    p_k = p_(k-1) * rate / k starts at e^-rate; above rate ~ 708 that is no
    longer a normal double, and the table is cut from :func:`_support_pmf`
    instead. The recurrence stays below that rate: a vectorized cumprod
    gives the same bits but took 2 to 5 times as long at rates 1.5 to 10.
    """
    rate = params.rate
    if math.exp(-rate) < sys.float_info.min:
        probs = _support_pmf(params)
        cum = np.cumsum(probs)[:-1]
        # the same two stops; the leading terms underflow to 0, so only a
        # positive sum can stall
        stalled = (cum == cum + probs[1:]) & (cum > 0.0)
        last = np.flatnonzero(stalled | (1.0 - cum < 1e-17))
        return probs[: last[0] + 1] if last.size else probs
    probs = []
    p = math.exp(-rate) * rate / -math.expm1(-rate)  # P(Y = 1)
    cum = 0.0
    # the terms fall below any double's resolution of the sum long before
    # the support's end, so the stall alone ends the loop
    while cum + p != cum:
        probs.append(p)
        cum += p
        if 1.0 - cum < 1e-17:
            break
        p *= rate / (len(probs) + 1)
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


# Above _INVERSE_CDF_MAX_RATE a ratio table spans this many sd either side of
# the mode. P(Y = k) / P(Y = mode) is below 1e-19 there at rate 30, and smaller
# at higher rates, far under the 2^-53 step of a uniform on [0, 1)
_RATIO_SD = 12


@lru_cache(maxsize=128)
def _pmf_ratios(rate: float) -> tuple[int, np.ndarray, float]:
    """``(first, ratio, peak)`` for the law :func:`sample_truncated` draws at
    ``rate``: ``peak`` is its largest probability and ``ratio[i]`` is
    P(Y = first + i) / peak, exactly 1 at the mode. A zero at each end makes
    a clipped lookup read 0 for every k < 1 and every k past the table.

    Up to rate 30 the pmf is the differences of :func:`_sampler_cdf`, the
    table the sampler inverts. Above, the sampler draws Poisson values and
    no table may grow with the rate: the ratios are built in log space over
    the mode +- ``_RATIO_SD`` sd, as sums of log(rate / k) outwards from the
    mode. The table is cached and shared, so it is read-only."""
    if rate <= _INVERSE_CDF_MAX_RATE:
        probs = np.diff(_sampler_cdf(rate), prepend=0.0)
        first, peak = 0, float(probs.max())
        body = probs / peak
    else:
        mode = math.floor(rate)
        width = math.ceil(_RATIO_SD * math.sqrt(rate))
        lo = max(1, mode - width)
        first, peak = lo - 1, float(pmf(TruncatedPoissonParams.from_rate(rate), mode))
        # log P(k) - log P(k - 1) = log(rate / k), negative past the mode and
        # at most 0 up to it, so every ratio is at most 1
        steps = np.log(rate / np.arange(lo, mode + width + 1))
        at = mode - lo
        logs = np.zeros(steps.size)
        logs[at + 1 :] = np.cumsum(steps[at + 1 :])
        logs[:at] = -np.cumsum(steps[at:0:-1])[::-1]
        body = np.exp(logs)
    ratio = np.zeros(body.size + 2)
    ratio[1:-1] = body
    ratio.setflags(write=False)
    return first, ratio, peak


# Uniform u lies in bucket floor(u * _GUIDE_BUCKETS) of the guide table; a
# power of two makes the product exact
_GUIDE_BUCKETS = 4096
# Arrays of fewer uniforms take one searchsorted call. The guide lookup
# has a fixed cost of some 5 to 8 us. Timed on freshly drawn arrays, as the
# sampler meets them (searching one array over and over trains the branch
# predictor and flatters the search), at means 1.27 to 6.64 (the fixtures'
# and the sweeps'): on a 2-vCPU VM, medians of 400 new arrays in three
# runs, the guide first won at 500 uniforms for means 2.49 and up, at 500
# to 1,000 for 1.27 to 1.93, and tied or won at 1,000 for every mean; at
# mean 1.93 and 1,000 uniforms the search took 17.5 us and the guide 11.6
_GUIDE_MIN_VALUES = 1000
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
    """Exact samples of the truncated distribution (never 0): the one-stream
    case of :func:`sample_truncated_streams`, an int when ``size`` is None.

    Inverse CDF against a precomputed table for rate <= 30 (the support
    is short there); rejection from Poisson(rate) discarding zeros above,
    where zeros are vanishingly rare. The inverse CDF is one binary search
    per uniform in arrays of fewer than 1,000; larger ones first read a
    4,096-bucket guide table (indexed search, Chen & Asau 1974), which
    gives k at once for every uniform whose bucket holds no CDF entry and
    binary-searches the rest, so both routes return the same k for every
    double.
    """
    out = sample_truncated_streams(params, [rng], 1 if size is None else size)
    return int(out[0]) if size is None else out


def sample_truncated_streams(
    params: TruncatedPoissonParams,
    rngs: Sequence[np.random.Generator],
    size: int,
) -> np.ndarray:
    """``size`` samples from each stream of ``rngs``, end to end in one flat
    int64 array; run r is what stream r draws alone.

    At rate <= 30 every stream draws its uniforms into one array, which one
    inverse-CDF lookup maps; above, each stream draws Poisson(rate) values
    and redraws its zeros.
    """
    rate = params.rate
    if rate <= _INVERSE_CDF_MAX_RATE:
        return _inverse_cdf(rate, stream_uniforms(rngs, size)).astype(np.int64, copy=False)
    runs = []
    for rng in rngs:
        run = rng.poisson(rate, size)
        zero = run == 0
        while zero.any():
            run[zero] = rng.poisson(rate, int(zero.sum()))
            zero = run == 0
        runs.append(run)
    return np.concatenate(runs).astype(np.int64, copy=False)


# The log-surjection table holds q <= _SURJ_BOXES boxes (a short degree side
# has at most 64 vertices) and grows to at most _SURJ_BALLS balls
_SURJ_BOXES = 64
_SURJ_BALLS = 10_000
# rows r = 0 and 1: Surj(0, 0) = Surj(1, 1) = 1, with 0^0 = 1
_log_cover = np.full((2, _SURJ_BOXES + 1), -np.inf)
_log_cover[0, 0] = _log_cover[1, 1] = 0.0
_log_cover.setflags(write=False)


def _log_surjections(balls: int) -> np.ndarray:
    """log(Surj(r, q) / q^r) at row r = 0..``balls`` and column q = 0..64,
    where Surj(r, q) counts the surjections of r labeled balls onto q
    labeled boxes: the log chance that r balls thrown at random hit all q
    boxes, -inf where they cannot (r < q, or q = 0 < r). Read-only.

    The table is grown lazily, at least doubling, by the recurrence
    Surj(r, q) = q (Surj(r - 1, q) + Surj(r - 1, q - 1)) over q^r, one
    ``logaddexp`` step per row. Scaled by q^r the entries stay near 0, where
    rounding does not build up: unscaled, log Surj(2000, 64) is about 8,300
    and erred by 1.2e-10 after 2,000 steps; scaled, every Surj(r, q) with
    r <= 2,000 is within 1e-12 of its exact value, relative. Its size is
    capped at 10,000 balls, 10,001 rows of 65 doubles (5.2 MB); InputError
    past that. On a 2-vCPU VM the 2,001 rows of 2,000 balls took about
    15 ms."""
    global _log_cover
    if balls > _SURJ_BALLS:
        raise InputError(f"the log-surjection table stops at {_SURJ_BALLS} balls, got {balls}")
    have = _log_cover.shape[0]
    if balls >= have:
        rows = min(max(balls + 1, 2 * have), _SURJ_BALLS + 1)
        grown = np.empty((rows, _SURJ_BOXES + 1))
        grown[:have] = _log_cover
        grown[have:, 0] = -np.inf
        q = np.arange(1, _SURJ_BOXES + 1)
        # log((q - 1) / q), -inf at q = 1, where Surj(r - 1, 0) = 0 for r >= 2
        log_ratio = np.concatenate([[-np.inf], np.log1p(-1.0 / q[1:])])
        for r in range(have, rows):
            # P(r, q) = P(r - 1, q) + P(r - 1, q - 1) ((q - 1) / q)^(r - 1)
            np.logaddexp(
                grown[r - 1, 1:], grown[r - 1, :-1] + (r - 1) * log_ratio, out=grown[r, 1:]
            )
        grown.setflags(write=False)
        _log_cover = grown
    return _log_cover[: balls + 1]


def _split_cdf(h: int, j: int, total: int) -> np.ndarray:
    """P(S_h <= s | S_(h+j) = total) at s = h .. total - j, where S_k sums
    k iid truncated-Poisson degrees, for h, j >= 1 and h + j <= 64; its
    last entry is set to 1.

    The law is rate-free: given their sum, the degrees are the box sizes of
    ``total`` balls thrown onto h + j boxes with none empty, so
    P(S_h = s | S_(h+j) = total) = C(total, s) Surj(s, h) Surj(total - s, j)
    / Surj(total, h + j). It is built in log space from
    :func:`_log_surjections` and normalised by its own sum."""
    cover = _log_surjections(total)
    s = np.arange(h, total - j + 1)
    rest = total - s
    log_p = (
        cover[s, h] + s * math.log(h) + cover[rest, j] + rest * math.log(j)
        - _lgamma(s + 1) - _lgamma(rest + 1)
    )
    cdf = np.cumsum(np.exp(log_p - log_p.max()))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


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
