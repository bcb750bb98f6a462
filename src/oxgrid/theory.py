"""Closed-form and fixed-point predictions for the min-degree-1 models.

Counting identities, the giant-component threshold and its extinction
probabilities, expected tree-component counts, and the connectivity
parameter. Everything here is a pure function of (m, n, t) or of the two
truncated-Poisson rates derived from it. A triple is checked against the
``gr`` precondition (``generators._check_gr``: InputError for a side below
1 or t below 0), and ``_side_rates`` is the one way from it to the two side
laws, whose means are t/m and t/n (DomainError for a mean of 1 or less).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import TruncatedPoissonParams, _lgamma, _poisson_log_pmf, solve_rate
from .errors import DomainError, InputError
from .generators import _check_gr, _check_sides, _coverable

__all__ = [
    "surjection_count",
    "count_exact",
    "count_exact_log",
    "count_asymptotic_log",
    "birthday_factor",
    "distinct_ratio_bracket",
    "Extinction",
    "extinction_probabilities",
    "composite_fixed_point",
    "expected_trees",
    "labeled_tree_count",
    "er_expected_trees",
    "connectivity_parameter",
    "connectivity_edge_count",
    "poisson_tail",
    "PredictionReport",
    "predict",
]

_LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------


def surjection_count(t: int, m: int) -> int:
    """Number of surjections from t labeled balls onto m labeled boxes,
    by inclusion-exclusion in exact integer arithmetic."""
    if t < 0 or m < 0:
        raise InputError("t and m must be >= 0")
    return sum(
        (-1) ** k * math.comb(m, k) * (m - k) ** t for k in range(m + 1)
    )


def count_exact(m: int, n: int, t: int) -> int:
    """Exact number of ordered t-edge sequences on (m, n) whose graph has
    minimum degree 1 on both sides.

    An edge sequence is a pair (left index sequence, right index sequence),
    and the two coordinates are independent, so the count factors into a
    product of two surjection counts.
    """
    if not _coverable(m, n, t):
        return 0
    return surjection_count(t, m) * surjection_count(t, n)


def _side_rates(m: int, n: int, t: int) -> tuple[TruncatedPoissonParams, TruncatedPoissonParams]:
    """The left and right truncated-Poisson laws of (m, n, t), with means t/m
    and t/n; errors as the module docstring says."""
    _check_gr(m, n, t)
    return solve_rate(t / m), solve_rate(t / n)


def _log_big(x: int) -> float:
    if x < 0:
        raise InputError("log of a negative count")
    if x == 0:
        return float("-inf")
    shift = max(0, x.bit_length() - 900)
    return math.log(x >> shift) + shift * _LN2


def count_exact_log(m: int, n: int, t: int) -> float:
    """log of :func:`count_exact`; -inf when t < max(m, n).

    The sum of the logs of the two surjection counts, so their product is
    never formed, and a square grid counts its one side once."""
    if not _coverable(m, n, t):
        return float("-inf")
    left = _log_big(surjection_count(t, m))
    return 2.0 * left if m == n else left + _log_big(surjection_count(t, n))


# the exact count is a big-int inclusion-exclusion over max(m, n) + 1 terms
# of about t log2(max(m, n)) bits each, and a cap of 10^7 on max(m, n) * t
# keeps it under about 1.5 s. On a 2-vCPU VM (400, 400, 25000) took 1.4 s,
# (100, 100, 10^5) 1.5 s and (3162, 3162, 3162), the most vertices a side
# the cap lets through with t >= max(m, n), 1.4 s, where (50, 50, 10^6)
# took 15 s and (400, 400, 10^7) over a minute
_EXACT_COUNT_WORK = 10**7


def _count_exact_log_capped(m: int, n: int, t: int) -> float | None:
    """:func:`count_exact_log`, or None past ``_EXACT_COUNT_WORK`` for
    max(m, n) * t, where it would take far longer than a second; the
    reports that give it leave it out there."""
    if max(m, n) * t > _EXACT_COUNT_WORK:
        return None
    return count_exact_log(m, n, t)


def _log_expm1(x: float) -> float:
    # log(e^x - 1), stable for large x
    return x + math.log1p(-math.exp(-x)) if x > 1e-3 else math.log(math.expm1(x))


def count_asymptotic_log(m: int, n: int, t: int) -> float:
    """Large-size approximation to :func:`count_exact_log`:

        (t!)^2 (e^a - 1)^m a^-t (e^b - 1)^n b^-t / (2 pi s_a s_b sqrt(mn))

    where a, b solve the per-side mean-degree equations and s_a, s_b are the
    conditional standard deviations. Requires t/m > 1 and t/n > 1.
    """
    pa, pb = _side_rates(m, n, t)
    a, b = pa.rate, pb.rate
    return (
        2.0 * math.lgamma(t + 1)
        + m * _log_expm1(a)
        - t * math.log(a)
        + n * _log_expm1(b)
        - t * math.log(b)
        - math.log(2.0 * math.pi)
        - 0.5 * math.log(pa.variance * pb.variance)
        - 0.5 * math.log(m * n)
    )


def birthday_factor(m: int, n: int, t: int) -> float:
    """Approximate probability that t uniform edge draws are all distinct:
    exp(-t^2 / (2 m n))."""
    _check_gr(m, n, t)
    return math.exp(-(t * t) / (2.0 * m * n))


def distinct_ratio_bracket(m: int, n: int, t: int) -> tuple[float, float]:
    """Bracket (lo, hi) for the ratio of distinct-edge graphs to
    with-replacement sequences among min-degree-1 outcomes, evaluated at the
    finite ratios: lo = exp(-(t/m)(t/n)), hi = 1."""
    _check_gr(m, n, t)
    return math.exp(-(t / m) * (t / n)), 1.0


# ----------------------------------------------------------------------
# Branching-process extinction and the giant component
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Extinction:
    """Extinction probabilities of the two-type exploration process.

    zeta_* are the fixed points of the composed size-biased (Poisson)
    generating functions; xi_* are the extinction probabilities starting
    from a uniformly chosen vertex on each side. The giant component holds
    fractions 1 - xi_left and 1 - xi_right of each side when
    left_rate * right_rate > 1, and all four values are 1 otherwise.
    """

    zeta_left: float
    zeta_right: float
    xi_left: float
    xi_right: float


def composite_fixed_point(first_rate: float, second_rate: float) -> float:
    """Smallest fixed point in [0, 1] of g(z) = exp(second*(exp(first*(z-1)) - 1)).

    Bisection on a bracket: g(z) - z is positive left of the smallest root
    and negative just below 1 in the supercritical case. The halving stops
    once the midpoint no longer moves, so the result z and the next double
    above it hold the root between them: g(z) > z and g(z+) <= z+. That
    takes about 55 halvings however close the rate product is to 1, where
    the monotone iteration from 0 slows down, and a stop on its step size
    there lands far short of the root.
    """
    if first_rate <= 0 or second_rate <= 0:
        raise InputError("rates must be positive")
    if first_rate * second_rate <= 1.0:
        return 1.0  # subcritical or critical: extinction is certain

    def g(z: float) -> float:
        return math.exp(second_rate * math.expm1(first_rate * (z - 1.0)))

    lo, hi = 0.0, 1.0 - 1e-15
    if g(hi) - hi > 0:
        return 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if g(mid) - mid > 0:
            lo = mid
        else:
            hi = mid


def extinction_probabilities(left_rate: float, right_rate: float) -> Extinction:
    """Extinction probabilities for given size-biased rates (a, b).

    zeta_right solves psi_right(psi_left(z)) = z with psi the Poisson
    generating functions; xi_left applies the truncated generating function
    of the root's own degree: xi_left = (e^(a z) - 1)/(e^a - 1) at z =
    zeta_right, and symmetrically.
    """
    a, b = left_rate, right_rate
    if a <= 0 or b <= 0:
        raise InputError("rates must be positive")
    if a * b <= 1.0:
        return Extinction(1.0, 1.0, 1.0, 1.0)
    zeta_right = composite_fixed_point(a, b)
    zeta_left = composite_fixed_point(b, a)
    xi_left = _root_extinction(a, zeta_right)
    xi_right = _root_extinction(b, zeta_left)
    return Extinction(
        zeta_left=zeta_left, zeta_right=zeta_right, xi_left=xi_left, xi_right=xi_right
    )


# e^x is a finite double up to here
_LOG_MAX = math.log(sys.float_info.max)


def _root_extinction(rate: float, zeta: float) -> float:
    """(e^(rate zeta) - 1)/(e^rate - 1); past the rate where e^rate
    overflows, as e^(rate (zeta - 1)) (1 - e^(-rate zeta))/(1 - e^-rate)."""
    if rate <= _LOG_MAX:
        return math.expm1(rate * zeta) / math.expm1(rate)
    return math.exp(rate * (zeta - 1.0)) * math.expm1(-rate * zeta) / math.expm1(-rate)


# ----------------------------------------------------------------------
# Tree-component expectations
# ----------------------------------------------------------------------


def labeled_tree_count(i: int, j: int) -> int:
    """Number of labeled spanning trees of the complete bipartite graph on
    (i, j) vertices: i^(j-1) * j^(i-1), exact."""
    if i < 1 or j < 1:
        raise InputError("i and j must be >= 1")
    return i ** (j - 1) * j ** (i - 1)


def _tree_law(i, j, a: float, b: float) -> float | np.ndarray:
    """The (i, j)-tree term at rates (a, b), computed in log space:

        exp((j-1) ln i + (i-1) ln j - ln i! - ln j! + j(ln a - b) + i(ln b - a))

    that is, i^(j-1) j^(i-1) / (i! j!) * (a e^-b)^j * (b e^-a)^i. Broadcasts
    over integer arrays i and j; scalars in give a float back. Raises
    InputError for any entry below 1.
    """
    iarr = np.asarray(i)
    jarr = np.asarray(j)
    if (iarr < 1).any() or (jarr < 1).any():
        raise InputError("i and j must be >= 1")
    fi = iarr.astype(float)
    fj = jarr.astype(float)
    log_term = (
        (fj - 1.0) * np.log(fi)
        + (fi - 1.0) * np.log(fj)
        - _lgamma(fi + 1.0)
        - _lgamma(fj + 1.0)
        + fj * (math.log(a) - b)
        + fi * (math.log(b) - a)
    )
    out = np.exp(log_term)
    return float(out) if out.ndim == 0 else out


def expected_trees(i, j, m: int, n: int, t: int) -> float | np.ndarray:
    """Limiting expected number of (i, j)-tree components in the
    min-degree-1 model, with the rates recomputed from (m, n, t).

    The rates are always recomputed from the mean-degree equations; any
    externally published rates are informational only. Accepts scalars or
    integer arrays for i and j (broadcast together) and is computed in log
    space, so large shapes neither overflow nor lose digits.
    """
    left, right = _side_rates(m, n, t)
    a, b = left.rate, right.rate
    return _tree_law(i, j, a, b) * (t / (a * b))


def expected_trees_exact(i: int, j: int, m: int, n: int, t: int) -> float:
    """Exact finite-size expected (i, j)-tree count in the min-degree-1 model.

    A fixed vertex-labeled tree with k = i+j-1 edges occupies k of the t
    slots (choose the slots, order the tree's k distinct edges on them) while
    the remaining slots must cover the remaining vertices, so

        P(tree is a component) = C(t,k) k! S(t-k, m-i) S(t-k, n-j) / (S(t,m) S(t,n))

    with S the surjection count. Multiplying by the number of vertex-labeled
    trees gives the expectation; :func:`expected_trees` is its limit.
    InputError for a bad triple or a shape below 1; DomainError when
    t < max(m, n) leaves no valid outcome.
    """
    if not _coverable(m, n, t):
        raise DomainError(f"no valid outcomes at (m={m}, n={n}, t={t})")
    if i < 1 or j < 1:
        raise InputError("i and j must be >= 1")
    if i > m or j > n:
        return 0.0
    k = i + j - 1
    if t < k:
        return 0.0
    denom = surjection_count(t, m) * surjection_count(t, n)
    num = (
        math.comb(m, i)
        * math.comb(n, j)
        * labeled_tree_count(i, j)
        * math.comb(t, k)
        * math.factorial(k)
        * surjection_count(t - k, m - i)
        * surjection_count(t - k, n - j)
    )
    return math.exp(_log_big(num) - _log_big(denom))  # 0.0 when num == 0


def er_expected_trees(i, j, big_m: int, big_n: int, p: float) -> float | np.ndarray:
    """Expected (i, j)-tree count in the independent-edge model with
    rates a = N p, b = M p; i and j as in :func:`expected_trees`."""
    if p <= 0:
        raise DomainError("edge probability must be positive")
    return _tree_law(i, j, big_n * p, big_m * p) / p


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------


def connectivity_parameter(m: int, n: int, t: int) -> float:
    """The c with t = c * (mn / (m+n)) * ln(m+n); c crossing 1 separates the
    disconnected and connected regimes (natural logarithm)."""
    _check_gr(m, n, t)
    return t * (m + n) / (m * n * math.log(m + n))


def connectivity_edge_count(m: int, n: int, c: float) -> int:
    """Inverse of :func:`connectivity_parameter`: the edge count for a target c."""
    _check_sides(m, n)
    return round(c * m * n * math.log(m + n) / (m + n))


def poisson_tail(mean: float, k: int, direction: str = "ge") -> float:
    """Poisson(mean) tail probabilities: P(X >= k), P(X <= k), or P(X = k).

    P(X = k) is the log-space pmf. Of P(X <= c) and P(X > c), with c = k
    or k - 1, the one on the far side of c from the mean is summed outward
    from its log-space first term until a term no longer moves the sum, and
    the other is 1 minus it. So no term starts from e^-mean, which
    underflows past mean 708, and a small upper tail keeps its digits.
    """
    if not math.isfinite(mean) or mean < 0:
        raise InputError(f"mean must be finite and >= 0, got {mean}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InputError(f"k must be an integer >= 0, got {k!r}")
    if direction not in ("ge", "le", "eq"):
        raise InputError(f"direction must be ge, le, or eq, got {direction!r}")
    if mean == 0 or (direction == "ge" and k == 0):
        return 1.0 if direction == "le" else float(k == 0)
    if direction == "eq":
        return math.exp(_poisson_log_pmf(mean, k))
    cut = k if direction == "le" else k - 1
    # P(X <= cut) when cut < mean, else P(X > cut)
    far = _falling_sum(mean, cut, -1) if cut < mean else _falling_sum(mean, cut + 1, 1)
    return far if (cut < mean) == (direction == "le") else 1.0 - far


def _falling_sum(mean: float, k: int, step: int) -> float:
    """The Poisson(mean) pmf summed from k in steps of ``step`` (1 or -1)
    until a term no longer moves the sum or k passes 0; the terms fall when
    k lies on the ``-step`` side of the mean."""
    term = total = math.exp(_poisson_log_pmf(mean, k))
    while k + step >= 0:
        term *= mean / (k + 1) if step > 0 else k / mean
        k += step
        if total + term == total:
            break
        total += term
    return total


# ----------------------------------------------------------------------
# Combined report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionReport:
    """Every analytic quantity the toolkit predicts for one (m, n, t)."""

    m: int
    n: int
    t: int
    left: TruncatedPoissonParams
    right: TruncatedPoissonParams
    rate_product: float
    extinction: Extinction
    giant_left_fraction: float
    giant_right_fraction: float
    connectivity_c: float
    expected_tree_matrix: np.ndarray  # index [i][j], row/col 0 unused
    log_count_exact: float | None
    log_count_asymptotic: float
    birthday: float
    distinct_bracket: tuple[float, float]

    def to_dict(self) -> dict:
        ext = self.extinction
        return {
            "m": self.m,
            "n": self.n,
            "t": self.t,
            "left_mean": self.left.mean,
            "right_mean": self.right.mean,
            "left_rate": self.left.rate,
            "right_rate": self.right.rate,
            "rate_product": self.rate_product,
            "zeta_left": ext.zeta_left,
            "zeta_right": ext.zeta_right,
            "xi_left": ext.xi_left,
            "xi_right": ext.xi_right,
            "giant_left_fraction": self.giant_left_fraction,
            "giant_right_fraction": self.giant_right_fraction,
            "connectivity_c": self.connectivity_c,
            "expected_trees": {
                f"{i},{j}": float(self.expected_tree_matrix[i, j])
                for i in range(1, self.expected_tree_matrix.shape[0])
                for j in range(1, self.expected_tree_matrix.shape[1])
            },
            "log_count_exact": self.log_count_exact,
            "log_count_asymptotic": self.log_count_asymptotic,
            "birthday_factor": self.birthday,
            "distinct_ratio_bracket": list(self.distinct_bracket),
        }


def predict(m: int, n: int, t: int, max_tree: int = 4) -> PredictionReport:
    """Full analytic report for one parameter triple. Requires t/m > 1 and
    t/n > 1 so the rate equations have solutions."""
    left, right = _side_rates(m, n, t)
    if max_tree < 1:
        raise InputError("max_tree must be >= 1")
    ext = extinction_probabilities(left.rate, right.rate)
    sizes = np.arange(1, max_tree + 1)
    ea = np.zeros((max_tree + 1, max_tree + 1))
    ea[1:, 1:] = expected_trees(sizes[:, None], sizes, m, n, t)
    return PredictionReport(
        m=m,
        n=n,
        t=t,
        left=left,
        right=right,
        rate_product=left.rate * right.rate,
        extinction=ext,
        giant_left_fraction=1.0 - ext.xi_left,
        giant_right_fraction=1.0 - ext.xi_right,
        connectivity_c=connectivity_parameter(m, n, t),
        expected_tree_matrix=ea,
        log_count_exact=_count_exact_log_capped(m, n, t),
        log_count_asymptotic=count_asymptotic_log(m, n, t),
        birthday=birthday_factor(m, n, t),
        distinct_bracket=distinct_ratio_bracket(m, n, t),
    )
