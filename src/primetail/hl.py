"""Hardy-Littlewood prediction checks for tuple hit counts.

Compares pi_H(x) against S(H) li_k(x) and the von Mangoldt weighted sum
against S(H) x, reporting the raw error and two square-root-scale
normalizations. Every report comes from one primes.tuple_counts pass over
the table, one singular series and one quadrature routine.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .primes import tuple_counts
from .singular import Tuple, as_tuple, singular_series


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _log_integral(a, b, k):
    """integral_a^b dt / (log t)^k for 2 <= a <= b and k >= 1.

    Integrated as e^u / u^k in u = log t by one 16-point Gauss-Legendre
    rule per piece, all pieces in one array operation. The pieces are
    geometric in t with ratio 2^(1/ceil(k/8)), so the pole at u = 0, whose
    pull near t = 2 grows with k, is never undersampled.
    """
    ua, ub = math.log(a), math.log(b)
    step = math.log(2.0) / math.ceil(k / 8)
    edges = ua + step * np.arange(math.ceil((ub - ua) / step) + 1)
    edges = np.append(edges[edges < ub], ub)
    half, mid = np.diff(edges) / 2, (edges[1:] + edges[:-1]) / 2
    u = mid[:, None] + half[:, None] * _GL_NODES
    return math.fsum(half * (np.exp(u - k * np.log(u)) @ _GL_WEIGHTS))


def li_k(x, k):
    """integral_2^x dt / (log t)^k; 0 for x < 2; exactly x - 2 for k = 0."""
    if k < 0:
        raise ValueError("need k >= 0")
    if x < 2:
        return 0.0
    if k == 0:
        return float(x) - 2.0
    return _log_integral(2.0, float(x), k)


@dataclass(frozen=True)
class HLReport:
    H: Tuple
    x: int
    hits: int
    prediction: float
    abs_error: float
    normalized: float
    normalized_alt: float
    lambda_form_error: float


def hl_error_lambda(H, x, table=None):
    """|sum_{n<=x} prod_i Lambda(n + h_i) - S(H) x|.

    Inadmissible tuples have S = 0, so this reduces to the bare sum.
    """
    H = as_tuple(H)
    if x < 2:
        raise ValueError("need x >= 2")
    if H.k == 0:
        return 0.0
    _, s = next(tuple_counts(table, H.offsets, [int(x)]))
    sv = singular_series(H, target_error=None)
    return abs(s - sv.value * x)


def hl_error(H, x, table=None):
    """Hit count vs S(H) li_k(x) at a single checkpoint."""
    return hl_sweep(H, [x], table)[0]


def hl_sweep(H, xs, table=None):
    """Hit count vs S(H) li_k(x) at each ascending checkpoint, from one pass."""
    H = as_tuple(H)
    if H.k == 0:
        raise ValueError("need a non-empty tuple")
    xs = [int(x) for x in xs]
    if not xs:
        return []
    if xs[0] < 3 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must be ascending and >= 3")
    k = H.k
    lis = list(accumulate(_log_integral(a, b, k) for a, b in zip([2.0] + xs, xs)))
    sv = singular_series(H, target_error=max(1e-9 * lis[-1], 1e-12))
    reports = []
    for x, li, (hits, s) in zip(xs, lis, tuple_counts(table, H.offsets, xs)):
        prediction = sv.value * li
        abs_error = abs(hits - prediction)
        lgx = math.log(x)
        reports.append(
            HLReport(
                H,
                x,
                hits,
                prediction,
                abs_error,
                abs_error / (math.sqrt(x) * lgx ** 6),
                abs_error / (math.sqrt(x) * lgx ** k),
                abs(s - sv.value * x),
            )
        )
    return reports
