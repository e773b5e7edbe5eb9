"""Hardy-Littlewood prediction checks for tuple hit counts.

Compares pi_H(x) against S(H) li_k(x) and the von Mangoldt weighted sum
against S(H) x, reporting the raw error and two square-root-scale
normalizations. Every report comes from one chunked pass over the
primality table, one singular series and one quadrature routine.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .primes import _CHUNK, sieve_range
from .singular import Tuple, as_tuple, primes_upto, singular_series


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


def vonmangoldt(table, lo, hi):
    """Lambda(n) for n in [lo, hi]: log p at prime powers p^j, else 0."""
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    lam = np.zeros(hi - lo + 1)
    at = np.flatnonzero(table.bools(lo, hi))
    lam[at] = np.log((at + lo).astype(np.float64))
    for p in primes_upto(math.isqrt(hi)).tolist():
        lp = math.log(p)
        q = p * p
        while q <= hi:
            if q >= lo:
                lam[q - lo] = lp
            q *= p
    return lam


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


def _counts(H, xs, table):
    """Hits and prod_i Lambda(n + h_i) summed over 1 <= n <= x, at each x in xs.

    Streams n = 1..xs[-1] in _CHUNK blocks, sieving first if table is None.
    The running Lambda sum is added to each block's first term before its
    cumsum, so every sum is the plain left-to-right one however blocks fall.
    """
    offs, top = H.offsets, xs[-1]
    if table is None:
        table = sieve_range(0, top + offs[-1] + 1)
    table.require_cover(1 + offs[0], top + offs[-1])
    xs = np.asarray(xs, dtype=np.int64)
    hits, sums = [], []
    hit_total, lam_total = 0, 0.0
    for a in range(1, top + 1, _CHUNK):
        n = min(_CHUNK, top - a + 1)
        lo, hi = a + offs[0], a + n - 1 + offs[-1]
        flags, lam = table.bools(lo, hi), vonmangoldt(table, lo, hi)
        acc, prod = flags[:n].copy(), lam[:n].copy()
        for d in (t - offs[0] for t in offs[1:]):
            acc &= flags[d : d + n]
            prod *= lam[d : d + n]
        prod[0] += lam_total
        np.cumsum(prod, out=prod)
        acc = np.cumsum(acc, dtype=np.int64)
        at = xs[(xs >= a) & (xs < a + n)] - a
        hits += (hit_total + acc[at]).tolist()
        sums += prod[at].tolist()
        hit_total, lam_total = hit_total + int(acc[-1]), float(prod[-1])
        # free this block before the next is built, so memory stays one block
        del flags, lam, acc, prod
    return hits, sums


def hl_error_lambda(H, x, table=None):
    """|sum_{n<=x} prod_i Lambda(n + h_i) - S(H) x|.

    Inadmissible tuples have S = 0, so this reduces to the bare sum.
    """
    H = as_tuple(H)
    if x < 2:
        raise ValueError("need x >= 2")
    if H.k == 0:
        return 0.0
    _, (s,) = _counts(H, [int(x)], table)
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
    for x, li, hits, s in zip(xs, lis, *_counts(H, xs, table)):
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
