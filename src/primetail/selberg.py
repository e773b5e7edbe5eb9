"""Selberg sieve quantities for a tuple: G(z), W(z), and upper bounds.

G(z) sums the multiplicative weight g(d) = prod_{p|d} nu(p)/(p - nu(p))
over squarefree d < z with a block multiplicative sieve: each g(d) is the
product of its prime weights in ascending order from 1.0, and memory is one
block of d, not z. W(z) is the plain Mertens-style product. The raw
Halberstam-Richert style bound and the (2+eps)^k k! S(H) x/log^k x theorem
form are both reported, never asserted. A prime with nu(p) = p has no
weight; every function that needs one raises InadmissibleModulusError.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleModulusError
from .primes import count_tuple_hits, primes_upto
from .singular import as_tuple, singular_series, Tuple, _anchored, _nu_rows, _prime_factors

_G_BLOCK = 1 << 16  # d per block of the G(z) sieve


def resolve_z(x, z=None, epsilon=None):
    """The sieve level: exactly one of a z >= 2 and an epsilon > 0, which sets
    z = max(2, round(x^(1/(2+epsilon)))), that is 2 for every x below 2."""
    if (z is None) == (epsilon is None):
        raise ValueError("give exactly one of z and epsilon")
    if epsilon is None:
        if z < 2:
            raise ValueError("need z >= 2")
        return int(z)
    if not epsilon > 0:
        raise ValueError("need epsilon > 0")
    return max(2, round(x ** (1.0 / (2.0 + epsilon)))) if x >= 2 else 2


def _nu_table(H, z):
    """(primes p < z, nu_H(p)) as parallel arrays; nu is k at each p dividing no difference."""
    z = resolve_z(None, z)  # refuses z < 2
    H = as_tuple(H)
    # the differences are factored before any sieving: a span past the prime budget fails here
    fs = sorted({p for f in _prime_factors(H.pairwise_diffs()) for p in f if p < z})
    ps = primes_upto(z - 1)
    nus = np.full_like(ps, H.k)
    at = np.searchsorted(ps, fs)
    nus[at] = _nu_rows(_anchored(H)[:, None], ps[at], axis=0)
    return ps, nus


def _weights(ps, nus):
    """g(p) = nu(p)/(p - nu(p)) over a nu table; the first p with nu(p) = p is refused by name."""
    bad = ps[nus == ps].tolist()
    if bad:
        p = bad[0]
        raise InadmissibleModulusError(f"nu({p}) = {p}: the tuple covers every residue class mod {p}")
    return nus / (ps - nus)


def _g_block(lo, hi, small):
    """g(d) for lo <= d < hi over the (p, g(p)) in small, 0.0 unless those p multiply to d.

    The weights go in by ascending p from 1.0; the integer product of the p
    dividing d falls short of d exactly when d has a square factor or a prime
    factor outside small.
    """
    g = np.ones(hi - lo)
    prod = np.ones(hi - lo, dtype=np.int64)
    for p, gp in small:
        first = -lo % p
        g[first::p] *= gp
        prod[first::p] *= p
    g *= prod == np.arange(lo, hi)
    return g


def _G(z, ps, nus):
    """G(z) from the nu table of the primes below z; see big_G."""
    gs = _weights(ps, nus)
    r = math.isqrt(z - 1)
    n_small = int(np.searchsorted(ps, r, side="right"))
    small = list(zip(ps[:n_small].tolist(), gs[:n_small].tolist()))
    parts = [np.sum(_g_block(lo, min(lo + _G_BLOCK, z), small)) for lo in range(1, z, _G_BLOCK)]
    qs, gq = ps[n_small:], gs[n_small:]
    g_e = _g_block(1, r + 1, small)
    for i in np.flatnonzero(g_e).tolist():  # e = i + 1
        n = int(np.searchsorted(qs, (z - 1) // (i + 1), side="right"))
        if n == 0:
            break
        parts.append(np.sum(g_e[i] * gq[:n]))
    return math.fsum(parts)


def _raw_bound(x, z, G, W):
    """x/G(z) + z^2/W(z)^3, the raw sieve bound on hits up to x; inf once W^3 is 0.0."""
    return x / G + z * z / W ** 3 if W ** 3 > 0.0 else math.inf


def _W(ps, nus):
    """W(z) = prod_{p < z} (1 - nu(p)/p) from the nu table, left to right; exactly 0.0
    when some nu(p) = p."""
    return math.prod(((ps - nus) / ps).tolist(), start=1.0)


def big_G(z, H):
    """G(z) = sum over squarefree d < z of g(d).

    A squarefree d < z has at most one prime factor above r = isqrt(z - 1).
    Blocks of _G_BLOCK d take the d built from primes p <= r; each other d is
    e q with a prime q > r and e <= r, and adds g(e) g(q), one vector per e.
    Every term is its ascending product of prime weights from 1.0, and
    math.fsum adds the block and vector sums.

    A prime p < z with nu(p) = p has no weight: InadmissibleModulusError
    names the first.
    """
    return _G(z, *_nu_table(H, z))


def _theorem_epsilon(x, epsilon):
    """The epsilon of the theorem bound at x, 0.1 for None (a report given z); refuses
    x < 16 and epsilon <= 0 before any work on the tuple."""
    if x < 16:
        raise ValueError("need x >= 16")
    if epsilon is None:
        return 0.1
    if epsilon <= 0:
        raise ValueError("need epsilon > 0")
    return epsilon


def theorem_bound(H, x, epsilon):
    """(2 + eps)^k k! S(H) x / (log x)^k, at eps = 0.1 for epsilon None.

    An inadmissible tuple has S(H) = 0, which would make the bound a vacuous
    0: InadmissibleModulusError names a prime p <= k with nu(p) = p.
    """
    H = as_tuple(H)
    epsilon = _theorem_epsilon(x, epsilon)
    k = H.k
    sv = singular_series(H)
    if sv.value == 0.0:  # some p <= k has nu(p) = p, and _weights names it
        _weights(*_nu_table(H, k + 1))
    try:
        return (2.0 + epsilon) ** k * math.factorial(k) * sv.value * x / math.log(x) ** k
    except OverflowError:
        return math.inf  # a factor left the float range; inf is still an upper bound


def _log_abs_dh(H):
    """log |D_H| = sum of log pairwise differences; 0 for k < 2."""
    return sum(math.log(d) for d in H.pairwise_diffs())


def omega_constants(H):
    """(alpha_1, L) = (k + 1, k log log(3 |D_H|)).

    log(3 |D_H|) is summed in log space, so no |D_H| overflows.
    """
    H = as_tuple(H)
    k = H.k
    inner = math.log(3.0) + _log_abs_dh(H)
    return k + 1, k * math.log(inner)


def gamma_cross_check(H, z):
    """R(z) = 1 / (G(z) W(z) e^(gamma k) k!); drifts toward 1 as z grows."""
    if z < 16:
        raise ValueError("need z >= 16")
    H = as_tuple(H)
    nu = _nu_table(H, z)
    k = H.k
    return 1.0 / (_G(z, *nu) * _W(*nu) * math.exp(np.euler_gamma * k) * math.factorial(k))


@dataclass(frozen=True)
class SieveReport:
    H: Tuple
    x: int
    z: int
    epsilon: float | None
    G_z: float
    W_z: float
    raw_bound: float
    theorem_bound: float
    actual: int
    ratio_actual_over_bound: float
    alpha1: int
    L_estimate: float
    correction_term: float


def sieve_report(H, x, z=None, epsilon=None, table=None):
    """Bounds vs the actual hit count, with the diagnostic constants.

    z comes from resolve_z; the theorem bound, at epsilon or at 0.1 with z,
    refuses before any nu table is built. The (1 + O(.)) correction of the
    theorem form is reported separately, never folded into the bound. Every
    refusal comes before the hits are counted, which read or sieve a table.
    """
    H = as_tuple(H)
    z = resolve_z(x, z, epsilon)
    thm = theorem_bound(H, x, epsilon)
    nu = _nu_table(H, z)
    G, W = _G(z, *nu), _W(*nu)
    raw = _raw_bound(x, z, G, W)
    alpha1, L = omega_constants(H)
    correction = (math.log(math.log(3.0 * x)) + H.k ** 3 + L) / math.log(x)
    actual = count_tuple_hits(table, H, x)
    ratio = actual / thm if thm > 0 else math.inf
    return SieveReport(
        H, int(x), z, epsilon, G, W, raw, thm, actual, ratio, alpha1, L, correction
    )
