"""Averages of the singular series over k-subsets of [1, h].

T_k(h) sums S(H) over ordered distinct k-tuples, i.e. k! times the sum
over sorted subsets. Exact enumeration is budgeted and visits each
translation class once, pairs included; everything larger goes through
seeded Monte Carlo whose per-worker streams make results reproducible for
a fixed (seed, samples, workers) triple. Both evaluate S in batches.
"""

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import ResourceError
from .primes import primes_upto
from .singular import singular_series_block

DEFAULT_BUDGET = 10 ** 7
_BLOCK = 1 << 14
_BATCH = 2048


@dataclass(frozen=True)
class ValueWithError:
    value: float
    error: float


@dataclass(frozen=True)
class EstimateWithError:
    mean: float
    stderr: float
    samples: int
    seed: int
    workers: int = 1


def tkh_exact(k, h):
    """T_k(h) = k! sum over 0 < d_2 < ... < d_k < h of (h - d_k) S({0, d_2, ..., d_k}).

    The anchored rows, the first C(h-1,k-1) k-subsets of range(h) in
    lexicographic order, are streamed in blocks of at most 2^14.
    The reported error bounds the distance of the printed value from T_k(h):
    the weighted radii of the rows plus the rounding of the sums that form
    it. Raises ResourceError if the anchored rows exceed DEFAULT_BUDGET.
    """
    if k < 1 or h < 1:
        raise ValueError("need k >= 1 and h >= 1")
    n_rows = math.comb(h - 1, k - 1)
    if n_rows > DEFAULT_BUDGET:
        raise ResourceError(
            f"C(h-1,k-1) = {n_rows} anchored rows exceed budget {DEFAULT_BUDGET}; "
            f"use tkh_monte_carlo"
        )
    if k == 1:
        return ValueWithError(float(h), 0.0)
    flat = chain.from_iterable(islice(combinations(range(h), k), n_rows))
    total = radii = 0.0
    while len(rows := np.fromiter(islice(flat, _BLOCK * k), np.int64).reshape(-1, k)):
        vals, rads, _ = singular_series_block(rows)
        weights = h - rows[:, -1]
        # math.fsum, not a BLAS dot, so that no sum depends on the BLAS thread count
        total = math.fsum([total, *(weights * vals).tolist()])
        radii = math.fsum([radii, *(weights * rads).tolist()])
    # k! scales the sum's exact ratio and int division rounds once, so a value in the float
    # range survives any k. Each nonnegative term of total and radii is rounded once as a
    # product and once per block by math.fsum, at most n = rows + blocks times with the k!
    # scaling, so with u = 2^-53 and g = n u / (1 - n u) each sum is within g times its exact
    # value of it, and the value within
    # k! (radii + g total) / (1 - g) = k! (radii (1 - n u) + n u total) / (1 - 2 n u) of T_k(h)
    kf = math.factorial(k)
    tn, td = total.as_integer_ratio()
    rn, rd = radii.as_integer_ratio()
    n = n_rows + -(-n_rows // _BLOCK)
    num, den = kf * (rn * td * (2 ** 53 - n) + tn * rd * n), rd * td * (2 ** 53 - 2 * n)
    error = num / den
    en, ed = error.as_integer_ratio()
    return ValueWithError(kf * tn / td, error if en * den >= num * ed else math.nextafter(error, math.inf))


def tkh_pair_fast(h):
    """T_2(h) = 2 sum_{0<d<h} (h-d) S({0,d}), which is tkh_exact(2, h)."""
    if h < 2:
        raise ValueError("need h >= 2")
    return tkh_exact(2, h)


def _subsets(rng, k, h, m):
    """m uniform random k-subsets of [1, h] as sorted rows, by Floyd's algorithm.

    Draw j = 1..k takes t uniform in [1, h - k + j], or h - k + j if the row
    holds t already: k draws a row whatever h is.
    """
    rows = np.empty((m, k), dtype=np.int64)
    for j in range(k):
        top = h - k + j + 1
        t = rng.integers(1, top, size=m, endpoint=True)
        rows[:, j] = np.where((rows[:, :j] == t[:, None]).any(axis=1), top, t)
    rows.sort(axis=1)
    return rows


def _sample_values(rng, k, h, out):
    """Fill out with S at uniform random k-subsets of [1, h], _BATCH rows at a time."""
    for i in range(0, len(out), _BATCH):
        rows = _subsets(rng, k, h, min(_BATCH, len(out) - i))
        out[i : i + len(rows)] = singular_series_block(rows - rows[:, :1])[0]


def tkh_monte_carlo(k, h, samples, seed, workers=1):
    """Mean of S over uniform random sorted k-subsets of [1, h].

    T_k(h) = k! C(h,k) * mean. Worker w fills its slice of the samples from
    the stream seeded by SeedSequence(seed, spawn_key=(w,)), so the estimate
    is bit-reproducible for fixed (seed, samples, workers).
    """
    if not 1 <= k <= h:
        raise ValueError("need 1 <= k <= h")
    if samples < 100:
        raise ValueError("need samples >= 100 for a stable stderr")
    if workers < 1:
        raise ValueError("need workers >= 1")
    if seed < 0:
        raise ValueError("need seed >= 0")
    vals = np.empty(samples)
    q, r = divmod(samples, workers)  # worker w fills q samples, one more while w < r
    for w in range(min(workers, samples)):  # a worker past samples would fill nothing
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(w,)))
        _sample_values(rng, k, h, vals[w * q + min(w, r) : (w + 1) * q + min(w + 1, r)])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return EstimateWithError(mean, stderr, samples, int(seed), int(workers))


def allk_bound(k):
    """The pair (prod_{p <= k^3} (1 - 1/p)^{-k}, (3 log k)^k).

    The first component dominates every S(H) with |H| = k; the second is
    its clean closed-form stand-in for quick size estimates. The product
    multiplies, at 40 digits, the exact integer ratio of each run of 256
    primes, so its float is the exact product's for small k; past the
    float range a component is inf.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    import mpmath  # on first use only, so that importing the package does not load it

    ps = primes_upto(k ** 3)
    with mpmath.workdps(40):
        runs = (ps[i : i + 256].tolist() for i in range(0, len(ps), 256))
        prod = mpmath.fprod(mpmath.mpf(math.prod(r)) / math.prod(p - 1 for p in r) for r in runs)
        return float(prod ** k), float(mpmath.mpf(3.0 * math.log(k)) ** k)
