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

import mpmath
import numpy as np

from .errors import ResourceError
from .primes import _PRIME_BUDGET, primes_upto
from .singular import singular_series_block

DEFAULT_BUDGET = 10 ** 7
PER_TUPLE_ERROR = 1e-10
_BLOCK = 1 << 14
_REJECT_BATCH = 4096
_SHUFFLE_BATCH = 2048


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


def tkh_exact(k, h, target_error=PER_TUPLE_ERROR, budget=DEFAULT_BUDGET):
    """T_k(h) = k! sum over 0 < d_2 < ... < d_k < h of (h - d_k) S({0, d_2, ..., d_k}).

    The C(h-1,k-1) anchored rows are streamed in blocks of at most 2^14.
    The reported error is k! times the larger of the weighted radii and
    C(h,k) * target_error. Raises ResourceError if the anchored rows
    exceed the budget.
    """
    if k < 1 or h < 1:
        raise ValueError("need k >= 1 and h >= 1")
    if k > h:
        return ValueWithError(0.0, 0.0)
    n_rows = math.comb(h - 1, k - 1)
    if n_rows > budget:
        raise ResourceError(
            f"C(h-1,k-1) = {n_rows} anchored rows exceed budget {budget}; "
            f"use tkh_monte_carlo"
        )
    if k == 1:
        return ValueWithError(float(h), 0.0)
    flat = chain.from_iterable(combinations(range(1, h), k - 1))
    total = radii = 0.0
    while len(ds := np.fromiter(islice(flat, _BLOCK * (k - 1)), np.int64).reshape(-1, k - 1)):
        vals, rads, _ = singular_series_block(np.hstack([np.zeros((len(ds), 1), np.int64), ds]))
        weights = h - ds[:, -1]
        total += float(weights @ vals)
        radii += float(weights @ rads)
    kf = math.factorial(k)
    return ValueWithError(kf * total, kf * max(radii, math.comb(h, k) * target_error))


def tkh_pair_fast(h, target_error=PER_TUPLE_ERROR):
    """T_2(h) = 2 sum_{0<d<h} (h-d) S({0,d}), which is tkh_exact(2, h)."""
    if h < 2:
        raise ValueError("need h >= 2")
    return tkh_exact(2, h, target_error)


def _sample_values(rng, k, h, n):
    """n singular-series values at uniform random k-subsets of [1, h].

    Rejection sampling from sorted iid draws while collisions are rare;
    partial shuffles once k^2 > h/2. Fixed batch sizes keep the stream
    deterministic for a given generator state.
    """
    out = np.empty(n)
    filled = 0
    shuffle = k * k * 2 > h
    pool = np.arange(1, h + 1, dtype=np.int64)
    while filled < n:
        if shuffle:
            block = np.tile(pool, (_SHUFFLE_BATCH, 1))
            block = rng.permuted(block, axis=1)
            rows = np.sort(block[:, :k], axis=1)
        else:
            draw = rng.integers(1, h + 1, size=(_REJECT_BATCH, k))
            rows = np.sort(draw, axis=1)
            rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
        rows = rows[: n - filled]
        out[filled : filled + len(rows)] = singular_series_block(rows - rows[:, :1])[0]
        filled += len(rows)
    return out


def tkh_monte_carlo(k, h, samples, seed, workers=1):
    """Mean of S over uniform random sorted k-subsets of [1, h].

    T_k(h) = k! C(h,k) * mean. Each worker w draws its quota from the
    stream seeded by SeedSequence(seed, spawn_key=(w,)), so the estimate
    is bit-reproducible for fixed (seed, samples, workers).
    """
    if not 1 <= k <= h:
        raise ValueError("need 1 <= k <= h")
    if samples < 100:
        raise ValueError("need samples >= 100 for a stable stderr")
    if workers < 1:
        raise ValueError("need workers >= 1")
    vals = np.empty(samples)
    pos = 0
    for w in range(workers):
        quota = samples // workers + (1 if w < samples % workers else 0)
        if quota == 0:
            continue
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(w,)))
        )
        vals[pos : pos + quota] = _sample_values(rng, k, h, quota)
        pos += quota
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
    kc = k ** 3
    if kc > _PRIME_BUDGET:
        raise ResourceError(f"k^3 = {kc} exceeds prime budget {_PRIME_BUDGET}")
    ps = primes_upto(kc)
    with mpmath.workdps(40):
        runs = (ps[i : i + 256].tolist() for i in range(0, len(ps), 256))
        prod = mpmath.fprod(mpmath.mpf(math.prod(r)) / math.prod(p - 1 for p in r) for r in runs)
        return float(prod ** k), float(mpmath.mpf(3.0 * math.log(k)) ** k)
