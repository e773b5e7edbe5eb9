"""T_k(h) paths: exact enumeration, pair fast path, Monte Carlo, size bound."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import primetail
from primetail import (
    Tuple,
    allk_bound,
    averages,
    jensen_split_bound,
    singular_series,
    tkh_exact,
    tkh_monte_carlo,
    tkh_pair_fast,
)
from primetail.errors import ResourceError
from primetail.singular import singular_series_block

TWIN_CONSTANT = 1.320323631693739


def test_k1_is_h_exactly():
    got = tkh_exact(1, 10)
    assert (got.value, got.error) == (10.0, 0.0)


def test_k_above_h_is_zero():
    assert tkh_exact(3, 2).value == 0.0


def test_all_pairs_inadmissible():
    # [1,2] only offers the parity-breaking pair {1,2}
    assert tkh_exact(2, 2).value == 0.0


def test_t2_of_4():
    # subsets of [1,4] at even distance: {1,3} and {2,4}, so 4 S({0,2})
    got = tkh_exact(2, 4)
    assert got.value == pytest.approx(4 * TWIN_CONSTANT, rel=1e-12)
    assert got.error >= 0


def test_pair_fast_small():
    got = tkh_pair_fast(3)
    assert got.value == pytest.approx(2 * TWIN_CONSTANT, rel=1e-12)
    with pytest.raises(ValueError):
        tkh_pair_fast(1)


def test_pair_fast_matches_exact_spot():
    for h in (2, 3, 17, 50, 103, 200):
        fast = tkh_pair_fast(h).value
        slow = tkh_exact(2, h).value
        assert fast == pytest.approx(slow, rel=1e-11), h


def test_t2_normalized_climbs_toward_one():
    vals = [tkh_pair_fast(h).value / h ** 2 for h in (100, 1000, 10 ** 4)]
    assert vals[0] < vals[1] < vals[2] < 1.0


def _pair_oracle(h):
    """2 sum_{0<d<h} (h-d) S({0,d}), S({0,d}) = C_2 prod_{odd p | d} (p-1)/(p-2), 0 for odd d."""
    total = 0.0
    for d in range(2, h, 2):
        s, m, p = TWIN_CONSTANT, d, 3
        while m % 2 == 0:
            m //= 2
        while p * p <= m:
            if m % p == 0:
                s *= (p - 1) / (p - 2)
                while m % p == 0:
                    m //= p
            p += 2
        if m > 1:
            s *= (m - 1) / (m - 2)
        total += (h - d) * s
    return 2.0 * total


def test_t2_matches_closed_form_pair_sum():
    for h in (2, 3, 4, 17, 200, 1001, 5000):
        got = tkh_exact(2, h)
        oracle = _pair_oracle(h)
        assert abs(got.value - oracle) <= 1e-12 * oracle + got.error, h


def test_exact_matches_sum_over_all_subsets():
    # one singular_series call per sorted subset of [1, h]: no anchoring, no weights
    for k, h in ((3, 25), (4, 16), (5, 14)):
        subsets = list(combinations(range(1, h + 1), k))
        sv = [singular_series(Tuple(c)) for c in subsets]
        kf = math.factorial(k)
        got = tkh_exact(k, h)
        assert got.value == pytest.approx(kf * sum(s.value for s in sv), rel=1e-13)
        # the error covers the radii and the rounding of the value; since each float sum is
        # within g of its exact value, it lies between radii + g exact and that times 1 + 3g
        exact = kf * sum(Fraction(s.value) for s in sv)
        radii = kf * sum(Fraction(s.error_radius) for s in sv)
        rows = math.comb(h - 1, k - 1)
        nu = Fraction(rows + -(-rows // averages._BLOCK), 2 ** 53)
        g = nu / (1 - nu)  # gamma_n for n roundings of unit 2^-53
        assert Fraction(got.error) >= abs(Fraction(got.value) - exact)
        assert radii + g * exact <= Fraction(got.error)
        assert Fraction(got.error) <= (radii + g * exact) * (1 + 3 * g) * (1 + Fraction(1, 2 ** 52))


@pytest.mark.parametrize("k, h", [(4, 40), (2, 10000), (6, 18), (3, 60)])
def test_exact_error_covers_kernel_floats(k, h):
    # Fraction oracle over the kernel's own floats: the error bounds the rounding of the
    # weighted sum and the propagated radii, and is not a flat charge per subset: it sits
    # 50x below k! C(h,k) 10^-10
    ds = np.array(list(combinations(range(1, h), k - 1)), dtype=np.int64)
    vals, rads, _ = singular_series_block(np.hstack([np.zeros((len(ds), 1), np.int64), ds]))
    weights = (h - ds[:, -1]).tolist()
    kf = math.factorial(k)
    exact = kf * sum(w * Fraction(v) for w, v in zip(weights, vals.tolist()))
    radii = kf * sum(w * Fraction(r) for w, r in zip(weights, rads.tolist()))
    got = tkh_exact(k, h)
    assert Fraction(got.error) >= abs(Fraction(got.value) - exact)
    assert Fraction(got.error) >= radii
    assert 50 * got.error <= kf * math.comb(h, k) * 1e-10


def test_exact_independent_of_blas_threads():
    # the sums are math.fsum, so no BLAS thread count moves a bit of the value or the error
    src = str(Path(primetail.__file__).parents[1])
    script = "from primetail import tkh_exact; e = tkh_exact(2, 30000); print(e.value.hex(), e.error.hex())"
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=env, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_budget_raises_with_hint(monkeypatch):
    with pytest.raises(ResourceError, match="monte_carlo"):
        tkh_exact(10, 100)
    # the budget counts the C(h-1,k-1) anchored rows evaluated
    monkeypatch.setattr(averages, "DEFAULT_BUDGET", math.comb(9, 2))
    assert tkh_exact(3, 10).value > 0
    monkeypatch.setattr(averages, "DEFAULT_BUDGET", math.comb(9, 2) - 1)
    with pytest.raises(ResourceError, match="monte_carlo"):
        tkh_exact(3, 10)
    monkeypatch.undo()
    assert tkh_exact(2, 10 ** 4).value > 0  # 9999 rows, while 2 C(h,2) > 10^7


def test_validation():
    with pytest.raises(ValueError):
        tkh_exact(0, 5)
    with pytest.raises(ValueError):
        tkh_monte_carlo(3, 2, 1000, seed=0)
    with pytest.raises(ValueError):
        tkh_monte_carlo(2, 10, 99, seed=0)
    with pytest.raises(ValueError):
        tkh_monte_carlo(2, 10, 1000, seed=0, workers=0)


def test_mc_bit_reproducible():
    a = tkh_monte_carlo(3, 50, 500, seed=11, workers=3)
    b = tkh_monte_carlo(3, 50, 500, seed=11, workers=3)
    assert a == b
    assert (a.samples, a.seed, a.workers) == (500, 11, 3)


def test_mc_worker_count_changes_stream():
    a = tkh_monte_carlo(3, 50, 500, seed=11, workers=1)
    b = tkh_monte_carlo(3, 50, 500, seed=11, workers=2)
    assert a.mean != b.mean


@pytest.mark.parametrize("seed, workers, mean, stderr", [
    (12345, 1, 0.0, 0.0),
    (945503140, 2, 0.09469249271051833, 0.09469249271051834),
])
def test_mc_stream_pinned(seed, workers, mean, stderr):
    # bit-for-bit pins: the estimate is a function of (samples, seed, workers) alone
    est = tkh_monte_carlo(10, 100, 10 ** 5, seed, workers)
    assert (est.mean, est.stderr) == (mean, stderr)


def test_mc_workers_past_samples():
    # workers 0..99 draw one subset each and workers 100..149 none; the reference draws each
    # worker's rows from its own stream and evaluates them one tuple at a time
    seed, rows = 2718, []
    for w in range(150):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(w,))))
        rows.extend(averages._subsets(rng, 2, 10, 1 if w < 100 else 0).tolist())
    vals = np.array([singular_series(Tuple(tuple(r))).value for r in rows])
    est = tkh_monte_carlo(2, 10, 100, seed, workers=150)
    assert len(rows) == 100 and 0.0 < vals.mean()
    assert (est.mean, est.stderr) == (float(vals.mean()), float(vals.std(ddof=1) / 10))
    assert est.workers == 150


def test_mc_refuses_negative_seed_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(averages, "_sample_values", no_draw)
    with pytest.raises(ValueError, match="need seed >= 0"):
        tkh_monte_carlo(3, 20, 100, seed=-1)


def test_mc_k1_degenerate():
    est = tkh_monte_carlo(1, 50, 200, seed=3)
    assert (est.mean, est.stderr) == (1.0, 0.0)


@pytest.mark.parametrize("k, h, seed", [(3, 30, 101), (5, 25, 55), (4, 40, 7)])
def test_mc_matches_exact(k, h, seed):
    est = tkh_monte_carlo(k, h, 20000, seed=seed)
    exact_mean = tkh_exact(k, h).value / (math.factorial(k) * math.comb(h, k))
    assert abs(est.mean - exact_mean) <= 4 * est.stderr


def test_sampler_draws_every_subset_evenly():
    # 2*10^5 draws of 3-subsets of [1, 6]: each of the 20 is expected 10^4 times,
    # with a standard deviation near 97
    rows = averages._subsets(np.random.default_rng(2024), 3, 6, 2 * 10 ** 5)
    subsets, counts = np.unique(rows, axis=0, return_counts=True)
    assert [tuple(r) for r in subsets.tolist()] == list(combinations(range(1, 7), 3))
    assert np.abs(counts - 10 ** 4).max() <= 500, counts


def test_allk_bound_k2_exact():
    first, second = allk_bound(2)
    assert first == 19.140625
    assert second == pytest.approx((3 * math.log(2)) ** 2, rel=1e-15)


def test_allk_bound_k3_product_oracle():
    first, second = allk_bound(3)
    prod = 1.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        prod *= 1.0 - 1.0 / p
    assert first == pytest.approx(prod ** -3, rel=1e-12)
    assert second == pytest.approx((3 * math.log(3)) ** 3, rel=1e-15)


def test_allk_bound_matches_fraction_product():
    # exact rationals over trial-division primes, independent of the sieve and of mpmath
    primes = [p for p in range(2, 20 ** 3 + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for k in range(2, 21):
        frac = Fraction(1)
        for p in primes:
            if p > k ** 3:
                break
            frac *= Fraction(p, p - 1)
        assert allk_bound(k)[0] == float(frac ** k), k


def test_allk_bound_past_float_range_is_inf():
    # k = 212 is the first k whose product exceeds the largest float
    first, second = allk_bound(212)
    assert first == math.inf
    assert second == pytest.approx((3 * math.log(212)) ** 212, rel=1e-13)


def test_allk_bound_dominates_series():
    first, _ = allk_bound(3)
    for offs in ((0, 2, 6), (0, 4, 6), (0, 2, 12), (0, 6, 12)):
        assert singular_series(Tuple(offs), None).value <= first


def test_bounds_dominate_every_admissible_row_below_30():
    # every anchored row 0 < d_2 < ... < d_k < 30 for k = 2..6, 146,595 rows; admissibility
    # is read off the residues here, apart from the series, and 620 rows have it
    admissible = 0
    for k in range(2, 7):
        rows = np.array([(0, *c) for c in combinations(range(1, 30), k - 1)], dtype=np.int64)
        vals, rads, _ = singular_series_block(rows)
        ok = np.ones(len(rows), dtype=bool)
        for p in (p for p in (2, 3, 5) if p <= k):  # no k offsets fill the p > k classes
            ok &= ~np.all([(rows % p == c).any(axis=1) for c in range(p)], axis=0)
        assert np.array_equal(vals > 0, ok), k
        admissible += int(ok.sum())
        tops = vals[ok] + rads[ok]
        assert allk_bound(k)[0] >= tops.max(), k
        for row, top in zip(rows[ok].tolist(), tops.tolist()):
            assert jensen_split_bound(Tuple(tuple(row))) >= top, row
    assert admissible == 620


@pytest.mark.parametrize("k, d", [(2, 2), (3, 6), (4, 8), (5, 12), (6, 16), (7, 20), (8, 26)])
def test_tkh_zero_below_minimal_admissible_diameter(k, d):
    # d is the least diameter of an admissible k-tuple (OEIS A008407; Hensley and Richards,
    # Acta Arith. 25 (1974)): no anchored row has d_k < d, and h = d + 1 weighs one by 1
    assert tkh_exact(k, d).value == 0.0
    assert tkh_exact(k, d + 1).value > 0


def test_allk_bound_validation():
    with pytest.raises(ValueError):
        allk_bound(1)
    with pytest.raises(ResourceError):
        allk_bound(10 ** 4)
