"""Moments, Stirling predictions, Poisson tails, and the size bounds."""

import decimal
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primetail
from primetail import (
    WindowHistogram,
    biggerk_bound,
    corollary_bound,
    empirical_moment,
    exact_count,
    moment_report,
    poisson_pmf,
    poisson_tail,
    predicted_moment,
    stirling2,
    tail_count,
    tail_report,
    window_counts,
)


def _enum_partitions(items):
    """All set partitions, built by inserting one element at a time."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _enum_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def test_stirling_vs_brute_enumeration():
    for r in range(0, 9):
        parts = list(_enum_partitions(list(range(r))))
        for l in range(0, r + 1):
            assert stirling2(r, l) == sum(1 for p in parts if len(p) == l), (r, l)


def test_stirling_edges():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(5, 6) == 0
    assert stirling2(5, 5) == 1
    assert stirling2(4, 2) == 7
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_stirling_deep_row_on_a_cold_cache():
    # a fresh process has no rows cached: S(1500, 700) is built without recursing 1500 deep,
    # and equals the explicit sum sum_j (-1)^j C(l, j) (l - j)^r / l!
    r, l = 1500, 700
    src = str(Path(primetail.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"from primetail import stirling2; print(hex(stirling2({r}, {l})))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    total = sum((-1) ** j * math.comb(l, j) * (l - j) ** r for j in range(l + 1))
    want, rem = divmod(total, math.factorial(l))
    assert rem == 0 and int(out.stdout, 16) == want


def test_surjection_count_vs_enumeration():
    # l! S(r, l) counts the surjections from an r-set onto an l-set
    from itertools import product

    for r in range(0, 5):
        for l in range(0, 5):
            direct = sum(
                1 for f in product(range(l), repeat=r) if len(set(f)) == l
            )
            assert math.factorial(l) * stirling2(r, l) == direct, (r, l)


def test_empirical_moments_small(table_1e6):
    hist = window_counts(table_1e6, 10, 2)
    assert empirical_moment(hist, 0) == 1.0
    assert empirical_moment(hist, 1) == 0.9
    assert empirical_moment(hist, 2) == 1.1
    with pytest.raises(ValueError):
        empirical_moment(hist, -1)


def test_empirical_moment_brute(table_1e6, prime_flags):
    x, h = 4000, 9.5
    hist = window_counts(table_1e6, x, h)
    m = int(h)
    direct = [int(prime_flags[n + 1 : n + m + 1].sum()) for n in range(1, x + 1)]
    for r in (1, 2, 3):
        assert empirical_moment(hist, r) == pytest.approx(
            sum(c ** r for c in direct) / x, rel=1e-14
        )


def test_predicted_moment_values():
    assert predicted_moment(1, 2.5) == 2.5
    assert predicted_moment(2, 1.0) == 2.0
    assert predicted_moment(3, 1.0) == 5.0
    with pytest.raises(ValueError):
        predicted_moment(0, 1.0)
    with pytest.raises(ValueError):
        predicted_moment(2, 0.0)


def test_touchard_truncated_sum():
    for r in range(1, 9):
        for lam in (0.5, 1.0, 2.0):
            direct = sum(poisson_pmf(lam, j) * j ** r for j in range(1, 300))
            assert predicted_moment(r, lam) == pytest.approx(direct, rel=1e-10)


def test_falling_factorial_identity():
    # sum_l l! S(r, l) C(m, l) recovers m^r exactly
    for r in range(1, 9):
        for m in range(0, 11):
            got = sum(math.factorial(l) * stirling2(r, l) * math.comb(m, l) for l in range(r + 1))
            assert got == m ** r


def test_exact_and_tail_counts(table_1e6):
    hist = window_counts(table_1e6, 10, 2)
    assert exact_count(hist, 1) == 7
    assert exact_count(hist, 5) == 0
    assert tail_count(hist, 0) == 10
    assert tail_count(hist, 1) == 8
    assert tail_count(hist, 2) == 1
    assert tail_count(hist, 3) == 0


@settings(max_examples=100)
@given(st.dictionaries(st.integers(0, 12), st.integers(1, 50), min_size=1))
def test_tail_minus_tail_is_exact(counts):
    hist = WindowHistogram(sum(counts.values()), 1.0, counts)
    for k in range(0, 14):
        assert tail_count(hist, k) - tail_count(hist, k + 1) == exact_count(hist, k)


def test_poisson_pmf_basics():
    assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert sum(poisson_pmf(2.5, j) for j in range(200)) == pytest.approx(1.0, rel=1e-12)


def _mpmath_poisson_tail(lam, k):
    """P(X >= k) as a 50-digit direct sum of the pmf upward from k.

    Terms below lam - 60 sqrt(lam) are skipped: together they weigh less
    than e^-1800, far below 50 digits of a sum near 1.
    """
    with mpmath.workdps(50):
        lam_mp = mpmath.mpf(lam)
        j = max(k, int(lam - 60 * math.sqrt(lam)))
        term = mpmath.exp(j * mpmath.log(lam_mp) - lam_mp - mpmath.loggamma(j + 1))
        total = mpmath.mpf(0)
        while j <= lam or term > mpmath.mpf(10) ** -55 * total:
            total += term
            j += 1
            term *= lam_mp / j
        return float(total)


def test_poisson_tail_against_direct_sum():
    for lam in (0.5, 1.0, 3.0):
        for k in range(0, 12):
            direct = sum(poisson_pmf(lam, j) for j in range(k, 500))
            assert poisson_tail(lam, k) == pytest.approx(direct, abs=1e-13), (lam, k)
    assert poisson_tail(1.0, 4) == pytest.approx(0.018988, abs=1e-6)
    assert poisson_tail(2.0, 0) == 1.0
    # large lam, on both sides of the mean and in the far tail
    for lam in (300, 10 ** 4, 10 ** 5):
        for k in (lam // 2, lam, lam + lam // 100, 2 * lam):
            want = _mpmath_poisson_tail(lam, k)
            assert poisson_tail(float(lam), k) == pytest.approx(want, rel=1e-13, abs=0.0), (lam, k)
    assert poisson_tail(1.0, 10 ** 5) == 0.0


def _mpmath_first_term_tail(lam, k):
    """poisson_tail as it was when mpmath took its first term, at 30 digits.

    The one change: float() of an mpf below the least normal float rounds
    twice, to 53 bits and then to the subnormal's fewer, so there the sum is
    rounded once from its 30 digits, as float() of a Decimal rounds it.
    """
    up = k > lam
    j0 = k if up else k - 1
    if j0 < 0 or j0 * math.log(lam) - lam - math.lgamma(j0 + 1) < -750:
        return 0.0 if up else 1.0
    terms, t, j = [1.0], 1.0, j0
    while t >= 2.0 ** -60 and (up or j > 0):
        if up:
            j += 1
            t *= lam / j
        else:
            t *= j / lam
            j -= 1
        terms.append(t)
    with mpmath.workdps(30):
        first = mpmath.exp(j0 * mpmath.log(lam) - lam - mpmath.loggamma(j0 + 1))
        s = first * math.fsum(terms)
        s = float(s) if s >= sys.float_info.min else float(mpmath.nstr(s, 30))
    return s if up else 1.0 - s


def test_poisson_tail_bit_identical_to_mpmath_first_term():
    # the 40-digit decimal first term gives the float the 30-digit mpmath one gave, exactly:
    # on a fixed grid, then on a seeded random one near the mean and across the far tail,
    # where j0 >= 100 takes Stirling's series for log j0! and some sums are subnormal
    cases = [(lam, k) for lam in (0.5, 1, 1.03706127, 2, 18.42, 100, 700) for k in range(61)]
    rng = random.Random(20240611)
    for _ in range(2000):
        lam = math.exp(rng.uniform(-3, 7))
        cases.append((lam, max(0, round(lam + rng.gauss(0, 4) * math.sqrt(lam + 1)))))
        cases.append((lam, rng.randrange(1300)))
    for lam, k in cases:
        assert poisson_tail(lam, k) == _mpmath_first_term_tail(lam, k), (lam, k)
    live = [(lam, k) for lam, k in cases if 0 < poisson_tail(lam, k) < 1]
    assert sum((k if k > lam else k - 1) >= 100 for lam, k in live) > 500
    assert any(poisson_tail(lam, k) < sys.float_info.min for lam, k in live)


def test_poisson_tail_ignores_the_callers_decimal_context():
    # the first term runs in a context of its own: the caller's precision, rounding and
    # traps change no bit and raise nothing, and NumPy scalars go in as their values
    cases = [(lam, k) for lam in (0.5, 1.03706127, 18.42, 700) for k in (0, 1, 5, 30, 900)]
    want = [poisson_tail(lam, k) for lam, k in cases]
    ctx = decimal.Context(prec=7, rounding=decimal.ROUND_FLOOR,
                          traps=[decimal.Inexact, decimal.Rounded, decimal.Subnormal])
    with decimal.localcontext(ctx):
        assert [poisson_tail(lam, k) for lam, k in cases] == want
    assert [poisson_tail(np.float64(lam), np.int64(k)) for lam, k in cases] == want
    assert poisson_tail(np.float32(0.5), np.int32(3)) == poisson_tail(float(np.float32(0.5)), 3)
    assert poisson_tail(np.int64(2), 5) == poisson_tail(2.0, 5)


def test_corollary_bound_values():
    assert corollary_bound(1.0, 8) == pytest.approx(math.exp(-8 / math.e), rel=1e-15)
    assert corollary_bound(0.5, 4) == pytest.approx(math.exp(-4 / (1.5 * math.e)), rel=1e-15)
    assert corollary_bound(0.5, 4) == pytest.approx(0.375, abs=1e-3)
    ks = [corollary_bound(1.0, k) for k in range(1, 10)]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    with pytest.raises(ValueError):
        corollary_bound(0.0, 2)
    with pytest.raises(ValueError):
        corollary_bound(1.0, 0)


def test_biggerk_identity_point():
    # log(lam+1) + (1-delta) log log h = log k makes the exponent vanish
    h = math.exp(math.e ** 2)
    lam = 4.0 / math.e - 1.0
    assert biggerk_bound(4, lam, h, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_biggerk_values_and_domain():
    h = math.exp(math.e ** 2)
    assert biggerk_bound(8, 1.0, h, 0.5) == pytest.approx(0.34990, abs=1e-4)
    assert biggerk_bound(8, 1.0, h, 0.5) < biggerk_bound(4, 1.0, h, 0.5)
    with pytest.raises(ValueError):
        biggerk_bound(8, 1.0, math.e, 0.5)
    with pytest.raises(ValueError):
        biggerk_bound(8, 1.0, h, 1.5)
    with pytest.raises(ValueError):
        biggerk_bound(0, 1.0, h, 0.5)


def test_moment_report_composition(table_1e6):
    hist = window_counts(table_1e6, 1000, 6.9)
    rep = moment_report(hist, 2)
    assert rep.lam == 6.9 / math.log(1000)
    assert rep.lam_eff == empirical_moment(hist, 1)
    assert rep.empirical == empirical_moment(hist, 2)
    assert rep.predicted == predicted_moment(2, rep.lam)
    assert rep.ratio == rep.empirical / rep.predicted
    assert rep.predicted_eff == predicted_moment(2, rep.lam_eff)
    assert rep.ratio_eff == rep.empirical / rep.predicted_eff


def test_tail_report_composition(table_1e6):
    hist = window_counts(table_1e6, 1000, 6.9)
    rep = tail_report(hist, 2)
    assert rep.I_count == tail_count(hist, 2)
    assert rep.pi_k_count == exact_count(hist, 2)
    assert rep.poisson_tail == poisson_tail(rep.lam, 2)
    assert rep.corollary_bound == corollary_bound(rep.lam, 2)
    assert rep.poisson_tail_eff == poisson_tail(rep.lam_eff, 2)
    zero = tail_report(hist, 0)
    assert zero.corollary_bound is None
    assert zero.I_count == 1000


def test_reports_refuse_x_below_2(table_1e6):
    # lambda = h / log x divides by log 1 = 0
    hist = window_counts(table_1e6, 1, 5)
    for report, i in ((moment_report, 1), (tail_report, 0)):
        with pytest.raises(ValueError, match="need x >= 2"):
            report(hist, i)
