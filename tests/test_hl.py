"""li_k quadrature, the tuple pass's Lambda sums, and the prediction error reports."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from primetail import (
    Tuple,
    hl_error,
    hl_sweep,
    li_k,
    sieve_range,
    singular_series,
)
from primetail import primes
from primetail.primes import _CHUNK, tuple_counts


def _simpson_li(x, k, n=100000):
    # substitute t = e^u so the integrand e^u / u^k is smooth on a
    # uniform grid; straight Simpson in t is badly undersampled near 2
    u = np.linspace(math.log(2.0), math.log(float(x)), 2 * n + 1)
    f = np.exp(u) * u ** (-float(k))
    w = np.ones(2 * n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((u[1] - u[0]) / 3.0 * (w * f).sum())


def _lambda_dict(limit):
    """Von Mangoldt by explicit prime-power listing, trial division only."""
    out = {}
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            q = p
            while q <= limit:
                out[q] = math.log(p)
                q *= p
    return out


def test_li_k_vs_simpson():
    assert li_k(10 ** 6, 1) == pytest.approx(_simpson_li(10 ** 6, 1), rel=1e-9)
    assert li_k(10 ** 4, 2) == pytest.approx(_simpson_li(10 ** 4, 2), rel=1e-9)
    assert li_k(5500, 10) == pytest.approx(_simpson_li(5500, 10), rel=1e-8)


def _mpmath_li_u(xs, k):
    """li_k at ascending xs: mpmath quadrature of e^u / u^k in u = log t."""
    out, total, a = [], mpmath.mpf(0), mpmath.log(2)
    with mpmath.workdps(25):
        for x in xs:
            b = mpmath.log(mpmath.mpf(x))
            pts = [a]
            while 1.25 * pts[-1] < b:
                pts.append(1.25 * pts[-1])
            pts.append(b)
            total += mpmath.quad(lambda u: mpmath.exp(u - k * mpmath.log(u)), pts)
            out.append(float(total))
            a = b
    return out


def test_li_k_vs_mpmath_oracle(li_oracle):
    # up to k = 100 the pole at u = log t = 0 pulls the mass towards t = 2;
    # there the t-oracle is checked against a second mpmath pass in u, and a
    # NumPy overflow or invalid-value warning fails the test
    xs = [10 ** e for e in (4, 6, 8, 10, 12, 15, 18)]
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in [*range(1, 13), 16, 20, 30, 60, 100]:
            wants = li_oracle(xs, k)
            if k > 12:
                for x, want, alt in zip(xs, wants, _mpmath_li_u(xs, k)):
                    assert alt == pytest.approx(want, rel=1e-14), (x, k)
            for x, want in zip(xs, wants):
                got = li_k(x, k)
                if abs(got - want) > 1e-13 * want:
                    bad.append((x, k, got, want))
    assert not bad


def test_li_k_edges():
    assert li_k(1.5, 3) == 0.0
    assert li_k(2, 1) == 0.0
    assert li_k(10, 0) == 8.0
    with pytest.raises(ValueError):
        li_k(10, -1)


def test_li_frozen_value():
    # offset logarithmic integral from 2
    assert li_k(10 ** 6, 1) == pytest.approx(78626.504, abs=0.01)


def test_hl_error_prime_counting(table_1e6):
    rep = hl_error(Tuple.parse("0"), 10 ** 6, table_1e6)
    assert rep.hits == 78498
    assert rep.prediction == pytest.approx(78626.504, abs=0.01)
    assert rep.abs_error == pytest.approx(128.504, abs=0.01)
    lgx = math.log(10 ** 6)
    assert rep.normalized == rep.abs_error / (math.sqrt(10 ** 6) * lgx ** 6)
    assert rep.normalized_alt == rep.abs_error / (math.sqrt(10 ** 6) * lgx ** 1)


def test_hl_hits_match_pi(table_1e6):
    for x, pi in ((10 ** 4, 1229), (10 ** 5, 9592), (10 ** 6, 78498)):
        assert hl_error(Tuple.parse("0"), x, table_1e6).hits == pi


def test_hl_inadmissible_prediction_zero(table_1e6):
    rep = hl_error(Tuple.parse("0,1"), 10 ** 4, table_1e6)
    assert rep.hits == 1  # only n = 2
    assert rep.prediction == 0.0
    assert rep.abs_error == 1.0


def test_hl_error_lambda_psi_form(table_1e6):
    # k = 1 reduces to |psi(x) - x|
    x = 10 ** 4
    direct = abs(sum(_lambda_dict(x).values()) - x)
    got = hl_error(Tuple.parse("0"), x, table_1e6).lambda_form_error
    assert got == pytest.approx(direct, rel=1e-12)


def test_hl_error_lambda_pair_brute(table_1e6):
    x = 500
    lam = _lambda_dict(x + 2)
    direct = sum(lam.get(n, 0.0) * lam.get(n + 2, 0.0) for n in range(1, x + 1))
    sv = 1.320323631693739
    got = hl_error(Tuple.parse("0,2"), x, table_1e6).lambda_form_error
    assert got == pytest.approx(abs(direct - sv * x), rel=1e-10)


def test_hl_error_lambda_inadmissible_is_bare_sum(table_1e6):
    x = 1000
    lam = _lambda_dict(x + 1)
    direct = sum(lam.get(n, 0.0) * lam.get(n + 1, 0.0) for n in range(1, x + 1))
    got = hl_error(Tuple.parse("0,1"), x, table_1e6).lambda_form_error
    assert got == pytest.approx(direct, rel=1e-12)


def test_hl_sweep_matches_single(table_1e6):
    H = Tuple.parse("0,2")
    reps = hl_sweep(H, range(100, 201, 25), table_1e6)
    assert [r.x for r in reps] == [100, 125, 150, 175, 200]
    for rep in reps:
        single = hl_error(H, rep.x, table_1e6)
        assert rep.hits == single.hits
        assert rep.prediction == pytest.approx(single.prediction, rel=1e-9)
        assert rep.lambda_form_error == single.lambda_form_error


def test_hl_error_is_sweep_of_one(table_1e6):
    for text, x in (("0", 10 ** 5), ("0,2", 1000), ("0,1", 500), ("0,2,6,8,12,18,20", 10 ** 6)):
        H = Tuple.parse(text)
        assert hl_error(H, x, table_1e6) == hl_sweep(H, [x], table_1e6)[0]


def test_hl_pass_across_blocks(table_1e7, prime_flags):
    # a checkpoint past the first block, against oracles that share no code
    # with the pass: a dense AND of flag slices for the hits, and for the
    # Lambda sum one left-to-right cumsum over a dense Lambda array built
    # here, log n at primes and log p at trial-division prime powers
    H = Tuple.parse("0,2")
    x = _CHUNK + 12345
    rep = hl_error(H, x, table_1e7)
    flags = prime_flags[1 : x + 3]  # flag i for n = i + 1
    assert rep.hits == int(np.count_nonzero(flags[:x] & flags[2:]))
    lam = np.zeros(x + 2)
    at = np.flatnonzero(flags)
    lam[at] = np.log((at + 1).astype(np.float64))
    for p in range(2, math.isqrt(x + 2) + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            q = p * p
            while q <= x + 2:
                lam[q - 1] = math.log(p)
                q *= p
    s = float(np.cumsum(lam[:x] * lam[2:])[-1])
    assert rep.lambda_form_error == abs(s - singular_series(H, target_error=None).value * x)


@pytest.mark.parametrize("chunk", [7, 64])
def test_tuple_pass_block_edges(chunk, monkeypatch, prime_flags):
    # checkpoints on both sides of every block edge, and where some n + h_i
    # is a prime power p^j with j >= 2, a survivor that is no hit
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    table = sieve_range(0, 300)
    walked, odd_flags = [], table._odd_flags
    monkeypatch.setattr(table, "_odd_flags", lambda lo, hi: walked.append(lo) or odd_flags(lo, hi))
    lam = _lambda_dict(300)
    for offs in ((0, 1), (0, 2), (2, 3), (0, 2, 6)):
        xs = {e + s for e in range(chunk, 200, chunk) for s in (-1, 0, 1)}
        xs |= {v - t for v in (4, 8, 9, 25, 27, 32) for t in offs}
        xs = sorted(x for x in xs if 1 <= x <= 200)
        walked.clear()
        for x, (got_hits, got_sum) in zip(xs, tuple_counts(table, offs, xs), strict=True):
            ns = range(1, x + 1)
            assert got_hits == sum(all(prime_flags[n + t] for t in offs) for n in ns), (offs, x)
            want = sum(math.prod(lam.get(n + t, 0.0) for t in offs) for n in ns)
            assert got_sum == pytest.approx(want, rel=1e-12), (offs, x)
        assert len(walked) == -(-xs[-1] // chunk)  # one unpack per block, in blocks of chunk


def test_hl_memory_bounded_by_chunk(table_1e7):
    H = Tuple.parse("0,2")
    hl_error(H, 1000, table_1e7)  # the per-k singular-series tail outside the measurement
    peaks = []
    for x in (_CHUNK, 2 * _CHUNK):
        tracemalloc.start()
        try:
            hl_error(H, x, table_1e7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_hl_sweep_validation(table_1e6):
    with pytest.raises(ValueError):
        hl_sweep(Tuple.parse("0,2"), [100, 100], table_1e6)
    with pytest.raises(ValueError):
        hl_sweep(Tuple.parse("0,2"), [2, 100], table_1e6)
    assert hl_sweep(Tuple.parse("0,2"), [], table_1e6) == []


def test_hl_independent_of_segment_size(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 12)  # 2^13 integers: three segments
    a = hl_error(Tuple.parse("0,2,6"), 10 ** 4, sieve_range(0, 2 * 10 ** 4))
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 20)
    b = hl_error(Tuple.parse("0,2,6"), 10 ** 4, sieve_range(0, 2 * 10 ** 4))
    assert a == b


def test_hl_validation(table_1e6):
    with pytest.raises(ValueError):
        hl_error(Tuple.parse("0,2"), 2, table_1e6)
