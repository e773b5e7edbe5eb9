"""Sieve, window histogram, and tuple hit counting."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primetail import PrimalityTable, count_tuple_hits, primes, sieve_range, window_counts
from primetail.errors import CoverageError


def _trial_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _odd_wheel_sieve(limit):
    """Independent reference: sieve odd composites only, via bytearray."""
    flags = bytearray([0]) * (limit + 1)
    if limit >= 2:
        flags[2] = 1
    for n in range(3, limit + 1, 2):
        flags[n] = 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            for q in range(p * p, limit + 1, 2 * p):
                flags[q] = 0
    return flags


def test_small_primes():
    t = sieve_range(0, 30)
    assert t.primes().tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert t.primes().dtype == np.int64
    assert not t.is_prime(0)
    assert not t.is_prime(1)
    assert t.is_prime(2)


def test_pi_values(table_1e6):
    assert table_1e6.count(2, 10 ** 4) == 1229
    assert table_1e6.count(2, 10 ** 5) == 9592
    assert table_1e6.count(2, 10 ** 6) == 78498
    assert table_1e6.count(0, 10 ** 6) == 78498


def test_against_reference_sieve(table_1e6):
    limit = 10 ** 5
    ref = _odd_wheel_sieve(limit)
    got = table_1e6.bools(0, limit)
    assert np.array_equal(got, np.frombuffer(bytes(ref), dtype=np.uint8).astype(bool))


def test_random_windows_vs_trial_division(table_1e6):
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo = int(rng.integers(0, 10 ** 6 - 200))
        for n in range(lo, lo + 50):
            assert table_1e6.is_prime(n) == _trial_is_prime(n)


def test_offset_base_table():
    t = sieve_range(10 ** 6, 10 ** 6 + 100)
    assert t.primes().tolist() == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    with pytest.raises(CoverageError):
        t.is_prime(999999)


def test_segment_size_invariance(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 14)
    a = sieve_range(0, 10 ** 6 + 17)
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 21)
    b = sieve_range(0, 10 ** 6 + 17)
    assert np.array_equal(a.words, b.words)


def _empty_prime_cache(monkeypatch):
    # monkeypatch puts the shared cache back at teardown
    monkeypatch.setattr(primes, "_primes", np.zeros(0, dtype=np.int64))
    monkeypatch.setattr(primes, "_cap", 1)


def test_primes_upto_bootstrap_and_segment_edges(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 64)
    trial = [n for n in range(600) if _trial_is_prime(n)]
    for n in range(600):
        _empty_prime_cache(monkeypatch)
        assert primes.primes_upto(n).tolist() == [p for p in trial if p <= n], n
    # one growth from a non-empty cache: (100, 300] crosses segment edges at 165, 229, 293
    _empty_prime_cache(monkeypatch)
    primes.primes_upto(100)
    assert primes._cap == 100
    assert primes.primes_upto(300).tolist() == [p for p in trial if p <= 300]
    assert primes._cap == 300


def test_primes_upto_pi_values():
    assert len(primes.primes_upto(10 ** 6)) == 78498
    assert len(primes.primes_upto(10 ** 7)) == 664579


def test_primes_upto_memory_bounded(monkeypatch):
    # segments of flags are freed as they go; the peak is the output and its concatenation
    _empty_prime_cache(monkeypatch)
    tracemalloc.start()
    try:
        out = primes.primes_upto(10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes


def test_count_matches_enumeration(table_1e6):
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = int(rng.integers(0, 10 ** 6))
        hi = int(rng.integers(lo, min(lo + 10 ** 4, 10 ** 6)))
        assert table_1e6.count(lo, hi) == len(table_1e6.primes(lo, hi))


_small = sieve_range(0, 3100)


@settings(max_examples=200)
@given(st.integers(0, 3000), st.integers(0, 3000))
def test_count_additive(a, b):
    lo, hi = sorted((a, b))
    mid = (lo + hi) // 2
    assert _small.count(lo, hi) == _small.count(lo, mid) + _small.count(mid + 1, hi)


def test_invalid_ranges():
    with pytest.raises(ValueError):
        sieve_range(10, 5)
    with pytest.raises(ValueError):
        sieve_range(-1, 10)


def test_save_load_roundtrip(tmp_path):
    t = sieve_range(10, 5000)
    path = tmp_path / "t.pkt"
    t.save(path)
    u = PrimalityTable.load(path)
    assert (u.base, u.limit) == (10, 5000)
    assert np.array_equal(u.words, t.words)
    raw = path.read_bytes()
    assert raw[:4] == b"PKT1"
    assert struct.unpack("<QQ", raw[4:20]) == (10, 5000)
    # bit j of word w flags base + 64w + j
    w, j = divmod(1009 - 10, 64)
    word = struct.unpack_from("<Q", raw, 20 + 8 * w)[0]
    assert (word >> j) & 1 == 1
    assert u.is_prime(1009)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pkt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        PrimalityTable.load(path)


def test_window_counts_example():
    t = sieve_range(0, 16)
    hist = window_counts(t, 10, 2)
    assert hist.counts == {0: 2, 1: 7, 2: 1}
    assert hist.x == 10 and hist.h == 2.0


def test_window_counts_fractional_h():
    t = sieve_range(0, 16)
    assert window_counts(t, 5, 0.5).counts == {0: 5}
    # integer-anchored windows only see floor(h) integers
    assert window_counts(t, 10, 2.7).counts == window_counts(t, 10, 2).counts


def test_window_counts_brute_force(table_1e6):
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = int(rng.integers(50, 1500))
        h = float(rng.uniform(0.2, 30.0))
        hist = window_counts(table_1e6, x, h)
        assert sum(hist.counts.values()) == x
        m = int(h)
        brute = {}
        for n in range(1, x + 1):
            c = sum(1 for t in range(n + 1, n + m + 1) if table_1e6.is_prime(t))
            brute[c] = brute.get(c, 0) + 1
        assert hist.counts == brute


def test_window_counts_chunk_invariance(table_1e6, monkeypatch):
    b = window_counts(table_1e6, 40000, 13.2)
    monkeypatch.setattr(primes, "_CHUNK", 977)
    a = window_counts(table_1e6, 40000, 13.2)
    assert a == b


@pytest.mark.parametrize("chunk", [7, 64])
def test_window_counts_block_edges(monkeypatch, chunk):
    # h = 0.5 gives m = 0 and h = 200 gives m > chunk; x falls on both sides of
    # a block edge, on one, and between edges
    t = sieve_range(0, 5 * 64 + 201)
    flags = [t.is_prime(n) for n in range(t.limit + 1)]
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    for h in (0.5, 1, 2.7, 63.9, 200.0):
        m = int(h)
        for x in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 5 * chunk - 2):
            brute = {}
            for n in range(1, x + 1):
                c = sum(flags[n + 1 : n + m + 1])
                brute[c] = brute.get(c, 0) + 1
            assert window_counts(t, x, h).counts == brute, (h, x)


def test_window_counts_large_x_moments(table_1e7):
    # sum_c c N_c counts each prime p once per n in [max(1, p - m), min(x, p - 1)];
    # sum_c c(c-1) N_c counts each pair p < q with q - p < m twice per n in
    # [max(1, q - m), min(x, p - 1)]
    x = 10 ** 7
    h = math.log(x)
    m = int(h)
    ps = table_1e7.primes(2, x + m)
    first = np.clip(np.minimum(x, ps - 1) - np.maximum(1, ps - m) + 1, 0, None).sum()
    second = 0
    for j in range(1, m):
        p, q = ps[:-j], ps[j:]
        span = np.minimum(x, p - 1) - np.maximum(1, q - m) + 1
        second += 2 * int(span[(q - p < m) & (span > 0)].sum())
    counts = window_counts(table_1e7, x, h).counts
    assert sum(c * n for c, n in counts.items()) == int(first)
    assert sum(c * (c - 1) * n for c, n in counts.items()) == second


@pytest.mark.parametrize("chunk, blocks", [(primes._CHUNK, 2), (1 << 20, 8)])
def test_window_counts_memory_bounded_by_chunk(table_1e7, monkeypatch, chunk, blocks):
    # eight small blocks expose a per-block leak that two default ones would hide
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    h = math.log(blocks * chunk)
    window_counts(table_1e7, 1000, h)  # warm up outside the measurement
    peaks = []
    for x in (chunk, blocks * chunk):
        tracemalloc.start()
        try:
            window_counts(table_1e7, x, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_window_counts_validation(table_1e6):
    with pytest.raises(ValueError):
        window_counts(table_1e6, 0, 5.0)
    with pytest.raises(ValueError):
        window_counts(table_1e6, 100, 0.0)
    with pytest.raises(ValueError):
        window_counts(table_1e6, 100, -2.0)


def test_window_counts_coverage_error_names_limit():
    t = sieve_range(0, 105)
    with pytest.raises(CoverageError) as ei:
        window_counts(t, 100, 10)
    assert ei.value.required_hi == 110
    assert "110" in str(ei.value)


def test_max_window_count_is_bounded(table_1e6):
    hist = window_counts(table_1e6, 10 ** 4, 12.0)
    assert max(hist.counts) <= 12


def test_count_tuple_hits_examples(table_1e6):
    assert count_tuple_hits(table_1e6, (0, 2), 100) == 8
    assert count_tuple_hits(table_1e6, (0, 1), 10 ** 4) == 1
    assert count_tuple_hits(table_1e6, (0,), 100) == 25
    assert count_tuple_hits(table_1e6, (), 100) == 100


def test_count_tuple_hits_order_and_dupes(table_1e6):
    base = count_tuple_hits(table_1e6, (0, 2, 6), 5000)
    assert count_tuple_hits(table_1e6, [6, 0, 2], 5000) == base
    assert count_tuple_hits(table_1e6, [2, 0, 6, 2], 5000) == base


def test_count_tuple_hits_monotone_in_x(table_1e6):
    a = count_tuple_hits(table_1e6, (0, 2), 10 ** 4)
    b = count_tuple_hits(table_1e6, (0, 2), 10 ** 5)
    assert a <= b


def test_count_tuple_hits_brute_force(table_1e6, monkeypatch):
    offs = (0, 4, 6)
    x = 2000
    brute = sum(1 for n in range(1, x + 1) if all(table_1e6.is_prime(n + t) for t in offs))
    assert count_tuple_hits(table_1e6, offs, x) == brute
    monkeypatch.setattr(primes, "_CHUNK", 313)
    assert count_tuple_hits(table_1e6, offs, x) == brute


def test_count_tuple_hits_coverage(table_1e6):
    with pytest.raises(CoverageError):
        count_tuple_hits(table_1e6, (0, 2), 10 ** 7)
