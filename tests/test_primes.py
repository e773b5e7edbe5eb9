"""Sieve, window histogram, and tuple hit counting."""

import functools
import gc
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primetail
from primetail import (
    PrimalityTable,
    Tuple,
    count_tuple_hits,
    primes,
    sieve_range,
    singular_series,
    window_counts,
)
from primetail.errors import CoverageError, ResourceError
from primetail.primes import tuple_counts


def _trial_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _miller_rabin(n):
    """Deterministic primality for n < 3.3 * 10^24: strong probable prime to the bases 2..37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _words(flags):
    """Odd flags packed as a table file's words: little-endian bits, padded to whole 64-bit words."""
    padded = np.zeros(64 * -(-len(flags) // 64), dtype=bool)
    padded[: len(flags)] = flags
    return np.packbits(padded, bitorder="little").tobytes()


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
    assert (np.flatnonzero(t._odd_flags(0, 30)) * 2 + 1).tolist() == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert t.count() == 10
    assert [t.count(n, n) for n in range(4)] == [0, 0, 1, 1]


def test_pi_values(table_1e6):
    assert table_1e6.count(2, 10 ** 4) == 1229
    assert table_1e6.count(2, 10 ** 5) == 9592
    assert table_1e6.count(2, 10 ** 6) == 78498
    assert table_1e6.count(0, 10 ** 6) == 78498


def test_against_reference_sieve(table_1e6):
    limit = 10 ** 5
    ref = np.frombuffer(bytes(_odd_wheel_sieve(limit)), dtype=np.uint8).astype(bool)
    assert np.array_equal(table_1e6._odd_flags(0, limit), ref[1::2])
    assert table_1e6.count(0, limit) == int(ref.sum())


def test_random_windows_vs_trial_division(table_1e6):
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo = int(rng.integers(0, 10 ** 6 - 200))
        for n in range(lo, lo + 50):
            assert table_1e6.count(n, n) == _trial_is_prime(n)


def test_offset_base_table():
    t = sieve_range(10 ** 6, 10 ** 6 + 100)
    odd = np.flatnonzero(t._odd_flags(t.base, t.limit)) * 2 + (t.base | 1)
    assert odd.tolist() == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    with pytest.raises(CoverageError):
        t.count(999999, 999999)


def test_segment_size_invariance(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 14)
    a = sieve_range(0, 10 ** 6 + 17)
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 21)
    b = sieve_range(0, 10 ** 6 + 17)
    assert Path(a.path).read_bytes() == Path(b.path).read_bytes()


@pytest.mark.parametrize("base", [0, 1, 2, 3, 5, 63, 64, 65, 127, 129, 1000, 1001, 10 ** 6 + 3])
def test_sieve_range_odd_and_unaligned_bases(monkeypatch, base):
    # 32 odd flags a segment span 64 integers, so 700 integers cross at least 10
    # segment edges; every word, padding bits past limit included, must match
    # the odd n's bits packed from trial division
    monkeypatch.setattr(primes, "_SEGMENT", 32)
    limit = base + 700
    t = sieve_range(base, limit)
    flags = np.array([_trial_is_prime(n) for n in range(base | 1, limit + 1, 2)])
    assert Path(t.path).read_bytes()[20:] == _words(flags)
    assert np.array_equal(t._odd_flags(base, limit), flags)
    assert t.count() == sum(_trial_is_prime(n) for n in range(base, limit + 1))


@pytest.mark.parametrize("base", [10 ** 12, 10 ** 14 + 7, 2 ** 46 + 1])
def test_sieve_range_large_base_matches_miller_rabin(base):
    # a sieving prime's first flag in a segment scales seg_lo mod p, never seg_lo itself,
    # which times (p + 1) / 2 would pass 2^63 at these bases
    t = sieve_range(base, base + 5000)
    want = [_miller_rabin(n) for n in range(base | 1, base + 5001, 2)]
    assert t._odd_flags(base, base + 5000).tolist() == want
    assert t.count() == sum(want)
    assert [n for n in range(2, 400) if _miller_rabin(n)] == [n for n in range(2, 400) if _trial_is_prime(n)]


@pytest.mark.parametrize("base, limit", [(0, 0), (0, 1), (2, 2), (0, 127), (0, 128), (1, 128),
                                         (0, 129), (3, 130), (64, 191), (10 ** 6 + 3, 10 ** 6 + 700)])
def test_table_words_hold_the_odd_n(base, limit):
    n_odd = sum(n % 2 for n in range(base, limit + 1))
    t = sieve_range(base, limit)
    assert os.path.getsize(t.path) == 20 + 8 * math.ceil(n_odd / 64)
    assert t.count() == sum(_trial_is_prime(n) for n in range(base, limit + 1))


def test_sieve_range_odd_base_matches_base_zero(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 1 << 12)  # dozens of segments
    limit = 3 * 10 ** 5 + 17
    ref = np.frombuffer(bytes(_odd_wheel_sieve(limit)), dtype=np.uint8).astype(bool)
    for base in (1, 3, 77, 10 ** 5 + 1):
        t = sieve_range(base, limit)
        assert np.array_equal(t._odd_flags(base, limit), ref[base | 1 :: 2]), base
        assert t.count() == int(ref[base:].sum()), base


@pytest.mark.parametrize("base", [0, 1, 2, 7])
def test_primes_every_parity_of_lo_and_hi(base):
    t = sieve_range(base, base + 90)
    trial = [_trial_is_prime(n) for n in range(base + 91)]
    for lo in range(base, base + 20):
        for hi in range(lo - 2, base + 91):  # hi < lo, both parities, lo <= 2 <= hi
            assert t.count(lo, hi) == sum(trial[n] for n in range(lo, hi + 1)), (lo, hi)
            if lo <= hi:
                assert t._odd_flags(lo, hi).tolist() == trial[lo | 1 : hi + 1 : 2], (lo, hi)


def test_primes_upto_bootstrap_and_segment_edges(monkeypatch):
    monkeypatch.setattr(primes, "_SEGMENT", 32)  # 32 odd flags span 64 integers
    trial = [n for n in range(600) if _trial_is_prime(n)]
    for n in range(600):
        assert primes.primes_upto(n).tolist() == [p for p in trial if p <= n], n


def test_primes_upto_returns_an_array_the_caller_owns():
    want = singular_series(Tuple.parse("0,2,6"))
    a = primes.primes_upto(100)
    a[1] = 4
    assert primes.primes_upto(10).tolist() == [2, 3, 5, 7]
    assert singular_series(Tuple.parse("0,2,6")) == want


def test_primes_upto_pi_values():
    assert len(primes.primes_upto(10 ** 6)) == 78498
    assert len(primes.primes_upto(10 ** 7)) == 664579


def test_primes_upto_memory_bounded():
    # segments of flags are freed as they go; the peak is the output and its concatenation
    tracemalloc.start()
    try:
        out = primes.primes_upto(10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes


def test_primes_upto_refuses_past_budget_before_sieving(no_sieve):
    n = primes._PRIME_BUDGET + 1
    with pytest.raises(ResourceError, match=f"primes up to {n} exceed the prime budget"):
        primes.primes_upto(n)


def test_primes_upto_at_the_budget_edge(monkeypatch):
    monkeypatch.setattr(primes, "_PRIME_BUDGET", 1000)
    assert primes.primes_upto(1000).tolist() == [n for n in range(1001) if _trial_is_prime(n)]
    with pytest.raises(ResourceError):
        primes.primes_upto(1001)


def test_count_matches_enumeration(table_1e6, prime_flags):
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = int(rng.integers(0, 10 ** 6))
        hi = int(rng.integers(lo, min(lo + 10 ** 4, 10 ** 6)))
        assert table_1e6.count(lo, hi) == int(prime_flags[lo : hi + 1].sum())


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


def test_sieve_range_file_lives_with_its_table(tmp_path, monkeypatch):
    # the table's temporary file exists while the table does; a refused range or a
    # failed sieve leaves none
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    t = sieve_range(0, 1000)
    path = Path(t.path)
    assert path.parent == tmp_path and path.exists()
    assert t.count() == 168
    del t
    gc.collect()
    assert not path.exists()
    with pytest.raises(ValueError, match="invalid range"):
        sieve_range(5, 3)
    assert list(tmp_path.iterdir()) == []

    def fail(*args):
        raise RuntimeError("sieve failed")

    monkeypatch.setattr(primes, "_segments", fail)
    with pytest.raises(RuntimeError, match="sieve failed"):
        sieve_range(0, 1000)
    assert list(tmp_path.iterdir()) == []


def test_save_load_roundtrip(tmp_path):
    t = sieve_range(10, 5000)
    path = tmp_path / "t.pkt"
    t.save(path)
    u = PrimalityTable.load(path)
    assert (u.base, u.limit) == (10, 5000)
    flags = [_trial_is_prime(n) for n in range(11, 5001, 2)]
    assert u._odd_flags(10, 5000).tolist() == flags
    raw = path.read_bytes()
    assert raw == Path(t.path).read_bytes()
    assert raw[20:] == _words(flags)
    assert raw[:4] == b"PKT2"
    assert struct.unpack("<QQ", raw[4:20]) == (10, 5000)
    assert len(raw) == 20 + 8 * math.ceil(2495 / 64)  # the 2495 odd n in [11, 4999]
    # bit j of word w flags the odd n = (base | 1) + 2 (64w + j)
    w, j = divmod((1009 - 11) // 2, 64)
    word = struct.unpack_from("<Q", raw, 20 + 8 * w)[0]
    assert (word >> j) & 1 == 1
    assert u.count(1009, 1009) == 1


def test_load_memory_within_table_bytes(tmp_path, table_1e7, prime_flags):
    path = tmp_path / "t.pkt"
    table_1e7.save(path)
    tracemalloc.start()
    try:
        u = PrimalityTable.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # load checks the header and the size; the 625 kB of words stay on disk
    assert peak < 1 << 14, peak
    assert u.count() == int(prime_flags.sum())


def test_loaded_table_saves_a_copy(tmp_path, monkeypatch, table_1e7):
    # saving copies the table's file: the copy is the file byte for byte, costs far less
    # memory than its 625 kB of words, and saving onto its own file keeps it
    p, q = tmp_path / "p.pkt", tmp_path / "q.pkt"
    table_1e7.save(p)
    u = PrimalityTable.load(p)
    tracemalloc.start()
    try:
        u.save(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18, peak
    assert q.read_bytes() == p.read_bytes()
    u.save(p)
    assert p.read_bytes() == q.read_bytes()
    # a file written in 4-byte pieces, which end inside words
    monkeypatch.setattr(primes, "_SEGMENT", 32)
    small = sieve_range(10, 5000)
    small.save(p)
    PrimalityTable.load(p).save(q)
    assert q.read_bytes() == p.read_bytes()


def test_isin_sorted_matches_isin():
    # the tuple pass's membership test against np.isin, the reference it stands in for
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 300):
        s = np.unique(rng.integers(0, 1000, n))
        v = rng.integers(-5, 1005, (40, 3))
        assert np.array_equal(primes._isin_sorted(v, s), np.isin(v, s))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pkt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        PrimalityTable.load(path)


def test_load_rejects_header_range(tmp_path):
    # the header is input from outside: a limit below base is refused, not read as an empty table
    path = tmp_path / "bad.pkt"
    path.write_bytes(b"PKT2" + struct.pack("<QQ", 10, 5))
    with pytest.raises(ValueError, match="invalid range"):
        PrimalityTable.load(path)


@pytest.mark.parametrize("chunk", [100, 977])
@pytest.mark.parametrize("base", [0, 10, 11, 1000003])
def test_loaded_table_reads_as_sieved(tmp_path, monkeypatch, base, chunk):
    # blocks of 100 or 977 n, and count's pieces of as many n, end inside words and bytes;
    # the passes need a table from base <= 1, the tuple pass also one past base with
    # offsets from base - 1 on. The file table reads as Miller-Rabin and as the passes
    # streamed off the sieve
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    primes.save_sieve(base, base + 5000, tmp_path / "t.pkt")
    u = PrimalityTable.load(tmp_path / "t.pkt")
    mr = [_miller_rabin(n) for n in range(base, base + 5001)]  # mr[i] for n = base + i
    edges = [base, base + 1, base + 2, base + 63, base + 128, base + 2013, base + 4999, base + 5000]
    for lo in edges:
        for hi in edges:
            assert u.count(lo, hi) == sum(mr[lo - base : hi - base + 1]), (lo, hi)
            if lo <= hi:
                assert u._odd_flags(lo, hi).tolist() == mr[(lo | 1) - base : hi - base + 1 : 2], (lo, hi)
    assert u.count() == sum(mr)
    ns = [*range(base, base + 300), *edges]
    assert [u.count(n, n) for n in ns] == [mr[n - base] for n in ns]
    xs = [1, chunk - 1, chunk, chunk + 1, 3 * chunk, 4000]
    for offs in ((0, 2), (0, 2, 6), (1, 2), (0, 150)):
        offs = [base - 1 + o for o in offs] if base else offs
        assert list(tuple_counts(u, offs, xs)) == list(tuple_counts(None, offs, xs)), offs
    if base <= 1:
        for h in (1, 2.7, 63.9):
            assert window_counts(u, 4000, h) == window_counts(None, 4000, h), h


def test_saved_table_memory_bounded_by_chunk(tmp_path):
    # the file is written a segment at a time and read a block at a time: neither side
    # holds the table's x/16 bytes, 4 MB at 6.4e7
    window_counts(None, 1000, 18.4)  # warm up outside the measurement
    peaks = []
    for x in (4 * 10 ** 6, 64 * 10 ** 6):  # both past a whole segment
        path = tmp_path / f"{x}.pkt"
        tracemalloc.start()
        try:
            primes.save_sieve(0, x + 64, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            count_tuple_hits(PrimalityTable.load(path), (0, 2), x)
            hits = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            window_counts(PrimalityTable.load(path), x, 18.4)
            peaks.append((saved, hits, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    for small, large in zip(*peaks):
        assert large - small < 1 << 20, peaks


def test_changed_table_file_refused(tmp_path):
    # the words stay on disk after load: a file cut short since then is refused by name,
    # never read as short flags
    path = tmp_path / "t.pkt"
    sieve_range(0, 10 ** 5 + 64).save(path)
    for cut in (20, 4000, path.stat().st_size - 8):
        u = PrimalityTable.load(path)
        data = path.read_bytes()
        path.write_bytes(data[:cut])
        changed = re.escape(f"table file {path} changed after it was loaded")
        with pytest.raises(ValueError, match=changed):
            count_tuple_hits(u, (0, 2), 10 ** 5)
        with pytest.raises(ValueError, match=changed):
            window_counts(u, 10 ** 5, 18.4)
        path.write_bytes(data)


@pytest.mark.parametrize("base, limit", [(0, 2), (0, 1000), (0, 64 * 9 + 1), (0, 10 ** 4 + 64),
                                         (10, 5000), (11, 5000), (1000003, 1006000)])
def test_save_sieve_writes_the_saved_table(tmp_path, monkeypatch, base, limit):
    # segments of 32 odd flags pack into 4 bytes, half a word: the file is laid end to end
    # from segments that end inside words, then padded to whole words
    monkeypatch.setattr(primes, "_SEGMENT", 32)
    path = tmp_path / "table.pkt"
    assert primes.save_sieve(base, limit, path) == sum(_trial_is_prime(n) for n in range(base, limit + 1))
    flags = [_trial_is_prime(n) for n in range(base | 1, limit + 1, 2)]
    assert path.read_bytes() == b"PKT2" + struct.pack("<QQ", base, limit) + _words(flags)


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


def test_window_counts_brute_force(table_1e6, prime_flags):
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = int(rng.integers(50, 1500))
        h = float(rng.uniform(0.2, 30.0))
        hist = window_counts(table_1e6, x, h)
        assert sum(hist.counts.values()) == x
        m = int(h)
        brute = {}
        for n in range(1, x + 1):
            c = int(prime_flags[n + 1 : n + m + 1].sum())
            brute[c] = brute.get(c, 0) + 1
        assert hist.counts == brute


def test_window_counts_sieves_its_own_range(table_1e6):
    # a None table is sieved over [0, x + ceil(h)], the range the pass needs
    assert window_counts(None, 10 ** 6, 13.8) == window_counts(table_1e6, 10 ** 6, 13.8)


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
    flags = [_trial_is_prime(n) for n in range(t.limit + 1)]
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    for h in (0.5, 1, 2.7, 63.9, 200.0):
        m = int(h)
        for x in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 5 * chunk - 2):
            brute = {}
            for n in range(1, x + 1):
                c = sum(flags[n + 1 : n + m + 1])
                brute[c] = brute.get(c, 0) + 1
            assert window_counts(t, x, h).counts == brute, (h, x)


def test_window_counts_large_x_moments(table_1e7, prime_flags):
    # sum_c c N_c counts each prime p once per n in [max(1, p - m), min(x, p - 1)];
    # sum_c c(c-1) N_c counts each pair p < q with q - p < m twice per n in
    # [max(1, q - m), min(x, p - 1)]
    x = 10 ** 7
    h = math.log(x)
    m = int(h)
    ps = np.flatnonzero(prime_flags[: x + m + 1])
    first = np.clip(np.minimum(x, ps - 1) - np.maximum(1, ps - m) + 1, 0, None).sum()
    second = 0
    for j in range(1, m):
        p, q = ps[:-j], ps[j:]
        span = np.minimum(x, p - 1) - np.maximum(1, q - m) + 1
        second += 2 * int(span[(q - p < m) & (span > 0)].sum())
    counts = window_counts(table_1e7, x, h).counts
    assert sum(c * n for c, n in counts.items()) == int(first)
    assert sum(c * (c - 1) * n for c, n in counts.items()) == second


@pytest.mark.parametrize("chunk, blocks", [(primes._CHUNK, 2), (1 << 18, 8)])
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


@pytest.mark.parametrize("segment, chunk", [(32, 7), (32, 100), (1 << 12, 977)])
def test_stream_matches_table(monkeypatch, segment, chunk):
    # with no table both passes read their blocks off _segments. 32 odd flags span 64
    # integers, so h = 200 and the offset 150 reach past a whole segment, and so does a
    # block of 100; x falls on both sides of every block edge
    t = sieve_range(0, 3 * 977 + 400)
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    xs = sorted({1} | {e + s for e in (chunk, 2 * chunk, 3 * chunk) for s in (-1, 0, 1)})
    for h in (0.5, 1, 1.9, 2.7, 63.9, 200.0):
        for x in xs:
            assert window_counts(None, x, h) == window_counts(t, x, h), (h, x)
    for offs in ((0,), (1,), (0, 1), (1, 2), (0, 2), (0, 2, 6), (0, 1, 3), (3, 5, 11), (0, 150)):
        assert list(tuple_counts(None, offs, xs)) == list(tuple_counts(t, offs, xs)), offs


@functools.cache
def _trial_window_counts(x, h):
    """The window histogram from prefix sums of trial-division primality: c(n) = pi(n + m) - pi(n)."""
    m = int(h)
    pi = np.cumsum([0] + [_trial_is_prime(n) for n in range(1, x + m + 1)])
    c, n = np.unique(pi[m + 1 : x + m + 1] - pi[1 : x + 1], return_counts=True)
    return dict(zip(c.tolist(), n.tolist()))


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that window_counts splits its blocks over."""
    return lambda k: monkeypatch.setattr(primes, "_usable_cpus", lambda: k)


@pytest.mark.parametrize("source", ["stream", "sieved", "loaded0", "loaded1"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_window_counts_spans_match_trial_division(tmp_path, monkeypatch, cpus, k, source):
    # blocks of 64 n, or of 5 n so that every other block starts at an even n, over 32-flag
    # segments; x = 321 makes six or 65 blocks, so five CPUs get five spans, and x falls on
    # both sides of the first and third block edges. h < 1 gives m = 0; 17.3 and 63.9 give
    # odd m, whose even n see one odd flag more than their odd n; 600 sums 300 flags, past uint8
    monkeypatch.setattr(primes, "_SEGMENT", 32)
    cpus(k)
    table = None
    if source != "stream":
        table = sieve_range(int(source == "loaded1"), 321 + 600)
    if source.startswith("loaded"):
        table.save(tmp_path / "t.pkt")
        table = PrimalityTable.load(tmp_path / "t.pkt")
    for chunk in (64, 5):
        monkeypatch.setattr(primes, "_CHUNK", chunk)
        for h in (0.5, 0.9, 1.9, 17.3, 18.4, 63.9, 200.0, 600.0):
            for x in (1, chunk - 1, chunk, chunk + 1, 3 * chunk - 1, 3 * chunk, 3 * chunk + 1, 321):
                assert window_counts(table, x, h).counts == _trial_window_counts(x, h), (chunk, h, x)


def test_window_counts_forks_only_past_one_block_and_one_cpu(monkeypatch, cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(primes, "_CHUNK", 64)
    cpus(4)
    assert window_counts(None, 64, 18.4).counts == _trial_window_counts(64, 18.4)
    cpus(1)
    assert window_counts(None, 321, 18.4).counts == _trial_window_counts(321, 18.4)
    cpus(2)
    with pytest.raises(AssertionError, match="forked"):
        window_counts(None, 65, 18.4)


def test_window_stream_memory_bounded_by_chunk():
    # no table of x/16 bytes: the stream holds about a segment and a block at any x
    window_counts(None, 1000, 18.4)  # warm up outside the measurement
    peaks = []
    for x in (4 * 10 ** 6, 16 * 10 ** 6, 64 * 10 ** 6):
        tracemalloc.start()
        try:
            window_counts(None, x, 18.4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) < 1 << 20, peaks


def test_window_stream_page_faults_bounded_by_chunk():
    # the pass makes its arrays once per span and sieves every segment into one buffer, so
    # eight times the blocks fault in no more pages than the first pass did; arrays made
    # afresh per segment and block faulted about 1200 pages more, at a rate set by glibc's
    # mmap and trim thresholds. In a fresh process, on one CPU so every block runs here,
    # after one warm-up pass
    src = str(Path(primetail.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import resource\n"
        "from primetail import primes\n"
        "primes._usable_cpus = lambda: 1\n"
        "primes.window_counts(None, 1000, 18.4)\n"
        "faults = []\n"
        "for x in (4 * 10 ** 6, 32 * 10 ** 6):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    primes.window_counts(None, x, 18.4)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[1] - faults[0])\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 256


@pytest.mark.parametrize("chunk", [977, primes._CHUNK])
def test_window_counts_base_one_matches_base_zero(monkeypatch, chunk):
    monkeypatch.setattr(primes, "_CHUNK", chunk)
    t0, t1 = sieve_range(0, 30000), sieve_range(1, 30000)
    for x, h in ((1, 1), (977, 2.5), (20000, 13.2), (29000, 1000.0)):
        assert window_counts(t1, x, h) == window_counts(t0, x, h), (x, h)


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


def test_count_tuple_hits_brute_force(table_1e6, prime_flags, monkeypatch):
    offs = (0, 4, 6)
    x = 2000
    brute = sum(1 for n in range(1, x + 1) if all(prime_flags[n + t] for t in offs))
    assert count_tuple_hits(table_1e6, offs, x) == brute
    monkeypatch.setattr(primes, "_CHUNK", 313)
    assert count_tuple_hits(table_1e6, offs, x) == brute


def test_count_tuple_hits_coverage(table_1e6):
    with pytest.raises(CoverageError):
        count_tuple_hits(table_1e6, (0, 2), 10 ** 7)
