"""Segmented sieve, the bit-packed table that caches it, and counting passes.

The table stores one bit per odd integer, 64 per little-endian word, so the
range to 10^8 fits in ~6 MB, and a table is its file. One writer, save_sieve,
packs the sieve's segments into the file a segment at a time; one reader,
PrimalityTable._odd_flags, unpacks the odd flags of a range from the bytes it
covers, and every query is read off it, adding 2. Window counts and the one
tuple pass (hits and Lambda sums) read the odd flags of one chunk of n at a
time: unpacked from a table, or with no table sieved as the chunks advance,
so the memory of each process is bounded by the chunk and segment sizes, not
by x, and a table is only a saved sieve. Past the flags, a chunk of window
counts costs a few doubling adds, whose sliding sums of odd flags are its
c(n), and one count of the sums >= k per level k, in buffers made per span.
The window pass splits its chunks into one span per usable CPU, counts each
span in its own forked process (_on_cpus, the package's one fork) and sums
the integer counts; the tuple pass keeps one process, since its Lambda sums
are floats added left to right.
Every list of small primes in the package (sieving primes, factoring, local
factors, sieve weights) comes from primes_upto, which sieves afresh on each
call. One segmented Eratosthenes pass over odd n, _segments, makes those
lists, feeds the streaming passes and fills the tables; each segment starts
from a copy of the odd flags presieved by 3, 5, 7, 11 and 13 (Pritchard's
wheel), and the larger primes cross out the rest.
"""

import contextlib
import math
import os
import pickle
import shutil
import signal
import struct
import tempfile
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, ResourceError

_MAGIC = b"PKT2"
_SEGMENT = 1 << 20  # odd-n flags per sieve segment; a multiple of 8, so each packs into whole bytes
_CHUNK = 1 << 20  # n per block of the streaming passes; the window pass sizes its buffers by it
_PRIME_BUDGET = 10 ** 8  # primes_upto refuses n above it
_WHEEL = (3, 5, 7, 11, 13)  # presieved: each segment starts from a copy of their pattern
_PERIOD = 15015  # odd flags per period of that pattern, 3 * 5 * 7 * 11 * 13


def _wheel_pattern():
    """Two periods of the odd flags with the multiples of _WHEEL crossed out, flag j for n = 2j + 1."""
    flags = np.ones(2 * _PERIOD, dtype=bool)
    for p in _WHEEL:
        flags[p >> 1 :: p] = False
    return flags


_PATTERN = _wheel_pattern()


def check_prime_budget(n):
    """Raise ResourceError if primes up to n exceed _PRIME_BUDGET; primes_upto and the CLI call it."""
    if n > _PRIME_BUDGET:
        raise ResourceError(f"primes up to {n} exceed the prime budget {_PRIME_BUDGET}")


def _segments(lo, hi):
    """Yield (even seg_lo, flags), flag i for the odd n = seg_lo + 2i + 1 in [lo, hi]; each overwrites the last."""
    ps = primes_upto(math.isqrt(hi))[1 + len(_WHEEL) :]  # past 2 and the wheel
    half, square, plist = (ps + 1) >> 1, (ps * ps) >> 1, ps.tolist()
    buf = np.empty(min(_SEGMENT, max(hi + 1 - (lo & ~1), 0) // 2), dtype=bool)
    for seg_lo in range(lo & ~1, hi + 1, 2 * _SEGMENT):
        n = (min(seg_lo + 2 * _SEGMENT - 1, hi) - seg_lo + 1) // 2
        j = (seg_lo >> 1) % _PERIOD
        seg, r = buf[:n], n % _PERIOD
        seg[: n - r].reshape(-1, _PERIOD)[:] = _PATTERN[j : j + _PERIOD]
        seg[n - r :] = _PATTERN[j : j + r]
        if seg_lo < _WHEEL[-1]:  # the pattern crossed out the wheel primes themselves
            seg[[(p - seg_lo) >> 1 for p in _WHEEL if seg_lo < p < seg_lo + 2 * n]] = True
        if seg_lo == 0:
            seg[:1] = False  # 1 is not prime
        # flag i is p's multiple when 2i = -(seg_lo + 1) mod p, and (p + 1) / 2 inverts 2; the
        # residue comes first so no product outgrows int64. Flag square - seg_lo / 2 is p^2,
        # the first multiple p crosses out, so p itself stays
        starts = np.maximum((-(seg_lo + 1) % ps) * half % ps, square - (seg_lo >> 1)).tolist()
        for p, s in zip(plist, starts):
            seg[s::p] = False
        yield seg_lo, seg


def primes_upto(n):
    """Sorted int64 array of the primes <= n, sieved afresh by _segments; the caller owns it.

    An n above _PRIME_BUDGET raises ResourceError before any sieving.
    """
    check_prime_budget(n)
    if n < 9:  # no odd prime sieves below 9: the base case of _segments' recursion
        return np.array([p for p in (2, 3, 5, 7) if p <= n], dtype=np.int64)
    found = [np.flatnonzero(seg) * 2 + (seg_lo + 1) for seg_lo, seg in _segments(0, n)]
    return np.concatenate([[2], *found])


def _n_words(base, limit):
    """Words holding one bit per odd n in [base, limit]."""
    return max((limit + 1) // 2 - base // 2 + 63, 0) // 64


def _check_range(base, limit):
    if base < 0 or limit < base:
        raise ValueError(f"invalid range [{base}, {limit}]")


class PrimalityTable:
    """Primality of every integer in [base, limit], read from the file save_sieve writes.

    The file holds the magic "PKT2", base and limit as 8-byte LE, then the words: bit j
    of word w flags the odd n = (base | 1) + 2 (64w + j), so bit n // 2 - base // 2 flags
    an odd n; the bit of 1 and padding bits past limit are 0. Even n are not stored:
    queries add 2. Words are little-endian uint64. Only load makes a table, and only
    _odd_flags reads its words, through _bytes, which reads the bytes each query covers
    from the file, so the file must stay in place while the table is used.
    """

    def __init__(self, base, limit, path):
        self.base = base
        self.limit = limit
        self.path = path
        self._buf = np.empty(0, dtype=np.uint8)  # each read lands here, reused

    # -- persistence ----------------------------------------------------

    def save(self, path):
        """Copy the table's file to path, in constant memory; saving onto that file keeps it."""
        with contextlib.suppress(shutil.SameFileError):
            shutil.copyfile(self.path, path)

    @classmethod
    def load(cls, path):
        """Check the file's magic, range and size; its words stay on disk until a query reads them."""
        with open(path, "rb") as f:
            head = f.read(20)
            if head[:4] != _MAGIC:
                raise ValueError(f"not a {_MAGIC.decode()} table (magic {head[:4]!r}); remake it with sieve-cache")
            size, want = f.seek(0, 2), 20
            if len(head) == want:
                base, limit = struct.unpack_from("<QQ", head, 4)
                _check_range(base, limit)
                want += 8 * _n_words(base, limit)
            if size != want:
                raise ValueError(f"table file {path} is {size} bytes, expected {want}")
        return cls(base, limit, path)

    def _bytes(self, i0, i1):
        """Bytes i0..i1-1 of the packed words as uint8, valid until the next read."""
        if len(self._buf) < i1 - i0:
            self._buf = np.empty(i1 - i0, dtype=np.uint8)
        out = self._buf[: i1 - i0]
        with open(self.path, "rb") as f:
            f.seek(20 + i0)
            got = f.readinto(out)
        if got != len(out):
            raise ValueError(f"table file {self.path} changed after it was loaded: "
                             f"read {got} of {len(out)} bytes at offset {20 + i0}")
        return out

    # -- queries ----------------------------------------------------------

    def require_cover(self, lo, hi):
        if lo < self.base or hi > self.limit:
            raise CoverageError(lo, hi, self.base, self.limit)

    def _odd_flags(self, lo, hi):
        """Flags of the odd n in [lo, hi] as bools, flag i for (lo | 1) + 2i."""
        j0, j1 = lo // 2 - self.base // 2, (hi + 1) // 2 - self.base // 2
        bits = np.unpackbits(self._bytes(j0 >> 3, ((j1 - 1) >> 3) + 1), bitorder="little")
        return bits[j0 & 7 : (j0 & 7) + j1 - j0].view(np.bool_)

    def count(self, lo=None, hi=None):
        """Number of primes in [lo, hi]: the odd flags counted a _CHUNK of n at a time, plus 2."""
        lo = self.base if lo is None else lo
        hi = self.limit if hi is None else hi
        if hi < lo:
            return 0
        self.require_cover(lo, hi)
        pieces = (self._odd_flags(a, min(a + _CHUNK - 1, hi)) for a in range(lo, hi + 1, _CHUNK))
        return int(lo <= 2 <= hi) + sum(int(np.count_nonzero(f)) for f in pieces)


def save_sieve(base, limit, path):
    """Sieve [base, limit] into the table file at path that PrimalityTable.load reads.

    Each segment's flags are packed into bytes, since a segment holds whole bytes
    of flags, and written as they are sieved, then the zero bytes that pad the last
    word, so memory holds one segment whatever the limit. Returns the number of
    primes in [base, limit], counted off the packed bytes, plus one for 2.
    """
    _check_range(base, limit)
    found, size = int(base <= 2 <= limit), 0
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<QQ", base, limit))
        for _, seg in _segments(base, limit):
            packed = np.packbits(seg, bitorder="little")
            found += int(np.bitwise_count(packed).sum())
            size += len(packed)
            f.write(packed)
        f.write(bytes(8 * _n_words(base, limit) - size))
    return found


def sieve_range(base, limit):
    """Sieve [base, limit] into a table in a temporary file, removed when the table goes.

    For a table file to keep, use save_sieve (sieve-cache).
    """
    fd, path = tempfile.mkstemp(suffix=".pkt")
    os.close(fd)
    try:
        save_sieve(base, limit, path)
        table = PrimalityTable.load(path)
    except BaseException:  # a refused range or a failed sieve leaves no file
        os.unlink(path)
        raise
    weakref.finalize(table, os.unlink, path)
    return table


@dataclass(frozen=True)
class WindowHistogram:
    """How many of the windows (n, n+h], 1 <= n <= x, hold exactly c primes."""

    x: int
    h: float
    counts: dict


def _odd_blocks(table, x, lo_off, hi_off, first=1):
    """Yield (a, b, flags) for each _CHUNK block [a, b] of n in [first, x].

    flags are the odd flags of [a + lo_off, b + hi_off], flag i for
    ((a + lo_off) | 1) + 2i, read only and valid until the next block. A
    table's are unpacked from its words; with no table, _segments sieves them
    from first + lo_off as the blocks advance. A block inside a segment is a
    view of it; before the segment is refilled, the flags that blocks still
    need are copied into one buffer, where a block that spans segments is
    joined, so memory holds about a segment and a block whatever x is.
    """
    if table is None:
        segs = _segments(first + lo_off, x + hi_off)
        seg, s0 = np.zeros(0, dtype=bool), (first + lo_off) // 2  # seg[i] flags the odd 2 (s0 + i) + 1
        buf = np.empty((min(_CHUNK, x + 1 - first) + hi_off - lo_off + 1) // 2, dtype=bool)
        kept = 0  # buf[:kept] flags the odd 2j + 1 for j in [s0 - kept, s0)
    for a in range(first, x + 1, _CHUNK):
        b = min(a + _CHUNK - 1, x)
        lo, hi = a + lo_off, b + hi_off
        if table is not None:
            yield a, b, table._odd_flags(lo, hi)
            continue
        j0, j1 = lo // 2, (hi + 1) // 2  # the block reads the odd 2j + 1 for j in [j0, j1)
        keep = min(max(s0 - j0, 0), kept)  # the kept flags from j0 on
        buf[:keep], kept = buf[kept - keep : kept], keep
        while s0 + len(seg) < j1:
            tail = seg[max(j0 - s0, 0) :]
            buf[kept : kept + len(tail)] = tail
            kept, s0 = kept + len(tail), s0 + len(seg)
            seg = next(segs)[1]
        if kept:  # the block starts in the kept flags: join the segment's on
            buf[kept : j1 - j0] = seg[: max(j1 - s0, 0)]
        yield a, b, buf[: j1 - j0] if kept else seg[j0 - s0 : j1 - s0]


def _usable_cpus():
    """The CPUs this process may run on; taskset narrows them."""
    return len(os.sched_getaffinity(0))


def _on_cpus(fn, items):
    """[fn(item) for item in items]: items[0] in this process, each other item in a forked child.

    The package's one fork. The fork start method lets the children run fn on this
    process's module state as it stands, patches included; the passes start no thread.
    A child pickles (ok, value or exception) into a pipe and leaves by os._exit, so it
    never returns into the caller nor flushes this process's stdio buffers. A child's
    exception is raised here, and every child is reaped before the call returns,
    killed first if the call is unwinding. Callers give at most one item per usable CPU.
    """
    pids, reads = [], []
    try:
        for item in items[1:]:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, item, w)
            finally:
                os.close(w)
            pids.append(pid)
        results = [fn(items[0])]
        for r in reads:
            with open(r, "rb", closefd=False) as f:
                ok, value = pickle.load(f)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:  # stop the children before they are reaped, then unwind
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _child(fn, item, w):
    """In a forked child: pickle (ok, fn(item) or its exception) into the pipe end w, then exit."""
    try:
        try:
            out = (True, fn(item))
        except BaseException as e:  # not swallowed: the parent raises it
            out = (False, e)
        with open(w, "wb") as f:
            pickle.dump(out, f)
    finally:
        os._exit(0)


def window_counts(table, x, h):
    """Histogram of c(n) = #{primes in (n, n+h]} over n = 1..x.

    Windows are half-open at the left, so for integer n they hold the
    integers n+1 .. n+floor(h). A table must cover [1, x + ceil(h)]; with
    None the pass streams off the sieve. With m = floor(h), the window of n
    holds ceil(m/2) odd numbers from n + 1 on for an even n, floor(m/2) for an
    odd n (and 2 for n = 1), so in each _CHUNK block c(n) is a sliding sum of
    odd flags, built by doubling adds in the smallest unsigned dtype that holds
    it. The block is counted by its levels G_k = #{n : c(n) >= k}, one
    count_nonzero(sums >= k) each up to the largest; N_c = G_c - G_{c+1}. For
    an even m both parities read the same sums: the range they share is counted once.
    The blocks are split into one span of whole blocks per usable CPU, each
    counted by its own process (_on_cpus); the counts are integers, so their
    sum is the one-process histogram.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("h must be positive and finite")
    if table is not None:
        table.require_cover(1, x + math.ceil(h))
    m = int(h)
    blocks = -(-x // _CHUNK)
    k = min(blocks, _usable_cpus())
    cuts = [blocks * i // k * _CHUNK for i in range(k + 1)]  # span i: n in (cuts[i], cuts[i + 1]]
    spans = [(lo + 1, min(hi, x)) for lo, hi in zip(cuts, cuts[1:])]
    acc = sum(_on_cpus(lambda span: _span_counts(table, span, m), spans))
    counts = {int(c): int(n) for c, n in enumerate(acc) if n}
    return WindowHistogram(x, float(h), counts)


def _span_counts(table, span, m):
    """acc[c] = #{n in span : c(n) = c} for c <= m + 1, a block at a time in buffers made once per span."""
    first, last = span
    acc = np.zeros(m + 2, dtype=np.int64)
    short, long = m // 2, (m + 1) // 2  # odd numbers in the window of an odd n, of an even n
    size = (min(_CHUNK, last + 1 - first) + m) // 2 + 1
    bufs = [np.empty(size, dtype=np.min_scalar_type(long)) for _ in range(3)]
    above = np.empty(size, dtype=bool)
    for a, b, flags in _odd_blocks(table, last, 1, m, first):
        f = flags.view(np.uint8)
        odd, even = (b + 1) // 2 - a // 2, (b + 2) // 2 - (a + 1) // 2  # n in [a, b] of each parity
        i = (a + 1) & 1  # odd n = (a | 1) + 2t reads the sum at i + t, even n the one at t
        ws = _window_sums(f, short, bufs)
        if long == short:  # both parities read ws: count the range they share once, twice over
            j = min(i + odd, even)
            _add_levels(acc, ws[i:j], 2, above)
            np.add.at(acc, ws[[*range(i), *range(j, max(i + odd, even))]], 1)  # the <= 2 sums one parity reads
        else:
            wl = np.add(ws[:-1], f[short:], out=bufs[0][: len(ws) - 1])
            _add_levels(acc, ws[i : i + odd], 1, above)
            _add_levels(acc, wl[:even], 1, above)
        if a == 1 and m:  # the window of 1 also holds 2
            acc[int(ws[0]) : int(ws[0]) + 2] += (-1, 1)
    return acc


def _window_sums(f, width, bufs):
    """s[i] = f[i] + ... + f[i + width - 1] for i <= len(f) - width, a view of f or of bufs[2].

    Doubling adds make the sums of widths 1, 2, 4, ... in bufs[0] and bufs[1] by turns,
    but that of width's lowest bit in bufs[2], where s adds those of its other bits.
    """
    low, s, p, w = width & -width, bufs[2][: len(f) + 1], f, 1
    if not width:
        s.fill(0)
    while w <= width:
        if width & w:
            below = width & (w - 1)  # the width s sums so far
            s = p if w == low else np.add(s[: len(p) - below], p[below:], out=bufs[2][: len(p) - below])
        if 2 * w <= width:
            out = bufs[2] if 2 * w == low else bufs[w.bit_length() & 1]
            p = np.add(p[:-w], p[w:], out=out[: len(p) - w])
        w *= 2
    return s


def _add_levels(acc, w, weight, above):
    """acc[c] += weight * #{i : w[i] = c}, by the levels G_k = #{i : w[i] >= k} counted into above."""
    ks = range(1, int(w.max(initial=0)) + 1)
    levels = [np.count_nonzero(np.greater_equal(w, k, out=above[: len(w)])) for k in ks]
    acc[: len(ks) + 1] -= weight * np.diff([len(w), *levels, 0])


def _prime_powers(hi):
    """The prime powers p^j <= hi with j >= 2, ascending, and log p for each."""
    pairs = []
    for p in primes_upto(math.isqrt(hi)).tolist():
        q = p * p
        while q <= hi:
            pairs.append((q, math.log(p)))
            q *= p
    pairs.sort()
    return np.array([q for q, _ in pairs], dtype=np.int64), np.array([lp for _, lp in pairs])


def _isin_sorted(v, s):
    """np.isin(v, s) for s ascending, by binary search.

    It stands in for np.isin in the tuple pass: its sort path calls
    np.unique, which imports numpy.ma, a cost to every hl and selberg job.
    """
    where = np.searchsorted(s, v)
    found = where < len(s)
    found[found] = s[where[found]] == v[found]
    return found


def tuple_counts(table, offsets, xs):
    """Yield hits and the sum of prod_i Lambda(n + h_i) over n <= x, per x in xs.

    offsets ascend from >= 0, xs from >= 1; with no table the pass streams
    off the sieve. Lambda(n + h_i) is nonzero only at prime powers, so the
    nonzero terms come from two disjoint sets of n per _CHUNK block: those
    whose members are all odd primes, one AND of the odd flags shifted by
    (h_i - h_1) / 2 when the offsets share a parity, and the few with a
    member 2^j or an odd p^j (j >= 2), each checked apart. Lambda is taken
    only there and summed left to right, so each sum is the dense sum's
    float, whose other terms are exactly 0.0.
    """
    offs, top = list(offsets), int(xs[-1])
    if table is not None:
        table.require_cover(1 + offs[0], top + offs[-1])
    xs = np.asarray(xs, dtype=np.int64)
    t = np.array(offs, dtype=np.int64)
    qs, logs = _prime_powers(top + offs[-1])
    shifts = [(u - offs[0]) // 2 for u in offs[1:]]
    same = all(u % 2 == offs[0] % 2 for u in offs)
    hit_sums, lam_sums = np.zeros(1, dtype=np.int64), np.zeros(1)
    for a, b, flags in _odd_blocks(table, top, offs[0], offs[-1]):
        lo, hi = a + offs[0], b + offs[-1]
        n0 = (lo | 1) - offs[0]  # n0, n0 + 2, ... have every member odd, if the offsets share a parity
        acc = flags[: max((b - n0) // 2 + 1, 0) if same else 0].copy()
        for s in shifts:
            acc &= flags[s : s + len(acc)]
        i, j = np.searchsorted(qs, (lo, hi + 1))
        bq, bl = qs[i:j], logs[i:j]  # the prime powers among the members
        near = np.sort((np.append(bq, 2) if lo <= 2 <= hi else bq)[:, None] - t, axis=None)
        keep = (near >= a) & (near <= b)  # the n with such a member, or with 2, each once
        keep[1:] &= near[1:] != near[:-1]  # as np.unique would, but without numpy.ma
        near = near[keep]
        m = near[:, None] + t
        nonzero, odd = _isin_sorted(m, bq) | (m == 2), (m & 1) == 1
        nonzero[odd] |= flags[(m[odd] - (lo | 1)) >> 1]
        at = np.sort(np.concatenate((n0 + 2 * np.flatnonzero(acc), near[nonzero.all(axis=1)])))
        hit, prod = np.ones(len(at), dtype=bool), np.ones(len(at))
        for u in offs:
            m = at + u
            power = _isin_sorted(m, bq)
            lam = np.log(m)
            lam[power] = bl[np.searchsorted(bq, m[power])]
            hit &= ~power
            prod *= lam
        ends = np.searchsorted(at, xs[(xs >= a) & (xs <= b)], side="right")
        hit_sums = np.cumsum(np.concatenate((hit_sums[-1:], hit)))
        lam_sums = np.cumsum(np.concatenate((lam_sums[-1:], prod)))
        rows = zip(hit_sums[ends].tolist(), lam_sums[ends].tolist())
        del flags, acc  # so the next block's flags are not read while these are held
        yield from rows


def count_tuple_hits(table, offsets, x):
    """#{1 <= n <= x : n + t is prime for every offset t}.

    Offsets may come in any order and with repeats; the count only depends on
    the underlying set. Empty offsets count everything; with no table the pass streams off the sieve.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    offs = sorted({int(t) for t in offsets})
    if not offs:
        return x
    if offs[0] < 0:
        raise ValueError("offsets must be non-negative")
    return next(tuple_counts(table, offs, [x]))[0]
