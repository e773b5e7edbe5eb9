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
counts costs one pass over its primes per tail level G_k = #{n : c(n) >= k}:
on the gap between consecutive primes q_i <= n < q_{i+1}, c(n) >= k exactly
when n >= q_{i+k} - floor(h). The window pass splits its chunks into one span
per usable CPU, counts each span in its own forked process (_on_cpus, the
package's one fork) and sums the integer counts; the tuple pass keeps one
process, since its Lambda sums are floats added left to right.
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
_CHUNK = 1 << 20  # n per block of the streaming passes; below 2^31 so block-local levels fit int32
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
    """Yield (even seg_lo, flags), flag i for the odd n = seg_lo + 2i + 1 in [lo, hi]."""
    ps = primes_upto(math.isqrt(hi))[1 + len(_WHEEL) :]  # past 2 and the wheel
    half, square, plist = (ps + 1) >> 1, (ps * ps) >> 1, ps.tolist()
    for seg_lo in range(lo & ~1, hi + 1, 2 * _SEGMENT):
        n = (min(seg_lo + 2 * _SEGMENT - 1, hi) - seg_lo + 1) // 2
        j = (seg_lo >> 1) % _PERIOD
        seg = np.resize(_PATTERN[j : j + _PERIOD], n)
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
    ((a + lo_off) | 1) + 2i, read only. A table's are unpacked from its words;
    with no table, _segments sieves them from first + lo_off as the blocks
    advance. The segments a block reaches are kept until a later block starts
    past them, and only a block that spans segments is copied, so memory holds
    about a segment and a block whatever x is.
    """
    if table is None:
        segs = _segments(first + lo_off, x + hi_off)
        parts, start = [np.zeros(0, dtype=bool)], (first + lo_off) | 1  # flags from start on, in order
    for a in range(first, x + 1, _CHUNK):
        b = min(a + _CHUNK - 1, x)
        lo, hi = a + lo_off, b + hi_off
        if table is not None:
            yield a, b, table._odd_flags(lo, hi)
            continue
        drop, start, size = ((lo | 1) - start) >> 1, lo | 1, (hi + 1) // 2 - lo // 2
        while len(parts[0]) < drop:
            drop -= len(parts.pop(0))
        parts[0] = parts[0][drop:]
        lens = [len(p) for p in parts]
        while sum(lens) < size:
            parts.append(next(segs)[1])
            lens.append(len(parts[-1]))
        if lens[0] >= size:
            yield a, b, parts[0][:size]
        else:  # the block spans segments: copy just its flags
            offs = np.cumsum([0, *lens[:-1]])
            yield a, b, np.concatenate([p[: max(size - o, 0)] for p, o in zip(parts, offs)])


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
    None the pass streams off the sieve. With m = floor(h), each _CHUNK
    block [a, b] of n is counted by its tail levels
    G_k = #{n in [a, b] : c(n) >= k}: if q_1 < q_2 < ... are the primes in
    (a, b + m], then on the gap [S_i, E_i) = [q_i, min(q_{i+1}, b + 1))
    (with S_0 = a) c(n) >= k exactly when n >= q_{i+k} - m, so
    G_k = sum_i max(0, min(E_i - S_i, E_i + m - q_{i+k})), and the levels
    nest, so the first empty one ends the block. N_c = G_c - G_{c+1}.
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
    """acc[c] = #{n in span : c(n) = c} for c <= m + 1, counted a block at a time."""
    first, last = span
    acc = np.zeros(m + 2, dtype=np.int64)
    for a, b, flags in _odd_blocks(table, last, 1, m, first):
        qs = np.flatnonzero(flags) * 2 + (((a + 1) | 1) - a)
        if a + 1 <= 2 <= b + m:
            qs = np.concatenate(([2 - a], qs))
        levels = _tail_levels(qs, b + 1 - a, m)
        acc[: len(levels) - 1] -= np.diff(levels)
    return acc


def _tail_levels(qs, size, m):
    """[G_0, G_1, ..., 0] for the windows at n = 0..size-1 given the primes qs in [1, size - 1 + m].

    Every array is block-local and clipped into [0, size], so int32 is exact;
    a q_{i+k} - m clipped to 0 leaves min(E_i - S_i, .) as it was, and one
    clipped to size leaves the term <= 0. The arrays die on return, before
    the next block's primes are built.
    """
    s = int(np.searchsorted(qs, size))  # the gaps [q_1, ..), .., [q_s, ..) start in the block
    ends = np.empty(s + 1, dtype=np.int32)
    ends[:s], ends[s] = qs[:s], size
    lens = ends.copy()
    lens[1:] -= ends[:-1]
    rises = np.clip(qs - m, 0, size).astype(np.int32)
    term = np.empty_like(ends)
    levels = [size]
    for k in range(1, len(qs) + 1):
        t = term[: min(s + 1, len(qs) - k + 1)]
        np.subtract(ends[: len(t)], rises[k - 1 : k - 1 + len(t)], out=t)
        np.minimum(t, lens[: len(t)], out=t)
        np.maximum(t, 0, out=t)
        levels.append(int(t.sum()))
        if not levels[-1]:
            return levels
    return levels + [0]


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
