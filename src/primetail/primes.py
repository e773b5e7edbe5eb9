"""Bit-packed segmented sieve and counting passes over it.

The table stores one bit per integer, 64 per little-endian word, so the
full range to 10^8 fits in ~12 MB and popcounts come straight off the
words. Window counts and the one tuple pass (hits and Lambda sums) stream
the table in chunks, never more than a few million unpacked flags at once;
past the unpack, a chunk of window counts costs O(primes in it), not O(chunk).
Every list of small primes in the package (sieving primes, factoring, local
factors, sieve weights) comes from the one growing cache primes_upto. One
segmented Eratosthenes pass, _segments, grows that cache and fills the tables.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError

_MAGIC = b"PKT1"
_SEGMENT = 1 << 20  # flags per sieve segment; must stay a multiple of 64: sieve_range packs whole words
_CHUNK = 1 << 22
_PRIME_BUDGET = 10 ** 8  # allk_bound and jensen_split_bound sieve the primes up to k^3


_primes, _cap = np.zeros(0, dtype=np.int64), 1  # no primes <= 1, so growth bottoms out


def _segments(lo, hi):
    """Yield (seg_lo, primality flags) over [lo, hi], _SEGMENT flags at a time."""
    base_primes = primes_upto(math.isqrt(hi)).tolist()
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        seg = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        if seg_lo < 2:
            seg[: 2 - seg_lo] = False
        for p in base_primes:
            start = max(p * p, (seg_lo + p - 1) // p * p)
            if start > seg_hi:
                continue
            seg[start - seg_lo :: p] = False
        yield seg_lo, seg


def primes_upto(n):
    """Sorted int64 array of the primes <= n, read off one shared cache.

    The cache grows by at least doubling, through the segmented pass that
    sieve_range packs; callers get a view into it and must not mutate it.
    """
    global _primes, _cap
    if n > _cap:
        top = max(n, 2 * _cap)
        primes_upto(math.isqrt(top))  # the sieving primes first: this may grow _cap
        found = [np.flatnonzero(seg) + seg_lo for seg_lo, seg in _segments(_cap + 1, top)]
        _primes, _cap = np.concatenate([_primes, *found]), top
    return _primes[: np.searchsorted(_primes, n, side="right")]


class PrimalityTable:
    """Primality of every integer in [base, limit].

    Bit j of word w flags base + 64*w + j; bits for n < 2 are always 0.
    Words are little-endian uint64 so the on-disk and in-memory layouts
    agree byte for byte.
    """

    def __init__(self, base, limit, words):
        if base < 0 or limit < base:
            raise ValueError(f"invalid range [{base}, {limit}]")
        n_words = ((limit - base + 1) + 63) // 64
        if len(words) != n_words:
            raise ValueError(f"expected {n_words} words, got {len(words)}")
        self.base = base
        self.limit = limit
        self.words = np.ascontiguousarray(words, dtype="<u8")

    # -- persistence ----------------------------------------------------
    # file layout: magic "PKT1", base and limit as 8-byte LE, then words

    def save(self, path):
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<QQ", self.base, self.limit))
            f.write(self.words.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != _MAGIC:
            raise ValueError(f"not a primality table file (magic {data[:4]!r})")
        want = 20
        if len(data) >= want:
            base, limit = struct.unpack_from("<QQ", data, 4)
            want += 8 * ((max(limit - base + 1, 0) + 63) // 64)
        if len(data) != want:
            raise ValueError(f"table file {path} is {len(data)} bytes, expected {want}")
        return cls(base, limit, np.frombuffer(data, dtype="<u8", offset=20).copy())

    # -- queries ----------------------------------------------------------

    def require_cover(self, lo, hi):
        if lo < self.base or hi > self.limit:
            raise CoverageError(lo, hi, self.base, self.limit)

    def is_prime(self, n):
        self.require_cover(n, n)
        i = n - self.base
        return bool((int(self.words[i >> 6]) >> (i & 63)) & 1)

    def bools(self, lo, hi):
        """Primality flags for lo..hi inclusive as a bool array."""
        if hi < lo:
            return np.zeros(0, dtype=bool)
        self.require_cover(lo, hi)
        i0 = lo - self.base
        i1 = hi - self.base
        w0, w1 = i0 >> 6, i1 >> 6
        raw = self.words[w0 : w1 + 1].view(np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        off = i0 - (w0 << 6)
        return bits[off : off + (i1 - i0 + 1)].view(np.bool_)

    def count(self, lo=None, hi=None):
        """Number of primes in [lo, hi], popcounted off the packed words."""
        lo = self.base if lo is None else lo
        hi = self.limit if hi is None else hi
        if hi < lo:
            return 0
        self.require_cover(lo, hi)
        i0 = lo - self.base
        i1 = hi - self.base
        w0, w1 = i0 >> 6, i1 >> 6
        ws = self.words[w0 : w1 + 1].astype(np.uint64)
        ws[0] &= np.uint64(~((1 << (i0 & 63)) - 1) & 0xFFFFFFFFFFFFFFFF)
        if (i1 & 63) != 63:
            ws[-1] &= np.uint64((1 << ((i1 & 63) + 1)) - 1)
        return int(np.bitwise_count(ws).sum())

    def primes(self, lo=None, hi=None):
        """All primes in [lo, hi] as an int64 array."""
        lo = self.base if lo is None else lo
        hi = self.limit if hi is None else hi
        return np.flatnonzero(self.bools(lo, hi)) + lo


def sieve_range(base, limit):
    """Sieve [base, limit] into a packed PrimalityTable, by primes_upto's segmented pass."""
    if base < 0 or limit < base:
        raise ValueError(f"invalid range [{base}, {limit}]")
    words = np.zeros((limit - base + 64) // 64, dtype="<u8")
    for seg_lo, seg in _segments(base, limit):
        packed = np.packbits(seg, bitorder="little")
        i = (seg_lo - base) >> 3  # segments start on a word, so on a byte of the words
        words.view(np.uint8)[i : i + len(packed)] = packed
    return PrimalityTable(base, limit, words)


@dataclass(frozen=True)
class WindowHistogram:
    """How many of the windows (n, n+h], 1 <= n <= x, hold exactly c primes."""

    x: int
    h: float
    counts: dict


def window_counts(table, x, h):
    """Histogram of c(n) = #{primes in (n, n+h]} over n = 1..x.

    Windows are half-open at the left, so for integer n they hold the
    integers n+1 .. n+floor(h). Requires the table to cover
    [1, x + ceil(h)]. With m = floor(h), c(n) rises by one at n = p - m and
    falls by one at n = p for each prime p, so each _CHUNK block of n is
    binned by the lengths of the runs between these events.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("h must be positive and finite")
    table.require_cover(1, x + math.ceil(h))
    m = int(h)
    acc = np.zeros(m + 2, dtype=np.int64)
    for a in range(1, x + 1, _CHUNK):
        b = min(a + _CHUNK - 1, x)
        ps = table.primes(a + 1, b + m)
        # both event runs are sorted, so the stable sort is one merge; key 2n puts
        # a rise before a fall at n, so c never dips below 0 (m = 0 ties every event)
        keys = np.sort(np.concatenate((np.maximum(ps - m, a) * 2, ps * 2 + 1)), kind="stable")
        runs = np.diff(np.minimum(np.concatenate(([a], keys >> 1, [b + 1])), b + 1))
        c = np.concatenate(([0], np.cumsum(1 - 2 * (keys & 1))))
        # float weights add exactly: a block holds at most _CHUNK <= 2^53 windows
        acc += np.bincount(c, weights=runs, minlength=m + 2).astype(np.int64)
        del ps, keys, runs, c  # the next block starts from nothing, so memory stays one block
    counts = {int(c): int(n) for c, n in enumerate(acc) if n}
    return WindowHistogram(x, float(h), counts)


def _prime_powers(hi):
    """log p for each prime power p^j <= hi with j >= 2, keyed by p^j."""
    out = {}
    for p in primes_upto(math.isqrt(hi)).tolist():
        q = p * p
        while q <= hi:
            out[q] = math.log(p)
            q *= p
    return out


def vonmangoldt(table, lo, hi):
    """Lambda(n) for n in [lo, hi]: log p at prime powers p^j, else 0."""
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    lam = np.zeros(hi - lo + 1)
    at = np.flatnonzero(table.bools(lo, hi))
    lam[at] = np.log((at + lo).astype(np.float64))
    for q, lp in _prime_powers(hi).items():
        if q >= lo:
            lam[q - lo] = lp
    return lam


def tuple_counts(table, offsets, xs):
    """Yield hits and the sum of prod_i Lambda(n + h_i) over n <= x, per x in xs.

    offsets ascend from >= 0, xs from >= 1; a None table is sieved first. Each
    _CHUNK block ANDs prime-power flags once; Lambda is taken only at those
    survivors (hits where every n + h_i is prime) and summed left to right, so
    each sum is the dense sum's float, whose other terms are exactly 0.0.
    """
    offs, top = list(offsets), int(xs[-1])
    if table is None:
        table = sieve_range(0, top + offs[-1] + 1)
    table.require_cover(1 + offs[0], top + offs[-1])
    xs = np.asarray(xs, dtype=np.int64)
    powers = _prime_powers(top + offs[-1])
    hit_sums, lam_sums = np.zeros(1, dtype=np.int64), np.zeros(1)
    for a in range(1, top + 1, _CHUNK):
        n = min(_CHUNK, top - a + 1)
        lo, hi = a + offs[0], a + n - 1 + offs[-1]
        flags = table.bools(lo, hi)
        either = flags.copy()
        either[[q - lo for q in powers if lo <= q <= hi]] = True
        acc = either[:n].copy()
        for d in (t - offs[0] for t in offs[1:]):
            acc &= either[d : d + n]
        at = np.flatnonzero(acc)
        hit, prod = np.ones(len(at), dtype=bool), np.ones(len(at))
        for t in offs:
            m = at + (a + t)
            prime = flags[m - lo]
            lam = np.log(m)
            lam[~prime] = [powers[q] for q in m[~prime].tolist()]
            hit &= prime
            prod *= lam
        ends = np.searchsorted(at, xs[(xs >= a) & (xs < a + n)] - a, side="right")
        hit_sums = np.cumsum(np.concatenate((hit_sums[-1:], hit)))
        lam_sums = np.cumsum(np.concatenate((lam_sums[-1:], prod)))
        yield from zip(hit_sums[ends].tolist(), lam_sums[ends].tolist())
        # free this block before the next is built, so memory stays one block
        del flags, either, acc


def count_tuple_hits(table, offsets, x):
    """#{1 <= n <= x : n + t is prime for every offset t}.

    Offsets may come in any order and with repeats; the count only depends on
    the underlying set. Empty offsets count everything; None sieves a table.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    offs = sorted({int(t) for t in offsets})
    if not offs:
        return x
    if offs[0] < 0:
        raise ValueError("offsets must be non-negative")
    return next(tuple_counts(table, offs, [x]))[0]
