"""Singular series S(H) for prime tuples, with rigorous error radii.

The defining product over all primes is split three ways:

  * exact rational local factors at the finitely many p <= k,
  * an exact correction (p - nu_p)/(p - k) at each p > k dividing some
    pairwise difference of H (only there can nu_p < k),
  * the tuple-independent generic tail prod_{p>k} (1 - k/p)/(1 - 1/p)^k.

The generic tail's log is computed once per k, and cached for good, as a
sum over the primes up to an analytic boundary plus a prime-zeta series
for everything beyond it, so a single evaluation costs
O(pi(k) + #{p | D_H}) after the per-k warm-up. The series is summed in
256-bit fixed point from a constant table of prime-zeta values (_PZ), so
no arbitrary-precision library is needed at run time. Error radii combine
the zeta-series truncation bound with crude-but-sound rounding counts.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ResourceError
from .primes import primes_upto

_EPS = 2.0 ** -52


@dataclass(frozen=True)
class Tuple:
    """Strictly increasing non-negative offsets h_1 < ... < h_k."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(int(t) for t in self.offsets)
        if offs and offs[0] < 0:
            raise ValueError("offsets must be non-negative")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        if offs and offs[-1] - offs[0] >= 1 << 63:
            raise ValueError("offset span must fit in 64 bits")
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def parse(cls, text):
        """Parse a comma list like "0,2,6"; sorts, rejects duplicates."""
        parts = [int(s) for s in text.split(",") if s.strip()]
        if not parts:
            raise ValueError(f"no offsets in {text!r}")
        if len(set(parts)) != len(parts):
            raise ValueError(f"duplicate offsets in {text!r}")
        return cls(tuple(sorted(parts)))

    @property
    def k(self):
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)

    def __len__(self):
        return len(self.offsets)

    def __str__(self):
        return ",".join(str(t) for t in self.offsets)

    def pairwise_diffs(self):
        offs = self.offsets
        return [offs[j] - offs[i] for i in range(len(offs)) for j in range(i + 1, len(offs))]


def as_tuple(H):
    if isinstance(H, Tuple):
        return H
    return Tuple(tuple(sorted(int(t) for t in H)))


def _anchored(H):
    """The offsets of H shifted to start at 0, as an int64 array."""
    return np.array([t - H.offsets[0] for t in H], dtype=np.int64)


@dataclass(frozen=True)
class SingularSeriesValue:
    value: float
    error_radius: float
    prime_limit: int


def _prime_factors(ds):
    """The distinct prime factors of each d >= 1 in ds, ascending, as lists.

    Tests the whole array against blocks of primes, up to 2^16 remainders a
    pass, until p^2 passes the largest cofactor left; whatever is left above 1
    then is a prime above all of those.
    """
    rest = np.array(ds, dtype=np.int64).reshape(-1)
    if len(rest) and rest.min() < 1:
        raise ValueError("need d >= 1")
    out = [[] for _ in range(len(rest))]
    top = int(rest.max(initial=1))
    ps = primes_upto(math.isqrt(top))
    step = max(1, (1 << 16) // max(len(rest), 1))
    for i in range(0, len(ps), step):
        if int(ps[i]) ** 2 > top:
            break
        block = ps[i : i + step]
        rows, cols = np.nonzero(rest[:, None] % block == 0)  # row-major: each row's primes ascend
        if len(rows):
            hit = block[cols]
            for r, p in zip(rows.tolist(), hit.tolist()):
                out[r].append(p)
            while (more := rest[rows] % hit == 0).any():  # divide out each hit's p-part
                rows, hit = rows[more], hit[more]
                np.floor_divide.at(rest, rows, hit)
            top = int(rest.max())
    for i in np.flatnonzero(rest > 1).tolist():
        out[i].append(int(rest[i]))
    return out


# -- generic tail per exponent k ---------------------------------------


# floor(2^256 P(m)) for m = 2..16, P(m) = sum_p p^-m the prime zeta function, generated
# once from mpmath.primezeta(m) at 90 digits (110 digits give the same floors); the tests
# recompute them. The series never reaches past m = 14 for any k the prime budget allows.
_ONE = 1 << 256
_PZ = (
    0x73C67CA6C6D92C38E6FF9F286F4CE67CFCE84D49A7B7B84D5EF7E5E30163FFC6,
    0x2CBD3E8C5A8FA4F8D7B2B20B324E020970AD382257591EDC49F2801DE1D967C5,
    0x13B5D2894DC5A9BEFEAE5741B80B6B91C065155FD6E2299CE6E84C8E9703D0E6,
    0x09273DA6C2E8ADA97B482532CA8BE27AE66AEBB9C200F1270B55A1865BE2B0D8,
    0x045EB488C36BC9A752FDA09B6EEC4D14A2A8260D87F0151AF8731C8081DEFD20,
    0x021EE3A733DF2B80C88287CB39435C78EAFE4EC81C411DC2EB2E31CE4F4CE28C,
    0x010A2B13399923C0483E1DBE3D06BDE5A35B946B705201B052C09DA7CB674682,
    0x00835D62AE2BD2272C73C9BA5BF0A11742A53243B75E53B38109CBA616C23EB5,
    0x00411DE6DB7E46082AEB7D8A937FC2826DCA278C1D2357DF57FCB9970154BBE8,
    0x00205F0F5DE3865F45C6951B8DDEF5E06EFFDAE2CEA8EC568C92682F786F4B34,
    0x00101FA3A48B2DBC1933DF29DDDC102C603F72814D0AD43AFAC18FC7A7DA6796,
    0x00080A8979CE57AF205A21F4C0608B0D58DDBFC968CF00A2DCA88E289D1FBF01,
    0x00040382AE55F552890CAFC1DB260D8AB86F57BAE712A766BE65AA29AEE60EDC,
    0x0002012B771DD25C4761288C6B2792D562BCB9414A0B2C13E1C54BFD169A3E04,
    0x00010063CD862E200819BAC2F0B08157F7CBFE372266146469BC82583DB58496,
)


def _zeta_orders(k, boundary):
    """(top, rem): the series sums the orders 2 <= m < top, and rem bounds the rest.

    The terms of order >= m are below boundary*(k/boundary)^m/(m(m-1)(1 - k/boundary));
    the series stops at the first m where that falls below 1e-26.
    """
    m = 3
    while (rem := boundary * (k / boundary) ** m / (m * (m - 1) * (1 - k / boundary))) >= 1e-26:
        m += 1
    return m, rem


def _zeta_tail_log(k, boundary, ps):
    """log prod_{p > boundary} f_k(p) and a rigorous bound on the truncation;
    ps holds the primes up to boundary.

    Expanding log f_k(p) = -sum_{m>=2} (k^m - k) p^-m / m and swapping the
    sums turns the far tail into prime-zeta values minus finite prefixes.
    Valid because boundary >= 4k^2 keeps every k/p well inside (0, 1/2).

    The sum runs in integers, in units of 2^-256. P(m) is the floor in _PZ,
    and each floor(2^256/q^m) is exact: floor(floor(a/b)/c) = floor(a/(bc)),
    so one // by q steps it from m - 1 to m. P(m) minus the prefix over
    q <= boundary is then off by less than pi(boundary) + 1 units, and
    order m's term, after the scaling by (k^m - k) and the floor of its //m,
    by less than (k^m - k)/m (pi(boundary) + 1) + 1. The whole sum is within
    (pi(boundary) + 2) sum_m (k^m - k)/m units: below 1e-40 for every
    boundary = max(1000, 4k^2) <= 10^8, far inside the 1e-28 that the bound
    adds to the truncation. The primes go in slices of 2^14, so a large k
    holds a few thousand big ints at a time, not millions.
    """
    top, rem = _zeta_orders(k, boundary)
    prefix = [0] * (top - 2)
    for i in range(0, len(ps), 1 << 14):
        qs = ps[i : i + (1 << 14)].tolist()
        xs = [_ONE // (q * q) for q in qs]
        for j in range(len(prefix)):
            prefix[j] += sum(xs)
            xs = [x // q for x, q in zip(xs, qs)]
    acc = -sum((k ** m - k) * (_PZ[m - 2] - s) // m for m, s in enumerate(prefix, 2))
    return acc / _ONE, rem + 1e-28  # int / int: the float nearest the exact ratio


def _log_f(k, ps):
    """log f_k(p) = log((1 - k/p) / (1 - 1/p)^k) at each prime p > k in ps."""
    pf = ps[np.searchsorted(ps, k, side="right") :].astype(np.float64)
    return np.log1p(-float(k) / pf) - k * np.log1p(-1.0 / pf)


@cache
def _kdata(k):
    """(log of the generic tail prod_{p>k} f_k(p), a bound on its error).

    The primes k < p <= boundary are summed in order by np.cumsum, the rest
    come from the prime-zeta series.
    """
    boundary = max(1000, 4 * k * k)
    ps = primes_upto(boundary)
    logf = _log_f(k, ps)
    head = float(np.cumsum(logf)[-1])
    head_abs = float(np.abs(logf).sum())
    ztail, zbound = _zeta_tail_log(k, boundary, ps)
    return head + ztail, 4.0 * (len(logf) + 4) * _EPS * (head_abs + abs(ztail)) + zbound


# -- local factors -------------------------------------------------------


def _local_factor(p, nu, k):
    """(p-nu) p^(k-1) / (p-1)^k, an integer ratio Python rounds correctly; 0.0 at nu = p."""
    return (p - nu) * p ** (k - 1) / (p - 1) ** k


def tail_log_bound(k, P):
    """Upper bound on |sum_{p > P} log f_k(p)| for P >= 2k^2.

    Uses |log(1+t)| <= 2|t| for |t| <= 1/2 together with
    |f_k(p) - 1| <= 2 k^2 / (p-1)^2 (checked by exact expansion in the
    test suite) and sum_{n > P} (n-1)^-2 <= 1/(P-1).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        if P < 2:
            raise ValueError("need P >= 2")
        return 0.0
    if P < 2 * k * k:
        raise ValueError(f"need P >= 2k^2 = {2 * k * k}")
    return 4.0 * k * k / (P - 1)


def is_admissible(H):
    """True when the offsets miss a residue class modulo every prime <= k."""
    H = as_tuple(H)
    small = primes_upto(H.k)
    return bool(np.all(_nu_rows(_anchored(H)[:, None], small, axis=0) < small))


# -- the series itself ---------------------------------------------------


def singular_series(H, target_error=None):
    """Singular series of H with a rigorous absolute error radius.

    Inadmissible tuples give exactly 0.0 with radius 0. A given target_error
    below the radius raises ResourceError: the radius is the rounding floor
    of the evaluation, so no number of primes lowers it.
    """
    H = as_tuple(H)
    if target_error is not None and target_error <= 0:
        raise ValueError("target_error must be positive")
    value, radius, plimit = (a[0].item() for a in singular_series_block(_anchored(H)[None]))
    if target_error is not None and radius > target_error:
        raise ResourceError(
            f"error radius {radius:.3g} exceeds target {target_error:.3g}; "
            f"it is the rounding floor of this evaluation"
        )
    return SingularSeriesValue(value, radius, plimit)


def _nu_rows(rows, p, axis=-1):
    """nu_H(p) of every offset row along axis; p may broadcast against rows."""
    res = np.sort(rows % p, axis=axis)
    return (res.shape[axis] > 0) + np.count_nonzero(np.diff(res, axis=axis), axis=axis)


def singular_series_block(rows):
    """S(H), its error radius and its prime limit for each strictly increasing
    row of an (n, k) block.

    The factors at p <= k come first and leave inadmissible rows at 0.0 with
    radius 0; only the other rows have their differences factored, and get
    nu_H(p) at the primes p > k found there. A row's prime limit is the
    largest of 2, 2k^2 and those primes, so inadmissible rows report 2k^2. Rows
    do not affect each other, and log/exp go through math so that no value
    depends on NumPy's SIMD build.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, k = rows.shape
    values, radii, limits = np.ones(n), np.zeros(n), np.full(n, max(2, 2 * k * k))
    if k <= 1:
        return values, radii, limits
    small = primes_upto(k)
    live = np.arange(n)
    for p in small.tolist():  # each p only sees the rows no smaller prime has zeroed
        nu = _nu_rows(rows[live], p)
        values[live] *= np.array([_local_factor(p, v, k) for v in range(p + 1)])[nu]
        live = live[nu < p]
    if len(live) == 0:
        return values, radii, limits
    H = rows[live]
    i, j = np.triu_indices(k, 1)
    uniq, inv = np.unique(H[:, j] - H[:, i], return_inverse=True)
    fps = [[p for p in f if p > k] for f in _prime_factors(uniq)]
    width = max(map(len, fps)) + 1
    table = np.array([f + [0] * (width - len(f)) for f in fps], dtype=np.int64)
    # per row, the distinct primes p > k dividing a difference, ascending; 0 pads
    ps = np.sort(table[inv.reshape(len(H), -1)].reshape(len(H), -1), axis=1)
    ps[:, 1:][ps[:, 1:] == ps[:, :-1]] = 0
    limits[live] = np.maximum(limits[live], ps.max(axis=1))
    hit = ps > 0
    nu = _nu_rows(H[:, :, None], np.where(hit, ps, 1)[:, None, :], axis=1)
    t = np.zeros(ps.shape)
    t[hit] = [math.log((p - v) / (p - k)) for p, v in zip(ps[hit].tolist(), nu[hit].tolist())]
    corr = np.cumsum(t, axis=1)[:, -1]  # every t >= 0, so this is also the sum of |t|
    log_cinf, err_log = _kdata(k)
    values[live] *= [math.exp(c + log_cinf) for c in corr.tolist()]
    log_err = err_log + 4.0 * (hit.sum(axis=1) + 2) * _EPS * corr
    em1 = np.array([math.expm1(e) for e in log_err.tolist()])
    radii[live] = np.abs(values[live]) * (em1 + (4 + 2 * len(small)) * _EPS)
    return values, radii, limits


def jensen_split_bound(H):
    """Upper bound on S(H) from splitting the product at k^3.

    Everything below k^3 is bounded tuple-independently; the sparse
    correction above k^3 is averaged over the C(k,2) pairwise differences
    through convexity of exp, which is what makes this a true bound.
    """
    H = as_tuple(H)
    k = H.k
    if k < 2:
        raise ValueError("need k >= 2")
    kc = k ** 3
    # slices of 2^16 primes keep memory near the prime array; the tail's cumsum carries on exactly
    ps, head, tail = primes_upto(kc), 0.0, 0.0
    for i in range(0, len(ps), 1 << 16):
        head += float(np.log1p(-1.0 / ps[i : i + (1 << 16)]).sum())
        tail = float(np.cumsum(np.concatenate(([tail], _log_f(k, ps[i : i + (1 << 16)]))))[-1])
    log_head, log_tail = -k * head, _kdata(k)[0] - tail
    cc = k * (k - 1) // 2
    acc = 0.0
    for f in _prime_factors(H.pairwise_diffs()):
        acc += math.exp(2.0 * cc * sum(1.0 / p for p in f if p > kc))
    try:
        return math.exp(log_head + log_tail + math.log(acc / cc))
    except OverflowError:  # past the float range; inf is still an upper bound
        return math.inf
