"""Output checks against references that the code under test did not compute.

The references are published counts (pi(10^8), twin-prime counts),
closed forms (Bell numbers, Poisson tails, the window-sum identity) and
small implementations of this file's own: an Eratosthenes sieve, trial
division, a direct Euler product for singular series with an E1 tail,
T_k(h) by translation classes, and li_k by mpmath quadrature.

check_job() returns the problems found in one job's stdout; an empty
list means the output is correct.
"""

import functools
import itertools
import json
import math

import mpmath
import numpy as np

import workloads as W

PI_X = 5761455                         # pi(10^8)
TWIN_COUNTS = {10 ** 7: 58980, 10 ** 8: 440312}   # published pi_2(x)
EULER_P = 2 * 10 ** 6                  # explicit primes in the Euler products


@functools.lru_cache(maxsize=None)
def sieve(n):
    """Primality flags for 0..n."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_upto(n):
    return np.flatnonzero(sieve(n))


def count_primes_td(lo, hi):
    """Primes in [lo, hi] by trial division."""
    ps = primes_upto(math.isqrt(hi) + 1).tolist()
    return sum(
        1 for n in range(max(lo, 2), hi + 1)
        if all(n % p for p in ps if p * p <= n)
    )


def hit_positions(offsets, x):
    """Sorted n in [1, x] with n + t prime for every offset t."""
    flags = sieve(x + max(offsets))
    acc = np.ones(x, dtype=bool)
    for t in offsets:
        acc &= flags[1 + t : x + 1 + t]
    return np.flatnonzero(acc) + 1


def _generic_log(k, p_min):
    """sum over primes p > p_min of log((1 - k/p) / (1 - 1/p)^k).

    Explicit primes up to EULER_P, then sum_{p>P} p^-m ~ E1((m-1) log P)
    for the terms -(k^m - k)/m p^-m of the expansion.
    """
    ps = primes_upto(EULER_P)
    pf = ps[ps > p_min].astype(np.float64)
    total = float(np.sum(np.log1p(-k / pf) - k * np.log1p(-1.0 / pf)))
    lp = math.log(EULER_P)
    for m in range(2, 6):
        total -= (k ** m - k) / m * float(mpmath.e1((m - 1) * lp))
    return total


def singular_ref(offsets):
    """S(H) as an Euler product: exact factors up to the span, generic after."""
    k = len(offsets)
    cut = max(offsets) - min(offsets)
    log_s = 0.0
    for p in primes_upto(max(cut, k)).tolist():
        nu = len({t % p for t in offsets})
        if nu == p:
            return 0.0
        log_s += math.log1p(-nu / p) - k * math.log1p(-1.0 / p)
    return math.exp(log_s + _generic_log(k, max(cut, k)))


@functools.lru_cache(maxsize=None)
def tkh_ref(k, h):
    """T_k(h) = k! sum over 0 < d_2 < ... < d_k < h of (h - d_k) S({0, d_2, ...})."""
    ds = np.array(list(itertools.combinations(range(1, h), k - 1)), dtype=np.int64)
    offs = np.hstack([np.zeros((len(ds), 1), dtype=np.int64), ds])
    log_s = np.zeros(len(ds))
    alive = np.ones(len(ds), dtype=bool)
    for p in primes_upto(h - 1).tolist():
        res = np.sort(offs % p, axis=1)
        nu = 1 + np.count_nonzero(np.diff(res, axis=1), axis=1)
        alive &= nu < p
        log_s += np.log1p(-np.minimum(nu, p - 1) / p) - k * math.log1p(-1.0 / p)
    s = np.where(alive, np.exp(log_s + _generic_log(k, h - 1)), 0.0)
    return math.factorial(k) * float(np.sum((h - ds[:, -1]) * s))


def li_ref(x, k, lo=2.0):
    """integral_lo^x dt / log(t)^k by mpmath on geometric breakpoints."""
    pts = [float(lo)]
    while pts[-1] * 2 < x:
        pts.append(pts[-1] * 2)
    pts.append(float(x))
    return float(mpmath.quad(lambda t: mpmath.log(t) ** (-k), pts))


def window_sum(x, h):
    """sum_{n=1}^{x} #{primes in (n, n+h]}, counted per prime.

    Each prime p in [m+1, x+1] lies in exactly m = floor(h) windows; the
    primes below and above that range are counted one by one.
    """
    m = int(h)
    low = primes_upto(m).tolist()
    above = [p for p in range(x + 2, x + m + 1) if count_primes_td(p, p)]
    pi_x1 = PI_X + count_primes_td(x + 1, x + 1)
    return m * (pi_x1 - len(low)) + sum(p - 1 for p in low) + sum(x + m + 1 - p for p in above)


def poisson_moment(r, lam):
    """E[X^r] for X ~ Poisson(lam), summed over the pmf."""
    terms = [k ** r * math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(1, 120)]
    return math.fsum(terms)


@functools.lru_cache(maxsize=None)
def allk_ref(k):
    """prod_{p <= k^3} (1 - 1/p)^-k, which dominates S(H) for |H| = k."""
    ps = primes_upto(k ** 3).astype(np.float64)
    return math.exp(-k * float(np.sum(np.log1p(-1.0 / ps))))


# -- per-job checks ------------------------------------------------------


class _Problems(list):
    def close(self, what, got, want, rel=1e-9, abs_tol=0.0):
        if not isinstance(got, (int, float)) or not abs(got - want) <= abs_tol + rel * abs(want):
            self.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def true(self, what, cond):
        if not cond:
            self.append(what)


def _moments(p, rows, ctx):
    h = math.log(W.X)
    p.equal("rows", [r["r"] for r in rows], [1, 2, 3, 4])
    m1 = window_sum(W.X, h) / W.X
    hist = ctx.get("histogram")
    for r in rows:
        p.close(f"r={r['r']} h", r["h"], h, rel=1e-11)
        p.close(f"r={r['r']} lambda", r["lambda"], 1.0)
        p.close(f"r={r['r']} lambda_eff", r["lambda_eff"], m1, rel=1e-11)
        p.close(f"r={r['r']} predicted (Bell number)", r["predicted"], [1, 2, 5, 15][r["r"] - 1])
        p.close(f"r={r['r']} predicted_eff", r["predicted_eff"], poisson_moment(r["r"], m1))
        p.close(f"r={r['r']} ratio", r["ratio"], r["empirical"] / r["predicted"])
        if hist is not None:
            m_r = sum(n * c ** r["r"] for c, n in hist.items()) / W.X
            p.close(f"r={r['r']} empirical vs tail histogram", r["empirical"], m_r, rel=1e-11)


def _tail(p, rows, ctx):
    h = math.log(W.X)
    p.equal("rows", [r["k"] for r in rows], list(range(11)))
    counts = {r["k"]: r["pi_k_count"] for r in rows}
    # no window of 18 integers holds more than 8 primes, so k <= 10 is all
    p.equal("histogram mass", sum(counts.values()), W.X)
    p.equal("first moment sum", sum(k * n for k, n in counts.items()), window_sum(W.X, h))
    for r in rows:
        k = r["k"]
        p.equal(f"k={k} I_count", r["I_count"], sum(n for j, n in counts.items() if j >= k))
        tail = 1.0 - math.fsum(math.exp(-1.0) / math.factorial(j) for j in range(k))
        p.close(f"k={k} poisson_tail", r["poisson_tail"], tail, rel=1e-9, abs_tol=1e-15)
        if k >= 1:
            p.close(f"k={k} corollary_bound", r["corollary_bound"], math.exp(-k / math.e))


def _tkh_mc(p, rows, ctx):
    (r,) = rows
    p.equal("samples", r["samples"], W.MC_SAMPLES)
    p.equal("seed", r["seed"], W.mc_seed(ctx["seed"]))
    p.equal("workers", r["workers"], W.MC_THREADS)
    mean = r["value_or_mean"]
    p.true(f"mean {mean!r} outside [0, allk_bound(10))", 0.0 <= mean < allk_ref(W.MC_K))
    p.true(f"stderr {r['error']!r} negative", r["error"] >= 0.0)
    scale = math.factorial(W.MC_K) * math.comb(W.MC_H, W.MC_K)
    p.close("tkh_estimate", r["tkh_estimate"], scale * mean)


def _tkh_exact(p, rows, ctx, k, h):
    (r,) = rows
    p.equal("mode", r["mode"], "exact")
    ref = tkh_ref(k, h)
    p.close(f"T_{k}({h})", r["value_or_mean"], ref, rel=1e-8, abs_tol=r["error"])
    p.close("normalized", r["normalized"], r["value_or_mean"] / h ** k)


def _tkh_pair(p, rows, ctx):
    _tkh_exact(p, rows, ctx, 2, W.PAIR_H)
    h = W.PAIR_H
    dev = abs(rows[0]["value_or_mean"] / h ** 2 - 1.0)
    p.true(f"|T_2(h)/h^2 - 1| = {dev:.3g} > 2 log h / h", dev <= 2 * math.log(h) / h)


def _singular(p, rows, ctx):
    (r,) = rows
    p.equal("admissible", r["admissible"], True)
    p.close("S(H)", r["value"], singular_ref(W.TEN), rel=1e-8, abs_tol=r["error_radius"])
    p.true(f"error_radius {r['error_radius']!r} above 1e-9", 0 <= r["error_radius"] <= 1e-9)
    p.true("jensen_bound below S(H)", r["jensen_bound"] >= r["value"])


def _sieve_cache(p, rows, ctx):
    (r,) = rows
    p.equal("primes", r["primes"], PI_X + count_primes_td(W.X + 1, W.TABLE_LIMIT))


def _hl_rows(p, rows, offsets, xs, hits_known=None):
    p.equal("checkpoints", [r["x"] for r in rows], xs)
    s = singular_ref(offsets)
    pos = hit_positions(offsets, max(xs)) if hits_known is None else None
    li = 0.0
    prev = 2.0
    for r in rows:
        x = r["x"]
        want = hits_known if pos is None else int(np.searchsorted(pos, x, side="right"))
        p.equal(f"x={x} hits", r["hits"], want)
        li += li_ref(x, len(offsets), lo=prev)
        prev = x
        p.close(f"x={x} prediction", r["prediction"], s * li, rel=1e-7)
        p.close(f"x={x} abs_error", r["abs_error"], abs(r["hits"] - r["prediction"]), rel=1e-9, abs_tol=1e-6)


def _hl_twins(p, rows, ctx):
    _hl_rows(p, rows, (0, 2), [W.X], TWIN_COUNTS[W.X])
    lam = rows[0]["lambda_form_error"] if rows else None
    p.true(f"lambda_form_error {lam!r} not finite and >= 0", isinstance(lam, float) and lam >= 0)


def _hl_sweep(p, rows, ctx):
    a, b, s = W.SWEEP
    _hl_rows(p, rows, W.TEN, list(range(a, b + 1, s)))


def _hl_10tuple(p, rows, ctx):
    _hl_rows(p, rows, W.TEN, [W.HL_TEN_X])


def _theorem_bound(offsets, x, eps):
    k = len(offsets)
    return (2 + eps) ** k * math.factorial(k) * singular_ref(offsets) * x / math.log(x) ** k


def _selberg_common(p, r, offsets, x, z, actual):
    p.equal("x", r["x"], x)
    p.equal("z", r["z"], z)
    p.equal("actual", r["actual"], actual)
    # sieve_report uses epsilon = 0.1 in the theorem bound when given z
    p.close("theorem_bound", r["theorem_bound"], _theorem_bound(offsets, x, 0.1), rel=1e-8)
    p.close("ratio_actual_over_bound", r["ratio_actual_over_bound"], actual / r["theorem_bound"])
    p.true("raw_bound below actual", r["raw_bound"] >= actual)


def _selberg_twins(p, rows, ctx):
    (r,) = rows
    z = round(W.SELBERG_X ** (1 / (2 + W.SELBERG_EPS)))
    _selberg_common(p, r, (0, 2), W.SELBERG_X, z, TWIN_COUNTS[W.SELBERG_X])


def _selberg_gamma(p, rows, ctx):
    report, gammas = rows[0], rows[1:]
    offs = W.GAMMA_TUPLE
    _selberg_common(p, report, offs, W.GAMMA_X, W.GAMMA_Z, len(hit_positions(offs, W.GAMMA_X)))
    p.equal("gamma z", [g["z"] for g in gammas], list(W.GAMMA_ZS))
    ratios = [g["gamma_ratio"] for g in gammas]
    p.true(f"gamma ratios {ratios} not in (0, 1)", all(0 < v < 1 for v in ratios))
    p.true(f"gamma ratios {ratios} not increasing", all(a < b for a, b in zip(ratios, ratios[1:])))


_CHECKS = {
    "moments": _moments,
    "tail": _tail,
    "tkh_mc": _tkh_mc,
    "tkh_exact": lambda p, rows, ctx: _tkh_exact(p, rows, ctx, W.EXACT_K, W.EXACT_H),
    "tkh_pair": _tkh_pair,
    "singular": _singular,
    "sieve_cache": _sieve_cache,
    "hl_twins": _hl_twins,
    "hl_sweep": _hl_sweep,
    "hl_10tuple": _hl_10tuple,
    "selberg_twins": _selberg_twins,
    "selberg_gamma": _selberg_gamma,
}


def histogram(stdout):
    """The window histogram {count: windows} that a `tail` job printed."""
    rows = [json.loads(line) for line in stdout.splitlines()[1:]]
    return {r["k"]: r["pi_k_count"] for r in rows}


def check_job(job, stdout, ctx):
    """Problems in one job's stdout. ctx holds 'seed' and, for moments,
    the 'histogram' of the tail job of the same pass when it succeeded."""
    p = _Problems()
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
        header, rows = lines[0], lines[1:]
        p.equal("subcommand", header.get("subcommand"), W.cli_args(job, ctx["seed"])[0])
        _CHECKS[job](p, rows, ctx)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        p.append(f"unreadable output: {type(e).__name__}: {e}")
    return list(p)
