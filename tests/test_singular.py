"""Singular series values, local factors, bounds, and their invariants.

Frozen constants come from direct partial products over all primes to 1e8
(log1p accumulation in float64 with the analytic tail bound added), run
separately and pinned here with tolerances covering that run's own error.
"""

import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primetail import (
    Tuple,
    is_admissible,
    jensen_split_bound,
    singular_series,
    tail_log_bound,
)
from primetail import singular
from primetail.errors import ResourceError
from primetail.primes import primes_upto
from primetail.singular import _anchored, _local_factor, _nu_rows, _prime_factors, singular_series_block

TWIN_CONSTANT = 1.320323631693739  # doubled product of 1 - 1/(p-1)^2 over odd p
TRIPLE_026 = 2.858248595490  # direct product to 1e8, radius 7e-9


def _odd_prime_factors(d):
    out = set()
    p = 3
    while p * p <= d:
        if d % p == 0:
            out.add(p)
            while d % p == 0:
                d //= p
        p += 2
    while d % 2 == 0:
        d //= 2
    if d > 1:
        out.add(d)
    return out


# -- Tuple type ---------------------------------------------------------


def test_parse_sorts():
    assert Tuple.parse("6,0,2").offsets == (0, 2, 6)


def test_parse_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Tuple.parse("0,2,2")


def test_parse_rejects_empty():
    with pytest.raises(ValueError):
        Tuple.parse("")


def test_tuple_validation():
    with pytest.raises(ValueError):
        Tuple((-1, 3))
    with pytest.raises(ValueError):
        Tuple((3, 1))
    with pytest.raises(ValueError):
        Tuple((1, 1))


@settings(max_examples=100)
@given(st.sets(st.integers(0, 10 ** 6), min_size=1, max_size=8))
def test_parse_roundtrip(offs):
    H = Tuple.parse(",".join(str(t) for t in offs))
    assert H.offsets == tuple(sorted(offs))
    assert H.k == len(offs)


# -- factoring ----------------------------------------------------------


def _trial_division_primes(d):
    """Distinct prime factors of d >= 1, ascending, by plain trial division."""
    out = []
    q = 2
    while q * q <= d:
        if d % q == 0:
            out.append(q)
            while d % q == 0:
                d //= q
        q += 1 if q == 2 else 2
    if d > 1:
        out.append(d)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10 ** 7), max_size=40))
def test_prime_factors_match_trial_division(ds):
    assert _prime_factors(np.array(ds, dtype=np.int64)) == [_trial_division_primes(d) for d in ds]


def test_prime_factors_seeded_batch_with_large_semiprimes():
    rng = np.random.default_rng(2024)
    ps = primes_upto(10 ** 6)
    big = ps[np.searchsorted(ps, 10 ** 5) :]
    semis = [int(p) * int(q) for p, q in rng.choice(big, size=(6, 2))]
    ds = [*rng.integers(1, 10 ** 9, 30).tolist(), *semis, 2 ** 40 - 87, 997 ** 2 * 1009]
    rng.shuffle(ds)
    assert _prime_factors(ds) == [_trial_division_primes(d) for d in ds]
    # past 2^16 numbers every pass tests one prime at a time
    many = rng.integers(1, 2000, (1 << 16) + 5)
    want = {d: _trial_division_primes(d) for d in set(many.tolist())}
    assert _prime_factors(many) == [want[d] for d in many.tolist()]


def test_prime_factors_fixed_cases():
    ds = [1, 2, 2 ** 22 - 1, 2 ** 22, 2 ** 22 + 1, 9699690, 2 * 10007 * 10009, 2 ** 40 - 87]
    got = _prime_factors(ds)
    assert got == [_trial_division_primes(d) for d in ds]
    assert got[0] == [] and got[5] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert got[-1] == [2 ** 40 - 87]  # the largest prime below 2^40
    assert _prime_factors([]) == []
    for bad in ([0], [5, -3]):
        with pytest.raises(ValueError):
            _prime_factors(bad)


def test_prime_factors_past_budget_sieves_nothing(no_sieve):
    # a difference above 10^16 would need the primes past the 10^8 prime budget;
    # primes_upto refuses them before any sieving
    with pytest.raises(ResourceError, match="prime budget"):
        _prime_factors([6, (10 ** 8 + 7) ** 2])


# -- local factors ------------------------------------------------------


def test_residue_classes():
    assert _nu_rows(_anchored(Tuple.parse("0,2,6")), 5) == 3
    assert _nu_rows(_anchored(Tuple.parse("0,2")), 2) == 1
    assert _nu_rows(_anchored(Tuple.parse("0,2,6")), 3) == 2


def test_local_factor_values():
    assert _local_factor(3, 1, 1) == 1.0
    assert _local_factor(3, 2, 2) == 0.75
    assert _local_factor(2, 2, 5) == 0.0
    assert _local_factor(5, 2, 3) == 1.171875


def test_local_factor_one_ulp_identity():
    # the float must agree with the exact rational to a rounding
    rng = np.random.default_rng(3)
    ps = [int(p) for p in primes_upto(500)]
    for _ in range(300):
        p = ps[int(rng.integers(len(ps)))]
        k = int(rng.integers(1, 13))
        nu = int(rng.integers(1, min(k, p) + 1))
        got = _local_factor(p, nu, k)
        exact = Fraction((p - nu) * p ** (k - 1), (p - 1) ** k)
        assert abs(got - float(exact)) <= math.ulp(max(got, 1.0))


def test_deviation_constant_two_by_exact_expansion():
    # |f_k(p) - 1| <= 2 k^2 / (p-1)^2 once p > 2k^2, checked in Fraction
    for k in (2, 3, 5, 8, 13, 20):
        lo = 2 * k * k
        ps = [int(p) for p in primes_upto(8 * k * k) if p > lo][:12]
        assert ps
        for p in ps:
            a = Fraction((p - k) * p ** (k - 1), (p - 1) ** k) - 1
            assert abs(a) <= Fraction(2 * k * k, (p - 1) ** 2)


def test_tail_log_bound_edges():
    assert tail_log_bound(1, 10) == 0.0
    assert tail_log_bound(2, 100) == pytest.approx(16.0 / 99.0)
    with pytest.raises(ValueError):
        tail_log_bound(2, 7)  # below 2k^2
    with pytest.raises(ValueError):
        tail_log_bound(0, 100)


def test_tail_log_bound_dominates_true_tail():
    top = 2 * 10 ** 6
    ps = primes_upto(top).astype(np.float64)
    for k, P in ((2, 100), (3, 1000), (5, 2000)):
        sel = ps[ps > P]
        partial = float(np.abs(np.log1p(-k / sel) - k * np.log1p(-1.0 / sel)).sum())
        # the unseen remainder past `top` is itself below the bound there
        assert partial + tail_log_bound(k, top) <= tail_log_bound(k, P)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(0, 400), min_size=1, max_size=12), st.sampled_from((2, 3, 5, 7, 11, 13, 101)))
def test_residue_classes_and_admissibility_match_sets(offs, p):
    H = Tuple(tuple(sorted(offs)))
    assert _nu_rows(_anchored(H), p) == len({t % p for t in offs})
    small = [q for q in _ORACLE_PRIMES if q <= H.k]
    assert is_admissible(H) == all(len({t % q for t in offs}) < q for q in small)


# -- generic tail in fixed point ----------------------------------------


def _mpmath_zeta_tail_log(k, boundary):
    """The generic tail's far part in 50-digit mpmath: prime-zeta values minus the prefix
    over the primes up to boundary, with the stopping rule and bound of _zeta_tail_log."""
    with mpmath.workdps(50):
        qs = [mpmath.mpf(int(q)) for q in primes_upto(boundary)]
        acc = mpmath.mpf(0)
        m = 2
        while True:
            s_m = mpmath.primezeta(m) - mpmath.fsum(q ** (-m) for q in qs)
            acc -= mpmath.mpf(k ** m - k) / m * s_m
            m += 1
            rem = boundary * (k / boundary) ** m / (m * (m - 1) * (1 - k / boundary))
            if rem < 1e-26 or m > 400:
                break
    return float(acc), rem + 1e-28


def _mpmath_kdata(k):
    """_kdata(k) built the same way, but with the far part from _mpmath_zeta_tail_log."""
    boundary = max(1000, 4 * k * k)
    ps = primes_upto(boundary)
    pf = ps[np.searchsorted(ps, k, side="right") :].astype(np.float64)
    logf = np.log1p(-float(k) / pf) - k * np.log1p(-1.0 / pf)
    head = float(np.cumsum(logf)[-1])
    ztail, zbound = _mpmath_zeta_tail_log(k, boundary)
    eps = 2.0 ** -52
    return head + ztail, 4.0 * (len(logf) + 4) * eps * (float(np.abs(logf).sum()) + abs(ztail)) + zbound


def test_pz_table_is_primezeta_floors():
    assert len(singular._PZ) == 15
    with mpmath.workdps(90):
        for m, got in enumerate(singular._PZ, 2):
            assert got == int(mpmath.floor(mpmath.primezeta(m) * mpmath.mpf(2) ** 256)), m


def test_kdata_bit_identical_to_mpmath_routine():
    for k in [*range(1, 81), 100, 150, 200, 250]:
        assert singular._kdata(k) == _mpmath_kdata(k), k


def test_zeta_orders_stay_inside_pz():
    # the stopping rule is plain float arithmetic; 4k^2 <= 10^8 is every k the prime budget allows
    tops = [singular._zeta_orders(k, max(1000, 4 * k * k))[0] for k in range(1, 5001)]
    assert max(tops) - 2 <= len(singular._PZ)


def test_fixed_point_error_inside_the_bound():
    # at k = 5000 the scaled sum is within (pi(B) + 2) sum_m (k^m - k)/m units of 2^-256;
    # the bound carries 1e-28 for it, and _zeta_tail_log's docstring claims below 1e-40
    k = 5000
    boundary = 4 * k * k
    top, _ = singular._zeta_orders(k, boundary)
    pi_b = 5761455  # pi(10^8)
    err = Fraction((pi_b + 2) * sum(Fraction(k ** m - k, m) for m in range(2, top)), 2 ** 256)
    assert err < Fraction(1, 10 ** 40)


# -- the series ---------------------------------------------------------


def test_singleton_and_empty():
    # k <= 1 goes through the block kernel, whose prime limit is max(2, 2k^2)
    for H in (Tuple((5,)), ()):
        sv = singular_series(H)
        assert (sv.value, sv.error_radius, sv.prime_limit) == (1.0, 0.0, 2)


def test_inadmissible_is_exact_zero():
    for text in ("0,1", "0,2,4", "0,1,2"):
        sv = singular_series(Tuple.parse(text))
        assert (sv.value, sv.error_radius) == (0.0, 0.0)
        assert not is_admissible(Tuple.parse(text))


def test_twin_constant():
    sv = singular_series(Tuple.parse("0,2"), target_error=1e-11)
    assert sv.value == pytest.approx(TWIN_CONSTANT, abs=1e-12)
    assert 0 < sv.error_radius <= 1e-11
    assert sv.prime_limit == 8


def test_triple_constant():
    sv = singular_series(Tuple.parse("0,2,6"))
    assert sv.value == pytest.approx(TRIPLE_026, abs=2e-8)
    assert sv.error_radius <= 1e-9


def test_pair_closed_form():
    # S({0,d}) for even d is the twin constant times prod (p-1)/(p-2)
    # over odd primes dividing d; odd d is inadmissible
    twin = singular_series(Tuple.parse("0,2"), None).value
    # the last two differences exceed 2^22, the last one with two prime factors above 10^4
    for d in (4, 6, 10, 12, 30, 90, 210, 2310, 9240, 9699690, 2 * 10007 * 10009):
        expect = twin
        for p in sorted(_odd_prime_factors(d)):
            expect *= (p - 1) / (p - 2)
        got = singular_series(Tuple((0, d)), None)
        assert got.value == pytest.approx(expect, rel=1e-12), d
    assert singular_series(Tuple((0, 15)), None).value == 0.0


def test_admissible_iff_positive():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        offs = tuple(sorted(rng.choice(60, size=k, replace=False).tolist()))
        H = Tuple(offs)
        sv = singular_series(H, None)
        assert (sv.value > 0) == is_admissible(H)
        assert sv.value >= 0


def test_translation_invariance_bit_exact():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        offs = tuple(sorted(rng.choice(5000, size=k, replace=False).tolist()))
        c = int(rng.integers(0, 10 ** 6))
        a = singular_series(Tuple(offs), None)
        b = singular_series(Tuple(tuple(t + c for t in offs)), None)
        assert (a.value, a.error_radius, a.prime_limit) == (b.value, b.error_radius, b.prime_limit)


def test_prime_limit_tracks_difference_support():
    assert singular_series(Tuple.parse("0,2"), None).prime_limit == 8
    assert singular_series(Tuple.parse("0,202"), None).prime_limit == 101  # 202 = 2 * 101
    # nothing past p <= k is consulted once a small prime rules the tuple out,
    # so the prime 1000003 dividing 1000004 - 1 does not show: 2k^2 = 18
    assert singular_series(Tuple.parse("0,1,1000004")).prime_limit == 18


def _literal_product(offs, P):
    """prod_{p <= P} (1 - nu/p) / (1 - 1/p)^k straight from the definition.

    Exact Fractions at p <= k, math.log1p terms above k, over primes
    sieved here.
    """
    k = len(offs)
    flags = bytearray([1]) * (P + 1)
    for n in range(2, math.isqrt(P) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, P + 1, n)))
    ps = [n for n in range(2, P + 1) if flags[n]]
    exact, log_rest = Fraction(1), 0.0
    for p in ps:
        nu = len({t % p for t in offs})
        if p <= k:
            exact *= Fraction(p - nu, p) / Fraction(p - 1, p) ** k
        else:
            log_rest += math.log1p(-nu / p) - k * math.log1p(-1 / p)
    return float(exact) * math.exp(log_rest)


def test_radius_consistent_with_partial_products():
    # the literal truncations must converge into value +- radius
    H = Tuple.parse("0,4,6")
    sv = singular_series(H, None)
    for P in (10 ** 3, 10 ** 4, 10 ** 5):
        pp = _literal_product(H.offsets, P)
        gap = abs(pp) * math.expm1(tail_log_bound(3, P))
        assert abs(pp - sv.value) <= gap + sv.error_radius
        assert abs(pp - sv.value) > sv.error_radius  # the truncation still shows


def test_partial_product_inadmissible():
    # (0,1) covers both classes mod 2: the literal product and S(H) are exact zeros
    assert _literal_product((0, 1), 100) == 0.0
    sv = singular_series(Tuple.parse("0,1"), None)
    assert sv.value == 0.0 and sv.error_radius == 0.0


def test_unreachable_target_names_rounding_floor():
    # the radius is a rounding floor that no prime bound lowers, and the message says so
    H = Tuple.parse("0,2,6,8")
    radius = singular_series(H).error_radius
    with pytest.raises(ResourceError, match="rounding floor") as info:
        singular_series(H, target_error=1e-18)
    msg = str(info.value)
    assert f"error radius {radius:.3g} exceeds target 1e-18" in msg
    assert "\n" not in msg and "primes" not in msg
    assert singular_series(H, target_error=radius).error_radius == radius


def test_bad_target_error():
    with pytest.raises(ValueError):
        singular_series(Tuple.parse("0,2"), target_error=0.0)


# -- jensen split bound --------------------------------------------------


def test_jensen_dominates_everywhere():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        offs = tuple(sorted(rng.choice(10 ** 4, size=k, replace=False).tolist()))
        H = Tuple(offs)
        sv = singular_series(H, None)
        assert jensen_split_bound(H) >= sv.value - sv.error_radius


def test_jensen_prime_gap_ratio():
    # for {0,q} with prime q > k^3 = 8 the bound exceeds the smooth case
    # {0,2} by exactly exp(2/q): the shared head and tail cancel
    ratio = jensen_split_bound(Tuple.parse("0,11")) / jensen_split_bound(Tuple.parse("0,2"))
    assert ratio == pytest.approx(math.exp(2.0 / 11.0), rel=1e-12)


def test_jensen_past_float_range_is_inf_without_warning():
    # k = 250: the head alone is about e^846, past the largest float (about e^709.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert jensen_split_bound(Tuple(tuple(range(0, 500, 2)))) == math.inf


def test_jensen_refuses_past_prime_budget():
    # k = 465 would sieve the primes up to k^3 = 1.005e8
    with pytest.raises(ResourceError, match="prime budget"):
        jensen_split_bound(Tuple(tuple(range(0, 930, 2))))


def test_jensen_memory_near_prime_array(monkeypatch):
    # the head and tail sums run over slices of 2^16 primes, not whole-length float arrays
    H = Tuple(tuple(range(0, 300, 2)))  # k = 150: 241,867 primes up to k^3
    ps = primes_upto(150 ** 3)
    # views of one array keep sieving out of the window: it holds only jensen's own work
    monkeypatch.setattr(singular, "primes_upto", lambda n: ps[: np.searchsorted(ps, n, side="right")])
    jensen_split_bound(H)  # the per-k tail outside the measurement
    tracemalloc.start()
    try:
        jensen_split_bound(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ps.nbytes, peak / ps.nbytes


def test_jensen_needs_pairs():
    with pytest.raises(ValueError):
        jensen_split_bound(Tuple((3,)))


# -- batched kernel ------------------------------------------------------

_ORACLE_P = 500  # explicit Euler factors up to here; every span below is < it
_ORACLE_PRIMES = [p for p in range(2, _ORACLE_P + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


@functools.lru_cache(maxsize=None)
def _euler_tail_log(k):
    """log prod_{p > _ORACLE_P} (1 - k/p) / (1 - 1/p)^k at 30 digits.

    Expands each log in powers of 1/p and sums over primes through the
    prime zeta function minus its explicit head.
    """
    with mpmath.workdps(30):
        head = [mpmath.mpf(p) for p in _ORACLE_PRIMES]
        acc = mpmath.mpf(0)
        for m in range(2, 40):
            s_m = mpmath.primezeta(m) - mpmath.fsum(p ** -m for p in head)
            acc -= mpmath.mpf(k ** m - k) / m * s_m
        return acc


def _euler_oracle(offs):
    """S(H) as a 30-digit Euler product: every factor to 500, then the tail."""
    k = len(offs)
    with mpmath.workdps(30):
        log_s = _euler_tail_log(k)
        for p in _ORACLE_PRIMES:
            nu = len({t % p for t in offs})
            if nu == p:
                return 0.0
            log_s += mpmath.log(1 - mpmath.mpf(nu) / p) - k * mpmath.log(1 - mpmath.mpf(1) / p)
        return float(mpmath.exp(log_s))


def _admissible_row(rng, k, span):
    """k offsets in [0, span] avoiding one random class mod every p <= k."""
    pool = np.arange(span + 1)
    for p in (q for q in _ORACLE_PRIMES if q <= k):
        pool = pool[pool % p != rng.integers(p)]
    if len(pool) < k:
        return None
    return sorted(rng.choice(pool, size=k, replace=False).tolist())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 4, 10)), st.integers(0, 2 ** 32 - 1))
def test_block_kernel_matches_euler_oracle(k, seed):
    rng = np.random.default_rng(seed)
    rows = [list(range(k))]  # k consecutive integers cover both classes mod 2
    while len(rows) < 24:
        span = int(rng.integers(k - 1, 101))
        row = sorted(rng.choice(span + 1, size=k, replace=False).tolist())
        rows.append(_admissible_row(rng, k, span) if len(rows) % 2 else row)
        if rows[-1] is None:
            rows.pop()
    block = np.array([[t - r[0] for t in r] for r in rows], dtype=np.int64)
    values, radii, _ = singular_series_block(block)
    n_adm = 0
    for row, v, r in zip(block.tolist(), values.tolist(), radii.tolist()):
        # a row's result must not depend on the rows batched with it
        alone = singular_series_block(np.array([row]))
        assert (v, r) == (alone[0][0], alone[1][0]), row
        if any(len({t % p for t in row}) == p for p in _ORACLE_PRIMES if p <= k):
            assert (v, r) == (0.0, 0.0), row
            continue
        n_adm += 1
        oracle = _euler_oracle(row)
        assert abs(v - oracle) <= r + 1e-12 * oracle, (row, v, oracle, r)
    assert 0 < n_adm < len(rows)


def _first_covered_prime(row):
    """The least prime p <= len(row) whose every residue class the row covers, or None."""
    for p in range(2, len(row) + 1):
        if all(p % d for d in range(2, p)) and len({t % p for t in row}) == p:
            return p
    return None


def test_block_kernel_kills_rows_prime_by_prime():
    # k = 8 rows killed at 2, 3, 5 and 7, mixed with admissible ones: each row's value,
    # radius and limit are those of its own singular_series call, and the zeros are
    # exactly the rows a residue-set count finds covering some p <= 8
    rng = np.random.default_rng(8)
    picked = {p: [] for p in (2, 3, 5, 7, None)}
    for _ in range(20000):
        if min(map(len, picked.values())) == 5:
            break
        step = int(rng.integers(1, 3))  # all even rows survive 2 and reach the larger primes
        row = [0, *sorted((step * rng.choice(np.arange(1, 80), size=7, replace=False)).tolist())]
        if len(picked[p := _first_covered_prime(row)]) < 5:
            picked[p].append(row)
    assert all(len(rows) == 5 for rows in picked.values())
    block = [rows[i] for i in range(5) for rows in picked.values()]  # the kinds interleaved
    values, radii, limits = singular_series_block(np.array(block))
    for row, v, r, lim in zip(block, values.tolist(), radii.tolist(), limits.tolist()):
        alone = singular_series(Tuple(tuple(row)))
        assert (v, r, lim) == (alone.value, alone.error_radius, alone.prime_limit), row
        assert (v == 0.0) == (_first_covered_prime(row) is not None), row


def test_block_kernel_degenerate_shapes():
    got = singular_series_block(np.zeros((3, 1), np.int64))
    assert [a.tolist() for a in got] == [[1.0] * 3, [0.0] * 3, [2] * 3]
    values, radii, limits = singular_series_block(np.zeros((0, 4), np.int64))
    assert values.shape == radii.shape == limits.shape == (0,)
    # no prime above k = 2 divides the difference of {0, 2}: no corrections at all
    values, radii, limits = singular_series_block(np.array([[0, 2], [0, 1], [0, 202], [0, 203]]))
    assert values[0] == pytest.approx(TWIN_CONSTANT, abs=1e-12) and 0 < radii[0] <= 1e-12
    assert (values[1], radii[1]) == (0.0, 0.0)
    # the limit is max(2k^2, largest prime > k in a difference); 203 = 7 * 29 is odd
    assert limits.tolist() == [8, 8, 101, 8]
