"""Sieve weights G(z), products W(z), bounds, and the gamma cross-check."""

import math
import tracemalloc

import mpmath
import pytest

from primetail import (
    Tuple,
    big_G,
    count_tuple_hits,
    gamma_cross_check,
    omega_constants,
    resolve_z,
    sieve_report,
    theorem_bound,
)
from primetail import primes, selberg
from primetail.errors import InadmissibleModulusError, ResourceError
from primetail.primes import primes_upto

TWIN = Tuple.parse("0,2")


def _trial_factorization(d):
    out = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def _nu(H, p):
    return len({t % p for t in H.offsets})


def _big_W(z, H):
    """W(z) as sieve_report computes it, from the nu table of the primes below z."""
    return selberg._W(*selberg._nu_table(H, z))


def test_big_G_small_values():
    assert big_G(2, TWIN) == 1.0
    assert big_G(4, TWIN) == 4.0  # d = 1, 2, 3
    # squarefree d < 10: adds g(5)=2/3, g(6)=2, g(7)=2/5
    assert big_G(10, TWIN) == pytest.approx(1 + 1 + 2 + 2 / 3 + 2 + 2 / 5, rel=1e-14)


def _g_oracle(H, z):
    """math.fsum over squarefree d < z of trial-division products."""
    terms = []
    for d in range(1, z):
        fac = _trial_factorization(d)
        if any(e > 1 for e in fac.values()):
            continue
        w = 1.0
        for p in sorted(fac):
            nu = _nu(H, p)
            w *= nu / (p - nu)
        terms.append(w)
    return math.fsum(terms)


def test_big_G_against_direct_enumeration():
    H = Tuple.parse("0,2,6")
    assert big_G(3000, H) == pytest.approx(_g_oracle(H, 3000), rel=1e-11)


# 31^2, 37^2 and one more put a prime on r = isqrt(z - 1). Blocks of 64 d start at 1, 65, 129;
# the last d of each is a multiple of 64, never squarefree, so blocks of 30 (1, 31, 61, ...),
# shorter than r at z = 3000, check that no block drops its last d.
EDGE_ZS = (2, 3, 4, 5, 30, 31, 32, 61, 62, 64, 65, 66, 129, 961, 962, 1369, 1370, 3000)


@pytest.mark.parametrize("offs", [(0, 2), (0, 2, 6), (0, 1, 2), (0, 2, 4)], ids=str)
def test_big_G_matches_fsum_oracle_across_edges(offs, monkeypatch):
    # (0, 1, 2) covers every class mod 2 and mod 3, (0, 2, 4) mod 3: big_G refuses exactly
    # the z above such a prime
    H = Tuple(offs)
    for z in EDGE_ZS:
        covered = any(len({t % p for t in offs}) == p for p in range(2, z)
                      if _trial_factorization(p) == {p: 1})
        for block in (64, 30):
            monkeypatch.setattr(selberg, "_G_BLOCK", block)
            if covered:
                with pytest.raises(InadmissibleModulusError):
                    big_G(z, H)
            else:
                want = _g_oracle(H, z)
                assert abs(big_G(z, H) - want) <= 4 * math.ulp(want), (offs, z, block)


def test_big_G_monotone_in_z():
    # 50 = 2 * 5^2 is not squarefree, so nothing enters between 50 and 51;
    # 51 = 3 * 17 does enter at z = 52
    assert big_G(50, TWIN) == big_G(51, TWIN) < big_G(52, TWIN)


def test_big_G_refuses_covered_primes():
    # nu(2) = 2 and nu(3) = 3: the first such prime is named
    H = Tuple.parse("0,1,2")
    for z in (3, 10):
        with pytest.raises(InadmissibleModulusError) as ei:
            big_G(z, H)
        assert str(ei.value) == "nu(2) = 2: the tuple covers every residue class mod 2"
    with pytest.raises(InadmissibleModulusError) as ei:
        big_G(10, Tuple.parse("0,2,4"))
    assert str(ei.value) == "nu(3) = 3: the tuple covers every residue class mod 3"
    assert big_G(3, Tuple.parse("0,2,4")) == 2.0  # d = 1, 2 with nu(2) = 1


def test_big_W_values():
    assert _big_W(3, TWIN) == 0.5
    assert _big_W(5, TWIN) == pytest.approx(1 / 6, rel=1e-15)
    assert _big_W(5, Tuple.parse("0,2,4")) == 0.0
    with pytest.raises(ValueError):
        _big_W(1, TWIN)


def test_big_W_equals_left_to_right_loop():
    for offs, z in (((0, 2, 6), 10 ** 6), ((0, 2), 3), ((0,), 2), ((0, 2, 6, 8, 12), 5000)):
        H = Tuple(offs)
        loop = 1.0
        for p in primes_upto(z - 1).tolist():
            loop *= (p - _nu(H, p)) / p
        assert _big_W(z, H) == loop, (offs, z)
    assert _big_W(10 ** 6, Tuple.parse("0,2,6")) == 0.0001918243800530447


def test_nu_table_counts_residues_at_every_prime():
    # 12018 = 2 * 3 * 2003 has prime factors on both sides of z = 2000
    for text in ("0,2", "0,2,6,8,12,18,20,26,30,32", "0,1,2", "0,6,12018"):
        H = Tuple.parse(text)
        ps, nus = selberg._nu_table(H, 2000)
        assert ps.tolist() == primes_upto(1999).tolist()
        assert nus.tolist() == [_nu(H, p) for p in ps.tolist()], text


def test_nu_table_memory_sliced():
    H = Tuple.parse("0,2,6,8,12,18,20,26,30,32")
    tracemalloc.start()
    try:
        ps, nus = selberg._nu_table(H, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ps and nus are 0.6 MB each; a (10, 78498) residue array and its sort took 12.7 MB
    assert peak <= 4 * 2 ** 20, peak


def test_prime_budget_refused_before_sieving(no_sieve):
    z = primes._PRIME_BUDGET + 2
    with pytest.raises(ResourceError, match="budget"):
        big_G(z, TWIN)
    with pytest.raises(ResourceError, match="budget"):
        gamma_cross_check(TWIN, z)


def test_huge_span_refused_before_sieving(no_sieve):
    # the difference 2 (10^8 + 7)^2 needs primes up to 1.4 * 10^8 to factor
    H = Tuple((0, 2 * (10 ** 8 + 7) ** 2))
    for call in (big_G, lambda z, H: gamma_cross_check(H, z)):
        with pytest.raises(ResourceError, match="prime budget"):
            call(100, H)


def test_one_nu_table_per_z(monkeypatch):
    calls = []
    nu_table = selberg._nu_table
    monkeypatch.setattr(selberg, "_nu_table", lambda H, z: calls.append(z) or nu_table(H, z))
    rep = sieve_report(TWIN, 10 ** 4, z=100)
    assert calls == [100]
    assert (rep.G_z, rep.W_z) == (big_G(100, TWIN), _big_W(100, TWIN))
    calls.clear()
    gamma_cross_check(TWIN, 1000)
    assert calls == [1000]


def test_big_W_reciprocal_consistency():
    H = Tuple.parse("0,2,6")
    z = 10 ** 4
    W = _big_W(z, H)
    recip = 1.0
    n = 0
    for p in primes_upto(z - 1).tolist():
        recip *= p / (p - _nu(H, p))
        n += 1
    assert abs(W * recip - 1.0) <= 4 * n * 2.0 ** -52


def test_sieve_upper_bound_composes(table_1e6):
    rep = sieve_report(TWIN, 10 ** 6, z=10, table=table_1e6)
    assert rep.raw_bound == 10 ** 6 / rep.G_z + 100 / rep.W_z ** 3
    assert rep.raw_bound == pytest.approx(10 ** 6 / (106 / 15) + 100 * 14 ** 3, rel=1e-12)


def test_raw_bound_is_inf_once_W_cubed_underflows(table_1e6):
    # W(10^5) = 2.1e-125 for these 200 offsets, so W^3 is 0.0 in floats
    H = Tuple(tuple(p for p in primes_upto(3000).tolist() if p > 200)[:200])
    assert 0.0 < _big_W(10 ** 5, H) < 1e-120
    assert sieve_report(H, 10 ** 4, z=10 ** 5, table=table_1e6).raw_bound == math.inf


def test_sieve_bound_dominates_actual(table_1e6):
    # hits beyond z are sieved out by every p < z, so actual <= bound + z
    for offs, x in (((0,), 10 ** 4), ((0, 2), 10 ** 5), ((0, 2, 6), 10 ** 6)):
        H = Tuple(offs)
        rep = sieve_report(H, x, z=round(x ** (1 / 2.2)), table=table_1e6)
        assert rep.actual <= rep.raw_bound + rep.z, (offs, x)


def test_theorem_bound_twin(table_1e6):
    x = 10 ** 6
    bound = theorem_bound(TWIN, x, 0.1)
    expect = 2.1 ** 2 * 2 * 1.320323631693739 * x / math.log(x) ** 2
    assert bound == pytest.approx(expect, rel=1e-9)
    assert count_tuple_hits(table_1e6, TWIN, x) <= bound


def test_theorem_bound_k1_dominates_pi(table_1e6):
    for x in (10 ** 4, 10 ** 5, 10 ** 6):
        assert table_1e6.count(2, x) <= theorem_bound(Tuple.parse("0"), x, 0.1)


def test_theorem_bound_monotone_in_epsilon():
    assert theorem_bound(TWIN, 10 ** 6, 0.1) < theorem_bound(TWIN, 10 ** 6, 0.5)


def test_theorem_bound_overflow_is_inf():
    # (2 + eps)^k leaves the float range; inf still bounds the count from above
    assert theorem_bound(TWIN, 1000, 1e300) == math.inf


def test_theorem_bound_refuses_inadmissible():
    # S(H) = 0 would make the bound a vacuous 0; the refusal names a prime p <= k with nu(p) = p
    for text, p in (("0,1", 2), ("0,2,4", 3), ("0,1,2", 2)):
        with pytest.raises(InadmissibleModulusError, match=rf"^nu\({p}\) = {p}: "):
            theorem_bound(Tuple.parse(text), 10 ** 4, 0.1)


def test_theorem_bound_validation():
    with pytest.raises(ValueError):
        theorem_bound(TWIN, 10, 0.1)
    with pytest.raises(ValueError):
        theorem_bound(TWIN, 10 ** 4, 0.0)


def test_omega_constants():
    a1, L = omega_constants(TWIN)
    assert a1 == 3
    assert L == pytest.approx(2 * math.log(math.log(6)), rel=1e-12)
    a1, L = omega_constants(Tuple.parse("0,2,6"))
    assert a1 == 4
    assert L == pytest.approx(3 * math.log(math.log(3 * 48)), rel=1e-12)


def test_omega_constants_huge_span_capped():
    # far beyond any overflow, still finite and sane
    a1, L = omega_constants(Tuple((0, 2 ** 62)))
    assert a1 == 3
    assert math.isfinite(L)


def test_omega_constants_past_float_range_match_mpmath():
    # k = 40 and log |D_H| = 3583.4: |D_H| itself is far past the float range
    H = Tuple(tuple(range(0, 400, 10)))
    with mpmath.workdps(30):
        dh = mpmath.fprod(H.pairwise_diffs())
        want = float(H.k * mpmath.log(mpmath.log(3 * dh)))
    assert omega_constants(H) == (41, pytest.approx(want, rel=1e-12))


def test_gamma_cross_check_drifts_toward_one():
    for text in ("0", "0,2", "0,2,6"):
        H = Tuple.parse(text)
        devs = [abs(gamma_cross_check(H, z) - 1.0) for z in (10 ** 3, 10 ** 4)]
        assert devs[1] < devs[0]


def test_gamma_cross_check_guards():
    with pytest.raises(ValueError):
        gamma_cross_check(TWIN, 15)
    with pytest.raises(InadmissibleModulusError):
        gamma_cross_check(Tuple.parse("0,1"), 100)


def test_resolve_z():
    for z, epsilon in ((240, 0.1), (None, None)):
        with pytest.raises(ValueError, match="give exactly one of z and epsilon"):
            resolve_z(10 ** 5, z, epsilon)
    for epsilon in (0.0, -1.0, -2.0, math.nan):
        with pytest.raises(ValueError, match=r"need epsilon > 0"):
            resolve_z(10 ** 5, epsilon=epsilon)
    for z in (1, 0, -3):
        with pytest.raises(ValueError, match=r"need z >= 2"):
            resolve_z(10 ** 5, z=z)
    assert resolve_z(10 ** 5, epsilon=0.1) == 240 == round(10 ** (5 / 2.1))
    assert resolve_z(10 ** 18, epsilon=0.1) == 372759372
    # x^(1/(2+eps)) rounds to 2 or less, or has no real value: the floor holds
    for x, epsilon in ((16, 100.0), (3, 0.1), (1, 0.1), (0, 0.1), (-5, 0.1)):
        assert resolve_z(x, epsilon=epsilon) == 2
    for z in (2, 240, 2.0):
        got = resolve_z(None, z=z)
        assert got == z and type(got) is int


@pytest.mark.parametrize("epsilon", [-2.0, -1.9, -1.0, 0.0])
def test_sieve_report_refuses_epsilon_before_counting(monkeypatch, epsilon):
    def never(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(selberg, "count_tuple_hits", never)
    monkeypatch.setattr(selberg, "_nu_table", never)
    with pytest.raises(ValueError, match=r"need epsilon > 0"):
        sieve_report(TWIN, 100, epsilon=epsilon)


@pytest.mark.parametrize("text, z, message", [
    ("0,2", 1, r"need z >= 2"),
    ("0,2,4", 100, r"nu\(3\) = 3: "),  # through G(z): 3 < z
    ("0,2,4", 3, r"nu\(3\) = 3: "),  # through the theorem bound: G(3) and W(3) are fine
], ids=["z-below-2", "through-G", "through-theorem-bound"])
def test_sieve_report_refuses_before_counting(monkeypatch, text, z, message):
    def never(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(selberg, "count_tuple_hits", never)
    H = Tuple.parse(text)
    with pytest.raises(ValueError, match=message):
        sieve_report(H, 10 ** 5, z=z)


def test_sieve_report_composition(table_1e6):
    rep = sieve_report(TWIN, 10 ** 5, epsilon=0.1, table=table_1e6)
    assert rep.z == round((10 ** 5) ** (1 / 2.1))
    assert rep.G_z == big_G(rep.z, TWIN)
    assert rep.W_z == _big_W(rep.z, TWIN)
    assert rep.actual == count_tuple_hits(table_1e6, TWIN, 10 ** 5)
    assert rep.theorem_bound == theorem_bound(TWIN, 10 ** 5, 0.1)
    assert rep.ratio_actual_over_bound == rep.actual / rep.theorem_bound
    assert rep.alpha1 == 3
    assert rep.correction_term > 0
    with pytest.raises(ValueError):
        sieve_report(TWIN, 10 ** 5, z=100, epsilon=0.1, table=table_1e6)
    with pytest.raises(ValueError):
        sieve_report(TWIN, 10 ** 5, table=table_1e6)
