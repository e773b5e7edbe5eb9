"""End-to-end checks at the scales and tolerances the package promises.

Each test prints its measured margins before asserting, so a log scan
shows how close every run came.

Criteria 4 and 5 compare the x = 10^8 window histogram with Gallagher's
finite-h prediction, not with a Poisson law. A window (n, n+h] holds
m = floor(h) integers, so the r-th factorial moment of its prime count is
E[(N)_r] = T_r(m) li_r(x) / x, with li_r(x) the integral of dt / log^r t
from 2 to x. Poisson(lambda) is only the limit as T_r(m) ~ m^r; at
x = 10^8, m = 18 and T_2(18) = 246.8 against 324, the lower-order term of
Montgomery-Soundararajan (Comm. Math. Phys. 252, 2004). The Poisson
(lambda_eff) margins are printed next to the asserted ones but not asserted.
"""

import math
import time

import mpmath
import pytest

from primetail import (
    Tuple,
    allk_bound,
    corollary_bound,
    empirical_moment,
    gamma_cross_check,
    hl_sweep,
    is_admissible,
    poisson_pmf,
    poisson_tail,
    predicted_moment,
    sieve_range,
    sieve_report,
    stirling2,
    tail_count,
    tkh_exact,
    tkh_monte_carlo,
    tkh_pair_fast,
    window_counts,
)

X8 = 10 ** 8

TEN_TUPLES = (
    Tuple.parse("0,2,6,8,12,18,20,26,30,32"),
    Tuple.parse("0,2,6,12,14,20,24,26,30,32"),
    Tuple.parse("0,2,6,8,12,18,20,26,30,36"),
)


@pytest.fixture(scope="module")
def big_hist():
    table = sieve_range(0, X8 + 64)
    t0 = time.time()
    hist = window_counts(table, X8, math.log(X8))
    return hist, time.time() - t0


def _li(r, x):
    """li_r(x) = integral_2^x dt / log^r t, in u = log t at 30 digits."""
    with mpmath.workdps(30):
        nodes = mpmath.linspace(mpmath.log(2), mpmath.log(x), 8)
        return float(mpmath.quad(lambda u: mpmath.exp(u) / u ** r, nodes))


@pytest.fixture(scope="module")
def finite_h(big_hist):
    """Factorial moments E[(N)_r], r = 0..m, and pmf P(N = j), j = 0..m.

    E[(N)_r] = T_r(m) li_r(x) / x counts the ordered r-tuples of distinct
    positions among the m = floor(h) integers of a window, each weighted by
    its singular series. The pmf follows by inclusion-exclusion,
    P(N = j) = sum_{r >= j} (-1)^(r-j) C(r, j) E[(N)_r] / r!. At m = 18,
    T_r(m) = 0 for r >= 7: no admissible 7-tuple fits in width 17.
    """
    hist, _ = big_hist
    m = int(hist.h)
    fact = [1.0] + [tkh_exact(r, m).value * _li(r, hist.x) / hist.x for r in range(1, m + 1)]
    pmf = [
        math.fsum(
            (-1) ** (r - j) * math.comb(r, j) * fact[r] / math.factorial(r)
            for r in range(j, m + 1)
        )
        for j in range(m + 1)
    ]
    return fact, pmf


def test_acceptance_1_prediction_envelope():
    t0 = time.time()
    table = sieve_range(0, 5500 + 36 + 1)
    worst = 0.0
    for H in TEN_TUPLES:
        assert H.k == 10 and H.offsets[0] >= 0 and H.offsets[-1] <= 40
        assert is_admissible(H)
        reps = hl_sweep(H, range(100, 5501), table)
        assert len(reps) == 5401
        worst = max(worst, max(r.normalized for r in reps))
    elapsed = time.time() - t0
    print(f"[criterion 1] max normalized error {worst:.4f} (<= 1), {elapsed:.2f}s (< 5s)")
    assert worst <= 1.0
    assert elapsed < 5.0


def test_acceptance_2_pair_average_deviation():
    t0 = time.time()
    devs = {}
    for h in (10 ** 3, 10 ** 4):
        v = tkh_pair_fast(h)
        devs[h] = abs(v.value / h ** 2 - 1.0)
        allowed = 2.0 * math.log(h) / h
        print(f"[criterion 2] h={h}: |T_2/h^2 - 1| = {devs[h]:.6f} (<= {allowed:.6f})")
        assert devs[h] <= allowed
    elapsed = time.time() - t0
    print(f"[criterion 2] deviation shrinks: {devs[10 ** 4]:.6f} < {devs[10 ** 3]:.6f}, {elapsed:.1f}s (< 30s)")
    assert devs[10 ** 4] < devs[10 ** 3]
    assert elapsed < 30.0


def test_acceptance_3_mc_seed_consistency():
    t0 = time.time()
    a = tkh_monte_carlo(10, 100, 10 ** 5, seed=12345)
    b = tkh_monte_carlo(10, 100, 10 ** 5, seed=67890)
    envelope = allk_bound(10)[0]
    spread = abs(a.mean - b.mean)
    combined = math.hypot(a.stderr, b.stderr)
    elapsed = time.time() - t0
    print(
        f"[criterion 3] means {a.mean:.5f} / {b.mean:.5f}, spread {spread:.5f} "
        f"(<= {3 * combined:.5f}), envelope {envelope:.3e}, {elapsed:.1f}s (< 120s)"
    )
    assert a.mean < envelope and b.mean < envelope
    assert spread <= 3.0 * combined
    assert elapsed < 120.0


def test_acceptance_4_moment_tolerances(big_hist, finite_h):
    hist, hist_seconds = big_hist
    fact, _ = finite_h
    t0 = time.time()
    lam = hist.h / math.log(hist.x)
    lam_eff = empirical_moment(hist, 1)
    dev_raw, dev_fh, dev_eff = {}, {}, {}
    for r in (1, 2, 3, 4):
        emp = empirical_moment(hist, r)
        dev_raw[r] = abs(emp / predicted_moment(r, lam) - 1.0)
        fh = math.fsum(stirling2(r, l) * fact[l] for l in range(1, r + 1))
        dev_fh[r] = abs(emp / fh - 1.0)
        dev_eff[r] = abs(emp / predicted_moment(r, lam_eff) - 1.0)
    elapsed = hist_seconds + (time.time() - t0)
    for r in (1, 2, 3, 4):
        print(
            f"[criterion 4] r={r}: raw dev {dev_raw[r]:.4f} (<= {0.10 * r:.2f}), "
            f"finite-h dev {dev_fh[r]:.4f} (<= 0.05), "
            f"Poisson(lambda_eff) dev {dev_eff[r]:.4f} (not asserted)"
        )
    print(
        f"[criterion 4] lambda={lam:.6f} lambda_eff={lam_eff:.6f} "
        f"T_1 li_1/x={fact[1]:.6f}, {elapsed:.1f}s (< 180s)"
    )
    assert elapsed < 180.0
    for r in (1, 2, 3, 4):
        assert dev_raw[r] <= 0.10 * r, f"raw-lambda deviation at r={r}: {dev_raw[r]:.4f}"
    for r in (1, 2, 3, 4):
        assert dev_fh[r] <= 0.05, (
            f"deviation at r={r} from the finite-h moment "
            f"sum_l S(r,l) T_l(m) li_l(x)/x is {dev_fh[r]:.4f}"
        )


def test_acceptance_5_tails_and_total_variation(big_hist, finite_h):
    hist, _ = big_hist
    _, pmf = finite_h
    lam_eff = empirical_moment(hist, 1)
    for k in range(4, 11):
        frac = tail_count(hist, k) / hist.x
        bound = corollary_bound(lam_eff, k)
        print(f"[criterion 5] k={k}: I/x = {frac:.3e} (<= {bound:.3e})")
        assert frac <= bound
    m = len(pmf) - 1
    tv = 0.5 * (
        sum(abs(hist.counts.get(c, 0) / hist.x - pmf[c]) for c in range(m + 1))
        + sum(n for c, n in hist.counts.items() if c > m) / hist.x
    )
    top = max(hist.counts)
    tv_eff = 0.5 * (
        sum(
            abs(hist.counts.get(c, 0) / hist.x - poisson_pmf(lam_eff, c))
            for c in range(top + 1)
        )
        + poisson_tail(lam_eff, top + 1)
    )
    print(
        f"[criterion 5] total variation vs finite-h pmf = {tv:.2e} (<= 0.05), "
        f"vs Poisson(lambda_eff) = {tv_eff:.4f} (not asserted)"
    )
    assert tv <= 0.05, (
        f"total variation {tv:.4f} from the finite-h pmf, inclusion-exclusion "
        f"over T_r(m) li_r(x)/x, exceeds 0.05"
    )


def test_acceptance_6_twin_sieve_bound():
    table = sieve_range(0, 10 ** 7 + 3)
    rep = sieve_report(Tuple.parse("0,2"), 10 ** 7, epsilon=0.1, table=table)
    print(
        f"[criterion 6] twins {rep.actual} <= bound {rep.theorem_bound:.1f}, "
        f"ratio {rep.ratio_actual_over_bound:.4f} (<= 0.25)"
    )
    assert rep.actual <= rep.theorem_bound
    assert rep.ratio_actual_over_bound <= 0.25


def test_acceptance_7_exact_identities(table_1e6):
    # T_1(h) = h exactly
    for h in range(1, 1001):
        assert tkh_exact(1, h).value == float(h)

    # histogram masses always sum to x
    hist = window_counts(table_1e6, 10 ** 5, 11.51)
    assert sum(hist.counts.values()) == 10 ** 5

    # moment identities for r <= 8: Poisson sum and falling factorials
    for r in range(1, 9):
        for lam in (0.5, 1.0, 3.0):
            direct = sum(poisson_pmf(lam, j) * j ** r for j in range(1, 400))
            assert predicted_moment(r, lam) == pytest.approx(direct, rel=1e-9)
        for m in range(0, 11):
            assert sum(math.factorial(l) * stirling2(r, l) * math.comb(m, l)
                       for l in range(r + 1)) == m ** r

    # Stirling vs exhaustive set-partition enumeration for r <= 8
    from test_moments import _enum_partitions

    for r in range(0, 9):
        parts = list(_enum_partitions(list(range(r))))
        for l in range(r + 1):
            assert stirling2(r, l) == sum(1 for p in parts if len(p) == l)

    # translation invariance, bit exact, 1000 random tuples
    import numpy as np

    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        offs = tuple(sorted(rng.choice(2000, size=k, replace=False).tolist()))
        c = int(rng.integers(1, 10 ** 5))
        from primetail import singular_series

        va = singular_series(Tuple(offs), None)
        vb = singular_series(Tuple(tuple(t + c for t in offs)), None)
        assert (va.value, va.error_radius) == (vb.value, vb.error_radius)

    # the pair fast path agrees with enumeration for every h <= 200
    for h in range(2, 201):
        assert tkh_pair_fast(h).value == pytest.approx(tkh_exact(2, h).value, rel=1e-11)

    # MC lands within 3 sigma of the exact mean in at least 95 of 100 seeds
    exact_mean = tkh_exact(3, 30).value / (math.factorial(3) * math.comb(30, 3))
    hits = 0
    for seed in range(100):
        est = tkh_monte_carlo(3, 30, 10 ** 4, seed=seed)
        if abs(est.mean - exact_mean) <= 3.0 * est.stderr:
            hits += 1
    print(f"[criterion 7] MC within 3 sigma in {hits}/100 seeds (>= 95)")
    assert hits >= 95


def test_acceptance_8_gamma_ratio_trend():
    for text in ("0", "0,2", "0,2,6"):
        H = Tuple.parse(text)
        devs = [abs(gamma_cross_check(H, z) - 1.0) for z in (10 ** 3, 10 ** 4, 10 ** 5)]
        print(f"[criterion 8] H={{{text}}}: |R(z) - 1| = "
              + ", ".join(f"{d:.4f}" for d in devs))
        assert devs[0] >= devs[1] >= devs[2], text
