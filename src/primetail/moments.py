"""Moments and upper tails of window prime counts, against Poisson predictions.

Empirical moments come off a WindowHistogram as exact integer sums before
one final division. Predictions are Poisson moments via Stirling numbers,
with both the nominal lambda = h/log x and the measured lambda_eff = m_1
carried side by side on every report.
"""

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache


def stirling2(r, l):
    """Stirling number of the second kind S(r, l), exact."""
    if r < 0 or l < 0:
        raise ValueError("need r, l >= 0")
    return _stirling_row(r)[l] if l <= r else 0


@lru_cache(maxsize=None)
def _stirling_row(r):
    """(S(r, 0), ..., S(r, r)), built a row at a time by S(n + 1, l) = l S(n, l) + S(n, l - 1)."""
    row = [1]
    for n in range(r):
        row = [0, *(l * row[l] + row[l - 1] for l in range(1, n + 1)), 1]
    return tuple(row)


def empirical_moment(hist, r):
    """m_r = (1/x) sum_c N_c c^r, the integer sum taken exactly."""
    if r < 0:
        raise ValueError("need r >= 0")
    return sum(n * c ** r for c, n in hist.counts.items()) / hist.x


def predicted_moment(r, lam):
    """r-th moment of Poisson(lam): sum_l S(r, l) lam^l."""
    if r < 1:
        raise ValueError("need r >= 1")
    if lam <= 0:
        raise ValueError("need lam > 0")
    return math.fsum(stirling2(r, l) * lam ** l for l in range(1, r + 1))


def exact_count(hist, k):
    """N_k: number of windows holding exactly k primes."""
    if k < 0:
        raise ValueError("need k >= 0")
    return hist.counts.get(k, 0)


def tail_count(hist, k):
    """I(x; k, h): number of windows holding at least k primes."""
    if k < 0:
        raise ValueError("need k >= 0")
    return sum(n for c, n in hist.counts.items() if c >= k)


def poisson_pmf(lam, k):
    if lam <= 0 or k < 0:
        raise ValueError("need lam > 0 and k >= 0")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_tail(lam, k):
    """P(X >= k) for X ~ Poisson(lam), summing the pmf on the side that decays.

    For k > lam this sums the terms from k upward; otherwise it sums those
    from k - 1 downward and returns 1 minus the sum. The first term,
    lam^j0 e^-lam / j0!, is taken at 40 decimal digits, each next one by a
    float ratio <= 1 (lam/j up, j/lam down), until a term falls below 2^-60
    of the first.
    """
    if lam <= 0 or k < 0:
        raise ValueError("need lam > 0 and k >= 0")
    up = k > lam
    j0 = k if up else k - 1
    if j0 < 0 or j0 * math.log(lam) - lam - math.lgamma(j0 + 1) < -750:
        return 0.0 if up else 1.0
    terms, t, j = [1.0], 1.0, j0
    while t >= 2.0 ** -60 and (up or j > 0):
        if up:
            j += 1
            t *= lam / j
        else:
            t *= j / lam
            j -= 1
        terms.append(t)
    with decimal.localcontext(_DECIMAL_40):
        lam_d = decimal.Decimal(float(lam))
        first = (int(j0) * lam_d.ln() - lam_d - _log_factorial(int(j0))).exp()
        s = float(first * decimal.Decimal(math.fsum(terms)))
    return s if up else 1.0 - s


# poisson_tail's own context, so the caller's precision, rounding and traps do not reach the bits
_DECIMAL_40 = decimal.Context(prec=40, rounding=decimal.ROUND_HALF_EVEN, traps=[decimal.InvalidOperation])
# B_2m / (2m (2m - 1)) for m = 1..10: the coefficients of Stirling's series for log n!
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156),
             (-3617, 122400), (43867, 244188), (-174611, 125400))
_HALF_LOG_2PI = decimal.Decimal("0.918938533204672741780329736405617639861397473637783")


def _log_factorial(n):
    """log n! in the current decimal context: of the exact n! below 100, else by Stirling's
    series (n + 1/2) log n - n + log(2 pi)/2 + sum_m B_2m / (2m (2m - 1) n^(2m - 1)), whose
    first omitted term, 13.4 / n^21, is below 10^-41 there. Either way the cost does not grow with n.
    """
    if n < 100:
        return decimal.Decimal(math.factorial(n)).ln()
    d = decimal.Decimal(n)
    series = sum(decimal.Decimal(a) / (b * d ** (2 * m + 1)) for m, (a, b) in enumerate(_STIRLING))
    return (d + decimal.Decimal("0.5")) * d.ln() - d + _HALF_LOG_2PI + series


def corollary_bound(lam, k):
    """exp(-k/(lam e)) for lam >= 1, else exp(-k/((lam+1) e))."""
    if lam <= 0 or k < 1:
        raise ValueError("need lam > 0 and k >= 1")
    scale = lam if lam >= 1 else lam + 1.0
    return math.exp(-k / (scale * math.e))


def biggerk_bound(k, lam, h, delta):
    """exp((log h)^(1-delta) (log(lam+1) + (1-delta) log log h - log k)).

    Needs h > e so the inner log log is positive.
    """
    if k < 1 or lam <= 0:
        raise ValueError("need k >= 1 and lam > 0")
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    if h <= math.e:
        raise ValueError("need h > e")
    lh = math.log(h)
    return math.exp(lh ** (1.0 - delta) * (math.log(lam + 1.0) + (1.0 - delta) * math.log(lh) - math.log(k)))


@dataclass(frozen=True)
class MomentReport:
    x: int
    h: float
    lam: float
    lam_eff: float
    r: int
    empirical: float
    predicted: float
    ratio: float
    predicted_eff: float
    ratio_eff: float


@dataclass(frozen=True)
class TailReport:
    x: int
    h: float
    lam: float
    lam_eff: float
    k: int
    I_count: int
    pi_k_count: int
    poisson_tail: float
    corollary_bound: float | None
    poisson_tail_eff: float
    corollary_bound_eff: float | None


def _log_x(x):
    """log x, the denominator of lambda = h / log x; x below 2 is refused."""
    if x < 2:
        raise ValueError(f"need x >= 2 for lambda = h / log x, got x = {x}")
    return math.log(x)


def _lambdas(hist):
    """(lambda, lambda_eff) = (h / log x, m_1) of a window histogram."""
    return hist.h / _log_x(hist.x), empirical_moment(hist, 1)


def moment_report(hist, r):
    """Empirical m_r against the Poisson prediction at lambda and lambda_eff."""
    x, h = hist.x, hist.h
    lam, lam_eff = _lambdas(hist)
    emp = empirical_moment(hist, r)
    pred = predicted_moment(r, lam)
    pred_eff = predicted_moment(r, lam_eff)
    return MomentReport(x, h, lam, lam_eff, r, emp, pred, emp / pred, pred_eff, emp / pred_eff)


def tail_report(hist, k):
    """Tail and exact window counts at level k with their Poisson analogues."""
    lam, lam_eff = _lambdas(hist)
    return TailReport(
        hist.x,
        hist.h,
        lam,
        lam_eff,
        k,
        tail_count(hist, k),
        exact_count(hist, k),
        poisson_tail(lam, k),
        corollary_bound(lam, k) if k >= 1 else None,
        poisson_tail(lam_eff, k),
        corollary_bound(lam_eff, k) if k >= 1 else None,
    )
