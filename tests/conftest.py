import mpmath
import numpy as np
import pytest

from primetail import primes, sieve_range


@pytest.fixture
def fresh_prime_cache(monkeypatch):
    """Empty the shared small-prime cache to its import state, [2] up to 2.

    monkeypatch restores the shared cache at teardown, so a test that grows
    it, or shrinks the prime budget, leaves nothing behind for the next one.
    The fixture's value empties the cache again when called.
    """

    def empty():
        monkeypatch.setattr(primes, "_primes", np.array([2], dtype=np.int64))
        monkeypatch.setattr(primes, "_cap", 2)

    empty()
    return empty


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_range(0, 10 ** 6 + 64)


@pytest.fixture(scope="session")
def table_1e7():
    return sieve_range(0, 10 ** 7 + 64)


@pytest.fixture(scope="session")
def li_oracle():
    """li_k at ascending xs: mpmath quadrature in t on doubling breakpoints."""

    def li(xs, k):
        out, total, a = [], mpmath.mpf(0), mpmath.mpf(2)
        with mpmath.workdps(25):
            for x in xs:
                pts = [a]
                while 2 * pts[-1] < x:
                    pts.append(2 * pts[-1])
                pts.append(mpmath.mpf(x))
                total += mpmath.quad(lambda t: mpmath.log(t) ** -k, pts)
                out.append(float(total))
                a = pts[-1]
        return out

    return li
