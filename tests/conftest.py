import math
import os

import mpmath
import numpy as np
import pytest

from primetail import primes, sieve_range


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail the test if it leaves a child process unreaped, running or exited."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"left a child process unreaped: waitpid gave {left}")


@pytest.fixture
def no_sieve(monkeypatch):
    """Fail the test if anything sieves: primes._segments, the one sieve loop, raises."""

    def never(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(primes, "_segments", never)


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_range(0, 10 ** 6 + 64)


@pytest.fixture(scope="session")
def table_1e7():
    return sieve_range(0, 10 ** 7 + 64)


@pytest.fixture(scope="session")
def prime_flags():
    """flags[n] is True exactly when n is prime, for n <= 10^7 + 64, the reach of table_1e7.

    A plain Eratosthenes sieve over every n, sharing no code with the package's
    segmented odd-only sieve, so tests check the package's tables against it.
    """
    flags = np.ones(10 ** 7 + 65, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(len(flags) - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


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
