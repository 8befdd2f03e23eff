"""Small exact integer helpers: trial-division factorization and primality.

Everything in this package works with exact integers (and Fractions for
elasticities).  Trial division takes time on the order of the square root
of its input, so callers bound what they pass: matrix determinants and
diagonal entries are checked against ``matrices._DET_CAP`` (10^6), and
group orders against the cap of ``zerosum`` (64), before any test here.
"""

from __future__ import annotations

from typing import Dict


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor(n: int) -> Dict[int, int]:
    """Prime factorization of |n| as {prime: multiplicity}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def big_omega(n: int) -> int:
    """Number of prime factors of |n| counted with multiplicity."""
    return 0 if abs(n) == 1 else sum(factor(n).values())
