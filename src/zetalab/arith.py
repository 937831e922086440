"""Exact arithmetic kernels: shifted divisor correlation sums and
Kloosterman sums.

A window's divisor counts come from marking the small divisors
i <= sqrt(n) and counting the cofactor pair, so each window costs
sum_{i <= sqrt(R)} O(S/i) slice increments; additive_divisor streams
windows of a configurable size and never materializes the full range.  Its
oracle additive_divisor_bruteforce counts every divisor of every n <= x + f
instead, so the tests check the window sieve's d(n) too.
Kloosterman sums are evaluated exactly at prime powers through modular
inverses and assembled by twisted multiplicativity; kloosterman_grid, the
literal definition vectorized over (m, n), is the oracle the tests compare
them against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_SEGMENT = 1 << 22


def _sieve_window(lo: int, hi: int) -> np.ndarray:
    """d(n) for n in [lo, hi): mark small divisors, count cofactors, fix squares."""
    size = hi - lo
    d = np.zeros(size, dtype=np.int32)
    r = math.isqrt(hi - 1)
    for i in range(1, r + 1):
        start = ((lo + i - 1) // i) * i
        if start < i * i:
            start = i * i
        if start >= hi:
            continue
        # pairs (i, n/i) contribute 2; the square n = i*i contributes 1
        d[start - lo :: i] += 2
        if i * i >= lo:
            d[i * i - lo] -= 1
    return d


def additive_divisor(x: int, f: int, segment: int = DEFAULT_SEGMENT) -> int:
    """Exact sum_{n<=x} d(n) d(n+f), streamed in windows covering both shifts."""
    if x < 1:
        raise DomainError("x must be >= 1")
    if not (1 <= f <= x):
        raise DomainError("need 1 <= f <= x")
    total = 0
    for lo in range(1, x + 1, segment):
        hi = min(lo + segment, x + 1)
        # one window [lo, hi+f) serves both d(n) and d(n+f)
        d = _sieve_window(lo, hi + f)
        a = d[: hi - lo].astype(np.int64)
        b = d[f : f + hi - lo].astype(np.int64)
        total += int(a @ b)
    return total


def additive_divisor_bruteforce(x: int, f: int) -> int:
    """Literal double definition, d(n) counting every i | n (oracle)."""
    d = np.zeros(x + f + 1, dtype=np.int64)
    for i in range(1, x + f + 1):
        d[i::i] += 1
    return int(d[1 : x + 1] @ d[1 + f : x + f + 1])


# ---------------------------------------------------------------------------
# Kloosterman sums


@dataclass(frozen=True)
class KloostermanValue:
    m: int
    n: int
    c: int
    value: complex
    exact_real: bool = True  # d <-> c-d pairing makes the sum real for integer m, n

    @property
    def real(self) -> float:
        return self.value.real


def _factorize(c: int):
    out = []
    d = 2
    while d * d <= c:
        if c % d == 0:
            e = 0
            while c % d == 0:
                c //= d
                e += 1
            out.append((d, d**e))
        d += 1
    if c > 1:
        out.append((c, c))
    return out


def _kloosterman_prime_power(m: int, n: int, q: int, p: int) -> complex:
    """Direct evaluation over units mod q (q a power of the prime p)."""
    if q == 1:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    two_pi_over_q = 2.0 * math.pi / q
    for d in range(1, q):
        if d % p == 0:
            continue
        dinv = pow(d, -1, q)
        r = (m * d + n * dinv) % q
        total += cmath.exp(1j * (two_pi_over_q * r))
    return total


def kloosterman(m: int, n: int, c: int) -> KloostermanValue:
    """S(m, n; c) by prime-power evaluation and twisted multiplicativity:
    S(m,n;c1 c2) = S(m c2bar, n c2bar; c1) S(m c1bar, n c1bar; c2).
    S(m, n; 1) = 1 by convention."""
    if c < 1:
        raise DomainError("modulus must be >= 1")
    if c == 1:
        return KloostermanValue(m, n, 1, 1.0 + 0.0j)
    total = 1.0 + 0.0j
    for p, q in _factorize(c):
        rest = (c // q) % q
        rbar = pow(rest, -1, q)  # cofactor is coprime to q
        total *= _kloosterman_prime_power((m * rbar) % q, (n * rbar) % q, q, p)
    return KloostermanValue(m, n, c, total)


def kloosterman_grid(ms, ns, c: int) -> np.ndarray:
    """S(m, n; c) for all (m, n) in ms x ns at once (vectorized brute force)."""
    if c < 1:
        raise DomainError("modulus must be >= 1")
    ms = np.asarray(list(ms), dtype=np.int64)
    ns = np.asarray(list(ns), dtype=np.int64)
    if c == 1:
        return np.ones((len(ms), len(ns)), dtype=complex)
    ds = np.array([d for d in range(1, c) if math.gcd(d, c) == 1], dtype=np.int64)
    dinv = np.array([pow(int(d), -1, c) for d in ds], dtype=np.int64)
    em = np.exp(2j * np.pi * (np.outer(ms, ds) % c) / c)
    en = np.exp(2j * np.pi * (np.outer(ns, dinv) % c) / c)
    return em @ en.T

