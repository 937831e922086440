"""Divisor sieves, shifted correlations, Kloosterman sums."""

import math

import numpy as np
import pytest

from zetalab.arith import (
    additive_divisor,
    additive_divisor_bruteforce,
    divisor_sieve,
    kloosterman,
    kloosterman_bruteforce,
    kloosterman_grid,
    weil_bound,
)
from zetalab.errors import CapacityExceeded, DomainError


def divisors_direct(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class TestDivisorSieve:
    def test_examples(self):
        t = divisor_sieve(20)
        assert t.count(1) == 1
        assert t.count(12) == 6
        assert int(t.d[1:9].sum()) == 20

    def test_matches_direct_counting(self):
        t = divisor_sieve(10**4)
        for n in list(range(1, 200)) + [511, 1024, 5040, 9973, 10**4]:
            assert t.count(n) == divisors_direct(n)

    def test_multiplicative_spot_checks(self):
        t = divisor_sieve(10**4)
        for (a, b) in [(7, 11), (4, 9), (8, 27), (25, 49)]:
            assert t.count(a * b) == t.count(a) * t.count(b)
        for p in (2, 3, 5, 97, 9973):
            assert t.count(p) == 2

    def test_segmented_equals_monolithic(self):
        small = divisor_sieve(5000, segment=257)
        big = divisor_sieve(5000)
        assert np.array_equal(small.d, big.d)

    def test_capacity_and_domain(self):
        with pytest.raises(DomainError):
            divisor_sieve(0)
        with pytest.raises(CapacityExceeded):
            divisor_sieve((1 << 26) + 1)


class TestAdditiveDivisor:
    def test_small_examples(self):
        assert additive_divisor(5, 1) == 26
        assert additive_divisor(1, 1) == 2

    def test_matches_brute_force_lattice(self):
        for f in list(range(1, 51)):
            assert additive_divisor(10**4, f) == additive_divisor_bruteforce(10**4, f)

    def test_segmentation_invariance(self):
        assert additive_divisor(12345, 7, segment=1000) == additive_divisor(12345, 7)

    def test_monotone_in_x(self):
        vals = [additive_divisor(x, 3) for x in (10, 100, 1000, 5000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            additive_divisor(0, 1)
        with pytest.raises(DomainError):
            additive_divisor(10, 11)


class TestKloosterman:
    def test_examples(self):
        assert abs(kloosterman(1, 1, 2).value - 1) < 1e-12
        assert abs(kloosterman(1, 1, 3).value - (-1)) < 1e-12
        assert abs(kloosterman(1, 0, 4).value) < 1e-12

    def test_convention_c1(self):
        assert kloosterman(5, -3, 1).value == 1
        assert kloosterman_bruteforce(5, -3, 1).value == 1

    def test_fast_path_equals_bruteforce(self):
        for c in range(1, 101):
            grid = kloosterman_grid(range(1, 11), range(1, 11), c)
            for i, m in enumerate(range(1, 11)):
                for j, n in enumerate(range(1, 11)):
                    v = kloosterman(m, n, c).value
                    assert abs(v - grid[i, j]) < 1e-9

    def test_symmetry(self):
        for c in (7, 12, 45, 64, 97):
            for m in range(1, 11):
                for n in range(m, 11):
                    a = kloosterman(m, n, c).value
                    b = kloosterman(n, m, c).value
                    assert abs(a - b) < 1e-10

    def test_reality(self):
        for c in (5, 8, 21, 100, 243):
            v = kloosterman(3, 7, c).value
            assert abs(v.imag) < 1e-12 * max(1.0, abs(v.real))

    def test_ramanujan_degenerate(self):
        # S(0,0;c) = phi(c)
        def phi(c):
            return sum(1 for d in range(1, c + 1) if math.gcd(d, c) == 1)

        for c in (2, 6, 9, 30, 97):
            assert abs(kloosterman(0, 0, c).value - phi(c)) < 1e-9

    def test_weil_audit(self):
        table = divisor_sieve(500)
        for c in range(1, 501):
            grid = kloosterman_grid(range(1, 11), range(1, 11), c)
            bound = np.array(
                [[weil_bound(m, n, c, table) for n in range(1, 11)] for m in range(1, 11)]
            )
            assert np.all(np.abs(grid) <= bound + 1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            kloosterman(1, 1, 0)


@pytest.mark.slow
class TestPerformance:
    def test_additive_divisor_1e8_under_five_minutes(self):
        import time

        t0 = time.time()
        v = additive_divisor(10**8, 1)
        elapsed = time.time() - t0
        assert v == 23474766980  # frozen from the first verified run
        assert elapsed < 300.0
