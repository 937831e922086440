"""Shifted divisor correlations and Kloosterman sums."""

import math

import numpy as np
import pytest

from zetalab.arith import (
    additive_divisor,
    additive_divisor_bruteforce,
    kloosterman,
    kloosterman_grid,
)
from zetalab.errors import DomainError


def divisors_direct(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


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
        assert kloosterman_grid([5], [-3], 1)[0, 0] == 1

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
        # |S(m, n; c)| <= d(c) sqrt(gcd(m, n, c)) sqrt(c)
        ms = np.arange(1, 11)
        for c in range(1, 501):
            grid = kloosterman_grid(ms, ms, c)
            g = np.gcd(np.gcd.outer(ms, ms), c)
            bound = divisors_direct(c) * np.sqrt(g) * math.sqrt(c)
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
