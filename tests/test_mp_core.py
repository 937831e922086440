"""Precision contexts, zeta'(2) and the cached constants."""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from zetalab.constants import constants_for
from zetalab.errors import DomainError
from zetalab.precision import PrecisionContext


class TestPrecisionContext:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            PrecisionContext(work_bits=32)
        with pytest.raises(DomainError):
            PrecisionContext(abs_tol=0.0)
        with pytest.raises(DomainError):
            PrecisionContext(rel_tol=1.5)

    def test_defaults_valid(self, ctx):
        assert ctx.work_bits >= 64
        assert 0 < ctx.abs_tol < 1 and 0 < ctx.rel_tol < 1

    def test_complex_value_conjugation_involution(self, ctx):
        with ctx.workprec():
            z = mpc("1.25", "-3.5")
            assert mp.conj(mp.conj(z)) == z
            assert abs(abs(z) ** 2 - (z.real**2 + z.imag**2)) <= ctx.rel_tol * abs(z) ** 2


class TestZetaPrimeAtTwo:
    def test_against_partial_sum_oracle(self, ctx):
        # oracle: direct partial sum to 1e6 plus Euler-Maclaurin tail correction
        n = np.arange(2, 10**6, dtype=float)
        partial = float(np.sum(np.log(n) / n**2))
        big_n = 1e6
        log_n = math.log(big_n)
        tail = (log_n + 1) / big_n + log_n / (2 * big_n**2)
        oracle = -(partial + tail)
        assert abs(float(constants_for(ctx).zeta_prime_2) - oracle) < 1e-11

    def test_sign_negative(self, ctx):
        assert constants_for(ctx).zeta_prime_2 < 0

    def test_cross_context_agreement_25_digits(self):
        v96 = constants_for(PrecisionContext(96, 1e-12, 1e-12)).zeta_prime_2
        v160 = constants_for(PrecisionContext(160, 1e-12, 1e-12)).zeta_prime_2
        assert abs(mpf(v96) - mpf(v160)) < mpf(10) ** (-25)

    def test_matches_mpmath_derivative(self, ctx):
        mp.prec = 160
        ref = mp.zeta(2, derivative=1)
        assert abs(constants_for(ctx).zeta_prime_2 - ref) < 1e-35


class TestConstants:
    def test_euler_gamma_value(self, ctx):
        c = constants_for(ctx)
        assert abs(float(c.euler_gamma) - 0.5772156649015329) < 1e-15

    def test_cached_identity(self, ctx):
        assert constants_for(ctx) is constants_for(ctx)

    def test_zeta_prime_2_consistent(self, ctx):
        # taken at the context's working precision, not at mpmath's current one
        c = constants_for(ctx)
        with ctx.workprec():
            assert c.zeta_prime_2 == mp.zeta(2, derivative=1)
