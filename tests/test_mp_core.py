"""The precision context, zeta'(2) and the cached constants."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from zetalab.constants import constants_for
from zetalab.errors import DomainError
from zetalab.precision import DEFAULT_CTX, PrecisionContext


class TestPrecisionContext:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            PrecisionContext(work_bits=32)

    def test_defaults_valid(self):
        # the precision every float64 main-term constant is rounded from
        assert DEFAULT_CTX.work_bits == 128


class TestZetaPrimeAtTwo:
    def test_against_partial_sum_oracle(self):
        # oracle: direct partial sum to 1e6 plus Euler-Maclaurin tail correction
        n = np.arange(2, 10**6, dtype=float)
        partial = float(np.sum(np.log(n) / n**2))
        big_n = 1e6
        log_n = math.log(big_n)
        tail = (log_n + 1) / big_n + log_n / (2 * big_n**2)
        oracle = -(partial + tail)
        assert abs(float(constants_for(DEFAULT_CTX).zeta_prime_2) - oracle) < 1e-11

    def test_sign_negative(self):
        assert constants_for(DEFAULT_CTX).zeta_prime_2 < 0

    def test_cross_context_agreement_25_digits(self):
        v96 = constants_for(PrecisionContext(96)).zeta_prime_2
        v160 = constants_for(PrecisionContext(160)).zeta_prime_2
        assert abs(mpf(v96) - mpf(v160)) < mpf(10) ** (-25)

    def test_matches_mpmath_derivative(self):
        mp.prec = 160
        ref = mp.zeta(2, derivative=1)
        assert abs(constants_for(DEFAULT_CTX).zeta_prime_2 - ref) < 1e-35


class TestConstants:
    def test_euler_gamma_value(self):
        c = constants_for(DEFAULT_CTX)
        assert abs(float(c.euler_gamma) - 0.5772156649015329) < 1e-15

    def test_cached_identity(self):
        assert constants_for(DEFAULT_CTX) is constants_for(DEFAULT_CTX)

    def test_zeta_prime_2_consistent(self):
        # taken at the context's working precision, not at mpmath's current one
        c = constants_for(DEFAULT_CTX)
        with DEFAULT_CTX.workprec():
            assert c.zeta_prime_2 == mp.zeta(2, derivative=1)
