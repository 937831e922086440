"""Laplace transforms, Kober and Atkinson comparisons."""

import math

import numpy as np
import pytest

from zetalab import laplace
from zetalab.config import QuadConfig
from zetalab.errors import DomainError
from zetalab.laplace import (
    atkinson_coeffs,
    atkinson_expansion,
    kober_main,
    laplace_moment,
    laplace_moment_grid,
)

from zetalab.moments import default_p4

import _frozen as F
from _fingerprint import frozen_mismatch


class TestLaplaceMoment:
    def test_exponential_hook(self, cfg, monkeypatch):
        monkeypatch.setattr(laplace, "moment_integrand", lambda t, k: (np.ones_like(t), np.zeros_like(t)))
        r = laplace_moment(1, 2.0, cfg)
        assert abs(r.value - 0.5) < 1e-8
        r = laplace_moment(1, 2.0 + 1.0j, cfg)
        assert abs(r.value - 1.0 / (2.0 + 1.0j)) < 1e-8

    def test_fixture_k2(self, cfg):
        r = laplace_moment(2, 0.1, cfg)
        assert r.value == F.LAPLACE2_01, frozen_mismatch("LAPLACE2_01")
        assert abs(r.value - F.LAPLACE2_01_ORACLE) <= r.err_bound

    def test_domain_errors(self, cfg):
        with pytest.raises(DomainError):
            laplace_moment(1, -0.1, cfg)
        with pytest.raises(DomainError):
            laplace_moment(1, 0.0, cfg)
        with pytest.raises(DomainError):
            laplace_moment(3, 0.5, cfg)

    def test_complex_s_conjugate_symmetry(self, cfg):
        r1 = laplace_moment(1, complex(0.5, 0.2), cfg)
        r2 = laplace_moment(1, complex(0.5, -0.2), cfg)
        assert abs(r1.value - r2.value.conjugate()) < 1e-9

    def test_grid_matches_single_calls(self, cfg):
        grid = laplace_moment_grid(1, [0.3, 0.7], cfg)
        solo = [laplace_moment(1, s, cfg) for s in (0.3, 0.7)]
        for g, s in zip(grid, solo):
            assert g.value == s.value and g.err_bound == s.err_bound

    def test_tail_bound_scales_down_with_x(self):
        tight = QuadConfig(laplace_tail_abs=1e-10)
        loose = QuadConfig(laplace_tail_abs=1e-6)
        rt = laplace_moment(1, 0.2, tight)
        rl = laplace_moment(1, 0.2, loose)
        assert rt.t_range[1] > rl.t_range[1]
        assert abs(rt.value - rl.value) <= rl.err_bound + rt.err_bound


class TestKober:
    def test_zero_of_main_term(self):
        sigma = math.exp(0.5772156649015329) / (4 * math.pi)
        assert abs(kober_main(sigma)) < 1e-14

    def test_direct_substitution(self):
        sigma = 0.1
        expect = (0.5772156649015329 - math.log(4 * math.pi * sigma)) / (2 * math.sin(sigma))
        assert abs(kober_main(sigma) - expect) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            kober_main(0.0)
        with pytest.raises(DomainError):
            kober_main(1.5)

    def test_difference_converges_to_constant(self, cfg):
        # differences from the smallest-sigma value shrink by >= 2x per step
        sig = [0.2, 0.1, 0.05, 0.02]
        res = laplace_moment_grid(1, [2 * s for s in sig], cfg)
        g = [r.value - kober_main(s) for s, r in zip(sig, res)]
        assert tuple(g) == F.KOBER_DIFFS, frozen_mismatch("KOBER_DIFFS")
        e = [abs(v - g[-1]) for v in g[:-1]]
        assert e[1] <= 0.5 * e[0]
        assert e[2] <= 0.5 * e[1]


class TestAtkinson:
    def test_a_value(self):
        assert abs(atkinson_coeffs()[0] - 0.050660591821168885) < 1e-15

    def test_b_fixture_15_digits(self):
        # oracle: the closed form printed in the source, from gamma, log 2pi,
        # zeta'(2); the exact B, forced by the exact P4, is its negative
        import mpmath

        mpmath.mp.prec = 200
        g = mpmath.mp.euler
        zp2 = mpmath.mp.zeta(2, derivative=1)
        pi2 = mpmath.mp.pi**2
        ref = float((2 * mpmath.mp.log(2 * mpmath.mp.pi) - 6 * g + 24 * zp2 / pi2) / pi2)
        assert abs(atkinson_coeffs()[1] - (-ref)) < 1e-15

    def test_exact_coefficients(self):
        expect = (0.0506606, 0.2094698, -0.3646244, 1.4309047, -1.6401638)
        assert np.all(np.abs(np.array(atkinson_coeffs()) - expect) < 1e-6)

    def test_expansion_substitution(self):
        v = atkinson_expansion(0.01)
        a, b, c, d, e = atkinson_coeffs()
        ell = math.log(100.0)
        expect = (a * ell**4 + b * ell**3 + c * ell**2 + d * ell + e) / 0.01
        assert abs(v - expect) < 1e-9 * abs(expect)

    def test_main_term_is_the_transform_of_the_p4_main_term(self):
        # oracle: tanh-sinh quadrature of int_0^inf e^(-sigma t) d(t P4(log t))
        import mpmath

        p4 = np.poly1d(default_p4().coeffs)
        q = p4 + p4.deriv()
        for sigma in (0.01, 0.1):
            ref = mpmath.quad(lambda t: mpmath.exp(-sigma * t) * q(mpmath.log(t)),
                              [0, 1, 10, 100, 1000, mpmath.inf])
            assert abs(atkinson_expansion(sigma) - float(ref)) < 1e-12 * abs(float(ref))
