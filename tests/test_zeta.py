"""zeta_em, chi, rs_theta and hardy_z (both evaluation routes)."""

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc

from zetalab.errors import DomainError, PoleError, PrecisionFailure
from zetalab.precision import PrecisionContext
from zetalab.zeta import chi, hardy_z, rs_theta, zeta_em, zeta_sample

from _frozen import THETA_POSITIVE_ZERO


class TestZetaEM:
    def test_classical_value_at_two(self, ctx_tight):
        v, err = zeta_em(mpc(2), ctx_tight)
        with ctx_tight.workprec():
            assert abs(v - mp.pi**2 / 6) < 1e-30

    def test_pole_at_one(self, ctx):
        with pytest.raises(PoleError):
            zeta_em(mpc(1), ctx)

    def test_first_zero(self, ctx):
        v, _ = zeta_em(mpc(0.5, 14.134725), ctx)
        assert abs(v) < 1e-5

    def test_conjugate_symmetry(self, ctx_tight):
        v1, _ = zeta_em(mpc(0.5, 10.0), ctx_tight)
        v2, _ = zeta_em(mpc(0.5, -10.0), ctx_tight)
        with ctx_tight.workprec():
            assert abs(v1 - mp.conj(v2)) < 1e-20

    def test_functional_equation_grid(self, ctx, rng):
        # |zeta(s) - chi(s) zeta(1-s)| small on 50 points in the strip
        for _ in range(50):
            s = mpc(rng.uniform(0.2, 0.8), rng.uniform(5, 200))
            z1, _ = zeta_em(s, ctx)
            ch, _ = chi(s, ctx)
            z2, _ = zeta_em(1 - s, ctx)
            assert abs(z1 - ch * z2) < 1e-12

    def test_reflection_branch(self, ctx):
        # Re s < -0.5 goes through the functional equation
        v, err = zeta_em(mpc(-2.5, 3.0), ctx)
        mp.prec = 160
        ref = mpmath.zeta(mpc(-2.5, 3.0))
        assert abs(v - ref) <= max(err, 1e-25)

    def test_zeta_sample_invariant(self, ctx):
        s = zeta_sample(25.0, ctx)
        z, _ = hardy_z(25.0, ctx, method="em")
        assert abs(abs(s.value) - abs(z)) <= s.abs_err + 1e-20


class TestChi:
    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0, 1000.0])
    def test_unimodular_on_critical_line(self, ctx, t):
        v, _ = chi(mpc(0.5, t), ctx)
        assert abs(abs(v) - 1) < 1e-12

    def test_value_at_half(self, ctx):
        v, _ = chi(mpc(0.5), ctx)
        assert abs(v - 1) < 1e-20

    def test_involution_identity(self, ctx):
        s = mpc(0.3, 7.0)
        v1, _ = chi(s, ctx)
        v2, _ = chi(1 - s, ctx)
        assert abs(v1 * v2 - 1) < 1e-15

    def test_involution_grid(self, ctx, rng):
        for _ in range(50):
            s = mpc(rng.uniform(0.1, 0.9), rng.uniform(-150, 150))
            v1, _ = chi(s, ctx)
            v2, _ = chi(1 - s, ctx)
            assert abs(v1 * v2 - 1) < 1e-12

    def test_pole_guard(self, ctx):
        with pytest.raises(PoleError):
            chi(mpc(3), ctx)

    def test_trivial_zero(self, ctx):
        v, _ = chi(mpc(-4), ctx)
        assert v == 0


class TestRsTheta:
    def test_defining_relation_with_chi(self, ctx):
        # chi(1/2 + it) = exp(-2 i theta(t))
        t = 50.0
        th, _ = rs_theta(t, ctx)
        ch, _ = chi(mpc(0.5, t), ctx)
        with ctx.workprec():
            assert abs(mp.expj(-2 * th) - ch) < 1e-12

    def test_positive_zero_bracketed(self, ctx):
        z = THETA_POSITIVE_ZERO
        lo, _ = rs_theta(z - 1e-6, ctx)
        hi, _ = rs_theta(z + 1e-6, ctx)
        assert lo < 0 < hi
        assert abs(z - 17.8455995) < 1e-6

    def test_monotone_for_large_t(self, ctx):
        # oracle: finite-difference slope of the direct evaluation
        h = 1e-4
        for t in [10.0, 25.0, 60.0, 150.0, 400.0]:
            a = rs_theta(t - h, ctx, method="direct").value
            b = rs_theta(t + h, ctx, method="direct").value
            assert (b - a) / (2 * h) > 0

    def test_asymptotic_matches_direct(self, ctx):
        # At t = 3, 5, 7 the term 1/2 arctan(e^(-pi t)) is 4e-5, 7.5e-8 and
        # 1.4e-10, far above the series' truncation bound.  At t = 3 the
        # series cannot reach 1e-12 at all, so it is held to 1e-8 there.
        loose = PrecisionContext(128, 1e-8, 1e-8)
        for t in [3.0, 5.0, 7.0, 10.0, 30.0, 100.0, 1000.0]:
            c = loose if t < 4 else ctx
            va, ea = rs_theta(t, c, method="asymptotic")
            vd, ed = rs_theta(t, c, method="direct")
            assert abs(va - vd) <= ea + ed
        with pytest.raises(PrecisionFailure):
            rs_theta(3.0, ctx, method="asymptotic")

    def test_auto_bound_covers_direct_on_grid(self, ctx):
        # the series' truncation bound has no proven constant: check it
        for t in list(np.linspace(2.0, 20.0, 181)) + list(np.geomspace(20.0, 1000.0, 60)):
            va, ea = rs_theta(float(t), ctx)
            vd, ed = rs_theta(float(t), ctx, method="direct")
            assert abs(va - vd) <= ea + ed
            assert ea <= ctx.tolerance_for(abs(vd))

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            rs_theta(0.0, ctx)


class TestHardyZ:
    def test_zero_at_first_zeta_zero(self, ctx):
        v, _ = hardy_z(14.134725, ctx)
        assert abs(v) < 1e-5

    def test_defining_identity_at_100(self, ctx):
        # Z(100) = Re(e^{i theta} zeta), imaginary part below 1e-10
        z, _ = zeta_em(mpc(0.5, 100.0), ctx)
        th, _ = rs_theta(100.0, ctx)
        with ctx.workprec():
            w = mp.expj(th) * z
        v, _ = hardy_z(100.0, ctx, method="em")
        assert abs(float(w.imag)) < 1e-10
        assert abs(v - w.real) < 1e-15

    def test_z_squared_matches_em_oracle(self, ctx, rng):
        # default path vs |zeta_em|^2 at 50 random t, relative 1e-10
        for _ in range(50):
            t = rng.uniform(10.0, 500.0)
            v, _ = hardy_z(t, ctx)
            z, _ = zeta_em(mpc(0.5, t), ctx)
            ref = float(abs(z)) ** 2
            if ref > 1e-12:
                assert abs(float(v) ** 2 - ref) <= 1e-10 * ref + 1e-14

    def test_method_agreement_within_combined_errors(self, ctx, rng):
        # Riemann-Siegel vs Euler-Maclaurin on the overlap window
        for _ in range(50):
            t = rng.uniform(35.0, 500.0)
            v_rs, e_rs = hardy_z(t, ctx, method="rs")
            v_em, e_em = hardy_z(t, ctx, method="em")
            assert abs(float(v_rs) - float(v_em)) <= e_rs + e_em

    def test_rs_actual_error_far_below_model(self, ctx):
        v_rs, e_rs = hardy_z(5000.0, ctx, method="rs")
        v_em, _ = hardy_z(5000.0, ctx, method="em")
        assert abs(float(v_rs) - float(v_em)) < e_rs

    def test_real_within_error(self, ctx):
        # em route certifies Z real through its residual imaginary part
        for t in [0.5, 3.0, 19.0, 77.0]:
            v, err = hardy_z(t, ctx, method="em")
            assert float(v) == float(v)  # finite
            assert err < 1e-10

    def test_auto_uses_em_below_crossover(self, ctx):
        v, err = hardy_z(5.0, ctx)
        assert err < 1e-12

    def test_domain(self, ctx):
        with pytest.raises(DomainError):
            hardy_z(-1.0, ctx)
        with pytest.raises(DomainError):
            hardy_z(10.0, ctx, method="nope")
