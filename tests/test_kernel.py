"""Fast float64 kernel vs the high-precision routes."""

import mpmath
import numpy as np

from zetalab import zkernel


class TestKernelAccuracy:
    def test_em_branch_vs_mpmath(self, rng):
        mpmath.mp.prec = 80
        ts = np.sort(rng.uniform(0.0, 399.5, 40))
        z, err = zkernel.z_em_block(ts)
        for t, zi, ei in zip(ts, z, err):
            ref = float(mpmath.siegelz(t))
            assert abs(zi - ref) <= ei

    def test_rs_branch_vs_mpmath(self, rng):
        mpmath.mp.prec = 80
        ts = np.sort(rng.uniform(401.0, 6000.0, 30))
        z, err = zkernel.z_rs_block(ts)
        for t, zi, ei in zip(ts, z, err):
            ref = float(mpmath.siegelz(t))
            assert abs(zi - ref) <= ei

    def test_em_error_model_dominates_imaginary_witness(self):
        # Z is real: |Im(e^(i theta) zeta)| witnesses the rounding the model charges
        ts = np.linspace(0.5, 399.5, 20001)
        w = np.exp(1j * zkernel.theta_fast(ts)) * zkernel.zeta_half_em(ts)
        _, err = zkernel.z_em_block(ts)
        assert np.all(np.abs(w.imag) <= err)

    def test_branch_agreement_at_switch(self):
        ts = np.linspace(390.0, 410.0, 41)
        z_em, e_em = zkernel.z_em_block(ts)
        z_rs, e_rs = zkernel.z_rs_block(ts)
        assert np.all(np.abs(z_em - z_rs) <= e_em + e_rs)

    def test_rs_point_independent_of_the_call(self):
        ts = np.array([450.0, 2.0e3, 7.5e4])
        z, err = zkernel.z_rs_block(ts)
        for j, t in enumerate(ts):
            zj, ej = zkernel.z_rs_block(ts[j : j + 1])
            assert (zj[0], ej[0]) == (z[j], err[j]), t

    def test_em_point_independent_of_the_call(self, rng):
        ts = rng.uniform(0.0, 400.0, 2 * zkernel.EM_BLOCK + 37)   # three blocks
        z, err = zkernel.z_em_block(ts)
        zeta = zkernel.zeta_half_em(ts)
        for j, t in enumerate(ts):
            zj, ej = zkernel.z_em_block(ts[j : j + 1])
            assert (zj[0], ej[0], zkernel.zeta_half_em(ts[j : j + 1])[0]) == (z[j], err[j], zeta[j]), t

    def test_moment_integrand_power_and_error(self):
        ts = np.linspace(10.0, 50.0, 64)
        z, zerr = zkernel.z_block(ts)
        for k in (1, 2, 6):
            f, df = zkernel.moment_integrand(ts, k)
            assert np.allclose(f, z ** (2 * k), rtol=1e-12)
            assert np.all(df >= 0)

    def test_theta_fast_matches_scalar(self, ctx):
        from zetalab.zeta import rs_theta

        ts = np.array([5.0, 60.0, 1234.5])
        th = zkernel.theta_fast(ts)
        for t, v in zip(ts, th):
            ref, err = rs_theta(float(t), ctx)
            assert abs(v - float(ref)) < 1e-10
