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

    def test_em_branch_vs_mpmath_at_band_edges(self):
        # each band's lowest t and its highest, where its truncation is tightest
        edges = zkernel.EM_BAND * np.arange(len(zkernel.EM_TERMS) + 1)
        ts = np.concatenate([edges[:-1], np.nextafter(edges[1:], 0.0)])
        z, err = zkernel.z_em_block(ts)
        with mpmath.workprec(80):
            for t, zi, ei in zip(ts, z, err):
                assert abs(zi - float(mpmath.siegelz(t))) <= ei, t

    def test_em_terms_from_backlund_bound(self):
        # Backlund (1918): after M corrections the Euler-Maclaurin remainder is
        # at most |s+2M+1|/(sigma+2M+1) times the first omitted term's modulus
        m = zkernel.M_EM

        def bound(t, n):
            s = mpmath.mpc(0.5, t)
            term = (mpmath.bernoulli(2 * m + 2) / mpmath.factorial(2 * m + 2)
                    * mpmath.rf(s, 2 * m + 1) * mpmath.mpf(n) ** (-s - 2 * m - 1))
            return abs(s + 2 * m + 1) / (s.real + 2 * m + 1) * abs(term)

        assert zkernel.EM_BAND * len(zkernel.EM_TERMS) == zkernel.T_SWITCH
        with mpmath.workdps(30):
            for j, n in enumerate(zkernel.EM_TERMS):
                top = zkernel.EM_BAND * (j + 1)
                assert bound(top, n) <= zkernel.EM_TRUNCATION < bound(top, n - 1), (top, n)

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
        # two blocks in each of the bands [75, 100) and [100, 125), t in every
        # band, and t on both sides of a band edge
        ts = np.concatenate([rng.uniform(75.0, 125.0, 2 * zkernel.EM_BLOCK + 37),
                             rng.uniform(0.0, 400.0, 64), np.nextafter(100.0, [0.0, 200.0])])
        rng.shuffle(ts)
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
