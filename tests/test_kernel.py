"""Fast float64 kernel vs the high-precision routes."""

import mpmath
import numpy as np
import pytest

from zetalab import _rs_cheb, zkernel
from zetalab.errors import DomainError

from _frozen import THETA_POSITIVE_ZERO


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

    def test_rs_anchor_path_vs_mpmath(self, rng):
        # where the present model holds (from t ~ 2e4 on the float64 theta
        # outgrows it, on either main-sum path: ROADMAP item 1): random t, the
        # points either side of t = 2 pi n^2 (where N steps) and of anchor
        # edges (j + 1/2) Delta
        steps = 2 * np.pi * np.array([31, 36, 40, 43]) ** 2
        edges = zkernel.RS_DELTA * (np.array([3000, 4321, 5025, 5999]) + 0.5)
        near = np.repeat(np.concatenate([steps, edges]), 2)
        ts = np.concatenate([rng.uniform(6.0e3, 1.2e4, 24),
                             np.nextafter(near, np.tile([0.0, 1e9], near.size // 2))])
        assert np.all(np.floor(np.sqrt(ts / (2 * np.pi))) >= zkernel.RS_TAYLOR_N)
        z, err = zkernel.z_rs_block(ts)
        with mpmath.workdps(30):
            for t, zi, ei in zip(ts, z, err):
                assert abs(zi - float(mpmath.siegelz(t))) <= ei, t

    def test_rs_err_includes_the_taylor_remainder(self):
        # err is the model of the direct sum plus twice the remainder bound
        # of the anchor sum's Taylor expansion, on both sides of the switch
        ts = np.array([1000.0, 2000.0, 2100.0, 9000.0, 3.0e4, 2.5e5])
        z, err = zkernel.z_rs_block(ts)
        n = np.floor(np.sqrt(ts / (2 * np.pi))).astype(int)
        base = (zkernel.RS_REMAINDER_COEF * (ts / (2 * np.pi)) ** (-11 / 4.0)
                + 1e-14 * (1.0 + np.sqrt(n)) * (1.0 + np.abs(z)))
        for t, nt, e, b in zip(ts, n, err, base):
            m, rem = zkernel.taylor_order(int(nt))
            want = 2.0 * rem if nt >= zkernel.RS_TAYLOR_N else 0.0
            assert 0.0 < rem <= zkernel.RS_TAYLOR_TOL
            assert abs((e - b) - want) <= 4 * np.spacing(e), t

    @pytest.mark.parametrize("n", [18, 56, 400])
    def test_taylor_remainder_bounds_the_truncation(self, n):
        # sum_{k<=n} k^(-1/2) e^(-i h (log k - log(n)/2)) against its Taylor
        # polynomial of taylor_order(n), at the anchor interval's ends
        m, rem = zkernel.taylor_order(n)
        with mpmath.workdps(40):
            for h in (-zkernel.RS_DELTA / 2, zkernel.RS_DELTA / 2):
                mid = mpmath.log(n) / 2
                d = [mpmath.log(k) - mid for k in range(1, n + 1)]
                w = [1 / mpmath.sqrt(k) for k in range(1, n + 1)]
                exact = sum(wk * mpmath.expj(-h * dk) for wk, dk in zip(w, d))
                poly = sum(wk * sum((-1j * h * dk) ** q / mpmath.factorial(q) for q in range(m + 1))
                           for wk, dk in zip(w, d))
                assert abs(exact - poly) <= rem

    def test_anchor_phase_split_is_exact(self):
        from fractions import Fraction

        def bits(x):
            if x == 0:
                return 0
            m = Fraction(x)
            while m.denominator != 1:
                m *= 2
            n = int(m)
            return (n >> ((n & -n).bit_length() - 1)).bit_length()

        t_max = np.nextafter(zkernel.RS_T_MAX, 0.0)
        n_max = int(np.sqrt(t_max / (2 * np.pi)))
        hi, lo, lg, _ = zkernel._log_table(n_max)
        hi, lo = hi[:n_max], lo[:n_max]
        p1, p2, p3 = zkernel._two_pi_parts()
        assert max(bits(x) for x in hi) <= zkernel.PHASE_BITS
        assert bits(p1) <= zkernel.PHASE_BITS and bits(p2) <= zkernel.PHASE_BITS
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(p1) + p2 + p3 - 2 * mpmath.pi) < mpmath.mpf(2) ** -100
            for n in (2, 3, 1000, n_max):
                assert abs(mpmath.mpf(hi[n - 1]) + lo[n - 1] - mpmath.log(n)) < mpmath.mpf(2) ** -75
        # the largest anchor a below RS_T_MAX: a hi, k P1 and k P2 are
        # exact, and so is the reduction (a hi - k P1) - k P2
        a = zkernel.RS_DELTA * np.rint(t_max / zkernel.RS_DELTA)
        x = hi * a
        k = np.rint(x * (1.0 / (2 * np.pi)))
        r = (x - k * p1) - k * p2
        fa, f1, f2 = Fraction(a), Fraction(p1), Fraction(p2)
        for xi, hii, ki, ri in zip(x, hi, k, r):
            assert Fraction(xi) == fa * Fraction(hii)
            assert Fraction(ki * p1) == Fraction(ki) * f1 and Fraction(ki * p2) == Fraction(ki) * f2
            assert Fraction(ri) == Fraction(xi) - Fraction(ki) * (f1 + f2)
        z, _ = zkernel.z_rs_block(np.array([1.0e4, t_max]))
        assert np.all(np.isfinite(z))
        with pytest.raises(DomainError, match="RS_T_MAX = 1e[+]08"):
            zkernel.z_rs_block(np.array([1.0e4, zkernel.RS_T_MAX]))

    def test_em_error_model_dominates_imaginary_witness(self):
        # Z is real: |Im(e^(i theta) zeta)| witnesses the rounding the model charges
        ts = np.linspace(0.5, 399.5, 20001)
        w = np.exp(1j * zkernel.theta_log_gamma(ts)) * zkernel.zeta_half_em(ts)
        _, err = zkernel.z_em_block(ts)
        assert np.all(np.abs(w.imag) <= err)

    def test_branch_agreement_at_switch(self):
        # below T_SWITCH, where both branches are certified
        ts = np.linspace(380.0, 400.0, 40, endpoint=False)
        z_em, e_em = zkernel.z_em_block(ts)
        z_rs, e_rs = zkernel.z_rs_block(ts)
        assert np.all(np.abs(z_em - z_rs) <= e_em + e_rs)

    @pytest.mark.parametrize("t", [400.0, 430.0])
    def test_em_branch_refuses_t_from_the_switch(self, t):
        # Backlund's bound for the last band's N exceeds the model's floor there
        with pytest.raises(DomainError, match="Backlund"):
            zkernel.z_em_block(np.array([100.0, t]))
        z, err = zkernel.z_block(np.array([t]))
        assert [z.tolist(), err.tolist()] == [q.tolist() for q in zkernel.z_rs_block(np.array([t]))]

    def test_rs_point_independent_of_the_call(self, rng):
        # two blocks of dense points across t = 2 pi 40^2 (N 39 | 40) and
        # several anchor edges, dense points near 1e6 and 9e6 (N ~ 400 and
        # 1200), the direct/anchor switch, t in [400, 2e5], and points
        # either side of anchor edges and of N's steps; then a block that
        # holds a single anchor group
        switch = 2 * np.pi * zkernel.RS_TAYLOR_N**2
        edges = [2 * np.pi * 40**2, switch, 2 * np.pi * 100**2] + list(
            zkernel.RS_DELTA * (np.array([3000, 5025, 61234]) + 0.5))
        ts = np.concatenate([rng.uniform(10040.0, 10070.0, 2 * zkernel.RS_BLOCK + 37),
                             rng.uniform(1.0e6, 1.0e6 + 30.0, 300),
                             rng.uniform(9.0e6, 9.0e6 + 30.0, 300),
                             np.exp(rng.uniform(np.log(400.0), np.log(2e5), 64)),
                             np.nextafter(np.repeat(edges, 2), np.tile([0.0, 1e9], len(edges))),
                             [450.0, 2.0e3, 7.5e4]])
        rng.shuffle(ts)
        one_group = rng.uniform(5.0e5 - 0.99, 5.0e5 + 0.99, 97)
        for block in (ts, one_group):
            z, err = zkernel.z_rs_block(block)
            for j, t in enumerate(block):
                zj, ej = zkernel.z_rs_block(block[j : j + 1])
                assert (zj[0], ej[0]) == (z[j], err[j]), t

    @pytest.mark.parametrize("n", [18, 400, 1300])
    def test_stacked_matmul_independent_of_the_stack(self, rng, n):
        # the anchor sum rests on this: np.matmul of the (M+1) x N Taylor
        # powers by a stack of N x 2 matrices runs one gemm per matrix, so
        # a group's product has the same bits at any stack size, position
        # in the stack and offset of the array in memory.  (One 2-D product
        # over all the groups' columns has no such property.)
        powers = zkernel._taylor_powers(n)
        assert powers.flags.c_contiguous and not powers.flags.writeable
        x = rng.standard_normal((n, 2))
        want = np.matmul(powers, x[None])[0]
        for size in (1, 2, 7, 64, 299):
            for at in sorted({0, size // 2, size - 1}):
                for offset in (0, 1, 2):
                    buf = rng.standard_normal(offset + size * n * 2)
                    stack = buf[offset:].reshape(size, n, 2)
                    stack[at] = x
                    got = np.matmul(powers, stack)[at]
                    assert got.tobytes() == want.tobytes(), (size, at, offset)

    @pytest.mark.parametrize("n", [1, 16, 500])
    def test_corrections_independent_of_the_block(self, rng, n):
        # the five corrections are one einsum contraction of the Chebyshev
        # basis (no BLAS), so a point has the same bits at any block size,
        # position in the block and offset of the arrays in memory
        p, x = rng.uniform(0.0, 1.0, n), rng.uniform(1e-4, 0.3, n)
        want = _rs_cheb.corrections(p, x)
        for size in (n, n + 1, n + 7, n + 64, n + zkernel.RS_BLOCK):
            for at in sorted({0, (size - n) // 2, size - n}):
                for offset in (0, 1, 2):
                    buf = rng.uniform(0.0, 1.0, (2, offset + size))
                    bp, bx = buf[0, offset:], buf[1, offset:]
                    bp[at : at + n], bx[at : at + n] = p, x
                    got = _rs_cheb.corrections(bp, bx)[at : at + n]
                    assert got.tobytes() == want.tobytes(), (size, at, offset)
        for j in range(n):
            one = _rs_cheb.corrections(p[j : j + 1], x[j : j + 1])
            assert one.tobytes() == want[j : j + 1].tobytes()
        # against the Chebyshev series of each C_k, one at a time
        u = 2.0 * p - 1.0
        v = 2.0 * u * u - 1.0
        terms = [np.polynomial.chebyshev.chebval(v, _rs_cheb.COEFFS[:, k]) * (u if k % 2 else 1.0) * x**k
                 for k in range(_rs_cheb.COEFFS.shape[1])]
        assert np.max(np.abs(want - sum(terms))) <= 4 * np.finfo(float).eps

    def test_em_point_independent_of_the_call(self, rng):
        # two blocks in each of the bands [75, 100) and [100, 125), t in every
        # band (the Dirichlet sum is direct where N - 1 < RS_TAYLOR_N, the
        # anchor sum elsewhere), and t on both sides of a band edge
        assert zkernel.EM_TERMS[0] - 1 < zkernel.RS_TAYLOR_N <= zkernel.EM_TERMS[-1] - 1
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

    def test_theta_stirling_vs_siegeltheta(self, rng):
        # the RS branch's theta, from t = 400 to 1e7, random t and the points
        # either side of t = 2 pi n^2 (where N steps): within a few roundings
        # of its leading term, so the series' remainder does not show
        n = np.array([8, 18, 40, 126, 400, 1261])
        near = np.repeat(2 * np.pi * n**2.0, 2)
        ts = np.concatenate([np.exp(rng.uniform(np.log(400.0), np.log(1e7), 60)),
                             np.nextafter(near, np.tile([0.0, 1e9], n.size)), [400.0]])
        th = zkernel.theta_stirling(ts)
        with mpmath.workdps(30):
            for t, v in zip(ts, th):
                ref = mpmath.siegeltheta(t)
                assert abs(v - ref) <= 4 * np.finfo(float).eps * abs(ref), t

    def test_theta_log_gamma_vs_siegeltheta(self, rng):
        # the EM branch's theta on [0, 400): random t, t = 0 and tiny t, the
        # points either side of |t| = THETA_SHIFT_T, where the shift of the
        # series stops, and either side of each band edge.  In units of
        # eps max(1, |theta|) the error is about 3 from t = 40 on and up to
        # about 30 near theta's zero at t = 17.85, where the terms summed are
        # near 20 (scipy's loggamma errs as much there); 48 leaves a margin
        edges = zkernel.EM_BAND * np.arange(1, len(zkernel.EM_TERMS) + 1)
        cut = zkernel.THETA_SHIFT_T
        ts = np.concatenate([rng.uniform(0.0, 400.0, 200), [0.0, 5e-324, 1e-300, 1e-8, 1e-3],
                             [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)],
                             np.nextafter(edges, 0.0), edges[:-1]])
        th = zkernel.theta_log_gamma(ts)
        with mpmath.workdps(30):
            for t, v in zip(ts, th):
                ref = mpmath.siegeltheta(t)
                assert abs(v - ref) <= 48 * np.finfo(float).eps * max(1.0, abs(ref)), t

    def test_positive_zero_bracketed(self):
        z = THETA_POSITIVE_ZERO
        ts = np.array([z - 1e-6, z + 1e-6])
        with mpmath.workdps(30):
            assert mpmath.siegeltheta(ts[0]) < 0 < mpmath.siegeltheta(ts[1])
        lo, hi = zkernel.theta_log_gamma(ts)
        assert lo < 0 < hi
        assert abs(z - 17.8455995) < 1e-6
