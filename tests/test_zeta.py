"""zeta_em and zeta_sample, the zeta command's evaluator."""

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc

from zetalab.errors import DomainError, PoleError
from zetalab.zeta import zeta_em, zeta_sample


class TestZetaEM:
    def test_classical_value_at_two(self, ctx_tight):
        v, err = zeta_em(mpc(2), ctx_tight)
        with ctx_tight.workprec():
            assert abs(v - mp.pi**2 / 6) < 1e-30

    def test_pole_at_one(self, ctx):
        with pytest.raises(PoleError):
            zeta_em(mpc(1), ctx)

    def test_left_of_the_strip_refused(self, ctx):
        with pytest.raises(DomainError):
            zeta_em(mpc(-2.5, 3.0), ctx)

    def test_first_zero(self, ctx):
        v, _ = zeta_em(mpc(0.5, 14.134725), ctx)
        assert abs(v) < 1e-5

    def test_conjugate_symmetry(self, ctx_tight):
        v1, _ = zeta_em(mpc(0.5, 10.0), ctx_tight)
        v2, _ = zeta_em(mpc(0.5, -10.0), ctx_tight)
        with ctx_tight.workprec():
            assert abs(v1 - mp.conj(v2)) < 1e-20

    def test_err_bounds_the_distance_to_mpmath(self, ctx, rng):
        # oracle: mpmath.zeta at 45 digits, on the critical line up to
        # t = 5000 and at random points of the strip
        line = [mpc(0.5, t) for t in list(np.linspace(0.0, 1000.0, 41)) + [2000.0, 5000.0]]
        strip = [mpc(rng.uniform(-0.5, 1.5), rng.uniform(-300.0, 300.0)) for _ in range(20)]
        for s in line + strip:
            v, err = zeta_em(s, ctx)
            with mpmath.workdps(45):
                assert abs(v - mpmath.zeta(s)) <= err, s

    def test_zeta_sample_invariant(self, ctx):
        s = zeta_sample(25.0, ctx)
        with mpmath.workdps(45):
            z = mpmath.siegelz(25.0)
        assert abs(abs(s.value) - abs(z)) <= s.abs_err + 1e-20
