"""zeta(s) at mp precision with an error estimate, for the CLI's zeta command.

zeta_em is Euler-Maclaurin summation with its remainder bound, for Re s >= -0.5
and s != 1; its cost grows like |Im s|.  Bulk float64 evaluation of Hardy's Z
for the quadrature is zetalab.zkernel; mpmath.siegelz and mpmath.siegeltheta
are the oracles the tests and the fixture tool compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DomainError, PoleError, PrecisionFailure
from .precision import PrecisionContext, ValueWithError, mag


@dataclass(frozen=True)
class ZetaSample:
    """zeta(1/2 + it) with its absolute error estimate."""

    t: float
    value: mpc
    abs_err: float


def zeta_em(s, ctx: PrecisionContext) -> ValueWithError:
    """zeta(s) by Euler-Maclaurin summation, error within context tolerances.

    Re s < -0.5 is refused with DomainError: the zeta command evaluates
    only s = 1/2 + it, so no functional-equation route is kept.
    """
    with ctx.workprec():
        s = mpc(s)
        if s == 1:
            raise PoleError("zeta pole at s = 1")
        if s.real < -0.5:
            raise DomainError("zeta_em requires Re s >= -0.5, got %s" % (s,))

        prec = mp.prec
        t = abs(float(s.imag))
        n_terms = max(16, int(0.30 * t) + prec // 2)
        for _ in range(4):
            out = _em_once(s, n_terms, prec)
            if out is not None:
                value, bound = out
                err = float(bound) + 8 * ctx.eps * (mag(value) + n_terms * ctx.eps)
                if err <= ctx.tolerance_for(mag(value)) or err <= ctx.abs_tol:
                    return ValueWithError(value, err)
            n_terms *= 2
        raise PrecisionFailure(
            "Euler-Maclaurin zeta did not reach tolerance at s=%s, work_bits=%d"
            % (s, ctx.work_bits)
        )


def _em_once(s: mpc, n_cut: int, prec: int):
    """One Euler-Maclaurin pass with remainder bound; None if not converging."""
    acc = mp.mpf(0)
    for n in range(1, n_cut):
        acc += mpc(n) ** (-s)
    n = mp.mpf(n_cut)
    acc += n ** (1 - s) / (s - 1) + n ** (-s) / 2

    target = mpf(2) ** (-(prec - 2))
    poch = s                      # s(s+1)...(s+2k-2), here k=1
    npow = n ** (-s - 1)
    ninv2 = 1 / (n * n)
    sigma = s.real
    prev = mp.inf
    for k in range(1, 2 * prec):
        term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * poch * npow
        at = abs(term)
        if at >= prev:
            return None
        acc += term
        prev = at
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= ninv2
        nxt = abs(mp.bernoulli(2 * k + 2) / mp.factorial(2 * k + 2) * poch * npow)
        bound = nxt * abs(s + 2 * k + 1) / (sigma + 2 * k + 1)
        if bound <= target * max(1, abs(acc)):
            return acc, bound
    return None


def zeta_sample(t, ctx: PrecisionContext) -> ZetaSample:
    """zeta(1/2+it) packaged with its error estimate."""
    v, err = zeta_em(mpc(0.5, float(t)), ctx)
    return ZetaSample(t=float(t), value=v, abs_err=err)
