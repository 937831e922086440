"""zeta(s), the chi factor, the theta phase and Hardy's Z at mp precision.

One route per function, each with an error estimate within the context
tolerances:
  * zeta_em: Euler-Maclaurin summation with its remainder bound, valid at any
    s != 1; used directly for Re s > -0.5 and through the functional equation
    otherwise;
  * rs_theta: the direct log-gamma evaluation, with the rigorous Stirling
    remainder bound of complex_log_gamma;
  * hardy_z: exp(i theta) zeta_em(1/2+it), whose cost grows like t (seconds at
    t = 1e5).
Bulk float64 evaluation for the quadrature is zetalab.zkernel; these routines
serve the CLI's zeta command, the fixture tool and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DomainError, PoleError, PrecisionFailure
from .gammafn import complex_log_gamma, log_sin
from .precision import PrecisionContext, ValueWithError, mag


@dataclass(frozen=True)
class ZetaSample:
    """zeta(1/2 + it) with its absolute error estimate."""

    t: float
    value: mpc
    abs_err: float


def zeta_em(s, ctx: PrecisionContext) -> ValueWithError:
    """zeta(s) by Euler-Maclaurin summation, error within context tolerances."""
    with ctx.workprec():
        s = mpc(s)
        if s == 1:
            raise PoleError("zeta pole at s = 1")
        if s.real < -0.5:
            refl, e1 = zeta_em(1 - s, ctx)
            ch, e2 = chi(s, ctx)
            value = ch * refl
            err = e1 * mag(ch) + e2 * mag(refl) + 4 * ctx.eps * mag(value)
            return ValueWithError(value, err)

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


def chi(s, ctx: PrecisionContext) -> ValueWithError:
    """chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s), via log-gamma."""
    with ctx.workprec():
        s = mpc(s)
        if s.imag == 0 and s.real == mp.floor(s.real):
            r = int(s.real)
            if r >= 1:
                raise PoleError("chi constituent pole at s = %d" % r)
            if r < 0 and r % 2 == 0:
                return ValueWithError(mpc(0), ctx.eps)  # trivial zero
        lg, lg_err = complex_log_gamma(1 - s, ctx)
        logchi = s * mp.log(2) + (s - 1) * mp.log(mp.pi) + log_sin(mp.pi * s / 2) + lg
        value = mp.exp(logchi)
        log_err = lg_err + 8 * ctx.eps * (mag(logchi) + 4)
        return ValueWithError(value, mag(value) * log_err)


def rs_theta(t, ctx: PrecisionContext) -> ValueWithError:
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Evaluated through complex_log_gamma, whose Stirling remainder bound is
    rigorous; the error is that bound plus a rounding allowance.
    """
    tf = float(t)
    if tf <= 0:
        raise DomainError("rs_theta requires t > 0")
    with ctx.workprec():
        lg, lg_err = complex_log_gamma(mpc(0.25, tf / 2), ctx)
        value = lg.imag - mpf(t) / 2 * mp.log(mp.pi)
        return ValueWithError(value, lg_err + 4 * ctx.eps * mag(value))


def hardy_z(t, ctx: PrecisionContext) -> ValueWithError:
    """Hardy's Z(t) = Re(exp(i theta) zeta_em(1/2+it)): real, |Z(t)| = |zeta(1/2+it)|."""
    tf = float(t)
    if tf < 0:
        raise DomainError("hardy_z requires t >= 0")
    with ctx.workprec():
        z, z_err = zeta_em(mpc(0.5, tf), ctx)
        if tf == 0:
            return ValueWithError(z.real, z_err)
        th, th_err = rs_theta(tf, ctx)
        w = mp.expj(th) * z
        err = z_err + th_err * mag(z) + 4 * ctx.eps * mag(w)
        # Z is real: the residual imaginary part is itself an error witness.
        return ValueWithError(w.real, err + abs(float(w.imag)))


def zeta_sample(t, ctx: PrecisionContext) -> ZetaSample:
    """zeta(1/2+it) packaged with its error estimate."""
    v, err = zeta_em(mpc(0.5, float(t)), ctx)
    return ZetaSample(t=float(t), value=v, abs_err=err)
