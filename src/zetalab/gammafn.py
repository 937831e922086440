"""Log-gamma, unit-circle exponentials and helpers built on mpmath arithmetic.

complex_log_gamma uses a Stirling asymptotic series after raising the argument
by the recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+j); the number of
recurrence steps and series terms is derived from the context's work_bits, and
the returned error estimate is the rigorous Stirling remainder bound plus an
arithmetic-rounding allowance.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

from .errors import PoleError, PrecisionFailure
from .precision import PrecisionContext, ValueWithError, mag

LOG_2PI_HALF_CACHE: dict[int, mpf] = {}


def _half_log_2pi():
    key = mp.prec
    v = LOG_2PI_HALF_CACHE.get(key)
    if v is None:
        v = mp.log(2 * mp.pi) / 2
        LOG_2PI_HALF_CACHE[key] = v
    return v


def _is_nonpositive_int(z: mpc) -> bool:
    return z.imag == 0 and z.real <= 0 and z.real == mp.floor(z.real)


def complex_log_gamma(z, ctx: PrecisionContext) -> ValueWithError:
    """Principal-branch log Gamma(z) with an absolute error estimate.

    Raises PoleError at non-positive integers and PrecisionFailure when the
    Stirling remainder cannot be brought below the context tolerances.
    """
    with ctx.workprec():
        w = mpc(z)
        if _is_nonpositive_int(w):
            raise PoleError("log-gamma pole at non-positive integer %s" % (w.real,))

        # Raise the argument until Stirling converges fast enough.  The
        # optimal-truncation floor of the series at |w| = r is ~ exp(-2 pi r),
        # so r0 tracks the working precision.
        prec = mp.prec
        r0 = 0.12 * prec + 8.0
        shift_logs = mp.mpc(0)
        nshift = 0
        while w.real < r0 and abs(w.imag) < 2 * r0:
            shift_logs += mp.log(w)
            w += 1
            nshift += 1

        # Stirling series at the raised argument.
        lw = mp.log(w)
        result = (w - mp.mpf(1) / 2) * lw - w + _half_log_2pi()
        w2 = w * w
        wpow = w
        target = mpf(2) ** (-(prec - 2))
        bound = None
        kmax = int(math.pi * max(abs(complex(w)), r0)) + 12
        prev_term = mp.inf
        for k in range(1, kmax + 1):
            term = mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1) * wpow)
            at = abs(term)
            if at >= prev_term:
                # Series started diverging: remainder bounded by last term.
                bound = _stirling_remainder(w, k)
                break
            result += term
            prev_term = at
            wpow *= w2
            if at <= target * max(1.0, mag(result)):
                bound = _stirling_remainder(w, k + 1)
                break
        if bound is None:
            bound = _stirling_remainder(w, kmax + 1)

        value = result - shift_logs
        # Rounding allowance: each recurrence log contributes ~eps relative.
        rounding = ctx.eps * (mag(value) + nshift + 4.0) * 4.0
        err = float(bound) + rounding
        if err > ctx.tolerance_for(mag(value)) and err > ctx.abs_tol:
            raise PrecisionFailure(
                "log-gamma error bound %.3g exceeds tolerance at work_bits=%d"
                % (err, ctx.work_bits)
            )
        return ValueWithError(value, err)


def _stirling_remainder(w: mpc, m: int) -> mpf:
    """Rigorous bound for the Stirling tail after m-1 used terms.

    |R_m| <= |B_{2m}| / ((2m)(2m-1) |w|^{2m-1}) * sec(arg(w)/2)^{2m}.
    """
    theta = abs(mp.arg(w))
    sec = 1 / mp.cos(theta / 2)
    return abs(mp.bernoulli(2 * m)) / ((2 * m) * (2 * m - 1) * abs(w) ** (2 * m - 1)) * sec ** (2 * m)


def e_of(x, ctx: PrecisionContext = None) -> ValueWithError:
    """exp(2 pi i x) for real x, reduced mod 1 before evaluation."""
    from .precision import DEFAULT_CTX

    ctx = ctx or DEFAULT_CTX
    extra = 8
    try:
        extra += max(0, int(abs(float(x)))).bit_length()
    except (OverflowError, ValueError):
        pass
    from mpmath import workprec

    with workprec(ctx.work_bits + extra):
        y = mp.frac(mpf(x))
        value = mp.expjpi(2 * y)
        return ValueWithError(+mpc(value), 8.0 * ctx.eps)


def log_sin(w: mpc):
    """log(sin w) stable for large |Im w|; branch chosen by the factored form."""
    if w.imag > 1:
        # sin w = (i/2) e^{-iw} (1 - e^{2iw}); |e^{2iw}| < 1 here.
        return mp.log(mpc(0, 0.5)) - mpc(0, 1) * w + mp.log1p(-mp.exp(2j * w))
    if w.imag < -1:
        return mp.log(mpc(0, -0.5)) + mpc(0, 1) * w + mp.log1p(-mp.exp(-2j * w))
    return mp.log(mp.sin(w))


def zeta_prime_at_2(ctx: PrecisionContext) -> ValueWithError:
    """zeta'(2) = -sum_{n>=2} log(n)/n^2 by Euler-Maclaurin tail acceleration."""
    with ctx.workprec():
        prec = mp.prec
        n_cut = max(32, int(0.14 * prec) + 10)
        s = mp.mpf(0)
        for n in range(2, n_cut):
            s += mp.log(n) / mp.mpf(n) ** 2

        # f(x) = log(x)/x^2; f^(m)(x) = x^(-2-m) (a_m log x + b_m).
        n = mp.mpf(n_cut)
        ln_n = mp.log(n)
        tail = (ln_n + 1) / n + ln_n / (2 * n * n)
        a_m, b_m = mp.mpf(1), mp.mpf(0)
        target = mpf(2) ** (-(prec - 2))
        bound = None
        deriv_pow = n * n  # x^(2+m), starting at m = 0
        # Odd-order derivatives enter with m = 2k-1.
        m = 0
        term_prev = mp.inf
        for k in range(1, 4 * n_cut):
            while m < 2 * k - 1:
                a_m, b_m = -(2 + m) * a_m, a_m - (2 + m) * b_m
                m += 1
                deriv_pow *= n
            deriv = (a_m * ln_n + b_m) / deriv_pow
            term = -mp.bernoulli(2 * k) / mp.factorial(2 * k) * deriv
            at = abs(term)
            if at >= term_prev:
                bound = 4 * term_prev
                break
            tail += term
            term_prev = at
            if at <= target * abs(s + tail):
                bound = 4 * at
                break
        if bound is None:
            raise PrecisionFailure("zeta'(2) tail did not converge at work_bits=%d" % ctx.work_bits)
        value = -(s + tail)
        err = float(bound) + ctx.eps * mag(value) * 8
        if err > ctx.tolerance_for(mag(value)):
            raise PrecisionFailure("zeta'(2) error bound %.3g exceeds tolerance" % err)
        return ValueWithError(value, err)
