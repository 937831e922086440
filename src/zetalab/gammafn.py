"""Complex log-gamma with a rigorous error bound, built on mpmath arithmetic.

complex_log_gamma uses a Stirling asymptotic series after raising the argument
by the recurrence log Gamma(z) = log Gamma(z+n) - sum log(z+j); the number of
recurrence steps and series terms is derived from the context's work_bits, and
the returned error estimate is the rigorous Stirling remainder bound plus an
arithmetic-rounding allowance.
"""

from __future__ import annotations

import math
from functools import cache

from mpmath import mp, mpc, mpf

from .errors import PoleError, PrecisionFailure
from .precision import PrecisionContext, ValueWithError, mag


@cache
def _half_log_2pi(prec: int):
    """log(2 pi)/2 at mpmath precision prec (the caller's current mp.prec)."""
    return mp.log(2 * mp.pi) / 2


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
        result = (w - mp.mpf(1) / 2) * lw - w + _half_log_2pi(prec)
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
