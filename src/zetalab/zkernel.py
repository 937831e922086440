"""Vectorized float64 evaluation of Hardy's Z(t) for bulk quadrature.

Two regimes, split at T_SWITCH:
  * t < T_SWITCH: Euler-Maclaurin with M_EM tail corrections and a number of
    terms chosen per 25-wide band of t (EM_TERMS) under Backlund's remainder
    bound, so the truncation is at most 1e-14 over that range;
  * t >= T_SWITCH: Riemann-Siegel main sum plus all the Chebyshev-tabulated
    corrections C0..C4 of _rs_cheb.
Both return pointwise error-model arrays, smooth in t, that the quadrature
layer folds into its bounds.  The theta phase uses scipy's complex log-gamma.
The branch policy (T_SWITCH, EM_TERMS, the corrections, RS_REMAINDER_COEF,
EM_ROUNDING_COEF) is fixed, not configured; changing it means a new
config.KERNEL_VERSION.  The oracle of both branches is mpmath.siegelz.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy.special import loggamma

from . import _rs_cheb
from .errors import DomainError

T_SWITCH = 400.0
M_EM = 30
EM_BAND = 25.0
# Euler-Maclaurin terms N for t in [EM_BAND j, EM_BAND (j+1)), j = 0..15: the
# least N at which Backlund's bound on the remainder after M_EM corrections,
#   |R| <= |s+2M+1| / (sigma+2M+1) |B_{2M+2}/(2M+2)! (s)_{2M+1} N^(-s-2M-1)|,
# is at most EM_TRUNCATION at the band's top t (the bound grows with t).
# Re-derived at 30 digits by test_em_terms_from_backlund_bound.
EM_TERMS = (11, 16, 22, 28, 34, 41, 47, 54, 60, 67, 73, 80, 86, 93, 100, 106)
EM_TRUNCATION = 1e-14
EM_BLOCK = 512  # points per block of zeta_half_em

EM_ROUNDING_COEF = 8.0
# Riemann-Siegel remainder after C4: |R| <= RS_REMAINDER_COEF (t/2pi)^(-11/4).
# Validated against mpmath.siegelz by test_rs_branch_vs_mpmath (t <= 6000);
# above t ~ 2e4 the bound under-reports, because the float64 phase rounding
# is not charged (ROADMAP item 2).
RS_REMAINDER_COEF = 0.2

_EPS = float(np.finfo(float).eps)
_LOG_PI = math.log(math.pi)
_TWO_PI = 2.0 * math.pi

# log n and n^(-1/2) for n = 1 .. max(EM_TERMS) - 1; each band reads a prefix.
_LOG_N = np.log(np.arange(1.0, EM_TERMS[-1]))
_INV_SQRT_N = 1.0 / np.sqrt(np.arange(1.0, EM_TERMS[-1]))
# N and log N (math.log) per band, for the Euler-Maclaurin tail.
_EM_N = np.array(EM_TERMS, dtype=float)
_EM_LOG_N = np.array([math.log(n) for n in EM_TERMS])


@cache
def _em_coeffs():
    """c_k = B_2k/(2k)! N^(-2k+2) for k = 1..M_EM (rows) and each band's N (columns)."""
    from mpmath import mp

    b = np.array([float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(1, M_EM + 1)])
    c = np.array([b * float(n) ** (-2.0 * np.arange(M_EM)) for n in EM_TERMS])
    return np.ascontiguousarray(c.T)


def theta_fast(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta via scipy complex log-gamma (vectorized)."""
    t = np.asarray(t, dtype=float)
    return loggamma(0.25 + 0.5j * t).imag - 0.5 * t * _LOG_PI


def zeta_half_em(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) by Euler-Maclaurin with EM_TERMS[band of t] terms, for
    t < T_SWITCH (t below 0 takes the first band's terms).

    The Dirichlet sums run per band, in blocks of EM_BLOCK points; the
    Bernoulli tail runs once per EM_BLOCK points of the call, each point
    with its own band's N and coefficients.  The blocks bound the temporaries
    and keep each point's value independent of the call: numpy computes a
    product of temporaries over 256 KiB in place, which can round
    differently from the out-of-place product.
    """
    t = np.asarray(t, dtype=float)
    if t.size and not t.max() < T_SWITCH:
        raise DomainError(
            "the Euler-Maclaurin branch is certified only for t < T_SWITCH = %g: above it"
            " Backlund's bound for N = %d outgrows the error model's 1e-12 floor"
            " (1.1e-11 at t = 450)" % (T_SWITCH, EM_TERMS[-1]))
    out = np.empty(t.shape, dtype=complex)
    band = np.maximum(t // EM_BAND, 0).astype(np.intp)
    for j in np.unique(band):
        idx = np.flatnonzero(band == j)
        for i in range(0, idx.size, EM_BLOCK):
            sel = idx[i : i + EM_BLOCK]
            out[sel] = _dirichlet_block(t[sel], EM_TERMS[j])
    for i in range(0, t.size, EM_BLOCK):
        sel = slice(i, i + EM_BLOCK)
        out[sel] += _em_tail(t[sel], band[sel])
    return out


def _dirichlet_block(t: np.ndarray, n_terms: int) -> np.ndarray:
    """sum_{n < N} n^(-1/2 - it) as two real sums."""
    phases = np.multiply.outer(t, _LOG_N[: n_terms - 1])
    w = _INV_SQRT_N[: n_terms - 1]
    return (np.cos(phases) * w).sum(axis=1) - 1j * (np.sin(phases) * w).sum(axis=1)


def _em_tail(t: np.ndarray, band: np.ndarray) -> np.ndarray:
    """N^{1-s}/(s-1) + N^{-s}/2 + the M_EM Bernoulli corrections, with N
    the EM_TERMS entry of each point's band."""
    s = 0.5 + 1j * t
    n = _EM_N[band]
    npow_s = np.exp(-s * _EM_LOG_N[band])    # N^{-s}
    # sum_k B_2k/(2k)! (s)_{2k-1} N^{-s-2k+1} = N^{-s-1} s sum_k c_k prod_{j<k} q_j
    # with c_k = B_2k/(2k)! N^{-2k+2} and q_j = (s+2j-1)(s+2j), by Horner
    c = _em_coeffs()[:, band]
    corr = c[-1]
    for k in range(M_EM - 1, 0, -1):
        corr = c[k - 1] + corr * ((s + (2 * k - 1)) * (s + 2 * k))
    return npow_s * (n / (s - 1) + 0.5 + s * corr / n)


def z_em_block(t: np.ndarray):
    """(Z, err) on the Euler-Maclaurin branch; DomainError for t >= T_SWITCH."""
    t = np.asarray(t, dtype=float)
    z = zeta_half_em(t)
    w = np.exp(1j * theta_fast(t)) * z
    zv = w.real
    # Truncation is at most EM_TRUNCATION below T_SWITCH (Backlund's bound,
    # see EM_TERMS).  The float64 phases theta(t) and t log n carry absolute
    # errors of order eps t, which rotate the sum: charged as
    # EM_ROUNDING_COEF eps t (1 + |Z|).
    # This dominates the residual imaginary part |Im w| (a direct witness of
    # that rounding, at most 5.6 eps t (1 + |Z|) on a 0.002 grid over
    # [10, 400], below 1.4e-14 under t = 10), and unlike the witness it is
    # smooth in t, so its integral does not depend on the quadrature mesh.
    err = 1e-12 + 5e-15 * np.abs(zv) + EM_ROUNDING_COEF * _EPS * t * (1.0 + np.abs(zv))
    return zv, err


def z_rs_block(t: np.ndarray):
    """(Z, err) on the Riemann-Siegel branch; requires t > 2 pi elementwise."""
    t = np.asarray(t, dtype=float)
    a = np.sqrt(t / _TWO_PI)
    nmain = np.floor(a).astype(np.int64)
    p = a - nmain
    th = theta_fast(t)

    out = np.zeros_like(t)
    nmax = int(nmain.max()) if nmain.size else 0
    for n in range(1, nmax + 1):
        mask = nmain >= n
        if not mask.all():
            tm = t[mask]
            out[mask] += np.cos(th[mask] - tm * math.log(n)) / math.sqrt(n)
        else:
            out += np.cos(th - t * math.log(n)) / math.sqrt(n)
    out *= 2.0

    corr = _rs_cheb.eval_correction(0, p)
    apow = np.ones_like(a)
    for j in range(1, _rs_cheb.N_CORRECTIONS):
        apow *= a
        corr = corr + _rs_cheb.eval_correction(j, p) / apow
    sign = np.where(nmain % 2 == 1, 1.0, -1.0)
    z = out + sign * corr / np.sqrt(a)

    a2 = t / _TWO_PI
    err = RS_REMAINDER_COEF * a2 ** (-11 / 4.0)
    # Rounding of each point's own nmain-term main sum, so that a point's
    # bound does not depend on the other points of the call.
    err = err + 1e-14 * (1.0 + np.sqrt(nmain)) * (1.0 + np.abs(z))
    return z, err


def z_block(t: np.ndarray):
    """(Z, err) over any t >= 0, dispatching between the two branches."""
    t = np.asarray(t, dtype=float)
    z = np.empty_like(t)
    err = np.empty_like(t)
    lo = t < T_SWITCH
    if lo.any():
        z[lo], err[lo] = z_em_block(t[lo])
    hi = ~lo
    if hi.any():
        z[hi], err[hi] = z_rs_block(t[hi])
    return z, err


def moment_integrand(t: np.ndarray, k: int):
    """(|Z|^{2k}, pointwise error) arrays for the 2k-th moment integrand."""
    z, zerr = z_block(t)
    z2 = z * z
    f = z2**k
    # d(Z^{2k}) = 2k |Z|^{2k-1} dZ
    df = 2.0 * k * np.abs(z) ** (2 * k - 1) * zerr
    return f, df
