"""Vectorized float64 evaluation of Hardy's Z(t) for bulk quadrature.

Two regimes, split at T_SWITCH:
  * t < T_SWITCH: Euler-Maclaurin with a fixed truncation (N_EM terms plus
    M_EM tail corrections), accurate to ~1e-12 absolute over that range;
  * t >= T_SWITCH: Riemann-Siegel main sum plus all the Chebyshev-tabulated
    corrections C0..C4 of _rs_cheb.
Both return pointwise error-model arrays, smooth in t, that the quadrature
layer folds into its bounds.  The theta phase uses scipy's complex log-gamma.
The branch policy (T_SWITCH, the corrections, RS_REMAINDER_COEF,
EM_ROUNDING_COEF) is fixed, not configured; changing it means a new
config.KERNEL_VERSION.  The oracle of both branches is mpmath.siegelz.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from scipy.special import loggamma

from . import _rs_cheb

T_SWITCH = 400.0
N_EM = 160
M_EM = 18
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

# Precomputed Euler-Maclaurin ingredients.
_NS = np.arange(1, N_EM, dtype=float)
_LOG_NS = np.log(_NS)
_INV_SQRT_NS = _NS ** (-0.5)


@cache
def _bern_over_fact():
    """B_{2k}/(2k)! for k = 1..M_EM."""
    from mpmath import mp

    return np.array([float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(1, M_EM + 1)])


def theta_fast(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta via scipy complex log-gamma (vectorized)."""
    t = np.asarray(t, dtype=float)
    return loggamma(0.25 + 0.5j * t).imag - 0.5 * t * _LOG_PI


def zeta_half_em(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) by fixed-truncation Euler-Maclaurin; t below ~T_SWITCH.

    Computed in blocks of EM_BLOCK points, which bounds the (points x N_EM)
    temporaries.  It also keeps each point's value independent of the call:
    numpy computes a product of complex temporaries over 256 KiB in place,
    which can round differently from the out-of-place product.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    for i in range(0, t.size, EM_BLOCK):
        out[i : i + EM_BLOCK] = _zeta_half_em_block(t[i : i + EM_BLOCK])
    return out


def _zeta_half_em_block(t: np.ndarray) -> np.ndarray:
    s = 0.5 + 1j * t
    phases = np.multiply.outer(t, _LOG_NS)
    acc = (_INV_SQRT_NS * np.exp(-1j * phases)).sum(axis=1)

    n = float(N_EM)
    npow_s = np.exp(-s * math.log(n))          # N^{-s}
    acc += npow_s * n / (s - 1) + 0.5 * npow_s

    bf = _bern_over_fact()
    poch = s.copy()
    npow = npow_s / n                          # N^{-s-1}
    ninv2 = 1.0 / (n * n)
    for k in range(1, M_EM + 1):
        acc += bf[k - 1] * poch * npow
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        npow = npow * ninv2
    return acc


def z_em_block(t: np.ndarray):
    """(Z, err) on the Euler-Maclaurin branch."""
    t = np.asarray(t, dtype=float)
    z = zeta_half_em(t)
    w = np.exp(1j * theta_fast(t)) * z
    zv = w.real
    # Truncation is < 1e-13 for t <= 450 (checked against mpmath).  The
    # float64 phases theta(t) and t log n carry absolute errors of order
    # eps t, which rotate the sum: charged as EM_ROUNDING_COEF eps t (1 + |Z|).
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
