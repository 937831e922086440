"""Vectorized float64 evaluation of Hardy's Z(t) for bulk quadrature.

Two regimes, split at T_SWITCH:
  * t < T_SWITCH: Euler-Maclaurin with M_EM tail corrections and a number of
    terms chosen per 25-wide band of t (EM_TERMS) under Backlund's remainder
    bound, so the truncation is at most 1e-14 over that range;
  * t >= T_SWITCH: Riemann-Siegel main sum plus all the Chebyshev-tabulated
    corrections C0..C4 of _rs_cheb.
Both return pointwise error-model arrays, smooth in t, that the quadrature
layer folds into its bounds.  The EM branch takes theta from Stirling's
series of the complex log Gamma(1/4 + it/2) (theta_log_gamma), the RS
branch from the Stirling series of theta itself in 1/t (theta_stirling),
which is cheaper and no less accurate from t = 400 on.

The RS branch runs its whole path per block of at most RS_BLOCK points: theta, the
main sum, the corrections and the error model, so its temporaries are
bounded by the block, not by the call.  The corrections are one pass
(_rs_cheb.corrections): the Chebyshev basis of each point is contracted
with the table of all five by np.einsum, which runs no BLAS, so each point
takes the same steps in a block of any size (a matmul takes another BLAS
path for one point than for many), and Horner in 1/a combines them.

The main sum sum_{n <= N} n^(-1/2) e^(i (theta - t log n)) (_anchor_sum;
RS takes twice its real part with N = floor(sqrt(t / 2 pi)), EM its whole
with theta = 0 and N = EM_TERMS[band] - 1: the Dirichlet sum of zeta) takes
one path for every point of either branch: an anchor multi-evaluation (the
Taylor step of Odlyzko-Schoenhage, Trans. AMS 309, 1988) whose polynomial
in h is Chebyshev-economized (C. Lanczos, Applied Analysis, 1956):
  * each point has an anchor a = j Delta, j = rint(t / Delta), with Delta =
    RS_DELTA = 4, so h = t - a is exact and |h| <= Delta/2;
  * the points of a block sharing (N, j) form a group, with
    C_n = n^(-1/2) e^(-i a log n) and, about the centre c = log(N)/2 of the
    logs, S_m = sum_n C_n r_m(log n - c) for m <= M(N): the product of the
    (M+1) x N economized factor r (_anchor_factor) by the N x 2 matrix of
    Re C_n and Im C_n, one np.matmul over the stack of a block's groups of
    equal N;
  * a point's sum is e^(i (theta - h c)) P(-ih), with P(x) = sum_m S_m x^m
    by one Horner pass: one exponential per anchor and term instead of one
    per point and term;
  * r = E' T_K: T_K holds the Taylor terms u^j/j! (u = log n - c) to an
    order K, and E' (_economized) turns the Taylor polynomial of
    e^(-ihu) in h' = h/(Delta/2) into its degree-M Chebyshev truncation on
    [-1, 1], the near-minimax polynomial, which needs about a quarter fewer
    terms than Taylor's for the same remainder.  So at Delta = 4 the order
    M (18 at N = 8, 25 at 69, 33 at 1261) is about the Taylor order of
    Delta = 2 while the moment products halve.  taylor_order derives the
    remainder bound R(N) <= RS_TAYLOR_TOL;
  * a log n is reduced mod 2 pi exactly, once per anchor and term: log n =
    log_hi + log_lo from 40 digits with log_hi of PHASE_BITS bits, and every
    anchor a = 4j below RS_T_MAX < 2^27 has at most 25 bits, so a log_hi is
    exact; 2 pi = P1 + P2 + P3 (Cody-Waite) with P1 and P2 of PHASE_BITS
    bits, so k P1, k P2 and the reduction (a log_hi - k P1) - k P2 are
    exact.  z_rs_block enforces RS_T_MAX.
A point's value depends only on its own t, given one condition: numpy
runs a stacked matmul as one BLAS gemm per matrix of the stack, all of one
shape for one N, so a group's S_m have the same bits at any stack size,
position and memory offset (tests/test_kernel.py checks it; one 2-D
product over all the groups' columns lacks that property).  The C_n are
elementwise, and the rows above a group's own M are zero, so Horner takes
the same steps for it in any block.  The BLAS build is part of
quadrature.numeric_fingerprint.  z_rs_block splits a call of n points into
ceil(n / RS_BLOCK) blocks of equal size (to one point), which bounds the
temporaries and pays each block's fixed cost as few times as it can.

Rounding.  The economized P sums terms far larger than its value: the
coefficient mass is W_N = sum_n n^(-1/2) sum_m |r_m(log n - c)| (Delta/2)^m,
and the rounding of the moment products and of Horner is of order u W_N
(u = eps/2): 3.6e-14 at N = 69, 4.1e-13 at N = 398 and 2.2e-12 at
N = 1261.  Each RS point's err charges twice (the RS sum is doubled) R(N) +
u W_N (_sum_bound), beside the model 1e-14 (1 + sqrt(N)) (1 + |Z|) of the
rest.  u W_N is a first-order model in the coefficient mass, not a proven
bound: a Higham gamma_n bound of the phases, the products and Horner is
ROADMAP item 1.  For the EM sum (N <= 105) both terms are below 2e-13,
under z_em_block's 1e-12 floor.

The branch policy (T_SWITCH, EM_TERMS, theta, the corrections,
RS_REMAINDER_COEF, EM_ROUNDING_COEF, RS_DELTA, RS_TAYLOR_TOL)
is fixed, not configured; changing it means a new config.KERNEL_VERSION.
The oracle of both branches is mpmath.siegelz.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache

import numpy as np

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
EM_BLOCK = 2048  # points per block of zeta_half_em

EM_ROUNDING_COEF = 8.0
# Riemann-Siegel remainder after C4: |R| <= RS_REMAINDER_COEF (t/2pi)^(-11/4).
# Validated against mpmath.siegelz by the RS oracle tests of
# tests/test_kernel.py up to t = 1.2e4; from t ~ 2e4 on the bound
# under-reports, because the float64 rounding of theta (about eps t log t)
# is not charged (ROADMAP item 1).
RS_REMAINDER_COEF = 0.2
# The main sum takes anchors RS_DELTA apart and economized orders whose
# remainder is at most RS_TAYLOR_TOL (see the module docstring), in blocks of
# at most RS_BLOCK points: a fill's call of 512 panels of 33 nodes runs as
# four blocks.  (Three, of 5632, took 3-5% less time but held 0.5-1 MB more.)
RS_DELTA = 4.0
RS_TAYLOR_TOL = 1e-15
RS_BLOCK = 4224
# Bits of log_hi and of P1, P2; the reduction is exact for t < RS_T_MAX.
PHASE_BITS = 26
RS_T_MAX = 1e8
RS_T_MAX_REASON = ("the Riemann-Siegel branch reduces its anchor phases exactly only for t <"
                   " RS_T_MAX = %g: beyond it a log_hi or k P1 needs more than 53 bits" % RS_T_MAX)

_EPS = float(np.finfo(float).eps)
_TWO_PI = 2.0 * math.pi

_INV_TWO_PI_E = 1.0 / (_TWO_PI * math.e)
_ONE_PLUS_LOG_PI = 1.0 + math.log(math.pi)
# B_2k / (2k (2k-1)) for k = 1..8: the coefficients of Stirling's series for
# log Gamma (DLMF 5.11.1), exact rationals.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
# Below |t| = THETA_SHIFT_T, theta_log_gamma evaluates the series at
# w + THETA_SHIFT, so |w| >= 10 wherever the series is summed.
THETA_SHIFT_T = 20.0
THETA_SHIFT = 10

# N and log N (math.log) per band, for the Euler-Maclaurin tail.
_EM_N = np.array(EM_TERMS, dtype=float)
_EM_NMAIN = np.array(EM_TERMS, dtype=np.int64) - 1
_EM_LOG_N = np.array([math.log(n) for n in EM_TERMS])


@cache
def _em_coeffs():
    """c_k = B_2k/(2k)! N^(-2k+2) for k = 1..M_EM (rows) and each band's N (columns)."""
    from mpmath import mp

    b = np.array([float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(1, M_EM + 1)])
    c = np.array([b * float(n) ** (-2.0 * np.arange(M_EM)) for n in EM_TERMS])
    return np.ascontiguousarray(c.T)


def theta_log_gamma(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta, Im log Gamma(w) - (t/2) log pi with w = 1/4 + it/2,
    for the EM branch, in numpy alone.

    Im log Gamma(w) is Stirling's series, Im of (w - 1/2) log w - w +
    sum_{k=1..8} c_k w^(1-2k) with c_k = B_2k/(2k (2k-1)) (_STIRLING), so
    theta = (x - 1/2) arg w + y (log |w| - 1 - log pi) + Im(sum) with
    w = x + iy.  For |t| < THETA_SHIFT_T the series runs at w + m,
    m = THETA_SHIFT, and Im log Gamma(w) = Im log Gamma(w + m) -
    sum_{j<m} arg(w + j), each arg subtracted in turn from (x - 1/2)
    arg(w + m) so that the partial sums stay small.  |w| >= 10
    wherever the series runs, so its remainder, about the first omitted term
    B_18/(306 w^17) (DLMF 5.11(ii)), is below 2e-18: the error is the
    rounding of the leading terms, of order eps max(|t| log |t|, |theta|)
    (test_theta_log_gamma_vs_siegeltheta states the bound)."""
    t = np.asarray(t, dtype=float)
    y = 0.5 * t
    small = np.abs(t) < THETA_SHIFT_T
    x = np.where(small, 0.25 + THETA_SHIFT, 0.25)
    w = x + 1j * y
    u = 1.0 / w
    u2 = u * u
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = c + series * u2
    th = (x - 0.5) * np.arctan2(y, x)
    if small.any():
        ys, part = y[small], th[small]
        for j in range(THETA_SHIFT):
            part -= np.arctan2(ys, 0.25 + j)
        th[small] = part
    return th + y * (np.log(np.abs(w)) - _ONE_PLUS_LOG_PI) + (series * u).imag


def theta_stirling(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel theta by its Stirling series, for the RS branch:
    (t/2) log(t/(2 pi e)) - pi/8 + 1/(48t) + 7/(5760t^3) + 31/(80640t^5).
    The coefficients are (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)) (Gabcke 1979,
    sec. 4.2); the remainder is of the size of the first omitted term
    127/(430080 t^7) (cf. DLMF 5.11(ii)), below 1e-20 from t = 400 on, far
    under the float64 rounding of the leading term (about eps t log t)."""
    x = 1.0 / t
    x2 = x * x
    return 0.5 * t * np.log(t * _INV_TWO_PI_E) - math.pi / 8 + x * (1 / 48 + x2 * (7 / 5760 + x2 * (31 / 80640)))


def zeta_half_em(t: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) by Euler-Maclaurin with EM_TERMS[band of t] terms, for
    t < T_SWITCH (t below 0 takes the first band's terms).

    The Dirichlet sum sum_{n < N} n^(-1/2 - it) is the main sum of the RS
    branch with nmain = N - 1 and theta = 0 (_anchor_sum); its remainder
    and rounding model (_sum_bound) are far under z_em_block's 1e-12 floor.  It and
    the Bernoulli tail run once per EM_BLOCK points of the call, each point
    with its own band's N and coefficients.  The blocks bound the temporaries and keep each point's
    value independent of the call: numpy computes a product of temporaries
    over 256 KiB in place, which can round differently from the
    out-of-place product.
    """
    t = np.asarray(t, dtype=float)
    if t.size and not t.max() < T_SWITCH:
        raise DomainError(
            "the Euler-Maclaurin branch is certified only for t < T_SWITCH = %g: above it"
            " Backlund's bound for N = %d outgrows the error model's 1e-12 floor"
            " (1.1e-11 at t = 450)" % (T_SWITCH, EM_TERMS[-1]))
    out = np.empty(t.shape, dtype=complex)
    band = np.maximum(t // EM_BAND, 0).astype(np.intp)
    for i in range(0, t.size, EM_BLOCK):
        sel = slice(i, i + EM_BLOCK)
        out[sel] = _anchor_sum(t[sel], np.zeros_like(t[sel]), _EM_NMAIN[band[sel]])[0]
        out[sel] += _em_tail(t[sel], band[sel])
    return out


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
    w = np.exp(1j * theta_log_gamma(t)) * z
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


def _split(x, bits: int):
    """(hi, x - hi): hi a float of at most `bits` significant bits near the
    mpf x, and the exact mpf rest."""
    m, e = math.frexp(float(x))
    hi = math.ldexp(round(math.ldexp(m, bits)), e - bits)
    return hi, x - hi


@cache
def _two_pi_parts():
    """2 pi = P1 + P2 + P3 to 40 digits (Cody-Waite), P1 and P2 of
    PHASE_BITS bits each."""
    from mpmath import mp, workdps

    with workdps(40):
        p1, rest = _split(2 * mp.pi, PHASE_BITS)
        p2, rest = _split(rest, PHASE_BITS)
        return p1, p2, float(rest)


def _log_table(n: int):
    """(log_hi, log_lo, log, k^(-1/2)) for k = 1..N, N >= n a power of two:
    log_hi of at most PHASE_BITS bits and log_lo the rest of a 40-digit log k,
    rounded.  So a call builds the table only up to about the N it needs."""
    return _log_table_of_size(max(64, 1 << (n - 1).bit_length()))


@cache
def _log_table_of_size(size: int):
    from mpmath import log, mpf, workdps

    rows = []
    with workdps(40):
        for k in range(1, size + 1):
            lg = log(mpf(k))
            hi, lo = _split(lg, PHASE_BITS)
            rows.append((hi, float(lo), float(lg)))
    hi, lo, lg = (np.array(c) for c in zip(*rows))
    return hi, lo, lg, 1.0 / np.sqrt(np.arange(1.0, size + 1))


def taylor_order(n: int):
    """(M, K, R) for the main sum over k = 1..n about an anchor: the
    economized order M, the Taylor order K that it economizes, and R, a bound
    on |sum_k k^(-1/2) (e^(-ih u_k) - q_k(h))| for |h| <= RS_DELTA/2, with
    u_k = log k - log(n)/2 and q_k the polynomial the anchor sum evaluates.

    Per term write z = (Delta/2) u_k and h' = h/(Delta/2) in [-1, 1], so
    f(h') = e^(-izh') with |z| <= x = (Delta/4) log n.  p_K is f's Taylor
    polynomial of degree K and q = c_M(p_K) its Chebyshev truncation to
    degree M, so f - q = (f - c_M f) + c_M(f - p_K):
      * f = J_0(z) + 2 sum_{k>=1} (-i)^k J_k(z) T_k(h') with |J_k(z)| <=
        (|z|/2)^k/k! (DLMF 10.14.4), so |f - c_M f| <= 2 sum_{k>M} y^k/k!
        <= 2 y^(M+1)/(M+1)! e^y, y = x/2;
      * h'^j has Chebyshev coefficients >= 0 that sum to 1, its value at 1,
        so |c_M(h'^j)| <= 1 on [-1, 1], and |c_M(f - p_K)| <= sum_{j>K}
        x^j/j! <= x^(K+1)/(K+1)! e^x = R_K.
    With sum_k k^(-1/2) <= 2 sqrt(n) the sum's error is at most
    R = 2 sqrt(n) (2 y^(M+1)/(M+1)! e^y + R_K).  K is the least order with
    2 sqrt(n) R_K <= RS_TAYLOR_TOL/16 (it costs only the factor's set-up),
    and M the least with R <= RS_TAYLOR_TOL."""
    x = 0.25 * RS_DELTA * math.log(n) if n > 1 else 0.0
    y = 0.5 * x
    k, rk = 0, x * math.exp(x)  # rk = R_K = x^(K+1)/(K+1)! e^x
    while 2.0 * math.sqrt(n) * rk > RS_TAYLOR_TOL / 16:
        k += 1
        rk *= x / (k + 1)
    m, term = 0, y  # term = y^(M+1)/(M+1)!
    while 2.0 * math.sqrt(n) * (2.0 * term * math.exp(y) + rk) > RS_TAYLOR_TOL:
        m += 1
        term *= y / (m + 1)
    return m, k, 2.0 * math.sqrt(n) * (2.0 * term * math.exp(y) + rk)


@cache
def _economized(m: int, k: int):
    """E': (M+1) x (K+1), E'[i, j] = (-1)^((j-i)/2) (Delta/2)^(j-i) E[i, j]
    for j = i mod 2 and 0 otherwise, with E[i, j] the coefficient of h'^i in
    the degree-M Chebyshev truncation of h'^j on [-1, 1].  So sum_j E'[i, j]
    u^j/j! is the coefficient of (-ih)^i in the truncation of
    sum_{j<=K} (-ihu)^j/j!, h = (Delta/2) h'.

    h'^j = 2^(1-j) sum_{d = j mod 2, d <= j} binom(j, (j-d)/2) T_d(h') with
    the T_0 term halved, and T_d has integer monomial coefficients, so
    2^j E[i, j] is an integer: E is formed exactly and rounded once."""
    cheb = [[1], [0, 1]]  # monomial coefficients of T_0, T_1, ...
    while len(cheb) <= m:
        nxt = [0] + [2 * c for c in cheb[-1]]
        for i, c in enumerate(cheb[-2]):
            nxt[i] -= c
        cheb.append(nxt)
    e = np.zeros((m + 1, k + 1))
    for j in range(k + 1):
        num = [0] * (m + 1)  # 2^j E[:, j]
        for d in range(j % 2, min(j, m) + 1, 2):
            c = math.comb(j, (j - d) // 2) * (2 if d else 1)
            for i, ci in enumerate(cheb[d]):
                num[i] += c * ci
        for i in range(j % 2, m + 1, 2):
            e[i, j] = (-1) ** ((j - i) // 2) * (num[i] / 2**j) * (0.5 * RS_DELTA) ** (j - i)
    return e


@lru_cache(maxsize=16)
def _anchor_factor(n: int):
    """r = E' T_K for N = n: T_K[j, k] = (log k - log(n)/2)^j / j! for
    j = 0..K and k = 1..n, and (M, K) = taylor_order(n)[:2].  The
    C-contiguous, read-only (M+1) x n left factor of the moment product of
    every anchor group with N = n.  The cache holds the few N of a stretch
    of t (0.34 MB each at t = 1e7, 1.1 MB at RS_T_MAX)."""
    m, k, _ = taylor_order(n)
    lg = _log_table(n)[2][:n]
    d = (lg - 0.5 * lg[-1])[:, None] / np.arange(1.0, k + 1)
    p = np.multiply.accumulate(np.concatenate([np.ones((n, 1)), d], axis=1), axis=1)
    r = np.ascontiguousarray(_economized(m, k) @ p.T)
    r.flags.writeable = False
    return r


@cache
def _sum_bound(n: int) -> float:
    """R(N) + u W_N for N = n: the remainder bound of taylor_order and the
    rounding model u sum_k k^(-1/2) sum_m |r_m(u_k)| (Delta/2)^m of the
    module docstring, u = eps/2."""
    r = _anchor_factor(n)
    mass = _log_table(n)[3][:n] @ (np.abs(r).T @ (0.5 * RS_DELTA) ** np.arange(r.shape[0]))
    return taylor_order(n)[2] + 0.5 * _EPS * float(mass)


def _groups(j, nmain):
    """(N, j, inverse): the distinct (nmain, j) pairs of a block, sorted N
    first, and each point's index among them."""
    j0 = j.min()
    key = (nmain - nmain.min()) * (j.max() - j0 + 1.0) + (j - j0)  # integers, exact
    order = np.argsort(key, kind="stable")
    keys = key[order]
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    inv = np.empty(key.size, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    first = order[new]
    return nmain[first], j[first], inv


def _anchor_sum(t, th, nmain):
    """(sum_{n <= nmain} n^(-1/2) e^(i (theta - t log n)), R(N) + u W_N)
    per point, every nmain >= 1, by the economized expansion about each
    point's anchor (see the module docstring)."""
    j = np.rint(t * (1.0 / RS_DELTA))
    h = t - j * RS_DELTA                    # exact: |h| <= RS_DELTA / 2
    gn, gj, inv = _groups(j, nmain)
    hi, lo, lg, w = _log_table(int(gn[-1]))
    p1, p2, p3 = _two_pi_parts()
    # per group, S_m = sum_n r_m(log n - log(N)/2) C_n with C_n =
    # n^(-1/2) e^(-i a log n): one (M+1) x N by N x 2 product, stacked over
    # the groups of a run of equal N, so BLAS runs the same gemm for each
    runs = np.concatenate([[0], np.flatnonzero(np.diff(gn)) + 1, [gn.size]])
    mb = _anchor_factor(int(gn[-1])).shape[0] - 1  # gn is sorted, and M grows with N
    s = np.zeros((mb + 1, gn.size), dtype=complex)
    bound = np.empty(gn.size)
    for g0, g1 in zip(runs[:-1], runs[1:]):
        factor = _anchor_factor(int(gn[g0]))
        m, n = factor.shape[0] - 1, factor.shape[1]
        bound[g0:g1] = _sum_bound(n)
        a = gj[g0:g1, None] * RS_DELTA
        # a log n mod 2 pi: a hi is exact (PHASE_BITS bits each), and so is
        # its reduction by P1 and P2
        x = a * hi[:n]
        k = np.rint(x * (1.0 / _TWO_PI))
        phase = ((x - k * p1) - k * p2) - k * p3 + a * lo[:n]
        c = np.empty(phase.shape + (2,))
        np.multiply(np.cos(phase), w[:n], out=c[..., 0])
        np.multiply(np.sin(phase), -w[:n], out=c[..., 1])
        sm = np.matmul(factor, c)
        s.real[: m + 1, g0:g1] = sm[..., 0].T
        s.imag[: m + 1, g0:g1] = sm[..., 1].T

    # Horner in -ih, in place; the rows above a group's own order are zero,
    # so its points take exactly the steps they would alone.  (take's
    # mode="raise" copies out= on every call; inv is in range.  The method
    # skips np.take's Python wrapper, about 1 us a step.)
    step = -1j * h
    acc = s[mb][inv]
    coef = np.empty_like(acc)
    for m in range(mb - 1, -1, -1):
        np.multiply(acc, step, out=acc)
        np.add(acc, s[m].take(inv, out=coef, mode="clip"), out=acc)
    phi = th - h * (0.5 * lg[nmain - 1])
    rot = np.empty_like(acc)
    np.cos(phi, out=rot.real)
    np.sin(phi, out=rot.imag)
    return acc * rot, bound[inv]  # the product not in place: that rounds one point apart differently


def z_rs_block(t: np.ndarray):
    """(Z, err) on the Riemann-Siegel branch, t 1-d with 2 pi < t < RS_T_MAX,
    the whole path per block: ceil(n / RS_BLOCK) blocks of equal size."""
    t = np.asarray(t, dtype=float)
    if t.size and not t.max() < RS_T_MAX:
        raise DomainError(RS_T_MAX_REASON)
    z, err = np.empty_like(t), np.empty_like(t)
    blocks = -(-t.size // RS_BLOCK)
    for i in range(blocks):
        sel = slice(i * t.size // blocks, (i + 1) * t.size // blocks)
        z[sel], err[sel] = _rs_points(t[sel])
    return z, err


def _rs_points(t):
    """(Z, err) of z_rs_block on one block."""
    a = np.sqrt(t / _TWO_PI)
    nmain = np.floor(a).astype(np.int64)
    # the corrections first, so that their basis and the complex sum are
    # never held at once
    corr = np.where(nmain % 2 == 1, 1.0, -1.0) * _rs_cheb.corrections(a - nmain, 1.0 / a) / np.sqrt(a)
    s, bound = _anchor_sum(t, theta_stirling(t), nmain)
    z = 2.0 * s.real
    z += corr

    a2 = t / _TWO_PI
    err = RS_REMAINDER_COEF * a2 ** (-11 / 4.0)
    # Rounding of each point's own nmain-term main sum, so that a point's
    # bound does not depend on the other points of the call.
    err = err + 1e-14 * (1.0 + np.sqrt(nmain)) * (1.0 + np.abs(z))
    return z, err + 2.0 * bound


def z_block(t: np.ndarray):
    """(Z, err) over any t >= 0, dispatching between the two branches; a
    call wholly on the RS branch is handed to it without copies."""
    t = np.asarray(t, dtype=float)
    lo = t < T_SWITCH
    if not lo.any():
        return z_rs_block(t)
    z = np.empty_like(t)
    err = np.empty_like(t)
    z[lo], err[lo] = z_em_block(t[lo])
    hi = ~lo
    if hi.any():
        z[hi], err[hi] = z_rs_block(t[hi])
    return z, err


def moment_integrand(t: np.ndarray, k: int, samples=None):
    """(|Z|^{2k}, pointwise error) arrays for the 2k-th moment integrand,
    from samples (Z, err) at t if given, else from z_block(t)."""
    z, zerr = z_block(t) if samples is None else samples
    z2 = z * z
    f = z2**k
    # d(Z^{2k}) = 2k |Z|^{2k-1} dZ
    df = 2.0 * k * np.abs(z) ** (2 * k - 1) * zerr
    return f, df
