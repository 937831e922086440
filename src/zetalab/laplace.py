"""Laplace transforms L_k(s) of |zeta(1/2+ix)|^{2k} with the classical
small-sigma expansions they are compared against (Kober for k=1, the
quartic-log main term for k=2, the Laplace transform of d(T P4(log T))).

Evaluation streams over the panels of the mesh from 0 in fixed-size chunks
and reads Z at their nodes from the process's store (quadrature.get_store).
Within quadrature.STORE_PANELS panels the store keeps them, so a sigma grid
evaluates no node there that an accumulator or another grid evaluated; a
grid truncated past that evaluates every node of its range again.  Each
panel is charged by quadrature.panel_rule on the weighted integrand
e^{-sx} |Z|^{2k}, certified on the kernel's Euler-Maclaurin branch like the
accumulator's.  Per-sigma totals only use panels inside that sigma's own
truncation range, making each value independent of how calls are batched.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from mpmath import mp, mpf

from .config import QuadConfig
from .constants import constants_for
from .errors import DomainError
from .moments import default_p4
from .precision import DEFAULT_CTX
from .quadrature import IntegralResult, get_store, panel_rule
from .zkernel import T_SWITCH, moment_integrand

CHUNK = 1024


def _majorant(k: int, sigma: float, x: float, cfg: QuadConfig) -> float:
    """cmaj log^{k^2+1}(x) (1 + 1/sigma), the tail bound before e^{-sigma x}."""
    return cfg.laplace_cmaj * max(math.log(x), 1.0) ** (k * k + 1) * (1.0 + 1.0 / sigma)


def _truncation_x(k: int, sigma: float, cfg: QuadConfig) -> float:
    """Smallest X with _majorant(X) e^{-sigma X} <= laplace_tail_abs."""
    x = 10.0 / sigma
    for _ in range(5):
        x = math.log(max(_majorant(k, sigma, x, cfg) / cfg.laplace_tail_abs, 2.0)) / sigma
    return x


def laplace_moment_grid(k: int, s_values, cfg: QuadConfig = QuadConfig()):
    """L_k(s) for every s in s_values, sharing one pass over the store's samples.

    Each value uses exactly the panels inside its own truncation range, so
    results equal the single-call ones regardless of grid composition.
    """
    if k not in (1, 2):
        raise DomainError("k must be in {1, 2}")
    ss = [complex(s) for s in s_values]
    for s in ss:
        if not cmath.isfinite(s):
            raise DomainError("invalid-argument: s must be finite, got %r" % s)
        if s.real <= 0:
            raise DomainError("invalid-argument: Re s must be > 0")
        if abs(cmath.phase(s)) >= math.pi / 2:
            raise DomainError("invalid-argument: |arg s| must be < pi/2")

    if not ss:
        return []

    # Deterministic panels from 0; per-s panel counts, then global bound.
    x_needed = [_truncation_x(k, s.real, cfg) for s in ss]
    store = get_store(cfg)
    last = store.reach(max(x_needed))
    bounds = store.bounds
    n_use = [min(max(int(np.searchsorted(bounds, x, side="left")), 1), last) for x in x_needed]

    m = len(ss)
    total = [0.0 + 0.0j] * m
    err = [0.0] * m
    n_max = max(n_use)
    blocks = store.samples(0, n_max, CHUNK)
    for c0, (t, half, *zs) in zip(range(0, n_max, CHUNK), blocks):
        c1 = min(c0 + CHUNK, n_max)
        f, df = moment_integrand(t, k, zs)
        for i, s in enumerate(ss):
            hi = min(n_use[i], c1)
            if hi <= c0:
                continue
            sl = slice(0, hi - c0)
            w = np.exp(-s.real * t[sl]) if s.imag == 0.0 else np.exp(-s * t[sl])
            val, charge = panel_rule(half[sl], f[sl], df[sl], cfg.nodes, bounds[c0 + 1 : hi + 1] <= T_SWITCH, w)
            total[i] += complex(np.sum(val))
            err[i] += float(np.sum(charge))

    out = []
    for i, s in enumerate(ss):
        x_cut = float(bounds[n_use[i]])
        value = total[i].real if s.imag == 0.0 else total[i]
        bound = err[i] + _majorant(k, s.real, x_cut, cfg) * math.exp(-s.real * x_cut)
        out.append(IntegralResult(value, bound, n_use[i], (0.0, x_cut)))
    return out


def laplace_moment(k: int, s, cfg: QuadConfig = QuadConfig()) -> IntegralResult:
    """L_k(s) = int_0^inf |zeta(1/2+ix)|^{2k} e^{-sx} dx for Re s > 0.

    Truncated at X where the disclosed polylog majorant brings the tail
    below tolerance; the tail bound enters err_bound.  The value is complex
    when s has nonzero imaginary part.
    """
    return laplace_moment_grid(k, [s], cfg)[0]


def kober_main(sigma: float) -> float:
    """Leading Kober term (gamma - log(4 pi sigma)) / (2 sin sigma)."""
    if not (0 < sigma < 1):
        raise DomainError("kober_main requires 0 < sigma < 1")
    c = constants_for(DEFAULT_CTX)
    with DEFAULT_CTX.workprec():
        return float((c.euler_gamma - mp.log(4 * c.pi * sigma)) / (2 * mp.sin(sigma)))


@functools.cache
def atkinson_coeffs() -> tuple:
    """(A, B, C, D, E) of the fourth-moment Laplace main term, exact.

    The main term is the Laplace transform of d(T P4(log T)) = Q(log t) dt,
    Q = P4 + P4' (P4 = moments.default_p4):
    int_0^inf e^(-s t) log^j t dt = s^-1 sum_i C(j, i) Gamma^(i)(1) l^(j-i),
    l = log(1/s), with Gamma^(n+1)(1) = sum_i C(n, i) psi^(i)(1) Gamma^(n-i)(1).
    So A = a4 and B = a3 + 4 (1 - gamma) a4
    = (6 gamma - 2 log 2pi - 24 zeta'(2)/pi^2)/pi^2, the negative of the
    closed form printed in the source.
    """
    a = default_p4().coeffs[::-1]
    with DEFAULT_CTX.workprec():
        q = [mpf(a[j]) + (j + 1) * mpf(a[j + 1]) for j in range(4)] + [mpf(a[4])]
        gamma_d = [mpf(1)]
        for n in range(4):
            gamma_d.append(sum(math.comb(n, i) * mp.psi(i, 1) * gamma_d[n - i] for i in range(n + 1)))
        return tuple(
            float(sum(q[j] * math.comb(j, m) * gamma_d[j - m] for j in range(m, 5)))
            for m in range(4, -1, -1)
        )


def atkinson_expansion(sigma: float) -> float:
    """(A log^4(1/s) + B log^3(1/s) + C log^2(1/s) + D log(1/s) + E) / s
    with the exact atkinson_coeffs."""
    if not (0 < sigma < 1):
        raise DomainError("atkinson_expansion requires 0 < sigma < 1")
    return float(np.polyval(atkinson_coeffs(), math.log(1.0 / sigma))) / sigma
