#!/usr/bin/env python3
"""Generate Chebyshev tables for the Riemann-Siegel correction terms C0..C4.

C_k(p) are combinations of derivatives of
    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)
on p in [0, 1].  Derivatives are taken symbolically with sympy and evaluated
with mpmath at 60 digits on a Chebyshev grid in u = 2p - 1.  C_k has parity
(-1)^k in u, so every other coefficient is zero; the series is rewritten in
v = 2u^2 - 1 (times u for odd k), which halves its length.  The resulting
coefficients, as one table with a column per C_k, and the evaluator of all
five corrections at once (corrections) are written to
src/zetalab/_rs_cheb.py.  Run from the repository root:

    python3 tools/gen_rs_cheb.py
"""

import pathlib

import mpmath
import sympy as sp
from mpmath import mp

P = sp.symbols("p")
PSI = sp.cos(2 * sp.pi * (P**2 - P - sp.Rational(1, 16))) / sp.cos(2 * sp.pi * P)

# C_k in terms of Psi derivatives (Haselgrove normalization, powers of
# (t/2pi)^(-1/2) relative to the leading correction).
PI = sp.pi
C_EXPRS = [
    PSI,
    -sp.diff(PSI, P, 3) / (96 * PI**2),
    sp.diff(PSI, P, 2) / (64 * PI**2) + sp.diff(PSI, P, 6) / (18432 * PI**4),
    -sp.diff(PSI, P, 1) / (64 * PI**2)
    - sp.diff(PSI, P, 5) / (3840 * PI**4)
    - sp.diff(PSI, P, 9) / (5308416 * PI**6),
    sp.diff(PSI, P, 0) / (128 * PI**2)
    + 19 * sp.diff(PSI, P, 4) / (24576 * PI**4)
    + 11 * sp.diff(PSI, P, 8) / (5898240 * PI**6)
    + sp.diff(PSI, P, 12) / (2038431744 * PI**8),
]

HEAD = '''"""Chebyshev coefficients for the Riemann-Siegel correction terms
C0..C4 on p in [0, 1], in v = 2u^2 - 1 with u = 2p - 1: C_k is the
series in v for even k and u times it for odd k.  COEFFS[i, k] is the
coefficient of T_i(v) in C_k, 0 past the end of its series (%d x %d).
Generated by tools/gen_rs_cheb.py; do not edit by hand."""

import numpy as np

'''

EVALUATOR = '''

def corrections(p, x):
    """C_0(p) + C_1(p) x + ... + C_4(p) x^4 at each p of the 1-d array p, p in
    [0, 1], and the x of the same shape.

    The basis T_0(v), ..., T_15(v) is built once per point and contracted
    with COEFFS by np.einsum; Horner in x combines the five results, with u
    on the odd ones.  einsum runs no BLAS, so each point takes the same
    steps at any size and memory offset of the array: a matmul takes
    another BLAS path for one point than for many.
    """
    u = 2.0 * p - 1.0
    v = 2.0 * u * u - 1.0
    basis = np.empty((len(COEFFS),) + v.shape)
    basis[0] = 1.0
    basis[1] = v
    v *= 2.0
    for i in range(2, len(COEFFS)):
        np.multiply(v, basis[i - 1], out=basis[i])
        basis[i] -= basis[i - 2]
    c = np.einsum("ip,ik->kp", basis, COEFFS)
    out = c[-1]
    for k in range(COEFFS.shape[1] - 2, -1, -1):
        out = out * x + (u * c[k] if k % 2 else c[k])
    return out
'''

M_NODES = 192
DEGREE = 88


def cheb_coeffs(fn, m, degree):
    # Chebyshev nodes on [0,1]; discrete cosine projection.
    us = [mp.cos(mp.pi * (i + mp.mpf(1) / 2) / m) for i in range(m)]
    xs = [(u + 1) / 2 for u in us]
    vals = [fn(x) for x in xs]
    coeffs = []
    for j in range(degree + 1):
        s = mp.mpf(0)
        for i in range(m):
            s += vals[i] * mp.cos(j * mp.pi * (i + mp.mpf(1) / 2) / m)
        c = 2 * s / m
        coeffs.append(c / 2 if j == 0 else c)
    return coeffs


def v_series(c, k):
    """The Chebyshev series c in u of C_k as one in v = 2u^2 - 1.

    Even k: T_2j(u) = T_j(v), so the c_2j are kept.  Odd k: the sum of
    c_{2j+1} T_{2j+1}(u) is u sum_i d_i T_i(v), since T_{2j+1}(u) = u q_j(v)
    with q_0 = T_0 and q_j = 2 T_j - q_{j-1} (from the three-term recurrence
    and 2u^2 = 1 + v).
    """
    if k % 2 == 0:
        return c[0::2]
    odd = c[1::2]
    d = [mp.mpf(0)] * len(odd)
    q = []
    for j, cj in enumerate(odd):
        q = [-x for x in q] + [mp.mpf(2) if j else mp.mpf(1)]
        for i, qi in enumerate(q):
            d[i] += cj * qi
    return d


def main():
    mp.dps = 60
    tables = []
    for k, expr in enumerate(C_EXPRS):
        fn = sp.lambdify(P, expr, modules="mpmath")
        coeffs = v_series(cheb_coeffs(fn, M_NODES, DEGREE), k)
        # Trim trailing coefficients below float64 noise.
        cut = len(coeffs)
        while cut > 4 and abs(coeffs[cut - 1]) < mpmath.mpf("1e-19"):
            cut -= 1
        tables.append([float(c) for c in coeffs[:cut]])
        print("C%d: %d coefficients, tail %.2e" % (k, cut, abs(coeffs[cut - 1])))

    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "zetalab" / "_rs_cheb.py"
    size = max(len(tab) for tab in tables)
    with open(out, "w") as f:
        f.write(HEAD % (size, len(tables)))
        f.write("COEFFS = np.array([\n")
        for i in range(size):
            row = [tab[i] if i < len(tab) else 0.0 for tab in tables]
            f.write("    [%s],\n" % ", ".join(map(repr, row)))
        f.write("])\n")
        f.write("COEFFS.flags.writeable = False\n")
        f.write(EVALUATOR)
    print("wrote", out)


if __name__ == "__main__":
    main()
