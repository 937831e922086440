#!/usr/bin/env python3
"""Derive the fourth-moment polynomial P4 exactly from the CFKRS residue formula.

Conrey, Farmer, Keating, Rubinstein and Snaith (Integral moments of
L-functions, Proc. London Math. Soc. 91 (2005)), k = 2:

    int_0^T |zeta(1/2+it)|^4 dt = int_0^T P(log(t/2 pi)) dt + O(T^(1/2+eps)),
    P(x) = 1/4 (2 pi i)^-4 oint G(z) Delta(z)^2 prod z_j^-4 e^(x/2 (z1+z2-z3-z4)) dz,
    G(z) = prod_{i=1,2; j=3,4} zeta(1+z_i-z_j) / zeta(2+z1+z2-z3-z4).

The pole of each zeta(1+z_i-z_j) cancels one factor (z_i-z_j) of Delta^2, so
G Delta^2 is analytic at 0 and P(x) is a quarter of the coefficient of
(z1 z2 z3 z4)^3 in G Delta^2 e^(x/2 (z1+z2-z3-z4)).  That coefficient is read
off truncated Taylor series: u zeta(1+u) = 1 + sum_n (-1)^n gamma_n u^(n+1)/n!
with the Stieltjes constants gamma_n, and the series of 1/zeta(2+w) from the
derivatives of zeta at 2.  With T P4(log T) = int_0^T P(log(t/2 pi)) dt,
P4 + P4' = P(y - log 2 pi), so P4 = sum_j (-1)^j D^j P(y - log 2 pi).

Prints (a2, a1, a0), the coefficients of y^2, y, 1 of P4, as float literals
for zetalab.constants.P4_LOWER:

    python3 tools/derive_p4.py
"""

from itertools import product
from math import comb

from mpmath import mp, mpf

DEGREE = 4  # of P4; total degree of the series part needed (12 - deg Q)


def _mul(p, q):
    """Product of two series in z1..z4 (dicts exponent tuple -> coefficient),
    truncated to total degree DEGREE."""
    out = {}
    for (ea, ca), (eb, cb) in product(p.items(), q.items()):
        e = tuple(i + j for i, j in zip(ea, eb))
        if sum(e) <= DEGREE:
            out[e] = out.get(e, 0) + ca * cb
    return out


def _linear(signs):
    """The linear form sum_j signs[j] z_j."""
    return {tuple(int(i == j) for i in range(4)): mpf(s) for j, s in enumerate(signs) if s}


def _series_of(coeffs, form):
    """sum_n coeffs[n] form^n, truncated."""
    out, power = {}, {(0, 0, 0, 0): mpf(1)}
    for c in coeffs:
        for e, v in power.items():
            out[e] = out.get(e, 0) + c * v
        power = _mul(power, form)
    return out


def _polynomial_part():
    """Delta^2 / prod_{i=1,2; j=3,4} (z_i - z_j): the degree-8 polynomial
    (z1-z2)^2 (z3-z4)^2 prod_{i=1,2; j=3,4} (z_i - z_j)."""
    q = {(0, 0, 0, 0): 1}
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (0, 1), (2, 3), (2, 3)):
        nxt = {}
        for e, v in q.items():
            for k, s in ((i, v), (j, -v)):
                f = tuple(x + (n == k) for n, x in enumerate(e))
                nxt[f] = nxt.get(f, 0) + s
        q = nxt
    return q


def cfkrs_p(prec: int = 160):
    """Coefficients of CFKRS's P(x) for k = 2, highest degree first."""
    with mp.workprec(prec):
        # u zeta(1+u) and 1/zeta(2+w), both to degree DEGREE
        h = [mpf(1)] + [(-1) ** n * mp.stieltjes(n) / mp.factorial(n) for n in range(DEGREE)]
        z2 = [mp.zeta(2, 1, m) / mp.factorial(m) for m in range(DEGREE + 1)]
        inv = [1 / z2[0]]
        for m in range(1, DEGREE + 1):
            inv.append(-sum(z2[i] * inv[m - i] for i in range(1, m + 1)) / z2[0])

        ell = _linear((1, 1, -1, -1))
        series = _series_of(inv, ell)
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            signs = [0, 0, 0, 0]
            signs[i], signs[j] = 1, -1
            series = _mul(series, _series_of(h, _linear(signs)))
        q = _polynomial_part()

        coeffs = []
        power = {(0, 0, 0, 0): mpf(1)}
        for m in range(DEGREE + 1):
            # [z^(3,3,3,3)] q * series * ell^m / (2^m m!)
            term = _mul(series, power)
            total = mpf(0)
            for e, v in q.items():
                rest = tuple(3 - i for i in e)
                if min(rest) >= 0:
                    total += v * term.get(rest, 0)
            coeffs.append(total / (4 * 2**m * mp.factorial(m)))
            power = _mul(power, ell)
        return coeffs[::-1]


def derive_p4(prec: int = 160):
    """(a4, a3, a2, a1, a0) of P4 in int_0^T |zeta|^4 = T P4(log T) + E2(T)."""
    p = cfkrs_p(prec)
    with mp.workprec(prec):
        c = -mp.log(2 * mp.pi)
        # r(y) = p(y + c), lowest degree first
        low = p[::-1]
        r = [sum(comb(n, i) * low[n] * c ** (n - i) for n in range(i, DEGREE + 1))
             for i in range(DEGREE + 1)]
        # a = sum_j (-D)^j r
        a = [mpf(0)] * (DEGREE + 1)
        deriv = r
        for j in range(DEGREE + 1):
            for i, v in enumerate(deriv):
                a[i] += (-1) ** j * v
            deriv = [i * deriv[i] for i in range(1, len(deriv))]
        return a[::-1]


def main():
    a = derive_p4()
    print("P4_LOWER = (%r, %r, %r)" % tuple(float(v) for v in a[2:]))
    print("# a4, a3 = %r, %r" % (float(a[0]), float(a[1])))
    print("# CFKRS P(x) = %s" % ", ".join("%.10f" % float(v) for v in cfkrs_p()))


if __name__ == "__main__":
    main()
