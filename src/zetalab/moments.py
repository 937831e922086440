"""Moment integrals, the explicit polynomials and the error terms E1/E2.

Covers: integrate_moment, main_term, error_term, the Gaussian-smoothed local
fourth moment, the closed-form integral of t*P4(log t), and the integrated and
mean-squared E2.  P4's two leading coefficients are the displayed closed forms;
its lower three (constants.P4_LOWER) are derived from the CFKRS residue formula.

The mean square of E2 takes E2 inside a panel from the spectral integral of
the panel's |Z|^4 interpolant at the accumulator's own nodes, 33 per panel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .constants import P4_LOWER, fourth_moment_a3, fourth_moment_a4, second_moment_constant
from .errors import DomainError
from .quadrature import (
    CELLS,
    IntegralResult,
    PanelBatch,
    get_accumulator,
    integration_matrix,
    kronrod_rule,
    panel_mesh,
    panel_nodes,
)
from .zkernel import moment_integrand

PAPER_EXACT = "paper-exact"
DERIVED = "derived"
USER = "user-supplied"


@dataclass(frozen=True)
class MomentPolynomial:
    """P_{k^2} coefficients, highest degree first, with per-coefficient provenance."""

    k: int
    coeffs: tuple
    provenance: tuple

    def __post_init__(self):
        if self.k not in (1, 2):
            raise DomainError("moment polynomial defined for k in {1, 2}")
        if len(self.coeffs) != self.k**2 + 1 or len(self.provenance) != len(self.coeffs):
            raise DomainError("coefficient/provenance length must be k^2 + 1")

    def eval(self, y: float) -> float:
        acc = 0.0
        for c in self.coeffs:
            acc = acc * y + c
        return acc

    def all_paper_exact(self) -> bool:
        return all(p == PAPER_EXACT for p in self.provenance)


def p1_exact() -> MomentPolynomial:
    """P1(y) = y + 2*gamma - 1 - log(2 pi), both coefficients exact."""
    return MomentPolynomial(
        k=1,
        coeffs=(1.0, float(second_moment_constant())),
        provenance=(PAPER_EXACT, PAPER_EXACT),
    )


def p4_polynomial(lower=(0.0, 0.0, 0.0), lower_provenance=USER) -> MomentPolynomial:
    """P4 with exact a4, a3 and supplied lower-order coefficients (a2, a1, a0)."""
    a4 = float(fourth_moment_a4())
    a3 = float(fourth_moment_a3())
    return MomentPolynomial(
        k=2,
        coeffs=(a4, a3) + tuple(float(c) for c in lower),
        provenance=(PAPER_EXACT, PAPER_EXACT) + (lower_provenance,) * 3,
    )


@functools.cache
def default_p4() -> MomentPolynomial:
    """P4 with the closed-form a4, a3 and the derived P4_LOWER."""
    return p4_polynomial(P4_LOWER, DERIVED)


def main_term(k: int, t_upper: float, poly: MomentPolynomial) -> float:
    """T * P_{k^2}(log T), Horner evaluation."""
    if poly.k != k:
        raise DomainError("polynomial is for k=%d, not k=%d" % (poly.k, k))
    if t_upper <= 0:
        return 0.0
    return t_upper * poly.eval(math.log(t_upper))


def integrate_moment(k: int, a: float, b: float, cfg: QuadConfig = QuadConfig()) -> IntegralResult:
    """Adaptive panel quadrature of |Z(t)|^{2k} over [a, b].

    For a = 0 the value and bound are the accumulator's cumulative ones at b
    (the same numbers error_term reads).  Otherwise only the mesh panels
    inside [a, b] and the two partial panels at a and b are summed
    (MomentAccumulator.between).  err_bound covers, on those panels, the
    Gauss-Kronrod disagreement |G_n - K_2n+1| of every accepted sub-panel
    above the rounding bound of its two sums, the rounding bound of K, and
    the integrated pointwise kernel error model, plus one ulp of the result
    for the final summation; no panel outside [a, b] is charged.
    """
    if k not in (1, 2):
        raise DomainError("k must be in {1, 2}")
    if a < 0 or b < a:
        raise DomainError("invalid range [%r, %r]" % (a, b))
    if a == b:
        return IntegralResult(0.0, 0.0, 0, (a, b))
    acc = get_accumulator(k, cfg)
    if a == 0:
        value, _, err, _ = acc.cumulative_to(b)
    else:
        value, err = acc.between(a, b)
    return IntegralResult(value, err, acc.panels_meeting(a, b), (a, b))


@dataclass(frozen=True)
class ErrorTermResult:
    value: float
    err_bound: float
    poly: MomentPolynomial


def error_term(
    k: int,
    t_upper: float,
    cfg: QuadConfig = QuadConfig(),
    poly: MomentPolynomial | None = None,
) -> ErrorTermResult:
    """E_k(T) = int_0^T |Z|^{2k} - T P_{k^2}(log T), with combined error bound."""
    if k == 1:
        poly = poly or p1_exact()
        if not poly.all_paper_exact():
            raise DomainError("E1 must use only paper-exact coefficients")
    elif k == 2:
        poly = poly or default_p4()
    else:
        raise DomainError("error term defined for k in {1, 2}")
    if t_upper == 0:
        return ErrorTermResult(0.0, 0.0, poly)
    acc = get_accumulator(k, cfg)
    v, _, e, _ = acc.cumulative_to(t_upper)
    return ErrorTermResult(v - main_term(k, t_upper, poly), e, poly)


def smoothed_fourth(
    t_center: float, delta: float, cfg: QuadConfig = QuadConfig()
) -> IntegralResult:
    """Gaussian-smoothed local fourth moment
    (1/(delta sqrt(pi))) int |zeta(1/2 + i(T+t))|^4 exp(-t^2/delta^2) dt,
    truncated at |t| <= W delta with the tail folded into the error bound.
    One panel run on quadrature.panel_mesh over [max(T - W delta, 0), T + W delta];
    a window part below 0 is folded onto [0, W delta - T] (|zeta| is even)."""
    if not (math.isfinite(t_center) and t_center > 1.0):
        raise DomainError("invalid-argument: T must be finite and > 1, got %r" % t_center)
    if not (0 < delta <= t_center / math.log(t_center)):
        raise DomainError(
            "invalid-delta: need 0 < delta <= T/log T = %.6g" % (t_center / math.log(t_center))
        )
    w_win = cfg.window_w
    lo = t_center - w_win * delta
    hi = t_center + w_win * delta
    inv = 1.0 / (delta * math.sqrt(math.pi))

    def weighted(u):
        f, df = moment_integrand(u, 2)
        g = np.exp(-((u - t_center) / delta) ** 2)
        if lo < 0.0:
            # The window's part u < 0 folded onto [0, -lo]: |zeta(1/2+iu)| is even.
            g = g + np.where(u <= -lo, np.exp(-((u + t_center) / delta) ** 2), 0.0)
        return f * g * inv, df * g * inv

    # cap bounds the cells, so a panel of CELLS cells is up to delta/3 wide
    bounds = panel_mesh(max(lo, 0.0), hi, cfg, cap=delta / (3.0 * CELLS))
    val, _, err, _ = PanelBatch(weighted, cfg).run(bounds[:-1], bounds[1:])

    # Truncation: |zeta|^4 majorized by cmaj (1 + log^4) near the window.
    majorant = cfg.laplace_cmaj * (1.0 + max(math.log(hi), 1.0) ** 4)
    tail = majorant * math.erfc(w_win)
    return IntegralResult(float(np.sum(val)), float(np.sum(err)) + tail, len(bounds) - 1, (lo, hi))


def integral_of_t_poly(t_upper: float, poly: MomentPolynomial) -> float:
    """Closed form of int_0^T t P(log t) dt via I_j = T^2/2 log^j T - (j/2) I_{j-1}."""
    if t_upper <= 0:
        return 0.0
    y = math.log(t_upper)
    half_t2 = 0.5 * t_upper * t_upper
    deg = len(poly.coeffs) - 1
    i_vals = [half_t2]
    for j in range(1, deg + 1):
        i_vals.append(half_t2 * y**j - 0.5 * j * i_vals[j - 1])
    return sum(c * i_vals[deg - idx] for idx, c in enumerate(poly.coeffs))


def integral_of_e2(
    t_upper: float, cfg: QuadConfig = QuadConfig(), poly: MomentPolynomial | None = None
) -> IntegralResult:
    """int_0^T E2(t) dt in a single pass:
    T int_0^T f - int_0^T u f(u) du - int_0^T t P4(log t) dt."""
    poly = poly or default_p4()
    if t_upper <= 0:
        return IntegralResult(0.0, 0.0, 0, (0.0, max(t_upper, 0.0)))
    acc = get_accumulator(2, cfg)
    v, vu, e, eu = acc.cumulative_to(t_upper)
    value = t_upper * v - vu - integral_of_t_poly(t_upper, poly)
    return IntegralResult(value, t_upper * e + eu, acc.panels_meeting(0.0, t_upper), (0.0, t_upper))


_MEANSQ_CHUNK = 256  # pieces per kernel call in mean_square_e2


def mean_square_e2(
    t_upper: float,
    cfg: QuadConfig = QuadConfig(),
    poly: MomentPolynomial | None = None,
    snapshots=None,
):
    """int_0^T E2(t)^2 dt on the k = 2 accumulator's mesh and node set.

    Every piece [a, b] -- a mesh panel, or [left, s] for a snapshot s (or T)
    inside a panel -- evaluates |Z|^4 once at the accumulator's own nodes,
    the 2 cfg.nodes + 1 Gauss-Kronrod points (33 by default).  E2 at each
    node, and separately at each Gauss node, is the cumulative value at a,
    plus the integral from a to the node of the polynomial interpolating
    |Z|^4 at all nodes (at the Gauss nodes; integration_matrix), less
    t P4(log t).  The value is the Kronrod rule applied to E2^2.  err_bound
    charges, per piece, |Kronrod - Gauss| of E2^2, which covers both the
    outer rule and the coarser inner interpolant, plus 2 int |E2| times the
    cumulative quadrature bound at T for the error of the cumulative values.

    Returns (IntegralResult, ratio_table) where ratio_table has one row
    (T, integral, integral/T^2) per requested snapshot (always including T).
    A snapshot's integral is the prefix sum of the panels before it plus its
    own piece, bit-identical to mean_square_e2(snapshot).value.
    """
    poly = poly or default_p4()
    if t_upper <= 0:
        return IntegralResult(0.0, 0.0, 0, (0.0, 0.0)), []
    snaps = np.array(sorted(set(list(snapshots or []) + [t_upper])), dtype=float)
    if snaps[0] <= 0 or snaps[-1] > t_upper:
        raise DomainError("snapshots must lie in (0, T]")
    acc = get_accumulator(2, cfg)
    acc.cover(0.0, t_upper)
    n_panels = acc.n_panels_to(t_upper)
    bs = acc.bounds[: n_panels + 1]
    pv, _, pe, _ = (q[: n_panels + 1] for q in acc.prefix())
    at = np.searchsorted(bs, snaps, side="right") - 1
    inside = np.nonzero(snaps > bs[at])[0]
    val, err = _e2_squared(
        np.concatenate([bs[:-1], bs[at[inside]]]),
        np.concatenate([bs[1:], snaps[inside]]),
        np.concatenate([pv[:-1], pv[at[inside]]]),
        float(pe[-1]), poly, cfg,
    )
    snap_vals = np.concatenate([[0.0], np.cumsum(val[:n_panels])])[at]
    snap_vals[inside] += val[n_panels:]
    err_total = float(np.sum(err[:n_panels]))
    if t_upper > bs[-1]:
        err_total += float(err[-1])
    pieces = n_panels + int(t_upper > bs[-1])
    result = IntegralResult(float(snap_vals[-1]), err_total, pieces, (0.0, t_upper))
    table = [(s, v, v / (s * s)) for s, v in zip(snaps.tolist(), snap_vals.tolist())]
    return result, table


def _e2_squared(lefts, rights, base, cum_err, poly, cfg):
    """(value, err) of int E2^2 over each piece [lefts, rights], with the
    cumulative |Z|^4 integral base at each left end (see mean_square_e2)."""
    n = cfg.nodes
    x, wk, wg = kronrod_rule(n)
    sk, sg = integration_matrix(x), integration_matrix(x[1::2])
    coeffs = np.array(poly.coeffs)

    def e2_at(t, f, b, half, smat):
        # a row-wise sum rather than a BLAS product: a piece's value must not
        # depend on the other pieces of its chunk (snapshots are bit-identical)
        inner = half * np.sum(f[:, None, :] * smat, axis=2)
        return b + inner - t * np.polyval(coeffs, np.log(t))

    val = np.empty(len(lefts))
    err = np.empty(len(lefts))
    for i in range(0, len(lefts), _MEANSQ_CHUNK):
        part = slice(i, i + _MEANSQ_CHUNK)
        t, half = panel_nodes(lefts[part], rights[part], n)
        f, _ = moment_integrand(t.ravel(), 2)
        f, b, h = f.reshape(t.shape), base[part, None], half[:, None]
        e_k = e2_at(t, f, b, h, sk)
        e_g = e2_at(t[:, 1::2], f[:, 1::2], b, h, sg)
        fine = half * np.sum(wk * e_k * e_k, axis=1)
        coarse = half * np.sum(wg * e_g * e_g, axis=1)
        val[part] = fine
        err[part] = np.abs(fine - coarse) + 2.0 * cum_err * half * np.sum(wk * np.abs(e_k), axis=1)
    return val, err
