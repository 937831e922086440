"""Moment integrals, the explicit polynomials and the error terms E1/E2.

Covers: integrate_moment, main_term, error_term, the Gaussian-smoothed local
fourth moment, the closed-form integral of t*P4(log t), and the integrated and
mean-squared E2.  P4's two leading coefficients are the displayed closed forms;
its lower three (constants.P4_LOWER) are derived from the CFKRS residue formula.

Every functional reads Z at the mesh nodes from the process's store of Z
samples (quadrature.get_store), the mean square of E2 through a sweep of the
k = 2 accumulator; the store keeps them within quadrature.STORE_PANELS
panels.  Elsewhere Z is evaluated only on partial panels and on the steps
of a narrow smoothed window.  Every panel, the accumulator's and the
smoothed window's, is charged by the one rule, quadrature.panel_rule.
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
    IntegralResult,
    PanelSamples,
    first_panel,
    get_accumulator,
    get_store,
    integration_matrix,
    kronrod_rule,
    panel_bounds,
    panel_nodes,
    panel_rule,
)
from .zkernel import T_SWITCH, moment_integrand

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
    """Panel quadrature of |Z(t)|^{2k} over [a, b], one rule per panel.

    For a = 0 the value and bound are the accumulator's cumulative ones at b
    (the same numbers error_term reads).  Otherwise only the mesh panels
    inside [a, b] and the two partial panels at a and b are summed
    (MomentAccumulator.between).  err_bound covers, on those panels, the
    Gauss-Kronrod disagreement |G_n - K_2n+1| of every panel above the
    rounding bound of its two sums, the rounding bound of K, and the
    integrated pointwise kernel error model, plus one ulp of the result for
    the final summation; no panel outside [a, b] is charged.
    """
    if k not in (1, 2):
        raise DomainError("k must be in {1, 2}")
    if not 0 <= a <= b < math.inf:
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
    The window [T - W delta, T + W delta] is integrated on the panels of
    the mesh from 0 that reach it (quadrature.panel_bounds), Z at their
    nodes read or evaluated through the store (ZStore.samples), which lays
    no boundary for them.  Where one of them is wider than delta/3, the
    window is instead cut into equal steps of at most delta/3, about 6 W
    more pieces than mesh panels whatever delta, which evaluate Z
    themselves.  Each piece takes one rule, all in one panel_rule on the
    Gaussian-weighted samples.  A window part below 0 is folded
    onto [0, W delta - T] (|zeta| is even).  A delta under 4 ulps of
    T + W delta is refused: the nodes of one-ulp steps round onto their
    ends, an error the bound cannot see."""
    if not (math.isfinite(t_center) and t_center > 1.0):
        raise DomainError("invalid-argument: T must be finite and > 1, got %r" % t_center)
    if not (0 < delta <= t_center / math.log(t_center)):
        raise DomainError(
            "invalid-delta: need 0 < delta <= T/log T = %.6g" % (t_center / math.log(t_center))
        )
    w_win = cfg.window_w
    lo = t_center - w_win * delta
    hi = t_center + w_win * delta
    if delta < 4.0 * np.spacing(hi):
        raise DomainError("invalid-delta: need delta >= 4 ulps of T + W delta = %.6g" % (4.0 * np.spacing(hi)))
    inv = 1.0 / (delta * math.sqrt(math.pi))
    lo0 = max(lo, 0.0)
    i, j = max(first_panel(lo0, cfg) - 1, 0), first_panel(hi, cfg)
    e = panel_bounds(np.arange(i, j + 1), cfg)
    if np.max(np.diff(e)) > delta / 3.0:
        # steps of a whole number of ulps of hi: the steps are translates on
        # the float grid, so their nodes round alike and the rounding of the
        # nodes, large against a small delta, cancels across the window
        h = np.spacing(hi) * max(math.floor(delta / 3.0 / np.spacing(hi)), 1)
        e = np.union1d(e, np.append(lo0 + h * np.arange(math.ceil((hi - lo0) / h)), hi))
        t, half = panel_nodes(e[:-1], e[1:], cfg.nodes)
        zs = None
    else:
        t, half, *zs = next(get_store(cfg).samples(i, j, j - i))
    f, df = (q.reshape(t.shape) for q in moment_integrand(t.ravel(), 2, zs))
    g = np.exp(-((t - t_center) / delta) ** 2)
    if lo < 0.0:
        # The window's part u < 0 folded onto [0, -lo]: |zeta(1/2+iu)| is even.
        g = g + np.where(t <= -lo, np.exp(-((t + t_center) / delta) ** 2), 0.0)
    val, err = panel_rule(half, f * g * inv, df * g * inv, cfg.nodes, e[1:] <= T_SWITCH)

    # Truncation: |zeta|^4 majorized by cmaj (1 + log^4) near the window.
    majorant = cfg.laplace_cmaj * (1.0 + max(math.log(hi), 1.0) ** 4)
    tail = majorant * math.erfc(w_win)
    return IntegralResult(float(np.sum(val)), float(np.sum(err)) + tail, len(val), (lo, hi))


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


def mean_square_e2(
    t_upper: float,
    cfg: QuadConfig = QuadConfig(),
    poly: MomentPolynomial | None = None,
    snapshots=None,
):
    """int_0^T E2(t)^2 dt on the k = 2 accumulator's mesh and node set.

    Every piece [a, b] -- a mesh panel, or [left, s] for a snapshot s (or T)
    inside a panel -- takes |Z|^4 at the accumulator's own nodes, the
    2 cfg.nodes + 1 Gauss-Kronrod points (33 by default).  The mesh panels
    are one sweep of the accumulator over [0, T] (MomentAccumulator.sweep),
    which reads Z from the store and fills the panels not yet held from the
    same samples, so a cold call evaluates each node once; only the pieces
    of snapshots inside panels evaluate the kernel.  A call after a fill
    past quadrature.STORE_PANELS panels, which kept no samples, evaluates
    every node again (267 168 of them for T = 1.5e4).  E2 at each node is
    the cumulative value there (MomentAccumulator.read_nodes), and at each
    Gauss node the cumulative value at a plus the integral from a of the
    polynomial interpolating |Z|^4 at the Gauss nodes alone
    (integration_matrix), less t P4(log t).  The value is the Kronrod rule
    applied to E2^2.  err_bound charges, per piece, |Kronrod - Gauss| of
    E2^2, which covers both the outer rule and the coarser inner
    interpolant, plus 2 int |E2| times the cumulative quadrature bound at T
    for the error of the cumulative values.

    Returns (IntegralResult, ratio_table) where ratio_table has one row
    (T, integral, integral/T^2) per requested snapshot (always including T).
    A snapshot's integral is the prefix sum of the panels before it plus its
    own piece, bit-identical to mean_square_e2(snapshot).value.
    """
    poly = poly or default_p4()
    if t_upper <= 0:
        return IntegralResult(0.0, 0.0, 0, (0.0, 0.0)), []
    snaps = np.array(sorted(set(list(snapshots or []) + [t_upper])), dtype=float)
    if not (np.all(np.isfinite(snaps)) and 0 < snaps[0] and snaps[-1] <= t_upper):
        raise DomainError("snapshots must be finite and lie in (0, T]")
    acc = get_accumulator(2, cfg)
    x, wk, wg = kronrod_rule(cfg.nodes)
    sg = integration_matrix(x[1::2])
    coeffs = np.array(poly.coeffs)

    def e2_squared(s):
        # (Kronrod value, |Kronrod - Gauss|, half, sum wk |E2|) of E2^2 per
        # piece; a row-wise sum rather than a BLAS product, so that a piece's
        # value does not depend on the other pieces (snapshots are bit-identical)
        h, tg = s.half[:, None], s.t[:, 1::2]
        e_k = acc.read_nodes(s) - s.t * np.polyval(coeffs, np.log(s.t))
        inner = h * np.sum(s.f[:, 1::2][:, None, :] * sg, axis=2)
        e_g = acc.prefix()[0][s.ps, None] + inner - tg * np.polyval(coeffs, np.log(tg))
        fine = s.half * np.sum(wk * e_k * e_k, axis=1)
        coarse = s.half * np.sum(wg * e_g * e_g, axis=1)
        return fine, np.abs(fine - coarse), s.half, np.sum(wk * np.abs(e_k), axis=1)

    j = acc.store.reach(t_upper)
    n_panels = j - int(acc.store.bounds[j] > t_upper)  # the mesh panels on [0, T]
    parts = [e2_squared(s) for s in acc.sweep(0.0, acc.store.bounds[n_panels])]
    bs = acc.bounds[: n_panels + 1]
    at = np.searchsorted(bs, snaps, side="right") - 1
    inside = np.nonzero(snaps > bs[at])[0]
    if inside.size:
        t, half = panel_nodes(bs[at[inside]], snaps[inside], cfg.nodes)
        f = moment_integrand(t.ravel(), 2)[0].reshape(t.shape)
        parts.append(e2_squared(PanelSamples(at[inside], half, t, f, None)))
    val, dev, halves, mag = (np.concatenate(q) for q in zip(*parts))
    err = dev + 2.0 * float(acc.prefix()[2][n_panels]) * halves * mag
    snap_vals = np.concatenate([[0.0], np.cumsum(val[:n_panels])])[at]
    snap_vals[inside] += val[n_panels:]
    last = int(t_upper > bs[-1])  # T's own piece inside a panel
    err_total = float(np.sum(err[:n_panels])) + (float(err[-1]) if last else 0.0)
    result = IntegralResult(float(snap_vals[-1]), err_total, n_panels + last, (0.0, t_upper))
    table = [(s, v, v / (s * s)) for s, v in zip(snaps.tolist(), snap_vals.tolist())]
    return result, table
