"""Sign-change and exceedance scans for E1, E2 and the integral of E2.

Values are sampled on the cell boundaries of quadrature.mesh (spacing about
half the local zero gap; a quadrature panel spans four cells, and the three
cell boundaries inside it are read from the panel's own samples,
MomentAccumulator.boundary_grid), by the same formula per target that
error_term or integral_of_e2 uses.  Each sign change
between adjacent samples is refined on the function itself, re-integrated
at every probe, never interpolated: all of a scan's brackets are refined
together by Anderson-Bjorck regula falsi with bisection as the fallback,
one batched cumulative query per round.  A crossing is the midpoint of a
sign-change bracket of width at most 1e-10 max(1, t), or an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .errors import DomainError
from .moments import (
    MomentPolynomial,
    default_p4,
    integral_of_t_poly,
    main_term,
    p1_exact,
)
from .quadrature import get_accumulator

TARGETS = ("e1", "e2", "intE2")

# Rounds a bracket may spend beyond the halvings bisection alone would need.
SLACK_ROUNDS = 6


@dataclass(frozen=True)
class SignChangeReport:
    """Exceedance points and refined zero crossings over a scanned window."""

    target: str
    t_range: tuple
    threshold_exponent: float
    amplitude: float
    exceed_plus: tuple   # (t, value) with value >  A t^exponent
    exceed_minus: tuple  # (t, value) with value < -A t^exponent
    crossings: tuple     # refined zeros of the scanned function
    grid_points: int


def _target_values(target: str, cfg: QuadConfig, t0, t1, poly):
    """(grid, values, points) for the named error-term function.

    points maps an array of t to the function's values there, through one
    cumulative query; each value is the one error_term (e1, e2) or
    integral_of_e2 (intE2) returns at that t.  The grid values are the same
    formula applied to the grid's cumulative values.
    """
    k = 1 if target == "e1" else 2
    acc = get_accumulator(k, cfg)
    poly = poly or (p1_exact() if k == 1 else default_p4())

    def at(ts, v, vu):
        if target == "intE2":
            return np.array([t * x - xu - integral_of_t_poly(t, poly)
                             for t, x, xu in zip(ts.tolist(), v.tolist(), vu.tolist())])
        return np.array([x - main_term(k, t, poly) for t, x in zip(ts.tolist(), v.tolist())])

    def points(ts):
        v, vu, _, _ = acc.cumulative_at(ts)
        return at(ts, v, vu)

    bs, cv, cu, _ = acc.boundary_grid(t0, t1)
    return bs, at(bs, cv, cu), points


def _refine_zeros(points, a, b, fa, fb, rel_tol=1e-10, max_rounds=80):
    """Brackets (lo, hi) of one zero in each sign-change bracket [a_i, b_i].

    All brackets are refined together: every round evaluates points once,
    at the probe of each bracket still open.  A probe is the regula-falsi
    point of the bracket with the Anderson-Bjorck scaling of the retained
    end's value (BIT 13, 1973), kept at least tol/2 inside the bracket.
    The probe is the midpoint instead once the rounds spent plus the
    halvings still needed reach a budget: the halvings the bracket needed
    at the start plus SLACK_ROUNDS.  So no bracket takes more rounds than
    that budget, however slowly regula falsi converges on it.  A bracket
    closes when its width is at most tol = rel_tol max(1, lo), or at an
    exact zero, where lo = hi; after max_rounds the open brackets are
    returned as they are.
    """
    # (x1, f1) is the retained end, (x2, f2) the latest probe; f1 f2 < 0.
    x1, x2 = np.array(a, dtype=float), np.array(b, dtype=float)
    f1, f2 = np.array(fa, dtype=float), np.array(fb, dtype=float)
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)

    def halvings(width, lo):
        """Bisection rounds to a width <= tol; 0 for a closed bracket."""
        tol = rel_tol * np.maximum(1.0, np.abs(lo))
        return np.ceil(np.log2(np.maximum(width / tol, 1.0)))

    budget = halvings(hi - lo, lo) + SLACK_ROUNDS
    for done in range(max_rounds):
        width = hi - lo
        need = halvings(width, lo)
        live = np.nonzero(need > 0)[0]
        if not live.size:
            break
        l1, l2, g1, g2 = x1[live], x2[live], f1[live], f2[live]
        half_tol = 0.5 * rel_tol * np.maximum(1.0, np.abs(lo[live]))
        probe = l2 - g2 * (l2 - l1) / (g2 - g1)
        probe = np.clip(probe, lo[live] + half_tol, hi[live] - half_tol)
        bisect = done + need[live] >= budget[live]
        probe[bisect] = 0.5 * (lo[live] + hi[live])[bisect]
        fp = points(probe)

        # A probe of the latest probe's sign keeps the retained end and
        # scales its value; otherwise the latest probe becomes the retained end.
        flip = np.sign(fp) != np.sign(g2)
        scale = 1.0 - fp / g2
        scale = np.where(scale > 0.0, scale, 0.5)
        x1[live] = np.where(flip, l2, l1)
        f1[live] = np.where(flip, g2, np.where(bisect, g1, g1 * scale))
        x2[live], f2[live] = probe, fp
        zero = fp == 0.0
        x1[live[zero]] = probe[zero]
        lo[live] = np.minimum(x1[live], probe)
        hi[live] = np.maximum(x1[live], probe)
    return lo, hi


def sign_change_scan(
    target: str,
    t0: float,
    t1: float,
    amplitude: float,
    threshold_exponent: float,
    cfg: QuadConfig = QuadConfig(),
    poly: MomentPolynomial | None = None,
    max_points: int = 2000,
) -> SignChangeReport:
    """Scan [t0, t1] for +/- A t^e exceedances and sign changes.

    Exceedances are read on the cell-boundary grid.  Each sign change
    between adjacent grid points is reported as the midpoint of a bracket
    [lo, hi] with width at most 1e-10 max(1, lo) whose ends have opposite
    signs, or as an exact zero.  Each round is one batched cumulative query
    over all brackets still open; a bracket takes at most 6 rounds more than
    bisection would, and the rounds stop at 80.
    """
    if not (0 <= t0 < t1):
        raise DomainError("invalid scan range [%r, %r]" % (t0, t1))
    if target not in TARGETS:
        raise DomainError("unknown scan target %r" % (target,))
    bs, vals, points = _target_values(target, cfg, t0, t1, poly)

    thresh = amplitude * np.power(np.maximum(bs, 1e-300), threshold_exponent)
    plus_idx = np.nonzero(vals > thresh)[0]
    minus_idx = np.nonzero(vals < -thresh)[0]

    def thin(idx):
        if len(idx) <= max_points:
            return idx
        step = int(math.ceil(len(idx) / max_points))
        return idx[::step]

    exceed_plus = tuple((float(bs[i]), float(vals[i])) for i in thin(plus_idx))
    exceed_minus = tuple((float(bs[i]), float(vals[i])) for i in thin(minus_idx))

    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    lo, hi = _refine_zeros(points, bs[flips], bs[flips + 1], vals[flips], vals[flips + 1])
    crossings = 0.5 * (lo + hi)
    return SignChangeReport(
        target=target,
        t_range=(t0, t1),
        threshold_exponent=threshold_exponent,
        amplitude=amplitude,
        exceed_plus=exceed_plus,
        exceed_minus=exceed_minus,
        crossings=tuple(crossings.tolist()),
        grid_points=len(bs),
    )


def e2_zero_gap_table(t0: float, t1: float, cfg=QuadConfig(), poly=None):
    """Rows (n, u_n, u_{n+1} - u_n, log gap / log u_n) for zeros of E2 in [t0, t1]."""
    report = sign_change_scan("e2", t0, t1, amplitude=math.inf, threshold_exponent=0.0,
                              cfg=cfg, poly=poly)
    zeros = report.crossings
    rows = []
    for n in range(len(zeros) - 1):
        gap = zeros[n + 1] - zeros[n]
        rows.append((n + 1, zeros[n], gap, math.log(gap) / math.log(zeros[n])))
    return rows
