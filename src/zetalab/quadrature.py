"""Panel Gauss-Kronrod quadrature on one mesh tuned to the zero-gap scale of Z(t).

mesh is the one cell mesh: boundaries from t0 with width a configured
fraction of the local mean zero gap 2 pi / log(t/2pi), optionally capped.
A quadrature panel spans two consecutive cells (panel_mesh): the
accumulators, the Laplace grid and the smoothed moment all integrate on
such panels, and the scans sample every cell boundary.  Each panel is
integrated with the n Gauss-Legendre nodes plus their n+1 Kronrod nodes
(kronrod_rule, 2n+1 kernel points); Gauss-Kronrod disagreement triggers
bisection up to a depth cap, and the final disagreement above the
rounding floor (kronrod_sums) plus the integrated pointwise kernel error
model (kernel_model) enters the reported error bound.  On panels of the
kernel's Euler-Maclaurin branch, whose model is certified, the floor also
takes in the model's integral, so the bound does not grow under refinement.
All reductions run in a fixed order so reruns and checkpoint resumes are
bit-identical.

Bit-identity holds per numeric fingerprint (numeric_fingerprint): the same
numpy, scipy, mpmath and Python versions, the same SIMD features numpy
dispatches to, and the same machine and C library.  numpy's vectorised
exp/log/sin loops and the libraries' own routines may round the last bits
differently under another fingerprint, so values frozen under one (the test
fixtures) are compared bit for bit only under it.
"""

from __future__ import annotations

import functools
import math
import platform
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .errors import CheckpointMismatch, DomainError
from .zkernel import T_SWITCH, moment_integrand

_TWO_PI = 2.0 * math.pi


def numeric_fingerprint() -> str:
    """The numeric environment under which results are bit-identical."""
    import mpmath
    import scipy

    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    simd = [f for f in list(__cpu_baseline__) + list(__cpu_dispatch__) if __cpu_features__.get(f)]
    libc = "-".join(platform.libc_ver()) or "unknown"
    return "python %s; numpy %s; scipy %s; mpmath %s; simd %s; machine %s; libc %s" % (
        platform.python_version(), np.__version__, scipy.__version__, mpmath.__version__,
        ",".join(simd) or "none", platform.machine(), libc)


@dataclass(frozen=True)
class IntegralResult:
    """Value of a quadrature with error bound, panel count and range."""

    value: float
    err_bound: float
    panels: int
    t_range: tuple


@functools.cache
def gl_nodes(n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def kronrod_rule(n: int):
    """(x, wk, wg) of the (2n+1)-point Gauss-Kronrod rule on [-1, 1].

    x ascending with the Gauss nodes gl_nodes(n) at x[1::2], wk the Kronrod
    weights (exact to degree 3n+1), wg the Gauss weights.  From the eigensystem
    of Laurie's Jacobi-Kronrod matrix (Math. Comp. 66, 1997) for the Legendre
    weight, whose diagonal vanishes by symmetry.
    """
    xg, wg = gl_nodes(n)
    b = np.zeros(2 * n + 1)          # squared off-diagonal; b[0] = int_{-1}^1 1
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1 : k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for i in range((m + 1) // 2, -1, -1):
            u += b[i + n + 1] * s[i] - b[m - i] * s[i + 1]
            s[i + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for i in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - i)
            u += b[m - i] * s[j + 2] - b[i + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    x[1::2] = xg
    return x, b[0] * v[0] ** 2, wg


def integration_matrix(x):
    """S[i, j] = int_{-1}^{x_i} l_j for nodes x in [-1, 1] and their Lagrange
    basis l_j = sum_m c_mj P_m, with c the inverse of the Legendre Vandermonde
    matrix at x (Greengard 1991).

    S @ f integrates the interpolant of f at the nodes from -1 to each node,
    exactly for polynomials of degree < len(x).  Built from
    int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1), P_{-1} = -1.
    """
    n = len(x)
    p = np.polynomial.legendre.legvander(x, n)              # P_0 .. P_n at x
    q = np.empty((n, n))
    q[:, 0] = x + 1.0
    q[:, 1:] = (p[:, 2:] - p[:, : n - 1]) / (2.0 * np.arange(1, n) + 1.0)
    return q @ np.linalg.solve(p[:, :n], np.eye(n))


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u) for the unit roundoff u (ASNA, 3.1)."""
    u = 0.5 * np.finfo(float).eps
    return m * u / (1.0 - m * u)


def panel_nodes(a, b, n: int):
    """(t, half): the 2n+1 Gauss-Kronrod nodes of each panel [a, b] as rows,
    and the panels' half-widths (a, b arrays)."""
    half = 0.5 * (b - a)
    return 0.5 * (b + a)[:, None] + half[:, None] * kronrod_rule(n)[0], half


def kronrod_sums(half, f, n: int, floor=0.0):
    """(K, G, charge) per panel for samples f at panel_nodes: the Kronrod
    value, the Gauss value of f[:, 1::2], and the discretisation charge.

    The charge is the part of |G - K| above the rounding bound rho =
    gamma_{n+2} G(|f|) + gamma_{2n+3} K(|f|) of the two sums and the given
    floor (at that level |G - K| is summation and kernel noise, growing with
    the panel count), plus K's own share of rho.  The subscripts count the
    dot product's terms, the half-width scaling and a factor t in f."""
    _, wk, wg = kronrod_rule(n)
    af = np.abs(f)
    k = half * np.sum(wk * f, axis=1)
    g = half * np.sum(wg * f[:, 1::2], axis=1)
    rho_k = _gamma(2 * n + 3) * half * np.sum(wk * af, axis=1)
    rho = _gamma(n + 2) * half * np.sum(wg * af[:, 1::2], axis=1) + rho_k
    return k, g, np.maximum(np.abs(g - k) - rho - floor, 0.0) + rho_k


def kernel_model(half, df, n: int, certified):
    """(charge, floor) per panel for the pointwise kernel error model df at
    panel_nodes: its Kronrod integral K(df), and 0 for kronrod_sums' floor.

    On certified panels (where the model is proven, so |G - K| of f up to
    G(df) + K(df) is kernel noise) the floor is G(df) + K(df), and the
    charge adds the model integral's own |G(df) - K(df)|."""
    _, wk, wg = kronrod_rule(n)
    pk = half * np.sum(wk * df, axis=1)
    pg = half * np.sum(wg * df[:, 1::2], axis=1)
    return np.where(certified, pk + np.abs(pg - pk), pk), np.where(certified, pg + pk, 0.0)


def panel_width(t: float, cfg: QuadConfig) -> float:
    gap = _TWO_PI / max(math.log(t / _TWO_PI) if t > 0 else 0.0, 1.0)
    return min(max(cfg.gap_fraction * gap, cfg.w_min), cfg.w_max)


def mesh(t0: float, t1: float, cfg: QuadConfig, cap: float = math.inf):
    """Cell boundaries t0 = b_0 < ... < b_m, the first b_m >= t1, by the
    scalar recurrence b_{i+1} = b_i + min(panel_width(b_i), cap).

    A cell is cfg.gap_fraction of the local mean zero gap wide; the scans
    sample every cell boundary, and a quadrature panel spans two cells
    (panel_mesh).  A non-finite t0 or t1 is refused: the recurrence would
    not end at an infinite t1."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError("integration range [%s, %s] is not finite" % (t0, t1))
    out = [t0]
    t = t0
    while t < t1:
        t += min(panel_width(t, cfg), cap)
        out.append(t)
    return np.array(out)


def panel_mesh(t0: float, t1: float, cfg: QuadConfig, cap: float = math.inf):
    """Panel boundaries: every other boundary of mesh(t0, t1, cfg, cap),
    with one more cell (the same recurrence step) when the cell count is
    odd.  So the last boundary is >= t1, and panels laid from a panel
    boundary continue the same two-cell grid."""
    cells = mesh(t0, t1, cfg, cap)
    if len(cells) % 2 == 0:
        t = float(cells[-1])
        cells = np.append(cells, t + min(panel_width(t, cfg), cap))
    return cells[::2]


class PanelBatch:
    """Adaptive integration of a list of panels against one integrand.

    integrand(t_array) -> (f, df) with df the pointwise error model.  Per
    original panel the accepted sub-panels accumulate in left-to-right order,
    independently of batching, so results are reproducible bit-for-bit.
    """

    def __init__(self, integrand, cfg: QuadConfig):
        self.integrand = integrand
        self.cfg = cfg

    def run(self, lefts, rights):
        cfg = self.cfg
        m = len(lefts)
        idx = np.arange(m)
        a, b = np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float)
        totals = None
        depth = 0
        while idx.size:
            k, ku, diff, e, eu = self._panel_pair(a, b)
            if totals is None:
                totals = [np.zeros(m, np.result_type(q)) for q in (k, ku, e, eu)]
            tol = np.maximum(cfg.panel_abs, cfg.panel_rel * np.abs(k))
            accept = (diff <= tol) | (depth >= cfg.max_depth)
            # np.add.at adds in array order, so the sub-panels of one panel
            # accumulate left to right as a per-item loop would
            for total, q in zip(totals, (k, ku, e, eu)):
                np.add.at(total, idx[accept], q[accept])
            rej = ~accept
            mid = 0.5 * (a[rej] + b[rej])
            idx = np.repeat(idx[rej], 2)
            a = np.stack([a[rej], mid], axis=1).ravel()
            b = np.stack([mid, b[rej]], axis=1).ravel()
            depth += 1
        return tuple(totals) if totals else (np.zeros(0),) * 4

    def _panel_pair(self, a, b):
        """Kronrod values of f and u*f on the panels [a, b], the raw |G - K|
        of f that decides acceptance, and the error charges of f and u*f:
        the kronrod_sums charge plus the integrated pointwise error model.
        Panels wholly at or below T_SWITCH lie on the kernel's Euler-Maclaurin
        branch, whose model is certified (kernel_model)."""
        n = self.cfg.nodes
        t, half = panel_nodes(a, b, n)
        f, df = self.integrand(t.ravel())
        f, df = f.reshape(t.shape), df.reshape(t.shape)
        em = b <= T_SWITCH
        pt, floor = kernel_model(half, df, n, em)
        ptu, floor_u = kernel_model(half, df * t, n, em)
        k, g, charge = kronrod_sums(half, f, n, floor)
        ku, _, charge_u = kronrod_sums(half, f * t, n, floor_u)
        return k, ku, np.abs(g - k), charge + pt, charge_u + ptu


ORIGIN = (0.0, 0.0, 0.0, 0, 0.0, 0.0)  # the row (T, v, e, n, vu, eu) at t = 0


def _split(row):
    """(T, n, (v, vu, e, eu)) of a row (T, v, e, n, vu, eu)."""
    t, v, e, n, vu, eu = row
    return float(t), int(n), (float(v), float(vu), float(e), float(eu))


class MomentAccumulator:
    """Cumulative integrals of |Z(t)|^{2k} (and t |Z|^{2k}) over a shared mesh.

    An accumulator starts at an origin: a checkpoint row (T0, v, e, n, vu,
    eu) at a panel boundary T0 of the mesh from 0 (panel_mesh), with n the
    panel count on [0, T0] and the four prefix sums there (rows); from 0 it
    is ORIGIN.  Above T0 the panel boundaries (bounds, every other cell
    boundary of mesh, from T0) and the per-panel values, errors and their
    u-weighted twins are numpy arrays, grown once per ensure.  The prefix
    sums are a plain left fold seeded with the origin's sums, so at every
    panel boundary they are bit-identical to those of an accumulator from 0,
    however far earlier runs integrated -- the property checkpoint resume
    relies on.  Indices into bounds and prefix() count from T0;
    n_panels_to and panels_meeting count panels from 0.

    A query that needs panels below T0 (cover) first integrates [0, T0] in
    front, the front pass (front).  Its fold must reproduce the origin row
    bit for bit, or it raises CheckpointMismatch with the reason; after it
    the accumulator starts at ORIGIN.  A checkpoint resume uses the same
    step to move its seed down to a lower stored row (pins_origin).
    """

    CHUNK = 512

    def __init__(self, k: int, cfg: QuadConfig, origin=ORIGIN):
        self.k = k
        self.cfg = cfg
        t0, self.base, self._seed = _split(origin)
        self.bounds = np.array([t0])
        self._val = self._val_u = self._err = self._err_u = np.zeros(0)
        self._prefix = None

    def _integrand(self, ts):
        return moment_integrand(ts, self.k)

    @property
    def _batch(self):
        # Built per use: a batch kept on self would close a reference cycle
        # (batch -> bound method -> self), so a cleared accumulator would wait
        # for the cyclic garbage collector and could outlive it into the next.
        return PanelBatch(self._integrand, self.cfg)

    def _run(self, new):
        """Per-panel (value, value_u, err, err_u) of the panels between the
        boundaries new, CHUNK panels per PanelBatch.run."""
        lefts, rights = new[:-1], new[1:]
        parts = [self._batch.run(lefts[i : i + self.CHUNK], rights[i : i + self.CHUNK])
                 for i in range(0, len(lefts), self.CHUNK)]
        return [np.concatenate([p[j] for p in parts]) for j in range(4)]

    def _sums(self):
        return self._val, self._val_u, self._err, self._err_u

    def ensure(self, t_target: float):
        if t_target <= self.bounds[-1]:
            return
        new = panel_mesh(float(self.bounds[-1]), t_target, self.cfg)
        self._val, self._val_u, self._err, self._err_u = (
            np.concatenate([old, q]) for old, q in zip(self._sums(), self._run(new)))
        self.bounds = np.concatenate([self.bounds, new[1:]])
        self._prefix = None

    def front(self, origin=ORIGIN):
        """Integrate [T, T0] in front from an origin row (T, ...) below T0,
        by default ORIGIN: the front pass.  The fold seeded with the row's
        sums must reproduce the current origin row bit for bit; the
        accumulator then starts at the given row."""
        (want,) = self.rows([0])
        t, n, sums = _split(origin)
        new = panel_mesh(t, want[0], self.cfg)
        parts = self._run(new)
        # cumsum: the same left fold as prefix()
        v, vu, e, eu = (float(np.cumsum(np.concatenate([[s], q]))[-1]) for s, q in zip(sums, parts))
        got = (float(new[-1]), v, e, n + len(new) - 1, vu, eu)
        if got != want:
            raise CheckpointMismatch("origin row %r does not reproduce: the panels on [%r, %r] "
                                     "from the row %r give %r" % (want, t, want[0], tuple(origin), got))
        self._val, self._val_u, self._err, self._err_u = (
            np.concatenate([q, old]) for q, old in zip(parts, self._sums()))
        self.bounds = np.concatenate([new[:-1], self.bounds])
        self.base, self._seed = n, sums
        self._prefix = None

    def pins_origin(self, i: int) -> bool:
        """Whether the row at bounds[i] determines the origin row: one ulp
        more or less in the origin's T or in any of its sums changes that
        row.  The mesh step and the fold x -> fl(x + q) are monotone, so
        then no other origin gives the same row; across a binade the fold
        can absorb an ulp."""
        t0, t = float(self.bounds[0]), float(self.bounds[i])
        for d in (-math.inf, math.inf):
            if panel_mesh(math.nextafter(t0, d), t, self.cfg)[-1] == t:
                return False
            for s, q, p in zip(self._seed, self._sums(), self.prefix()):
                if np.cumsum(np.concatenate([[math.nextafter(s, d)], q[:i]]))[-1] == p[i]:
                    return False
        return True

    def cover(self, a: float, b: float):
        """Hold every panel meeting [a, b]: the front pass if a lies below
        the origin, then ensure(b)."""
        if a < self.bounds[0]:
            self.front()
        self.ensure(b)

    def prefix(self):
        """The four prefix sums at every boundary of bounds."""
        if self._prefix is None:
            self._prefix = tuple(np.cumsum(np.concatenate([[s], q]))
                                 for s, q in zip(self._seed, self._sums()))
        return self._prefix

    def rows(self, i):
        """Rows (T, v, e, n, vu, eu) at the indices i into bounds, as plain
        Python numbers (so a checkpoint writes them as repr(float))."""
        i = np.asarray(i, dtype=int)
        v, vu, e, eu = (q[i].tolist() for q in self.prefix())
        return list(zip(self.bounds[i].tolist(), v, e, (self.base + i).tolist(), vu, eu))

    def index(self, t: float) -> int:
        """Index into bounds of the last boundary <= t (t >= the origin)."""
        return int(np.searchsorted(self.bounds, t, side="right")) - 1

    def n_panels_to(self, t: float) -> int:
        """Panels on [0, b] for the last boundary b <= t."""
        if t < self.bounds[0]:
            self.front()
        return self.base + self.index(t)

    def panels_meeting(self, a: float, b: float) -> int:
        """Number of mesh panels meeting [a, b], a < b <= bounds[-1]."""
        below = self.n_panels_to(a) if a > 0 else 0
        return self.base + int(np.searchsorted(self.bounds, b)) - below

    def cumulative_to(self, t: float):
        """(int_0^t f, int_0^t u f, err, err_u); t may fall inside a panel."""
        v, vu, e, eu = self.cumulative_at([t])
        return float(v[0]), float(vu[0]), float(e[0]), float(eu[0])

    def cumulative_at(self, ts):
        """cumulative_to at every t of ts, as four arrays (v, vu, err, err_u).

        Each t takes the prefix sums at its panel's left boundary plus the
        integral over the partial panel [left, t]; all partial panels go
        through one PanelBatch.run.  A panel's result does not depend on
        the other panels of its batch, so every entry is bit-identical to
        the scalar query at that t.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.min() < 0:
            raise DomainError("integration limit must be >= 0")
        if ts.size:
            self.cover(float(ts.min()), float(ts.max()))
        pv, pu, pe, peu = self.prefix()
        i = np.searchsorted(self.bounds, ts, side="right") - 1
        v, vu, e, eu = pv[i], pu[i], pe[i], peu[i]
        left = self.bounds[i]
        part = np.nonzero(ts > left)[0]
        if part.size:
            for total, piece in zip((v, vu, e, eu), self._batch.run(left[part], ts[part])):
                total[part] += piece
        return v, vu, e, eu

    def between(self, a: float, b: float):
        """(int_a^b f, err) from the panels inside [a, b] and the partial ones.

        Only the panels meeting [a, b] are summed, with math.fsum, so the
        value does not cancel two prefix sums over [0, a] and the bound
        charges no panel outside [a, b]: their errors plus one ulp of the
        result for the summation.
        """
        self.cover(a, b)
        i, j = self.index(a), int(np.searchsorted(self.bounds, b))  # panels i..j-1
        left, right = self.bounds[i:j], self.bounds[i + 1 : j + 1]
        cut = (a > left) | (b < right)
        v, _, e, _ = self._batch.run(np.maximum(left[cut], a), np.minimum(right[cut], b))
        vals = np.concatenate([self._val[i:j][~cut], v])
        errs = np.concatenate([self._err[i:j][~cut], e])
        value = math.fsum(vals)
        return value, math.fsum(errs) + math.ulp(value)

    def boundary_grid(self, t0: float, t1: float):
        """Cell boundaries in [t0, t1] with cumulative values and error bounds.

        Every value is read through cumulative_at, 2 CHUNK cells (CHUNK
        partial panels) at a time, so it is the one cumulative_to returns at
        that t; at a panel boundary that is the prefix sums alone.
        """
        self.cover(t0, t1)
        i, j = self.index(t0), int(np.searchsorted(self.bounds, t1))
        cells = mesh(float(self.bounds[i]), float(self.bounds[j]), self.cfg)
        cells = cells[(cells >= t0) & (cells <= t1)]
        v, vu, e = (np.empty(len(cells)) for _ in range(3))
        for c in range(0, len(cells), 2 * self.CHUNK):
            part = slice(c, c + 2 * self.CHUNK)
            v[part], vu[part], e[part], _ = self.cumulative_at(cells[part])
        return cells, v, vu, e


_ACCUMULATORS: dict = {}


def get_accumulator(k: int, cfg: QuadConfig, origin=None) -> MomentAccumulator:
    """The process's accumulator for (k, cfg).  Given an origin row, one
    that does not reach the row's T (bounds[0] <= T <= bounds[-1]) is
    replaced by an accumulator seeded there."""
    key = (k, cfg.digest())
    acc = _ACCUMULATORS.get(key)
    if acc is None or (origin is not None and not acc.bounds[0] <= origin[0] <= acc.bounds[-1]):
        acc = _ACCUMULATORS[key] = MomentAccumulator(k, cfg, ORIGIN if origin is None else origin)
    return acc


def drop_accumulator(k: int, cfg: QuadConfig):
    _ACCUMULATORS.pop((k, cfg.digest()), None)


def clear_accumulators():
    _ACCUMULATORS.clear()
