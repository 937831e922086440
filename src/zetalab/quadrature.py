"""Panel Gauss-Kronrod quadrature on one mesh tuned to the zero-gap scale of Z(t).

cell_ends gives the one mesh in closed form: cell i of the mesh from 0
ends at F^-1(i), F(t) = int_0^t ds/w(s), with w a configured fraction of
the local mean zero gap 2 pi / log(t/2pi), graded toward t = 0, and a
quadrature panel spans CELLS = 4 cells (panel_bounds), so a boundary
depends on its index and the config alone, not on Z or on the range asked
for; no panel reaches zkernel.RS_T_MAX (first_panel).  Each panel takes
one rule, the n Gauss-Legendre nodes plus their n+1 Kronrod nodes
(kronrod_rule, 2n+1 kernel points); their disagreement above the rounding
floor (kronrod_sums) plus the integrated pointwise kernel error model
(kernel_model) enters the reported error bound.  On panels of the
kernel's Euler-Maclaurin branch, whose model is certified, the floor also
takes in the model's integral, so the bound does not grow as panels narrow.
All reductions run in a fixed order so reruns and checkpoint resumes are
bit-identical.

One mesh and one store of Z samples per QuadConfig (ZStore, get_store):
the panel boundaries of the mesh from 0, as far as any request reached,
and Z with its error model at the Kronrod nodes of its first panels.  The
accumulators (ensure, front, sweep), the Laplace grid and the smoothed
windows read their samples from it, the mean square of E2 and the scans
through sweep, so within STORE_PANELS panels a process evaluates each node
of the mesh once whichever functionals it computes.  Only three kinds of
piece evaluate Z themselves: the partial panel [left, t] of a query that
ends inside a panel, the steps of a smoothed window narrower than its
panels, and a smoothed window past STORE_PANELS panels (from the store it
would lay the mesh from 0 to there).  Z at a point depends on that t alone,
so every value is the same from a cold or a warm store.  The store keeps
the boundaries, 8 B per panel, and an accumulator its sums, 64 B per
panel; samples cost 528 B per panel, so the store keeps none for a request
that ends past STORE_PANELS panels: uncapped they would hold 36 MB on
[0, 10^5] and raise the peak memory of a checkpointed run.  The scans read
every value inside a panel -- the cell boundaries (_cell_lefts), the nodes,
the probes -- from the panel's own samples (MomentAccumulator.read).

Bit-identity holds per numeric fingerprint (numeric_fingerprint): the same
numpy, mpmath and Python versions, the same SIMD features numpy
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
from typing import NamedTuple

import numpy as np

from . import zkernel
from .config import QuadConfig
from .errors import CheckpointMismatch, DomainError
from .zkernel import T_SWITCH, moment_integrand

_TWO_PI = 2.0 * math.pi
_TWO_PI_E = _TWO_PI * math.e  # below it the mesh takes the mean zero gap as 2 pi
CELLS = 4  # mesh cells per quadrature panel
# Panels of the mesh from 0 whose samples a ZStore keeps: at most
# 4096 * 33 * 2 * 8 B = 2.2 MB at 16 nodes.  The functionals over [0, 6e3]
# fit (2.8e3 panels); a checkpointed fill of 8e3 panels keeps nothing.
STORE_PANELS = 4096
NEWTON_STEPS = 3  # of cell_ends on the log term: the second leaves 1e-8 relative, the third the last ulps
KERNEL_CHUNK = 512  # panels per PanelBatch.run of ensure and per kernel call of the store


def numeric_fingerprint() -> str:
    """The numeric environment under which results are bit-identical.

    Z passes through BLAS (the anchor sum's moment products), so the
    fingerprint names the BLAS numpy was built against.  An OpenBLAS built
    for several cores picks its kernels at run time; that choice is covered
    only through the SIMD list."""
    import mpmath

    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    simd = [f for f in list(__cpu_baseline__) + list(__cpu_dispatch__) if __cpu_features__.get(f)]
    libc = "-".join(platform.libc_ver()) or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name", "unknown"), blas.get("version", "unknown"))
    except (TypeError, KeyError):  # numpy < 1.26: show_config has no mode
        blas = "unknown"
    return "python %s; numpy %s; mpmath %s; simd %s; machine %s; libc %s; blas %s" % (
        platform.python_version(), np.__version__, mpmath.__version__,
        ",".join(simd) or "none", platform.machine(), libc, blas)


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


@functools.cache
def _legendre_inverse(x: tuple):
    """The inverse of the Legendre Vandermonde matrix at the nodes x."""
    c = np.linalg.solve(np.polynomial.legendre.legvander(np.array(x), len(x) - 1), np.eye(len(x)))
    c.flags.writeable = False
    return c


@functools.cache
def _node_matrix(n: int):
    """integration_matrix of the (2n+1)-point Kronrod nodes at themselves."""
    s = integration_matrix(kronrod_rule(n)[0])
    s.flags.writeable = False
    return s


def integration_matrix(x, at=None):
    """S[i, j] = int_{-1}^{at_i} l_j for nodes x in [-1, 1], their Lagrange
    basis l_j = sum_m c_mj P_m, with c the inverse of the Legendre Vandermonde
    matrix at x (Greengard 1991), and targets at in [-1, 1], by default x.

    S @ f integrates the interpolant of f at the nodes from -1 to each
    target, exactly for polynomials of degree < len(x).  Built from
    int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1), P_{-1} = -1.  Each row
    is summed over m in a fixed order, so it does not depend on the other
    targets.
    """
    n = len(x)
    at = np.asarray(x if at is None else at, dtype=float)
    c = _legendre_inverse(tuple(np.asarray(x, dtype=float).tolist()))
    p = np.polynomial.legendre.legvander(at, n)              # P_0 .. P_n at the targets
    q = np.empty((len(at), n))
    q[:, 0] = at + 1.0
    q[:, 1:] = (p[:, 2:] - p[:, : n - 1]) / (2.0 * np.arange(1, n) + 1.0)
    s = q[:, :1] * c[0]
    for m in range(1, n):
        s += q[:, m : m + 1] * c[m]
    return s


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
    """(K, charge) per panel for samples f at panel_nodes: the Kronrod value
    and the discretisation charge.

    The charge is the part of |G - K|, with G the Gauss value of f[:, 1::2],
    above the rounding bound rho =
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
    return k, np.maximum(np.abs(g - k) - rho - floor, 0.0) + rho_k


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


def _grade(t):
    """d(t) = min(2^floor(log2 max(t, 1)) / 4, 2), the grade of the mesh
    toward 0: Z is singular at t = +-i/2, and one rule converges on a panel
    only as fast as its Bernstein ellipse is wide of them (Trefethen, SIAM
    Rev. 50, 2008, Thm 4.5); four cells of d(t) span at most max(t, 1).  It
    stops at 2, the cells of [8, 16): on [16, 30] the log term's wider cells
    (pi at 16) leave the panel [16, 26.4] with a Gauss-Kronrod disagreement
    of 2e-10 of |Z|^4's integral, where every other panel of four cells
    keeps within 1e-10.  d follows from Z, not from a choice: it is part of
    PANEL_RULE, not a QuadConfig field."""
    return min(math.ldexp(0.25, math.frexp(max(t, 1.0))[1] - 1), 2.0)


def _big_g(t):
    """G(t) = t (log(t/2pi) - 1), whose derivative is log(t/2pi)."""
    return t * (math.log(t / _TWO_PI) - 1.0)


@functools.cache
def _pieces(gap_fraction: float):
    """(s, f, w, g) of the pieces [s_j, s_j+1) of the cell width w(t) =
    min(gap_fraction 2pi / max(log(t/2pi), 1), d(t)): their starts, F(s_j),
    the width where it is constant (nan where it is the log term) and
    G(s_j).  w changes form only where d steps and where the log term
    crosses 2pi e or a value of d."""
    g0 = gap_fraction * _TWO_PI
    cuts = sorted({2.0, 4.0, 8.0, _TWO_PI_E} | {_TWO_PI * math.exp(g0 / d) for d in (0.25, 0.5, 1.0, 2.0)
                                                 if g0 / d < 700.0})
    s, w = [], []
    for a, b in zip([0.0] + cuts, cuts + [math.inf]):
        mid = 0.5 * (a + b) if b < math.inf else 2.0 * a
        d = _grade(mid)
        wj = min(g0, d) if mid < _TWO_PI_E else d if d <= g0 / math.log(mid / _TWO_PI) else math.nan
        if not s or not (wj == w[-1] or math.isnan(wj) and math.isnan(w[-1])):
            s.append(a)
            w.append(wj)
    f = [0.0]
    for a, b, wj in zip(s, s[1:], w):
        f.append(f[-1] + ((_big_g(b) - _big_g(a)) / g0 if math.isnan(wj) else (b - a) / wj))
    g = [_big_g(a) if math.isnan(wj) else 0.0 for a, wj in zip(s, w)]
    return tuple(np.array(q) for q in (s, f, w, g))


def cell_ends(i, cfg: QuadConfig):
    """The mesh from 0: F^-1 at the cell indices i, F(t) = int_0^t ds/w(s).

    w(t) = min(cfg.gap_fraction 2pi / max(log(t/2pi), 1), d(t)) is a
    fraction of the local mean zero gap, graded toward 0 (_grade).  Where w
    is the log term (from t = 30.2 on by default) each cell holds
    cfg.gap_fraction of a zero: F there is the smooth zero count
    (t/2pi)(log(t/2pi) - 1), the main term of Riemann-von Mangoldt, over
    cfg.gap_fraction, plus a constant.  Where w is constant F^-1 is one
    product and sum; on the log term it solves G(t) = c (_big_g) by
    NEWTON_STEPS Newton steps from an approximation of Lambert's W, t = 2pi
    e exp(W(c / 2pi e)).  So each value depends on its index alone, not on
    the others of the call: any part of the mesh is laid without the rest,
    and the same cells from any call are the same floats."""
    s, f, w, g = _pieces(cfg.gap_fraction)
    i = np.asarray(i, dtype=float)
    j = np.searchsorted(f, i, side="right") - 1
    x = i - f[j]
    t = s[j] + x * w[j]
    on_log = np.nonzero(np.isnan(t))[0]
    if on_log.size:
        c = g[j[on_log]] + x[on_log] * (cfg.gap_fraction * _TWO_PI)
        z = np.log1p(c / _TWO_PI_E)  # W(y) ~ log(1 + y)(1 - log(1 + log(1 + y))/(2 + log(1 + y)))
        u = _TWO_PI_E * np.exp(z * (1.0 - np.log1p(z) / (2.0 + z)))
        for _ in range(NEWTON_STEPS):  # u - (G(u) - c) / G'(u)
            u = (u + c) / np.log(u / _TWO_PI)
        t[on_log] = u
    return t


def panel_bounds(p, cfg: QuadConfig):
    """The boundaries of the panels p of the mesh from 0: every CELLS-th cell end."""
    return cell_ends(CELLS * np.asarray(p, dtype=float), cfg)


def first_panel(t: float, cfg: QuadConfig) -> int:
    """The index of the first panel boundary >= t >= 0 of the mesh from 0,
    from F(t) and then checked on the boundaries themselves.  A t that is
    not finite, or whose panel ends at or past zkernel.RS_T_MAX, where the
    kernel cannot evaluate Z, is refused."""
    if not math.isfinite(t):
        raise DomainError("integration limit %r is not finite" % t)
    if t < zkernel.RS_T_MAX:
        s, f, w, g = _pieces(cfg.gap_fraction)
        j = max(int(np.searchsorted(s, t, side="right")) - 1, 0)
        cells = f[j] + ((_big_g(t) - g[j]) / (cfg.gap_fraction * _TWO_PI) if math.isnan(w[j]) else (t - s[j]) / w[j])
        p = max(math.ceil(cells / CELLS) - 2, 0)  # F(t) is off by far less than a cell
        near = panel_bounds(np.arange(p, p + 5), cfg)
        i = int(np.searchsorted(near, t))
        if near[i] < zkernel.RS_T_MAX:
            return p + i
    raise DomainError("the panel of the mesh from 0 that reaches t = %r ends at or past RS_T_MAX: %s"
                      % (float(t), zkernel.RS_T_MAX_REASON))


def _cell_lefts(ps, cfg: QuadConfig):
    """The cell boundaries inside each panel ps as rows: F^-1 at 4p + 1, 4p + 2, 4p + 3."""
    return cell_ends(CELLS * np.asarray(ps, dtype=float)[:, None] + np.arange(1, CELLS), cfg)


class PanelBatch:
    """One Gauss-Kronrod rule on each of a list of panels against one integrand.

    integrand(t_array) -> (f, df) with df the pointwise error model.  A
    panel's result depends on that panel alone, not on its batch, so results
    are reproducible bit for bit.  The panels are the caller's: a coarse
    mesh shows in err_bound, not in extra rules.
    """

    def __init__(self, integrand, cfg: QuadConfig):
        self.integrand = integrand
        self.cfg = cfg

    def run(self, lefts, rights, samples=None):
        """Per panel (value, value_u, err, err_u).  samples, if given, are
        the integrand's (f, df) at panel_nodes(lefts, rights) as rows, which
        the rule uses instead of evaluating the integrand."""
        return self._panel_pair(np.asarray(lefts, dtype=float), np.asarray(rights, dtype=float), samples)

    def _panel_pair(self, a, b, samples=None):
        """Kronrod values of f and u*f on the panels [a, b] and their error
        charges: the kronrod_sums charge plus the integrated pointwise error model.
        Panels wholly at or below T_SWITCH lie on the kernel's Euler-Maclaurin
        branch, whose model is certified (kernel_model).  samples are (f, df)
        at the nodes if already evaluated."""
        n = self.cfg.nodes
        t, half = panel_nodes(a, b, n)
        if samples is None:
            samples = (q.reshape(t.shape) for q in self.integrand(t.ravel()))
        f, df = samples
        em = b <= T_SWITCH
        pt, floor = kernel_model(half, df, n, em)
        ptu, floor_u = kernel_model(half, df * t, n, em)
        k, charge = kronrod_sums(half, f, n, floor)
        ku, charge_u = kronrod_sums(half, f * t, n, floor_u)
        return k, ku, charge + pt, charge_u + ptu


# the row (T, v, e, n, vu, eu, cv, ce, cvu, ceu) at t = 0
ORIGIN = (0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class PanelSamples(NamedTuple):
    """The integrand at the panel_nodes of some mesh panels: their indices
    ps into an accumulator's bounds, their half-widths, and the nodes t, the
    samples f and the error model df as rows (MomentAccumulator.sweep)."""

    ps: np.ndarray
    half: np.ndarray
    t: np.ndarray
    f: np.ndarray
    df: np.ndarray

    def take(self, rows):
        return PanelSamples(*(q[rows] for q in self))


class MomentAccumulator:
    """Cumulative integrals of |Z(t)|^{2k} (and t |Z|^{2k}) over the store's mesh.

    An accumulator starts at an origin: a checkpoint row (T0, v, e, n, vu,
    eu, cv, ce, cvu, ceu) with T0 panel n of the mesh from 0
    (ZStore.bounds), which the constructor checks, the four prefix sums
    there and their compensations (rows); from 0 it is ORIGIN.  Above T0 it
    holds the prefix sums at the panel boundaries and the per-panel values,
    errors and their u-weighted twins, as rows of one array, grown by ensure
    and sweep from the samples of the store (ZStore.samples), which
    PanelBatch.run reads instead of evaluating the integrand; its bounds are
    the store's boundaries from panel n on.  The prefix sums are a plain
    left fold seeded with the origin's sums, so at every panel boundary they
    are bit-identical to those of an accumulator from 0, however far earlier
    runs integrated -- the property checkpoint resume relies on.  Each sum's
    compensation C (compensation) is formed from these rows when asked for,
    so p + C is the exact sum of the per-panel values to within C's own
    rounding, and a row (p, C) above the origin determines the origin's
    sums.  Indices into bounds and prefix() count from T0; n_panels_to and
    panels_meeting count panels from 0.

    A query that needs panels below T0 (cover) first integrates [0, T0] in
    front, the front pass (front).  Its fold must reproduce the origin row
    bit for bit, compensations too, or it raises CheckpointMismatch with the
    reason; after it the accumulator starts at ORIGIN.
    """

    GRID_CHUNK = 128  # panels per chunk of samples in sweep

    def __init__(self, k: int, cfg: QuadConfig, origin=ORIGIN):
        self.k = k
        self.cfg = cfg
        self.store = get_store(cfg)
        t0, v, e, n, vu, eu, cv, ce, cvu, ceu = origin
        if not (math.isfinite(t0) and self.store.reach(t0) == n and self.store.bounds[n] == t0):
            raise CheckpointMismatch("origin T=%r does not reproduce: it is not panel %d of the "
                                     "mesh from 0" % (t0, n))
        # the rows of _rows: the prefix sums (v, vu, e, eu) and the per-panel
        # (value, value_u, err, err_u); columns past _m are unfilled
        self.base, self._rows, self._m = int(n), np.empty((8, 1)), 0
        self._rows[:4, 0] = v, vu, e, eu
        self._c0 = np.array([[cv], [cvu], [ce], [ceu]])  # the origin's compensations

    @property
    def bounds(self):
        return self.store.bounds[self.base : self.base + self._m + 1]

    def _integrand(self, ts, samples=None):
        return moment_integrand(ts, self.k, samples)

    @property
    def _batch(self):
        # Built per use: a batch kept on self would close a reference cycle
        # (batch -> bound method -> self), so a cleared accumulator would wait
        # for the cyclic garbage collector and could outlive it into the next.
        return PanelBatch(self._integrand, self.cfg)

    def _sums(self):
        return tuple(self._rows[4:, : self._m])

    def _reserve(self, n: int):
        """Room in _rows for n more panels, at least doubled when it grows (so
        a sweep in many chunks takes linear time); filled columns are copied."""
        m, cap = self._m, self._rows.shape[1]
        if m + n >= cap:
            rows, self._rows = self._rows, np.empty((8, cap + max(n + 1, cap)))
            self._rows[:, : m + 1] = rows[:, : m + 1]

    def _append(self, sums):
        """Hold the next panels of the mesh with their per-panel (value,
        value_u, err, err_u), folded into the prefix sums from the last entry
        on: np.cumsum is a left fold, so the bits are those of one fold over
        every panel."""
        m, n = self._m, len(sums[0])
        self._reserve(n)
        for r, q in enumerate(sums):
            self._rows[r + 4, m : m + n] = self._rows[r, m + 1 : m + n + 1] = q
            np.cumsum(self._rows[r, m : m + n + 1], out=self._rows[r, m : m + n + 1])
        self._m = m + n

    def ensure(self, t_target: float):
        """Hold the panels up to the first boundary >= t_target, KERNEL_CHUNK at a time."""
        if t_target <= self.bounds[-1]:
            return
        i, j = self.base + self._m, self.store.reach(t_target)
        bs = self.store.bounds
        # next(fs) as the argument: a block is freed once its integrand is
        # formed, and the integrand once PanelBatch.run used it
        fs = map(lambda b: self._integrand(b[0], b[2:]), self.store.samples(i, j, KERNEL_CHUNK))
        self._reserve(j - i)
        for c in range(i, j, KERNEL_CHUNK):
            e = min(c + KERNEL_CHUNK, j)
            self._append(self._batch.run(bs[c:e], bs[c + 1 : e + 1], next(fs)))

    def front(self):
        """Integrate [0, T0] in front of the origin: the front pass.  The
        fold from ORIGIN must reproduce the origin row bit for bit,
        compensations too; the accumulator then starts at ORIGIN."""
        (want,) = self.rows([0])
        below = MomentAccumulator(self.k, self.cfg)
        below.ensure(want[0])
        (got,) = below.rows([below._m])
        if got != want:
            raise CheckpointMismatch("origin row %r does not reproduce: the panels on [0, %r] give %r"
                                     % (want, want[0], got))
        below._append(self._sums())
        self.base, self._rows, self._m, self._c0 = below.base, below._rows, below._m, below._c0

    def cover(self, a: float, b: float):
        """Hold every panel meeting [a, b]: the front pass if a lies below
        the origin, then ensure(b)."""
        if a < self.bounds[0]:
            self.front()
        self.ensure(b)

    def prefix(self):
        """The four prefix sums at every boundary of bounds."""
        return tuple(self._rows[:4, : self._m + 1])

    def compensation(self, i):
        """The compensations (cv, cvu, ce, ceu) of the prefix sums at the
        indices i into bounds (Neumaier, ZAMM 54, 1974): the origin's C,
        folded by np.cumsum with the exact error of each step p' = fl(p + q)
        of the prefix fold, Knuth's two-sum b = p' - p, err = (p - (p' -
        b)) + (q - b), which gives p' + err = p + q exactly.  So p + C is the
        exact sum of the per-panel values to within C's own rounding, about
        n u |C| after n panels, and an ulp of the origin's p that the fold
        absorbs changes C above it.  Formed KERNEL_CHUNK panels at a time,
        so its memory does not grow with the accumulator."""
        i = np.asarray(i, dtype=int)
        c, out, top = self._c0, np.empty((4, i.size)), int(i.max(initial=0))
        out[:, i == 0] = c
        for j in range(0, top, KERNEL_CHUNK):
            e = min(j + KERNEL_CHUNK, top)
            p, q = self._rows[:4, j : e + 1], self._rows[4:, j:e]
            b = p[:, 1:] - p[:, :-1]
            c = np.cumsum(np.concatenate([c[:, -1:], (p[:, :-1] - (p[:, 1:] - b)) + (q - b)], axis=1), axis=1)
            at = (i > j) & (i <= e)
            out[:, at] = c[:, i[at] - j]
        return tuple(out)

    def rows(self, i):
        """Rows (T, v, e, n, vu, eu, cv, ce, cvu, ceu) at the indices i into
        bounds, as plain Python numbers (so a checkpoint writes them as
        repr(float)): the prefix sums, then their compensations."""
        i = np.asarray(i, dtype=int)
        v, vu, e, eu = (q[i].tolist() for q in self.prefix())
        cv, cvu, ce, ceu = (q.tolist() for q in self.compensation(i))
        return list(zip(self.bounds[i].tolist(), v, e, (self.base + i).tolist(), vu, eu, cv, ce, cvu, ceu))

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
        val, _, err, _ = self._sums()
        vals = np.concatenate([val[i:j][~cut], v])
        errs = np.concatenate([err[i:j][~cut], e])
        value = math.fsum(vals)
        return value, math.fsum(errs) + math.ulp(value)

    def sweep(self, t0: float, t1: float):
        """Yield the integrand at the panel_nodes of every panel meeting
        [t0, t1], as PanelSamples of at most GRID_CHUNK panels, left to right.

        The samples are the store's (ZStore.samples).  Panels not yet held,
        from bounds[-1] on (so also any below t0, which are not yielded), are
        integrated from the same samples by PanelBatch.run and held before
        their chunk is yielded: each panel's integrand is evaluated once, and
        its per-panel sums are those ensure gives, since a panel's result does
        not depend on its batch.
        """
        if t0 < self.bounds[0]:
            self.front()
        held, start, end = self._m, self.index(t0), self.store.reach(t1) - self.base
        bs = self.store.bounds[self.base :]
        blocks = self.store.samples(self.base + start, self.base + end, self.GRID_CHUNK)
        for c, (t, half, *zs) in zip(range(start, end, self.GRID_CHUNK), blocks):
            ps = np.arange(c, min(c + self.GRID_CHUNK, end))
            a, b = bs[ps], bs[ps + 1]
            f, df = self._integrand(t, zs)
            new = ps >= held
            if new.any():
                self._append(self._batch.run(a[new], b[new], (f[new], df[new])))
            meet = np.nonzero(b > t0)[0]
            if meet.size:
                yield PanelSamples(ps, half, t, f, df).take(meet)

    def read(self, s: PanelSamples, r, ts):
        """(value, value_u, err) of the cumulative integrals at the targets
        ts, each inside the panel r of the samples s (an index into s).

        At x in [-1, 1] of a panel of half-width h: the prefix sums at its
        left end plus h r(x) . f, with r(x) the integration_matrix row at x
        of the Kronrod nodes (Greengard 1991).  The error bound adds to the
        prefix bound |h r(x) . f - h r_G(x) . f_G|, where r_G interpolates
        at the Gauss nodes alone, the kernel model h |r(x)| . df, and the
        rounding of the dot product.  Each value depends on its own panel and
        target alone.
        """
        n = self.cfg.nodes
        x = kronrod_rule(n)[0]
        p, h = s.ps[r], s.half[r]
        at = (ts - self.bounds[p]) / h - 1.0
        sk, sg = integration_matrix(x, at), integration_matrix(x[1::2], at)
        fr, ask = s.f[r], np.abs(sk)
        v, vu, e, _ = (q[p] for q in self.prefix())
        piece = h * np.sum(sk * fr, axis=1)
        v = v + piece
        vu = vu + h * np.sum(sk * (s.t * s.f)[r], axis=1)
        e = e + (np.abs(piece - h * np.sum(sg * fr[:, 1::2], axis=1)) + h * np.sum(ask * s.df[r], axis=1)
                 + _gamma(2 * n + 3) * h * np.sum(ask * np.abs(fr), axis=1))
        return v, vu, e

    def read_nodes(self, s: PanelSamples, u=False):
        """The cumulative integral at the nodes s.t, of f, or of u f
        (value_u) if u, as read gives it but with the integration_matrix of
        the nodes themselves, summed row by row so that each panel's values
        do not depend on the other panels of s: the store's samples from
        sweep, or a piece [left, x] inside the panel s.ps that its caller
        evaluated (mean_square_e2)."""
        f = s.t * s.f if u else s.f
        return self.prefix()[int(u)][s.ps, None] + s.half[:, None] * np.sum(
            f[:, None, :] * _node_matrix(self.cfg.nodes), axis=2)

    def boundary_grid(self, t0: float, t1: float, visit=None):
        """Cell boundaries in [t0, t1] with cumulative values and error bounds.

        At a panel boundary the values are the prefix sums, so they are the
        ones cumulative_to returns there.  The cell boundaries inside a panel
        (_cell_lefts) are read from the panel's own samples (read), in one
        sweep(t0, t1); visit, if given, is called with each chunk of the
        sweep after its cells are read.  Each value depends on its own panel alone, not on
        t0, t1 or the chunks.
        """
        parts = [(np.zeros(0),) * 4]
        for s in self.sweep(t0, t1):
            cells = np.column_stack([self.bounds[s.ps], _cell_lefts(self.base + s.ps, self.cfg)]).ravel()
            at = np.nonzero((cells >= t0) & (cells <= t1))[0]
            v, vu, e, _ = (q[s.ps[0] + at // CELLS] for q in self.prefix())
            inner = np.nonzero(at % CELLS)[0]
            v[inner], vu[inner], e[inner] = self.read(s, at[inner] // CELLS, cells[at[inner]])
            parts.append((cells[at], v, vu, e))
            if visit is not None:
                visit(s)
        j = int(np.searchsorted(self.bounds, t1))
        if t0 <= self.bounds[j] <= t1:
            parts.append(tuple(q[j : j + 1] for q in (self.bounds,) + self.prefix()[:3]))
        return tuple(np.concatenate(q) for q in zip(*parts))


class ZStore:
    """The mesh from 0 and Z at its first panels: one store per QuadConfig
    (get_store).  bounds are the panel boundaries of the mesh from 0, laid
    as far as any request reached (reach); z and zerr are Z and its error
    model at the panel_nodes of the panels [0, held).  A request for
    samples keeps those it evaluates only if it ends within STORE_PANELS
    panels; past that it reads what is held and keeps nothing.
    """

    def __init__(self, cfg: QuadConfig):
        self.cfg = cfg
        self.bounds = np.zeros(1)
        self.z = self.zerr = np.zeros((0, 2 * cfg.nodes + 1))  # rows [0, held) are filled
        self.held = 0

    def reach(self, t: float) -> int:
        """The index into bounds of the first boundary >= t, bounds filled
        to there (first_panel, panel_bounds).  bounds is replaced when it
        grows, so read it after reach."""
        if not t <= self.bounds[-1]:  # so first_panel refuses a non-finite t
            n = len(self.bounds)
            self.bounds = np.concatenate([self.bounds, panel_bounds(np.arange(n, first_panel(t, self.cfg) + 1), self.cfg)])
        return int(np.searchsorted(self.bounds, t))

    def samples(self, i: int, j: int, chunk: int):
        """Yield (t, half, z, zerr) at the panel_nodes of the panels i to j - 1
        (j <= the index of the last boundary), chunk panels at a time: t and
        half as panel_nodes gives them, Z and its error model at t as rows.

        Held rows are read.  The others are evaluated once, at most
        KERNEL_CHUNK panels per zkernel.z_block call, and kept if j <=
        STORE_PANELS and they continue the held rows.
        """
        keep = j if j <= STORE_PANELS else 0  # the rows kept reach at most panel keep
        for c in range(i, j, chunk):
            # built by a call, so that this frame holds no block while the caller works on it
            yield self._block(c, min(c + chunk, j), keep)

    def _block(self, i: int, j: int, keep: int):
        """The samples of the panels i to j - 1: the rows held read, the
        others evaluated, and kept if they continue the held rows and j <= keep."""
        t, half = panel_nodes(self.bounds[i:j], self.bounds[i + 1 : j + 1], self.cfg.nodes)
        r = min(max(self.held - i, 0), j - i)
        parts = [(self.z[i : i + r], self.zerr[i : i + r])] if r else []
        for c in range(r, j - i, KERNEL_CHUNK):
            tc = t[c : c + KERNEL_CHUNK]
            parts.append([q.reshape(tc.shape) for q in zkernel.z_block(tc.ravel())])
        z, zerr = parts[0] if len(parts) == 1 else (np.concatenate(q) for q in zip(*parts))
        if self.held == i + r < j <= keep:
            if len(self.z) < keep:  # rows for every panel of the request
                grown = [np.empty((keep,) + t.shape[1:]) for _ in range(2)]
                grown[0][: self.held], grown[1][: self.held] = self.z[: self.held], self.zerr[: self.held]
                self.z, self.zerr = grown
            self.z[self.held : j], self.zerr[self.held : j] = z[r:], zerr[r:]
            self.held = j
        return t, half, z, zerr


_ACCUMULATORS: dict = {}  # the accumulators and stores of the process


def get_store(cfg: QuadConfig) -> ZStore:
    """The process's ZStore for cfg."""
    key = ("z", cfg.digest())
    store = _ACCUMULATORS.get(key)
    if store is None:
        store = _ACCUMULATORS[key] = ZStore(cfg)
    return store


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
