"""Panel Gauss-Legendre quadrature tuned to the zero-gap scale of Z(t).

The panel mesh is generated deterministically from t=0 with width equal to a
configured fraction of the local mean zero gap 2 pi / log(t/2pi).  Each panel
is integrated with n and 2n Gauss-Legendre nodes; disagreement triggers
bisection up to a depth cap, and the final disagreement plus the integrated
pointwise kernel error model enters the reported error bound.  All reductions
run in a fixed order so reruns and checkpoint resumes are bit-identical.

Bit-identity holds per numeric fingerprint (numeric_fingerprint): the same
numpy, scipy, mpmath and Python versions, the same SIMD features numpy
dispatches to, and the same machine and C library.  numpy's vectorised
exp/log/sin loops and the libraries' own routines may round the last bits
differently under another fingerprint, so values frozen under one (the test
fixtures, the packaged calibrations) are compared bit for bit only under it.
"""

from __future__ import annotations

import functools
import math
import platform
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .errors import DomainError
from .zkernel import moment_integrand

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
def gl_integration_matrix(n: int):
    """S[i, j] = int_{-1}^{x_i} l_j for the n-point GL nodes x and their
    Lagrange basis l_j = w_j sum_m (m + 1/2) P_m(x_j) P_m (Greengard 1991).

    S @ f integrates the interpolant of f at the nodes from -1 to each node,
    exactly for polynomials of degree < n.  Built from
    int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1), P_{-1} = -1.
    """
    x, w = gl_nodes(n)
    p = np.polynomial.legendre.legvander(x, n)              # P_0 .. P_n at x
    q = np.empty((n, n))
    q[:, 0] = x + 1.0
    q[:, 1:] = p[:, 2:] - p[:, : n - 1]                     # (2m + 1) int_{-1}^x P_m
    return 0.5 * q @ (p[:, :n] * w[:, None]).T


def panel_width(t: float, cfg: QuadConfig) -> float:
    gap = _TWO_PI / max(math.log(t / _TWO_PI) if t > 0 else 0.0, 1.0)
    return min(max(cfg.gap_fraction * gap, cfg.w_min), cfg.w_max)


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
        val = np.zeros(m)
        val_u = np.zeros(m)
        err = np.zeros(m)
        err_u = np.zeros(m)
        work = [(i, lefts[i], rights[i], 0) for i in range(m)]
        while work:
            idx = np.array([w[0] for w in work])
            a = np.array([w[1] for w in work])
            b = np.array([w[2] for w in work])
            depth = np.array([w[3] for w in work])
            i1, i1u, i2, i2u, pt, ptu = self._panel_pair(a, b)
            diff = np.abs(i1 - i2)
            diff_u = np.abs(i1u - i2u)
            tol = np.maximum(cfg.panel_abs, cfg.panel_rel * np.abs(i2))
            accept = (diff <= tol) | (depth >= cfg.max_depth)
            for j in np.nonzero(accept)[0]:
                i = idx[j]
                val[i] += i2[j]
                val_u[i] += i2u[j]
                err[i] += diff[j] + pt[j]
                err_u[i] += diff_u[j] + ptu[j]
            nxt = []
            for j in np.nonzero(~accept)[0]:
                mid = 0.5 * (a[j] + b[j])
                nxt.append((idx[j], a[j], mid, depth[j] + 1))
                nxt.append((idx[j], mid, b[j], depth[j] + 1))
            work = nxt
        return val, val_u, err, err_u

    def _panel_pair(self, a, b):
        """Coarse/fine GL values of f and u*f plus pointwise error integrals."""
        cfg = self.cfg
        n = cfg.nodes
        x1, w1 = gl_nodes(n)
        x2, w2 = gl_nodes(2 * n)
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        t1 = mid[:, None] + half[:, None] * x1[None, :]
        t2 = mid[:, None] + half[:, None] * x2[None, :]
        ts = np.concatenate([t1.ravel(), t2.ravel()])
        f, df = self.integrand(ts)
        n1 = t1.size
        f1 = f[:n1].reshape(t1.shape)
        f2 = f[n1:].reshape(t2.shape)
        df2 = df[n1:].reshape(t2.shape)
        i1 = half * np.sum(w1 * f1, axis=1)
        i2 = half * np.sum(w2 * f2, axis=1)
        i1u = half * np.sum(w1 * f1 * t1, axis=1)
        i2u = half * np.sum(w2 * f2 * t2, axis=1)
        pt = half * np.sum(w2 * df2, axis=1)
        ptu = half * np.sum(w2 * df2 * t2, axis=1)
        return i1, i1u, i2, i2u, pt, ptu


class MomentAccumulator:
    """Cumulative integrals of |Z(t)|^{2k} (and t |Z|^{2k}) over a shared mesh.

    Per-panel values are stored once and prefix sums are a plain left fold, so
    cumulative values at mesh boundaries are independent of how far previous
    runs integrated -- the property checkpoint resume relies on.
    """

    CHUNK = 512

    def __init__(self, k: int, cfg: QuadConfig):
        self.k = k
        self.cfg = cfg
        self.bounds = [0.0]
        self._val = []
        self._val_u = []
        self._err = []
        self._err_u = []
        self._prefix = None
        self._bounds_arr = None  # bounds as an array, rebuilt with the prefix sums
        self._batch = PanelBatch(self._integrand, cfg)

    def _integrand(self, ts):
        return moment_integrand(ts, self.k, self.cfg.t_switch, self.cfg.rs_terms)

    def ensure(self, t_target: float):
        if t_target <= self.bounds[-1]:
            return
        new_lefts, new_rights = [], []
        t = self.bounds[-1]
        while t < t_target:
            w = panel_width(t, self.cfg)
            new_lefts.append(t)
            t += w
            new_rights.append(t)
            self.bounds.append(t)
        for i in range(0, len(new_lefts), self.CHUNK):
            v, vu, e, eu = self._batch.run(
                new_lefts[i : i + self.CHUNK], new_rights[i : i + self.CHUNK]
            )
            self._val.extend(v.tolist())
            self._val_u.extend(vu.tolist())
            self._err.extend(e.tolist())
            self._err_u.extend(eu.tolist())
        self._prefix = None

    def prefix(self):
        if self._prefix is None:
            self._bounds_arr = np.array(self.bounds)
            self._prefix = (
                np.concatenate([[0.0], np.cumsum(self._val)]),
                np.concatenate([[0.0], np.cumsum(self._val_u)]),
                np.concatenate([[0.0], np.cumsum(self._err)]),
                np.concatenate([[0.0], np.cumsum(self._err_u)]),
            )
        return self._prefix

    def n_panels_to(self, t: float) -> int:
        return bisect_right(self.bounds, t) - 1

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
            self.ensure(float(ts.max()))
        pv, pu, pe, peu = self.prefix()
        i = np.searchsorted(self._bounds_arr, ts, side="right") - 1
        v, vu, e, eu = pv[i], pu[i], pe[i], peu[i]
        left = self._bounds_arr[i]
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
        self.ensure(b)
        bs = self.bounds
        i, j = self.n_panels_to(a), self.n_panels_to(b)
        if i == j:
            lefts, rights = [a], [b]
            vals, errs = [], []
        else:
            lefts, rights = [], []
            if a > bs[i]:
                lefts.append(a)
                rights.append(bs[i + 1])
                i += 1
            if b > bs[j]:
                lefts.append(bs[j])
                rights.append(b)
            vals, errs = self._val[i:j], self._err[i:j]
        if lefts:
            v, _, e, _ = self._batch.run(lefts, rights)
            vals, errs = vals + v.tolist(), errs + e.tolist()
        value = math.fsum(vals)
        return value, math.fsum(errs) + math.ulp(value)

    def boundary_grid(self, t0: float, t1: float):
        """Mesh boundaries in [t0, t1] with cumulative values and error bounds."""
        self.ensure(t1)
        lo = bisect_right(self.bounds, t0) - 1
        if self.bounds[lo] < t0:
            lo += 1
        hi = bisect_right(self.bounds, t1) - 1
        bs = np.array(self.bounds[lo : hi + 1])
        pv, pu, pe, _ = self.prefix()
        return bs, pv[lo : hi + 1], pu[lo : hi + 1], pe[lo : hi + 1]


_ACCUMULATORS: dict = {}


def get_accumulator(k: int, cfg: QuadConfig) -> MomentAccumulator:
    key = (k, cfg.digest())
    acc = _ACCUMULATORS.get(key)
    if acc is None:
        acc = MomentAccumulator(k, cfg)
        _ACCUMULATORS[key] = acc
    return acc


def clear_accumulators():
    _ACCUMULATORS.clear()
