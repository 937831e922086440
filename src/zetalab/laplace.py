"""Laplace transforms L_k(s) of |zeta(1/2+ix)|^{2k} with the classical
small-sigma expansions they are compared against (Kober for k=1, the
quartic-log main term for k=2).

Evaluation streams over the shared deterministic panel mesh in fixed-size
chunks, so a whole sigma grid costs one kernel pass; per-sigma totals only
use panels inside that sigma's own truncation range, making each value
independent of how calls are batched.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .constants import constants_for, fourth_moment_a4, laplace_fourth_B
from .errors import DomainError, IllConditionedFit
from .precision import DEFAULT_CTX, PrecisionContext
from .quadrature import IntegralResult, kronrod_rule, kronrod_sums, panel_nodes, panel_width
from .zkernel import moment_integrand

CHUNK = 1024


def _truncation_x(k: int, sigma: float, cfg: QuadConfig, tol: float) -> float:
    """Smallest X with cmaj log^{k^2+1}(X) (1 + 1/sigma) e^{-sigma X} <= tol."""
    x = 10.0 / sigma
    for _ in range(5):
        poly = cfg.laplace_cmaj * max(math.log(x), 1.0) ** (k * k + 1) * (1.0 + 1.0 / sigma)
        x = math.log(max(poly / tol, 2.0)) / sigma
    return x


def _tail_bound(k: int, sigma: float, x: float, cfg: QuadConfig) -> float:
    return (
        cfg.laplace_cmaj
        * max(math.log(x), 1.0) ** (k * k + 1)
        * (1.0 + 1.0 / sigma)
        * math.exp(-sigma * x)
    )


def laplace_moment_grid(
    k: int,
    s_values,
    ctx: PrecisionContext = DEFAULT_CTX,
    cfg: QuadConfig = QuadConfig(),
):
    """L_k(s) for every s in s_values, sharing one streaming kernel pass.

    Each value uses exactly the panels inside its own truncation range, so
    results equal the single-call ones regardless of grid composition.
    """
    if k not in (1, 2, 6):
        raise DomainError("k must be in {1, 2, 6}")
    ss = [complex(s) for s in s_values]
    for s in ss:
        if s.real <= 0:
            raise DomainError("invalid-argument: Re s must be > 0")
        if abs(cmath.phase(s)) >= math.pi / 2:
            raise DomainError("invalid-argument: |arg s| must be < pi/2")
    tol = max(cfg.laplace_tail_abs, ctx.abs_tol)

    # Deterministic mesh from 0; per-s panel counts, then global bound.
    bounds = [0.0]
    x_needed = [_truncation_x(k, s.real, cfg, tol) for s in ss]
    x_global = max(x_needed)
    while bounds[-1] < x_global:
        bounds.append(bounds[-1] + panel_width(bounds[-1], cfg))
    bounds = np.array(bounds)
    n_use = [
        min(max(int(np.searchsorted(bounds, x, side="left")), 1), len(bounds) - 1)
        for x in x_needed
    ]

    n = cfg.nodes
    wk = kronrod_rule(n)[1]
    m = len(ss)
    total = [0.0 + 0.0j] * m
    err = [0.0] * m
    n_max = max(n_use)
    for c0 in range(0, n_max, CHUNK):
        c1 = min(c0 + CHUNK, n_max)
        t, half = panel_nodes(bounds[c0:c1], bounds[c0 + 1 : c1 + 1], n)
        f, df = moment_integrand(t.ravel(), k, cfg.t_switch, cfg.rs_terms)
        f, df = f.reshape(t.shape), df.reshape(t.shape)
        for i, s in enumerate(ss):
            hi = min(n_use[i], c1)
            if hi <= c0:
                continue
            sl = slice(0, hi - c0)
            decay = np.exp(-s.real * t[sl])
            weight = decay if s.imag == 0.0 else np.exp(-s * t[sl])
            val, _, charge = kronrod_sums(half[sl], f[sl] * weight, n)
            pt = half[sl] * np.sum(wk * df[sl] * decay, axis=1)
            total[i] += complex(np.sum(val))
            err[i] += float(np.sum(charge + pt))

    out = []
    for i, s in enumerate(ss):
        x_cut = float(bounds[n_use[i]])
        value = total[i].real if s.imag == 0.0 else total[i]
        bound = err[i] + _tail_bound(k, s.real, x_cut, cfg)
        out.append(IntegralResult(value, bound, n_use[i], (0.0, x_cut)))
    return out


def laplace_moment(
    k: int,
    s,
    ctx: PrecisionContext = DEFAULT_CTX,
    cfg: QuadConfig = QuadConfig(),
    integrand_hook=None,
) -> IntegralResult:
    """L_k(s) = int_0^inf |zeta(1/2+ix)|^{2k} e^{-sx} dx for Re s > 0.

    Truncated at X where the disclosed polylog majorant brings the tail
    below tolerance; the tail bound enters err_bound.  The value is complex
    when s has nonzero imaginary part.
    """
    if integrand_hook is not None:
        s = complex(s)
        if s.real <= 0:
            raise DomainError("invalid-argument: Re s must be > 0")
        tol = max(cfg.laplace_tail_abs, ctx.abs_tol)
        return _laplace_hook(s, _truncation_x(k, s.real, cfg, tol), cfg, integrand_hook)
    return laplace_moment_grid(k, [s], ctx, cfg)[0]


def _laplace_hook(s, x_max, cfg, hook):
    """Quadrature against a replaced integrand (test hook path)."""
    from .quadrature import PanelBatch

    def weighted(t):
        f = hook(t)
        e = np.exp(-s * t) if s.imag != 0 else np.exp(-s.real * t)
        return f * e, np.zeros_like(t)

    bounds = [0.0]
    while bounds[-1] < x_max:
        bounds.append(bounds[-1] + min(panel_width(bounds[-1], cfg), 0.25 / max(s.real, 0.05)))
    val, _, err, _ = PanelBatch(weighted, cfg).run(bounds[:-1], bounds[1:])
    value = np.sum(val)
    value = float(value.real) if s.imag == 0 else complex(value)
    return IntegralResult(value, float(np.sum(err)), len(bounds) - 1, (0.0, bounds[-1]))


def kober_main(sigma: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Leading Kober term (gamma - log(4 pi sigma)) / (2 sin sigma)."""
    if not (0 < sigma < 1):
        raise DomainError("kober_main requires 0 < sigma < 1")
    c = constants_for(ctx)
    with ctx.workprec():
        from mpmath import mp

        return float((c.euler_gamma - mp.log(4 * c.pi * sigma)) / (2 * mp.sin(sigma)))


def atkinson_ab(ctx: PrecisionContext = DEFAULT_CTX, b_variant: str = "printed"):
    """(A, B) of the fourth-moment Laplace main term, from exact constants.

    b_variant "printed" returns B exactly as displayed in the source;
    "consistent" returns its negative, which is the value forced by the
    exact second moment-polynomial coefficient through the Laplace
    correspondence and confirmed numerically (see decisions ledger).
    Downstream outputs label the variant used.
    """
    a = float(fourth_moment_a4(ctx))
    b = float(laplace_fourth_B(ctx))
    if b_variant == "printed":
        return a, b
    if b_variant == "consistent":
        return a, -b
    raise DomainError("unknown B variant %r" % (b_variant,))


def atkinson_expansion(
    sigma: float, fitted, ctx: PrecisionContext = DEFAULT_CTX, b_variant: str = "printed"
) -> float:
    """(A log^4(1/s) + B log^3(1/s) + C log^2(1/s) + D log(1/s) + E) / s
    with A, B exact and (C, D, E) supplied."""
    if not (0 < sigma < 1):
        raise DomainError("atkinson_expansion requires 0 < sigma < 1")
    a, b = atkinson_ab(ctx, b_variant)
    c, d, e = (float(v) for v in fitted)
    ell = math.log(1.0 / sigma)
    return (a * ell**4 + b * ell**3 + c * ell**2 + d * ell + e) / sigma


@dataclass(frozen=True)
class AtkinsonCalibration:
    cde: tuple
    residual_norm: float
    split_drift: tuple
    sigma_grid: tuple
    b_variant: str = "printed"


def calibrate_atkinson_cde(
    sigmas,
    ctx: PrecisionContext = DEFAULT_CTX,
    cfg: QuadConfig = QuadConfig(),
    b_variant: str = "consistent",
) -> AtkinsonCalibration:
    """Fit C, D, E of the Laplace main term on a sigma grid (A, B held exact)."""
    sigmas = sorted(float(s) for s in sigmas)
    if len(sigmas) < 6:
        raise IllConditionedFit("need at least 6 sigma points")
    a, b = atkinson_ab(ctx, b_variant)
    results = laplace_moment_grid(2, sigmas, ctx, cfg)
    ells, ys = [], []
    for s, r in zip(sigmas, results):
        ell = math.log(1.0 / s)
        ys.append(s * r.value - a * ell**4 - b * ell**3)
        ells.append(ell)
    ells = np.array(ells)
    ys = np.array(ys)

    def fit(ls, y):
        cols = np.stack([ls**2, ls, np.ones_like(ls)], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < 3:
            raise IllConditionedFit("rank-deficient Atkinson fit")
        return sol, math.sqrt(float(np.mean((y - cols @ sol) ** 2)))

    sol, rms = fit(ells, ys)
    half = len(sigmas) // 2
    lo, _ = fit(ells[:half], ys[:half])
    hi, _ = fit(ells[half:], ys[half:])
    drift = tuple(float(abs(l - h) / max(abs(f), 1e-300)) for l, h, f in zip(lo, hi, sol))
    return AtkinsonCalibration(
        cde=tuple(float(v) for v in sol),
        residual_norm=rms,
        split_drift=drift,
        sigma_grid=tuple(sigmas),
        b_variant=b_variant,
    )


_DEFAULT_CDE_CACHE: dict = {}


def default_atkinson_cde():
    """Packaged calibrated (C, D, E) with the B variant they were fitted under."""
    got = _DEFAULT_CDE_CACHE.get("cde")
    if got is None:
        from importlib import resources

        text = resources.files("zetalab.data").joinpath("atkinson_default.txt").read_text()
        vals = []
        variant = "consistent"
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# B variant:"):
                variant = line.split(":")[1].split("(")[0].strip()
            if not line or line.startswith("#"):
                continue
            vals.append(float(line.split(",")[1]))
        got = (tuple(vals), variant)
        _DEFAULT_CDE_CACHE["cde"] = got
    return got
