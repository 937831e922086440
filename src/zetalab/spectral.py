"""Maass-form spectral data and the explicit-formula spectral sums.

Datasets carry the combined weight c_j = alpha_j H_j^3(1/2) per form; odd
forms (eps = -1) are forced to c = 0 because the Hecke-series functional
equation factor equals eps at the central point.  All sums return their
per-term values, an exact-rational total (so concatenating datasets is
exactly additive), and variant labels wherever the source displays an
ambiguous exponent or gamma argument.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from mpmath import mp, mpc, mpf

from .config import QuadConfig
from .errors import (
    DataParseError,
    DataValidationError,
    DomainError,
    MissingEigenvalues,
    MissingPrime,
    PoleError,
    UnknownKernel,
)
from .gammafn import complex_log_gamma
from .laplace import atkinson_coeffs
from .precision import DEFAULT_CTX, PrecisionContext, ValueWithError, mag

HECKE_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class MaassFormRecord:
    """One Maass cusp form: index, spectral parameter, combined weight, parity."""

    j: int
    kappa: float
    c: float                      # alpha_j * H_j(1/2)^3
    eps: int                      # parity: +1 even, -1 odd
    hecke_t_p: dict | None = None  # prime -> eigenvalue t_j(p)
    alpha: float | None = None
    h_half: float | None = None

    def validate(self):
        if self.j < 1:
            raise DataValidationError("index must be >= 1", invariant="positive-index")
        if not (self.kappa > 0):
            raise DataValidationError("kappa must be > 0", invariant="positive-kappa")
        if self.eps not in (1, -1):
            raise DataValidationError("eps must be +1 or -1", invariant="parity")
        if self.eps == -1 and self.c != 0.0:
            raise DataValidationError(
                "odd form (eps=-1) must have c=0: H_j(1/2)=0 is forced by the "
                "functional-equation factor at the central point",
                invariant="odd-form-zero-weight",
            )
        if self.hecke_t_p:
            for p, tp in self.hecke_t_p.items():
                bound = math.sqrt(p) + 1 / math.sqrt(p) + HECKE_BOUND_SLACK
                if abs(tp) > bound:
                    raise DataValidationError(
                        "eigenvalue t(%d)=%r violates the triangle bound %.6f"
                        % (p, tp, bound),
                        invariant="hecke-triangle-bound",
                    )
        if self.alpha is not None and self.h_half is not None:
            expect = self.alpha * self.h_half**3
            if abs(expect - self.c) > 1e-10 * max(1.0, abs(self.c)):
                raise DataValidationError(
                    "c != alpha * H_half^3 (%r vs %r)" % (self.c, expect),
                    invariant="combined-weight-consistency",
                )


@dataclass(frozen=True)
class SpectralDataset:
    records: tuple
    source: str = ""
    checksum: str = ""

    def validate(self):
        prev = 0.0
        for r in self.records:
            r.validate()
            if r.kappa <= prev:
                raise DataValidationError(
                    "kappa must be strictly increasing (%r after %r)" % (r.kappa, prev),
                    invariant="strictly-increasing-kappa",
                )
            prev = r.kappa
        return self

    def __len__(self):
        return len(self.records)

    def concat(self, other: "SpectralDataset") -> "SpectralDataset":
        ds = SpectralDataset(
            records=self.records + other.records,
            source="%s + %s" % (self.source, other.source),
        )
        return ds.validate()


def load_spectral_dataset(path=None) -> SpectralDataset:
    """Parse and validate a spectral data file; None loads the bundled starter.

    Format: '#' comment/provenance lines, a header 'j,kappa,c,eps[,alpha,H_half]',
    then one record per line in decimal text, kappa strictly increasing.
    """
    if path is None:
        text = resources.files("zetalab.data").joinpath("maass_sl2z_starter.txt").read_text()
        name = "bundled:maass_sl2z_starter.txt"
    else:
        with open(path) as fh:
            text = fh.read()
        name = str(path)
    checksum = hashlib.sha256(text.encode()).hexdigest()[:16]

    provenance = []
    records = []
    header_seen = False
    n_cols = 4
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            provenance.append(line[1:].strip())
            continue
        if not header_seen:
            cols = [c.strip() for c in line.split(",")]
            if cols not in (
                ["j", "kappa", "c", "eps"],
                ["j", "kappa", "c", "eps", "alpha", "H_half"],
            ):
                raise DataParseError("bad header %r" % line, line=lineno)
            n_cols = len(cols)
            header_seen = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_cols:
            raise DataParseError(
                "expected %d fields, got %d" % (n_cols, len(parts)), line=lineno
            )
        try:
            j = int(parts[0])
            kappa = float(parts[1])
            c = float(parts[2])
            eps = int(parts[3])
            alpha = float(parts[4]) if n_cols == 6 and parts[4] else None
            h_half = float(parts[5]) if n_cols == 6 and parts[5] else None
        except ValueError as exc:
            raise DataParseError(str(exc), line=lineno) from exc
        records.append(
            MaassFormRecord(j=j, kappa=kappa, c=c, eps=eps, alpha=alpha, h_half=h_half)
        )
    if not header_seen:
        raise DataParseError("missing header line", line=1)
    ds = SpectralDataset(records=tuple(records), source="\n".join([name] + provenance), checksum=checksum)
    return ds.validate()


# ---------------------------------------------------------------------------
# Hecke machinery


def hecke_extend(t_p: dict, n_max: int) -> dict:
    """t(n) for n <= n_max from prime eigenvalues: multiplicative across
    coprime factors, t(p^{k+1}) = t(p) t(p^k) - t(p^{k-1}) at prime powers."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    spf = list(range(n_max + 1))  # smallest prime factor
    for p in range(2, int(n_max**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    t = {1: 1.0}
    for n in range(2, n_max + 1):
        p = spf[n]
        pk, m = p, n // p
        while m % p == 0:
            pk *= p
            m //= p
        if m > 1:
            t[n] = t[m] * t[pk]
            continue
        # n = p^k: recursion up the power
        if p not in t:
            if not t_p or p not in t_p:
                raise MissingPrime("prime %d not covered by eigenvalue map" % p)
            t[p] = float(t_p[p])
        if n != p:
            k_prev = n // p
            k_prev2 = k_prev // p
            t[n] = t[p] * t[k_prev] - t[k_prev2]
    return t


def hecke_series_partial(record: MaassFormRecord, s, n_max: int,
                         ctx: PrecisionContext = DEFAULT_CTX):
    """Partial sum sum_{n<=N} t(n) n^{-s} for Re s > 1, plus a crude tail bound.

    The tail bound uses |t(n)| <= 3 d(n) sqrt(n) (from the triangle bound via
    the Hecke recursion) and is finite only for Re s > 2.
    """
    s = complex(s)
    if s.real <= 1:
        raise DomainError("hecke series partial sums need Re s > 1")
    if not record.hecke_t_p:
        raise MissingEigenvalues("record carries no Hecke eigenvalues")
    t = hecke_extend(record.hecke_t_p, n_max)
    with ctx.workprec():
        acc = mpc(0)
        for n in range(1, n_max + 1):
            acc += t[n] * mpc(n) ** (-s)
        if s.real > 2:
            tail = 6.0 * n_max ** (2.0 - s.real) / (s.real - 2.0)
        else:
            tail = math.inf
        return ValueWithError(acc, tail)


def hecke_fe_factor(s, kappa: float, eps: int, ctx: PrecisionContext = DEFAULT_CTX) -> ValueWithError:
    """Functional-equation conversion factor of the Hecke series:
    pi^{-1} (2 pi)^{2s-1} Gamma(1-s+i kappa) Gamma(1-s-i kappa)
    {-cos(pi s) + eps cosh(pi kappa)}, via log-gamma throughout."""
    if eps not in (1, -1):
        raise DomainError("eps must be +1 or -1")
    with ctx.workprec():
        s = mpc(s)
        g1, e1 = complex_log_gamma(1 - s + 1j * mpf(kappa), ctx)
        g2, e2 = complex_log_gamma(1 - s - 1j * mpf(kappa), ctx)
        log_pref = -mp.log(mp.pi) + (2 * s - 1) * mp.log(2 * mp.pi) + g1 + g2
        # brace in log-safe form: eps cosh(pi kappa) - cos(pi s)
        brace = eps * mp.cosh(mp.pi * kappa) - mp.cos(mp.pi * s)
        value = mp.exp(log_pref) * brace
        err = mag(value) * (e1 + e2 + 16 * ctx.eps * (1 + mag(log_pref)))
        return ValueWithError(value, err)


def r_factor(y: float, ctx: PrecisionContext = DEFAULT_CTX) -> ValueWithError:
    """R(y) = sqrt(pi/2) (2^{iy} Gamma(1/4+iy/2)/Gamma(1/4-iy/2))^3
    Gamma(-2iy) cosh(pi y), assembled in log space."""
    if y == 0:
        raise PoleError("R(y) has a pole at y = 0 (Gamma(-2iy))")
    with ctx.workprec():
        yy = mpf(y)
        gpl, e1 = complex_log_gamma(mpc(0.25, float(yy) / 2), ctx)
        gmi, e2 = complex_log_gamma(mpc(0.25, -float(yy) / 2), ctx)
        gneg, e3 = complex_log_gamma(mpc(0, -2 * float(yy)), ctx)
        # log cosh(pi y) stable for large |y|
        ay = abs(yy)
        log_cosh = mp.pi * ay + mp.log1p(mp.exp(-2 * mp.pi * ay)) - mp.log(2)
        logr = (
            mp.log(mp.pi / 2) / 2
            + 3 * (1j * yy * mp.log(2) + gpl - gmi)
            + gneg
            + log_cosh
        )
        value = mp.exp(logr)
        err = mag(value) * (3 * (e1 + e2) + e3 + 16 * ctx.eps * (1 + mag(logr)))
        return ValueWithError(value, err)


def r_factor_modulus(y: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Closed modulus |R(y)| = (pi/2) cosh(pi y) / sqrt(y sinh(2 pi y))."""
    with ctx.workprec():
        yy = abs(mpf(y))
        # (pi/2) * cosh(pi y)/sqrt(y sinh(2pi y)), computed in logs
        log_cosh = mp.pi * yy + mp.log1p(mp.exp(-2 * mp.pi * yy)) - mp.log(2)
        log_sinh = 2 * mp.pi * yy + mp.log1p(-mp.exp(-4 * mp.pi * yy)) - mp.log(2)
        return float(mp.exp(mp.log(mp.pi / 2) + log_cosh - (mp.log(yy) + log_sinh) / 2))


# ---------------------------------------------------------------------------
# Spectral sums


def _exact_total(terms):
    """Sum float terms exactly as rationals; float() only at the end."""
    tot = Fraction(0)
    for t in terms:
        tot += Fraction(t)
    return tot


@dataclass(frozen=True)
class SpectralSumResult:
    value: float
    truncation_bound: float
    terms_used: int
    terms: tuple
    value_exact: Fraction = field(repr=False, default=Fraction(0))
    metadata: dict = field(default_factory=dict)


def motohashi_spectral_sum(
    t_center: float,
    delta: float,
    ds: SpectralDataset,
    tol: float = 0.0,
    cfg: QuadConfig = QuadConfig(),
    ctx: PrecisionContext = DEFAULT_CTX,
) -> SpectralSumResult:
    """Spectral side of the smoothed-fourth-moment explicit formula:
    pi 2^{-1/2} T^{-1/2} sum_j c_j kappa_j^{-1/2}
        sin(kappa_j log(kappa_j/(4 e T))) exp(-(delta kappa_j / 2T)^2).

    The truncation bound integrates the Gaussian factor against the
    configured weight-growth majorant c <= C kappa^3 beyond the last
    ingested kappa.  The admissible-delta window is flagged, not enforced.
    """
    if t_center <= 0 or delta <= 0:
        raise DomainError("need T > 0 and delta > 0")
    pref = math.pi / math.sqrt(2.0 * t_center)
    terms = []
    skipped_bound = 0.0
    used = 0
    for r in ds.records:
        kap = r.kappa
        gauss = math.exp(-((delta * kap / (2 * t_center)) ** 2))
        if tol > 0.0 and gauss < tol:
            # Below-threshold Gaussian factor: skip the term, charge its
            # worst case |c| kappa^{-1/2} gauss to the truncation bound.
            skipped_bound += pref * abs(r.c) / math.sqrt(kap) * gauss
            terms.append(0.0)
            continue
        used += 1
        terms.append(
            pref
            * r.c
            / math.sqrt(kap)
            * math.sin(kap * math.log(kap / (4 * math.e * t_center)))
            * gauss
        )
    total = _exact_total(terms)

    kap_last = ds.records[-1].kappa if ds.records else 0.0
    beta = (delta / (2 * t_center)) ** 2
    with ctx.workprec():
        # int_{kappa_last}^inf C kappa^3 kappa^{-1/2} e^{-beta kappa^2} dkappa
        tail_int = mp.gammainc(mpf(7) / 4, beta * mpf(kap_last) ** 2) / (2 * mpf(beta) ** mpf(1.75))
        trunc = float(pref * cfg.weight_cmaj * tail_int) + skipped_bound

    lo = math.sqrt(t_center) / math.log(t_center) if t_center > 1 else math.inf
    hi = t_center * math.exp(-math.sqrt(math.log(t_center))) if t_center > 1 else 0.0
    meta = {
        "delta_admissible_A1": bool(lo <= delta <= hi),
        "delta_window_A1": (lo, hi),
        "weight_majorant": cfg.weight_cmaj,
    }
    return SpectralSumResult(
        value=float(total),
        truncation_bound=trunc,
        terms_used=used,
        terms=tuple(terms),
        value_exact=total,
        metadata=meta,
    )


def laplace_e2_spectral(
    t_scale: float,
    ds: SpectralDataset,
    variant: str = "oscillatory",
    ctx: PrecisionContext = DEFAULT_CTX,
) -> SpectralSumResult:
    """Spectral main term of int_0^inf E2(t) e^{-t/T} dt:
    2 T^{3/2} Re { sum_j c_j R(kappa_j) Gamma(1/2 - i kappa_j) X_j },
    X_j = T^{-i kappa_j} ("oscillatory", default) or the printed T^{-kappa_j}.
    """
    if t_scale <= 0:
        raise DomainError("need T > 0")
    if variant not in ("oscillatory", "printed"):
        raise DomainError("unknown variant %r" % (variant,))
    terms = []
    with ctx.workprec():
        pref = 2 * mpf(t_scale) ** mpf(1.5)
        logt = mp.log(mpf(t_scale))
        for r in ds.records:
            if r.c == 0.0:
                terms.append(0.0)
                continue
            kap = mpf(r.kappa)
            rv, _ = r_factor(r.kappa, ctx)
            g, _ = complex_log_gamma(mpc(0.5, -r.kappa), ctx)
            if variant == "oscillatory":
                x = mp.exp(-1j * kap * logt)
            else:
                x = mp.exp(-kap * logt)
            terms.append(float(pref * (r.c * rv * mp.exp(g) * x).real))
    total = _exact_total(terms)
    return SpectralSumResult(
        value=float(total),
        truncation_bound=0.0,
        terms_used=len(terms),
        terms=tuple(terms),
        value_exact=total,
        metadata={"variant": variant},
    )


def integral_e2_spectral(
    t_upper: float, ds: SpectralDataset, ctx: PrecisionContext = DEFAULT_CTX
) -> SpectralSumResult:
    """Spectral asymptotic of int_0^T E2(t) dt:
    2 T^{3/2} Re { sum_j c_j T^{i kappa_j} R(kappa_j)
                   / ((1/2 + i kappa_j)(3/2 + i kappa_j)) }."""
    if t_upper <= 0:
        raise DomainError("need T > 0")
    terms = []
    with ctx.workprec():
        pref = 2 * mpf(t_upper) ** mpf(1.5)
        logt = mp.log(mpf(t_upper))
        for r in ds.records:
            if r.c == 0.0:
                terms.append(0.0)
                continue
            kap = mpf(r.kappa)
            rv, _ = r_factor(r.kappa, ctx)
            denom = (mpf(0.5) + 1j * kap) * (mpf(1.5) + 1j * kap)
            term = pref * (r.c * mp.exp(1j * kap * logt) * rv / denom).real
            terms.append(float(term))
    total = _exact_total(terms)
    return SpectralSumResult(
        value=float(total),
        truncation_bound=0.0,
        terms_used=len(terms),
        terms=tuple(terms),
        value_exact=total,
        metadata={},
    )


def integral_e2_term_amplitude(t_upper: float, record: MaassFormRecord,
                               ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Modulus envelope of one integrated-E2 spectral term:
    2 T^{3/2} |c R(kappa)| / |(1/2+i kappa)(3/2+i kappa)|."""
    with ctx.workprec():
        kap = mpf(record.kappa)
        rv, _ = r_factor(record.kappa, ctx)
        denom = abs((mpf(0.5) + 1j * kap) * (mpf(1.5) + 1j * kap))
        return float(2 * mpf(t_upper) ** mpf(1.5) * abs(record.c) * abs(rv) / denom)


@dataclass(frozen=True)
class L2Expansion:
    main: complex
    spectral: complex
    variant: str
    terms: tuple
    spectral_exact_re: Fraction = field(repr=False, default=Fraction(0))


def l2_spectral_expansion(
    s,
    ds: SpectralDataset,
    gamma_variant: str = "half_shift",
    ctx: PrecisionContext = DEFAULT_CTX,
) -> L2Expansion:
    """Decomposition of L_2(s): the exact five-log main term over s
    (laplace.atkinson_coeffs) plus the spectral series
    s^{-1/2} sum_j c_j (s^{-i kappa} R(kappa) G_+ + s^{i kappa} R(-kappa) G_-).

    gamma_variant "printed" reads G_+- = Gamma(+-kappa) as displayed (the
    series then diverges super-exponentially and is reported term-by-term);
    "half_shift" (default) reads Gamma(1/2 +- i kappa).  The residual
    G_2(s) = laplace_moment(2, s) - main - spectral is left to the caller's
    comparison harness and never asserted.
    """
    s = complex(s)
    if not (0 < abs(s) <= 1):
        raise DomainError("need 0 < |s| <= 1")
    if abs(cmath.phase(s)) >= math.pi / 2:
        raise DomainError("|arg s| must be < pi/2")
    if gamma_variant not in ("printed", "half_shift"):
        raise DomainError("unknown gamma variant %r" % (gamma_variant,))

    a, b, c, d, e = atkinson_coeffs(ctx)

    with ctx.workprec():
        sm = mpc(s)
        ell = mp.log(1 / sm)
        main = (a * ell**4 + b * ell**3 + c * ell**2 + d * ell + e) / sm

        pref = sm ** mpf(-0.5)
        log_s = mp.log(sm)
        terms = []
        spectral = mpc(0)
        for r in ds.records:
            if r.c == 0.0:
                terms.append(0j)
                continue
            kap = mpf(r.kappa)
            rp, _ = r_factor(r.kappa, ctx)
            rm, _ = r_factor(-r.kappa, ctx)
            if gamma_variant == "printed":
                gp, _ = complex_log_gamma(mpc(r.kappa), ctx)
                gm, _ = complex_log_gamma(mpc(-r.kappa), ctx)
            else:
                gp, _ = complex_log_gamma(mpc(0.5, r.kappa), ctx)
                gm, _ = complex_log_gamma(mpc(0.5, -r.kappa), ctx)
            term = pref * r.c * (
                mp.exp(-1j * kap * log_s + gp) * rp + mp.exp(1j * kap * log_s + gm) * rm
            )
            terms.append(complex(term))
            spectral += term
        exact_re = _exact_total([t.real for t in terms])
    return L2Expansion(
        main=complex(main),
        spectral=complex(spectral),
        variant=gamma_variant,
        terms=tuple(terms),
        spectral_exact_re=exact_re,
    )


# ---------------------------------------------------------------------------
# Term-magnitude diagnostics

KERNELS = ("motohashi_5_1", "laplace_6_1", "integral_E2", "l2_expansion")


@dataclass(frozen=True)
class TermProfile:
    kernel: str
    rows: tuple  # (j, kappa, |term|, cumulative, decay_ratio)
    non_decaying: bool

    def to_csv_lines(self):
        lines = ["j,kappa,term_magnitude,cumulative,decay_ratio"]
        for row in self.rows:
            lines.append("%d,%r,%r,%r,%r" % row)
        return lines


def term_profile(ds: SpectralDataset, kernel: str, params: dict | None = None,
                 ctx: PrecisionContext = DEFAULT_CTX, cfg: QuadConfig = QuadConfig()) -> TermProfile:
    """Per-form magnitude, running sum and decay ratio for a named kernel."""
    params = dict(params or {})
    if kernel == "motohashi_5_1":
        res = motohashi_spectral_sum(params["T"], params["delta"], ds, cfg=cfg, ctx=ctx)
        terms = res.terms
    elif kernel == "laplace_6_1":
        res = laplace_e2_spectral(params["T"], ds, params.get("variant", "oscillatory"), ctx)
        terms = res.terms
    elif kernel == "integral_E2":
        res = integral_e2_spectral(params["T"], ds, ctx)
        terms = res.terms
    elif kernel == "l2_expansion":
        exp = l2_spectral_expansion(params["s"], ds, params.get("gamma_variant", "half_shift"), ctx)
        terms = [abs(t) for t in exp.terms]
    else:
        raise UnknownKernel("kernel %r not in %r" % (kernel, KERNELS))

    rows = []
    cum = 0.0
    prev_mag = None
    non_decay = False
    for r, t in zip(ds.records, terms):
        magt = abs(t)
        cum += float(t) if not isinstance(t, complex) else magt
        ratio = magt / prev_mag if (prev_mag and prev_mag > 0) else math.nan
        if prev_mag is not None and prev_mag > 0 and magt > prev_mag:
            non_decay = True
        rows.append((r.j, r.kappa, magt, cum, ratio))
        if magt > 0:
            prev_mag = magt
    return TermProfile(kernel=kernel, rows=tuple(rows), non_decaying=non_decay)
