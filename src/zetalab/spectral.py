"""Maass-form spectral data and Motohashi's spectral sum.

Datasets carry the combined weight c_j = alpha_j H_j^3(1/2) per form; odd
forms (eps = -1) are forced to c = 0 because the Hecke-series functional
equation factor equals eps at the central point.  The spectral side of the
smoothed fourth moment returns its per-term values and their correctly
rounded sum.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources

from mpmath import mp, mpf

from .errors import DataParseError, DataValidationError, DomainError
from .precision import DEFAULT_CTX

WEIGHT_CMAJ = 10.0  # the disclosed weight-growth majorant c_j <= C kappa^3 of the truncation bound


@dataclass(frozen=True)
class MaassFormRecord:
    """One Maass cusp form: index, spectral parameter, combined weight, parity."""

    j: int
    kappa: float
    c: float                      # alpha_j * H_j(1/2)^3
    eps: int                      # parity: +1 even, -1 odd

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


def load_spectral_dataset(path=None) -> SpectralDataset:
    """Parse and validate a spectral data file; None loads the bundled starter.

    Format: '#' comment/provenance lines, a header 'j,kappa,c,eps',
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            provenance.append(line[1:].strip())
            continue
        if not header_seen:
            if [c.strip() for c in line.split(",")] != ["j", "kappa", "c", "eps"]:
                raise DataParseError("bad header %r" % line, line=lineno)
            header_seen = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise DataParseError("expected 4 fields, got %d" % len(parts), line=lineno)
        try:
            records.append(MaassFormRecord(j=int(parts[0]), kappa=float(parts[1]),
                                           c=float(parts[2]), eps=int(parts[3])))
        except ValueError as exc:
            raise DataParseError(str(exc), line=lineno) from exc
    if not header_seen:
        raise DataParseError("missing header line", line=1)
    ds = SpectralDataset(records=tuple(records), source="\n".join([name] + provenance), checksum=checksum)
    return ds.validate()


# ---------------------------------------------------------------------------
# Spectral sum


@dataclass(frozen=True)
class SpectralSumResult:
    value: float
    truncation_bound: float
    terms_used: int
    terms: tuple
    metadata: dict = field(default_factory=dict)


def motohashi_spectral_sum(
    t_center: float, delta: float, ds: SpectralDataset
) -> SpectralSumResult:
    """Spectral side of the smoothed-fourth-moment explicit formula:
    pi 2^{-1/2} T^{-1/2} sum_j c_j kappa_j^{-1/2}
        sin(kappa_j log(kappa_j/(4 e T))) exp(-(delta kappa_j / 2T)^2).

    The truncation bound integrates the Gaussian factor against the
    weight-growth majorant c <= WEIGHT_CMAJ kappa^3 beyond the last
    ingested kappa.  The value is the correctly rounded sum of the terms.
    The admissible-delta window is flagged, not enforced.
    """
    if t_center <= 0 or delta <= 0:
        raise DomainError("need T > 0 and delta > 0")
    pref = math.pi / math.sqrt(2.0 * t_center)
    terms = [
        pref
        * r.c
        / math.sqrt(r.kappa)
        * math.sin(r.kappa * math.log(r.kappa / (4 * math.e * t_center)))
        * math.exp(-((delta * r.kappa / (2 * t_center)) ** 2))
        for r in ds.records
    ]

    kap_last = ds.records[-1].kappa if ds.records else 0.0
    beta = (delta / (2 * t_center)) ** 2
    with DEFAULT_CTX.workprec():
        # int_{kappa_last}^inf C kappa^3 kappa^{-1/2} e^{-beta kappa^2} dkappa
        tail_int = mp.gammainc(mpf(7) / 4, beta * mpf(kap_last) ** 2) / (2 * mpf(beta) ** mpf(1.75))
        trunc = float(pref * WEIGHT_CMAJ * tail_int)

    lo = math.sqrt(t_center) / math.log(t_center) if t_center > 1 else math.inf
    hi = t_center * math.exp(-math.sqrt(math.log(t_center))) if t_center > 1 else 0.0
    meta = {
        "delta_admissible_A1": bool(lo <= delta <= hi),
        "delta_window_A1": (lo, hi),
        "weight_majorant": WEIGHT_CMAJ,
    }
    return SpectralSumResult(
        value=math.fsum(terms),
        truncation_bound=trunc,
        terms_used=len(terms),
        terms=tuple(terms),
        metadata=meta,
    )
