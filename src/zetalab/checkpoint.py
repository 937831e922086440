"""Persisted running moment integrals, resumable by T.

File format (line-delimited text, floats as repr(float)):
    # zetalab-checkpoint v3
    # fingerprint: <numeric fingerprint of the writing environment>
    k,T,v,e,digest;n;vu;eu;cv;ce;cvu;ceu
Rows are boundary-aligned: every stored T is a panel boundary of the mesh
from 0, F^-1(4n) (quadrature.panel_bounds), the last at or below each
multiple of CHECKPOINT_STEP and the target.  n is the panel count on
[0, T]; v = int_0^T |Z|^{2k}, vu = int_0^T t |Z|^{2k} and their error
bounds e and eu are the accumulator's four prefix sums there, and cv, ce,
cvu and ceu their compensations (MomentAccumulator.compensation): p + C is
the exact sum of the per-panel values on [0, T] to within C's own rounding.
digest is the QuadConfig digest.  MomentCheckpoint.rows holds a file's rows
of one k in the order of MomentAccumulator's rows, (T, v, e, n, vu, eu, cv,
ce, cvu, ceu).  Files without the fingerprint line still load.  Older
formats are refused with the reason (OLD_FORMATS).

A resume (extend_checkpoint with resume=True) seeds the accumulator with
the second-to-last stored row (quadrature.MomentAccumulator's origin),
integrates from there, and requires the last stored row back bit for bit,
all ten fields.  The prefix sums are a plain left fold, so a fold seeded at
a panel boundary continues the fold from 0 bit for bit, and Z is evaluated
only above the seed row.  The fold can absorb an ulp of the seed's v, vu, e
or eu, but the two-sum error of each of its steps is exact, so that ulp
changes C at the last row: the last row determines the seed's sums, and one
step checks the seed.  (An ulp of the seed's own C can be absorbed; no row
above the last one depends on it, and a front pass compares it.)  The
seed's T must be panel n of the mesh from 0, which the accumulator checks
as it is seeded, on the store's mesh (quadrature.ZStore).  If the process's
accumulator already reaches the seed row, it is extended instead, and its
row at the seed must equal the stored one.

A resume starts at the origin row (quadrature.ORIGIN) instead when the file
has one row of k, or when its fingerprint is missing or differs from
numeric_fingerprint().  It integrates through every stored row of k then,
and requires every one of them back.  A file of another fingerprint or
none that holds rows of k alone is then rewritten under this fingerprint,
through a temporary file synced to disk before os.replace puts it in
place, so the next resume seeds above 0.  One that also holds rows of
another k keeps its fingerprint line, and each of its k resumes from 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .errors import CheckpointMismatch, DataParseError, DataValidationError
from .quadrature import (
    ORIGIN, MomentAccumulator, drop_accumulator, get_accumulator, numeric_fingerprint)

HEADER = "# zetalab-checkpoint v3"
FINGERPRINT_PREFIX = "# fingerprint: "
OLD_FORMATS = {
    "# zetalab-checkpoint v1": "checkpoint format v1 is no longer read: its digests name kernel zk3 "
                               "and two-cell panels, which no configuration reproduces",
    "# zetalab-checkpoint v2": "checkpoint format v2 is no longer read: its rows lack the compensations "
                               "of the prefix sums, by which a resume checks its seed",
}
FIELDS = ("T", "v", "e", "n", "vu", "eu", "cv", "ce", "cvu", "ceu")  # of a MomentCheckpoint row
# A row at the last boundary at or below every multiple of CHECKPOINT_STEP in
# T: the step picks which boundaries get rows and changes no value.
CHECKPOINT_STEP = 100.0


@dataclass(frozen=True)
class Resume:
    """What a resume did: the seed row's T (0 at the origin), the T of the
    stored row it reproduced, and the panels it integrated at or below that T."""

    seed_t: float
    verified_t: float
    panels: int


@dataclass
class MomentCheckpoint:
    k: int
    rows: list  # [(T, v, e, n, vu, eu, cv, ce, cvu, ceu), ...] strictly increasing T, as stored
    config_digest: str
    fingerprint: str | None = None  # None if the file records none, or extend_checkpoint read no rows of k
    other_rows: int | None = None  # rows of other k in the file, as read_checkpoint counted them
    resume: Resume | None = None  # set by extend_checkpoint when it resumed

    @property
    def grid(self):
        """[(T, cumulative_value, cumulative_err), ...]"""
        return [row[:3] for row in self.rows]

    def validate(self):
        prev = (-1.0, -1.0, -1, -1.0)  # T, v, n, vu of the row before
        for row in self.rows:
            t, v, e, n, vu, eu = row[:6]
            for name, x in zip(FIELDS, row):
                if not math.isfinite(x):
                    raise DataValidationError("non-finite %s=%r at T=%r" % (name, x, t), invariant="finite")
            for broken, what, invariant in (
                (t <= prev[0], "checkpoint T not strictly increasing", "strictly-increasing-T"),
                (v < prev[1], "cumulative value decreased", "non-decreasing-value"),
                (e < 0, "negative error bound", "nonnegative-err"),
                (n <= prev[2], "panel count not strictly increasing", "strictly-increasing-n"),
                (vu < prev[3], "u-weighted cumulative value decreased", "non-decreasing-value-u"),
                (eu < 0, "negative u-weighted error bound", "nonnegative-err-u"),
            ):
                if broken:
                    raise DataValidationError("%s at T=%r" % (what, t), invariant=invariant)
            prev = (t, v, n, vu)


def read_checkpoint(path: str, k: int) -> MomentCheckpoint | None:
    if not os.path.exists(path):
        return None
    rows = []
    digest = fingerprint = None
    other_rows = 0
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first in OLD_FORMATS:
            raise DataParseError(OLD_FORMATS[first], line=1)
        if first != HEADER:
            raise DataParseError("bad checkpoint header %r" % first, line=1)
        for lineno, raw in enumerate(fh, 2):
            line = raw.strip()
            if line.startswith(FINGERPRINT_PREFIX):
                fingerprint = line[len(FINGERPRINT_PREFIX):]
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise DataParseError("expected 5 fields", line=lineno)
            d, *extra = parts[4].split(";")
            if len(extra) != 7:
                raise DataParseError("expected 7 ';' fields after the digest", line=lineno)
            try:
                rk = int(parts[0])
                row = (*map(float, parts[1:4]), int(extra[0]), *map(float, extra[1:]))
            except ValueError as exc:
                raise DataParseError(str(exc), line=lineno) from exc
            if rk != k:
                other_rows += 1
                continue
            if digest is None:
                digest = d
            elif d != digest:
                raise DataValidationError("mixed config digests for k=%d" % k, invariant="single-digest")
            rows.append(row)
    if not rows:
        return None
    cp = MomentCheckpoint(k, rows, digest, fingerprint, other_rows)
    cp.validate()
    return cp


def _write(fh, k: int, rows, digest: str, header: bool):
    if header:
        fh.write(HEADER + "\n" + FINGERPRINT_PREFIX + numeric_fingerprint() + "\n")
    for t, v, e, n, *sums in rows:
        fh.write("%d,%r,%r,%r,%s;%d;%r;%r;%r;%r;%r;%r\n" % (k, t, v, e, digest, n, *sums))


def _append_rows(path: str, k: int, rows, digest: str):
    """Append rows (T, v, e, n, vu, eu, cv, ce, cvu, ceu), writing the header to a new file."""
    new_file = not os.path.exists(path)
    with open(path, "a") as fh:
        _write(fh, k, rows, digest, new_file)


def _rewrite(path: str, k: int, rows, digest: str):
    """Replace path by a file of rows, written to a temporary file and
    synced to disk before it takes the place of path."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        _write(fh, k, rows, digest, True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _row_indices(acc: MomentAccumulator, t_from: float, t_target: float):
    """Indices into acc.bounds of the last boundary <= each multiple of
    CHECKPOINT_STEP below t_target and <= t_target itself, without repeats,
    above t_from."""
    acc.cover(t_from, t_target)
    targets = CHECKPOINT_STEP * np.arange(1, int(t_target // CHECKPOINT_STEP) + 2)
    targets = np.append(targets[targets < t_target], t_target)
    i = np.unique(np.searchsorted(acc.bounds, targets[targets > t_from], side="right") - 1)
    return i[acc.bounds[i] > t_from]


def extend_checkpoint(path: str, k: int, t_target: float, cfg: QuadConfig, resume: bool = True):
    """Integrate |Z|^{2k} up to t_target, appending boundary-aligned rows.

    Returns (checkpoint, (value, err) at exact t_target).  Without resume,
    refuses an existing file before integrating anything and leaves it as it
    is.  With resume, refuses a file whose digest differs from cfg's, and
    verifies the stored rows as the module docstring says before writing;
    the checkpoint's resume field says what the resume did.
    """
    existed = os.path.exists(path)
    if not resume and existed:
        raise CheckpointMismatch(
            "checkpoint %s already exists; extend it with --resume or choose another path" % path)
    digest = cfg.digest()
    stored = read_checkpoint(path, k)
    if stored is not None and stored.config_digest != digest:
        raise CheckpointMismatch(
            "checkpoint digest %s != active config digest %s" % (stored.config_digest, digest))
    here = numeric_fingerprint()
    rows = stored.rows if stored else []
    foreign = stored is not None and stored.fingerprint != here
    seed = rows[-2] if len(rows) > 1 and not foreign else ORIGIN
    # a file of another fingerprint or none that holds rows of k alone is
    # rewritten under this one once every row is back
    rewrite = foreign and not stored.other_rows
    last_t = rows[-1][0] if rows else 0.0

    acc = get_accumulator(k, cfg, seed)
    held = max(acc.index(last_t), 0)
    seeded = acc.base > 0 and acc.bounds.size == 1  # a new accumulator at the seed row
    acc.ensure(last_t)
    # the seed row and the last stored row back, or every stored row from the origin
    want = [seed] + (rows if seed is ORIGIN else rows[-1:]) if stored else []
    for w, got in zip(want, acc.rows([acc.index(w[0]) for w in want])):
        if got != w:
            if seeded:  # no later query may start from an unverified row
                drop_accumulator(k, cfg)
            msg = "stored prefix at T=%r does not reproduce under digest %s" % (w[0], digest)
            if foreign:
                msg += "; written under numeric fingerprint %s, running under %s" % (
                    stored.fingerprint or "(not recorded)", here)
            raise CheckpointMismatch(msg)
    new_rows = acc.rows(_row_indices(acc, last_t, t_target))
    v, _, e, _ = acc.cumulative_to(t_target)

    if rewrite:
        _rewrite(path, k, rows + new_rows, digest)
    elif new_rows:
        _append_rows(path, k, new_rows, digest)
    fingerprint = here if rewrite or not existed else stored and stored.fingerprint
    cp = MomentCheckpoint(k, rows + new_rows, digest, fingerprint, stored and stored.other_rows)
    if stored is not None:
        cp.resume = Resume(seed[0], last_t, max(acc.index(last_t), 0) - held)
    return cp, (v, e)
