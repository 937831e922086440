"""Persisted running moment integrals, resumable by T.

File format (line-delimited text, decimal at full round-trip precision):
    # zetalab-checkpoint v1
    # fingerprint: <numeric fingerprint of the writing environment>
    k,T,cumulative_value,cumulative_err,config_digest
Rows are boundary-aligned: every stored T lies on the deterministic panel
mesh, so any prefix reproduces bit-for-bit when the config digest and the
numeric fingerprint (quadrature.numeric_fingerprint) match.  Files without
the fingerprint line still load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import QuadConfig
from .errors import CheckpointMismatch, DataParseError, DataValidationError
from .quadrature import MomentAccumulator, get_accumulator, numeric_fingerprint

HEADER = "# zetalab-checkpoint v1"
FINGERPRINT_PREFIX = "# fingerprint: "


@dataclass
class MomentCheckpoint:
    k: int
    grid: list  # [(T, cumulative_value, cumulative_err), ...] strictly increasing T
    config_digest: str
    fingerprint: str | None = None  # None for files written before it was recorded

    def validate(self):
        prev_t = -1.0
        prev_v = -1.0
        for t, v, e in self.grid:
            if t <= prev_t:
                raise DataValidationError(
                    "checkpoint T not strictly increasing at T=%r" % t,
                    invariant="strictly-increasing-T",
                )
            if v < prev_v:
                raise DataValidationError(
                    "cumulative value decreased at T=%r" % t,
                    invariant="non-decreasing-value",
                )
            if e < 0:
                raise DataValidationError(
                    "negative error bound at T=%r" % t, invariant="nonnegative-err"
                )
            prev_t, prev_v = t, v


def read_checkpoint(path: str, k: int) -> MomentCheckpoint | None:
    if not os.path.exists(path):
        return None
    grid = []
    digest = fingerprint = None
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
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
            try:
                rk = int(parts[0])
                t, v, e = float(parts[1]), float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise DataParseError(str(exc), line=lineno) from exc
            d = parts[4]
            if rk != k:
                continue
            if digest is None:
                digest = d
            elif d != digest:
                raise DataValidationError(
                    "mixed config digests for k=%d" % k, invariant="single-digest"
                )
            grid.append((t, v, e))
    if not grid:
        return None
    cp = MomentCheckpoint(k=k, grid=grid, config_digest=digest, fingerprint=fingerprint)
    cp.validate()
    return cp


def _append_rows(path: str, k: int, rows, digest: str):
    new_file = not os.path.exists(path)
    with open(path, "a") as fh:
        if new_file:
            fh.write(HEADER + "\n" + FINGERPRINT_PREFIX + numeric_fingerprint() + "\n")
        for t, v, e in rows:
            fh.write("%d,%r,%r,%r,%s\n" % (k, t, v, e, digest))


def _row_indices(acc: MomentAccumulator, t_target: float, step: float):
    """Indices into acc.bounds of the last boundary <= each multiple of step
    below t_target and <= t_target itself, without repeats or T = 0."""
    acc.ensure(t_target)
    targets = step * np.arange(1, int(t_target // step) + 2)
    targets = np.append(targets[targets < t_target], t_target)
    i = np.unique(np.searchsorted(acc.bounds, targets, side="right") - 1)
    return i[acc.bounds[i] > 0]


def extend_checkpoint(path: str, k: int, t_target: float, cfg: QuadConfig, resume: bool = True):
    """Integrate |Z|^{2k} up to t_target, appending boundary-aligned rows.

    Returns (checkpoint, (value, err) at exact t_target).  Refuses to extend a
    file whose digest differs from cfg's; with resume, the last stored row is
    recomputed and must match bit-for-bit.
    """
    digest = cfg.digest()
    existing = read_checkpoint(path, k) if resume else None
    if existing is not None and existing.config_digest != digest:
        raise CheckpointMismatch(
            "checkpoint digest %s != active config digest %s"
            % (existing.config_digest, digest)
        )
    acc = get_accumulator(k, cfg)
    i = _row_indices(acc, t_target, cfg.checkpoint_step)
    pv, _, pe, _ = acc.prefix()
    # tolist: plain floats, so rows are written as repr(float) decimals
    rows = list(zip(acc.bounds[i].tolist(), pv[i].tolist(), pe[i].tolist()))

    last_t = existing.grid[-1][0] if existing else -1.0
    if existing is not None:
        # Bit-for-bit reproduction of the stored prefix at its last row.
        i = acc.n_panels_to(last_t)
        if acc.bounds[i] != last_t or float(pv[i]) != existing.grid[-1][1]:
            msg = "stored prefix at T=%r does not reproduce under digest %s" % (last_t, digest)
            here = numeric_fingerprint()
            if existing.fingerprint != here:
                msg += "; written under numeric fingerprint %s, running under %s" % (
                    existing.fingerprint or "(not recorded)", here)
            raise CheckpointMismatch(msg)
    new_rows = [r for r in rows if r[0] > last_t]
    if new_rows:
        _append_rows(path, k, new_rows, digest)

    v, _, e, _ = acc.cumulative_to(t_target)
    cp = read_checkpoint(path, k)
    return cp, (v, e)
