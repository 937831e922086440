"""Run configuration: quadrature policy, checkpoint path, output format.

The numerically relevant subset of the configuration is hashed into a digest
that binds checkpoints to the settings that produced them; resuming under a
different digest is refused.  The kernel's branch policy is not configurable:
it enters the digest as KERNEL_VERSION.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .errors import DataParseError, DomainError

KERNEL_VERSION = "zk8"
# the (2 nodes + 1)-point rule of quadrature.kronrod_rule with its charge
# (quadrature.panel_rule), once per panel of four mesh cells, cell i ending at
# F^-1(i), graded toward t = 0 (quadrature.cell_ends)
PANEL_RULE = "gauss-kronrod/4-cell/graded-F-inverse"


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature policy shared by all moment operations.

    Every field enters the digest.  The float64 kernel (zetalab.zkernel) has
    no fields here: its branch switch, RS corrections and error model are
    constants of KERNEL_VERSION.  Each panel takes one rule, so a coarser
    mesh (larger gap_fraction) shows in err_bound, not in more rules.
    """

    nodes: int = 16              # Gauss nodes per panel; with their Kronrod nodes 2n+1 points
    gap_fraction: float = 0.5    # cell width as a fraction of the local mean zero gap
                                 # (cell i ends at F^-1(i), quadrature.cell_ends);
                                 # a quadrature panel spans four cells
    window_w: float = 6.0        # Gaussian truncation in units of delta
    laplace_cmaj: float = 10.0   # disclosed majorant constant for Laplace tails
    laplace_tail_abs: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not (math.isfinite(v) and v > 0):
                raise DomainError("quad.%s must be finite and > 0, got %r" % (f.name, v))
        if self.nodes < 1:
            raise DomainError("quad.nodes must be >= 1, got %r" % self.nodes)

    def digest(self) -> str:
        parts = ["kernel=%s" % KERNEL_VERSION, "rule=%s" % PANEL_RULE]
        parts += ["%s=%r" % (f.name, getattr(self, f.name)) for f in fields(self)]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """CLI-level configuration: quadrature policy, checkpoint path, output."""

    quad: QuadConfig = field(default_factory=QuadConfig)
    checkpoint_path: str = "zetalab-checkpoint.txt"
    output_format: str = "csv"                # or "jsonl"

    def __post_init__(self):
        if self.output_format not in ("csv", "jsonl"):
            raise DomainError("output_format must be csv or jsonl, got %r" % self.output_format)

    def echo_lines(self):
        """Effective configuration as '#' comment lines for output headers."""
        lines = ["# zetalab config v1"]
        for f in fields(self):
            if f.name == "quad":
                continue
            lines.append("# %s=%s" % (f.name, getattr(self, f.name)))
        for f in fields(self.quad):
            lines.append("# quad.%s=%s" % (f.name, getattr(self.quad, f.name)))
        lines.append("# quad.digest=%s" % self.quad.digest())
        return lines


def _coerce(text: str, like):
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    return text


def load_config(path: str) -> RunConfig:
    """Read a flat key=value config file; unknown keys and values that do
    not parse are an error naming the line."""
    run_kwargs = {}
    quad_kwargs = {}
    run_fields = {f.name: f for f in fields(RunConfig) if f.name != "quad"}
    quad_fields = {f.name: f for f in fields(QuadConfig)}
    defaults = RunConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataParseError("expected key=value", line=lineno)
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            name, known, kwargs, like = (
                (key[5:], quad_fields, quad_kwargs, defaults.quad) if key.startswith("quad.")
                else (key, run_fields, run_kwargs, defaults))
            if name not in known:
                raise DataParseError("unknown config key %r" % key, line=lineno)
            try:
                kwargs[name] = _coerce(val, getattr(like, name))
            except ValueError as exc:
                raise DataParseError("bad value for %s: %s" % (key, exc), line=lineno) from exc
    quad = replace(defaults.quad, **quad_kwargs) if quad_kwargs else defaults.quad
    return replace(defaults, quad=quad, **run_kwargs)
