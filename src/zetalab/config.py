"""Run configuration: quadrature policy, precision, file paths.

The numerically relevant subset of the configuration is hashed into a digest
that binds checkpoints to the settings that produced them; resuming under a
different digest is refused.  The kernel's branch policy is not configurable:
it enters the digest as KERNEL_VERSION.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from .errors import DataParseError

KERNEL_VERSION = "zk3"
# the (2 nodes + 1)-point rule of quadrature.kronrod_rule on panels two mesh cells wide
PANEL_RULE = "gauss-kronrod/2-cell"

# Fields whose value changes the numbers an integration produces.
_NUMERIC_FIELDS = (
    "nodes",
    "gap_fraction",
    "w_min",
    "w_max",
    "max_depth",
    "panel_rel",
    "panel_abs",
    "window_w",
    "laplace_cmaj",
    "laplace_tail_abs",
    "weight_cmaj",
    "checkpoint_step",
)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature policy shared by all moment operations.

    Every field enters the digest.  The float64 kernel (zetalab.zkernel) has
    no fields here: its branch switch, RS corrections and error model are
    constants of KERNEL_VERSION.
    """

    nodes: int = 16              # Gauss nodes per panel; with their Kronrod nodes 2n+1 points
    gap_fraction: float = 0.5    # cell width as a fraction of the local mean zero gap;
                                 # a quadrature panel spans two cells
    w_min: float = 0.05
    w_max: float = 2.0
    max_depth: int = 12
    panel_rel: float = 1e-10     # refine when |G_n - K_2n+1| exceeds these
    panel_abs: float = 1e-9
    window_w: float = 6.0        # Gaussian truncation in units of delta
    laplace_cmaj: float = 10.0   # disclosed majorant constant for Laplace tails
    laplace_tail_abs: float = 1e-8
    weight_cmaj: float = 10.0    # spectral weight growth majorant c_j <= C kappa^3
    checkpoint_step: float = 100.0

    def digest(self) -> str:
        parts = ["kernel=%s" % KERNEL_VERSION, "rule=%s" % PANEL_RULE]
        parts += ["%s=%r" % (name, getattr(self, name)) for name in _NUMERIC_FIELDS]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """CLI-level configuration: precision, quadrature policy, checkpoint path, output."""

    precision_bits: int = 128
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    quad: QuadConfig = field(default_factory=QuadConfig)
    checkpoint_path: str = "zetalab-checkpoint.txt"
    output_format: str = "csv"                # or "jsonl"

    def context(self):
        from .precision import PrecisionContext

        return PrecisionContext(self.precision_bits, self.abs_tol, self.rel_tol)

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


_BOOLISH = {"true": True, "false": False}


def _coerce(text: str, like):
    if isinstance(like, bool):
        return _BOOLISH[text.lower()]
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    return text


def load_config(path: str) -> RunConfig:
    """Read a flat key=value config file; unknown keys are an error."""
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
            if key.startswith("quad."):
                qkey = key[5:]
                if qkey not in quad_fields:
                    raise DataParseError("unknown config key %r" % key, line=lineno)
                quad_kwargs[qkey] = _coerce(val, getattr(defaults.quad, qkey))
            elif key in run_fields:
                run_kwargs[key] = _coerce(val, getattr(defaults, key))
            else:
                raise DataParseError("unknown config key %r" % key, line=lineno)
    quad = replace(defaults.quad, **quad_kwargs) if quad_kwargs else defaults.quad
    return replace(defaults, quad=quad, **run_kwargs)
