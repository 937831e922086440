"""The mpmath working precision of the exact constants.

Every functional is float64 panel quadrature over zetalab.zkernel; only the
constants of its main terms (zetalab.constants) are computed in mpmath, once,
at DEFAULT_CTX's precision plus guard bits, and rounded to float64.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import workprec

from .errors import DomainError

GUARD_BITS = 12


@dataclass(frozen=True)
class PrecisionContext:
    """Working binary precision: work_bits mantissa bits plus GUARD_BITS."""

    work_bits: int = 128

    def __post_init__(self):
        if self.work_bits < 64:
            raise DomainError("work_bits must be >= 64, got %r" % (self.work_bits,))

    def workprec(self):
        """mpmath context manager setting work_bits + guard bits."""
        return workprec(self.work_bits + GUARD_BITS)


DEFAULT_CTX = PrecisionContext()
