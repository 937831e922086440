"""Precision contexts and error-carrying values.

Every numeric operation in the package takes a PrecisionContext and returns
its result together with an explicit absolute-error estimate.  Arithmetic is
done with mpmath at the context's binary precision (plus guard bits); the
context is immutable and safe to share between threads.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import NamedTuple

from mpmath import workprec

from .errors import DomainError

GUARD_BITS = 12


class ValueWithError(NamedTuple):
    """A computed value and an absolute-error estimate for it."""

    value: typing.Any
    err: float


@dataclass(frozen=True)
class PrecisionContext:
    """Working binary precision plus target tolerances.

    work_bits is the mantissa size used for intermediate arithmetic; abs_tol
    and rel_tol are the tolerances an operation's error estimate must respect
    before it may return without raising PrecisionFailure.
    """

    work_bits: int = 128
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.work_bits < 64:
            raise DomainError("work_bits must be >= 64, got %r" % (self.work_bits,))
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError("%s must lie in (0, 1), got %r" % (name, v))

    @property
    def eps(self) -> float:
        """Unit roundoff at working precision."""
        return 2.0 ** (1 - self.work_bits)

    def workprec(self):
        """mpmath context manager setting work_bits + guard bits."""
        return workprec(self.work_bits + GUARD_BITS)

    def tolerance_for(self, magnitude: float) -> float:
        """Largest acceptable absolute error for a value of given magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(magnitude))


DEFAULT_CTX = PrecisionContext()


def mag(z) -> float:
    """Cheap float magnitude of an mpf/mpc/complex value (0 if exactly 0)."""
    try:
        return float(abs(z))
    except OverflowError:
        return float("inf")
