"""Shared constants, computed once per precision context and cached."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .gammafn import zeta_prime_at_2
from .precision import PrecisionContext

# (a2, a1, a0) of the fourth-moment polynomial P4(y) = a4 y^4 + ... + a0 in
# int_0^T |zeta(1/2+it)|^4 dt = T P4(log T) + E2(T): derived, not fitted, by
# exact Taylor-coefficient extraction from the CFKRS residue formula
# (tools/derive_p4.py prints them; tests check a fresh derivation).
P4_LOWER = (-0.7720101924359035, 1.6786022638050193, -1.864829877837639)


@dataclass(frozen=True)
class Constants:
    euler_gamma: mpf
    log_2pi: mpf
    zeta_prime_2: mpf
    pi: mpf


@lru_cache(maxsize=32)
def _constants_for_bits(work_bits: int) -> Constants:
    ctx = PrecisionContext(work_bits=work_bits, abs_tol=1e-12, rel_tol=1e-12)
    with ctx.workprec():
        return Constants(
            euler_gamma=+mp.euler,
            log_2pi=mp.log(2 * mp.pi),
            zeta_prime_2=zeta_prime_at_2(ctx).value,
            pi=+mp.pi,
        )


def constants_for(ctx: PrecisionContext) -> Constants:
    return _constants_for_bits(ctx.work_bits)


def second_moment_constant(ctx: PrecisionContext) -> mpf:
    """Constant term of the second-moment polynomial: 2*gamma - 1 - log(2 pi)."""
    c = constants_for(ctx)
    with ctx.workprec():
        return 2 * c.euler_gamma - 1 - c.log_2pi


def fourth_moment_a4(ctx: PrecisionContext) -> mpf:
    """Leading fourth-moment coefficient 1/(2 pi^2)."""
    c = constants_for(ctx)
    with ctx.workprec():
        return 1 / (2 * c.pi**2)


def fourth_moment_a3(ctx: PrecisionContext) -> mpf:
    """Second fourth-moment coefficient 2(4g - 1 - log 2pi - 12 zeta'(2)/pi^2)/pi^2."""
    c = constants_for(ctx)
    with ctx.workprec():
        inner = 4 * c.euler_gamma - 1 - c.log_2pi - 12 * c.zeta_prime_2 / c.pi**2
        return 2 * inner / c.pi**2
