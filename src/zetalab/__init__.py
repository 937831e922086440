"""zetalab: numerical laboratory for critical-line moments of the zeta-function.

Layers:
  precision / constants            -- precision-contexted arithmetic core
  zeta                             -- zeta(1/2+it) with an error bound
  zkernel                          -- fast vectorized float64 Z evaluator
  quadrature / moments             -- error-controlled moment integrals, E1/E2
  laplace / scans                  -- Laplace transforms, sign-change scans
  checkpoint                       -- resumable running-integral store
  spectral                         -- Maass-form data and Motohashi's spectral sum
  arith                            -- divisor correlations and Kloosterman sums
  cli                              -- command-line front end
"""

__version__ = "0.1.0"

from .precision import DEFAULT_CTX, PrecisionContext, ValueWithError

__all__ = ["DEFAULT_CTX", "PrecisionContext", "ValueWithError", "__version__"]
