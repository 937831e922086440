"""zetalab: numerical laboratory for critical-line moments of the zeta-function.

Layers:
  precision / constants            -- mpmath precision of the exact main-term constants
  zkernel                          -- vectorized float64 Z(t) with an error bound
  quadrature / moments             -- error-controlled moment integrals, E1/E2
  laplace / scans                  -- Laplace transforms, sign-change scans
  checkpoint                       -- resumable running-integral store
  spectral                         -- Maass-form data and Motohashi's spectral sum
  cli                              -- command-line front end
"""

__version__ = "0.1.0"

from .precision import DEFAULT_CTX, PrecisionContext

__all__ = ["DEFAULT_CTX", "PrecisionContext", "__version__"]
