"""Numerical toolkit for Berezin-Toeplitz quantization on the flat two-torus.

The package verifies, at desk scale, the semiclassical asymptotics of two
kernels attached to a quantized Hamiltonian on T^2 = R^2/Z^2 with symplectic
form 4*pi dp^dq:

* the quantum propagator exp(-i k t T_k(H)) restricted to the graph of the
  classical flow, against a geometric predictor built from parallel
  transport, a metaplectic-style amplitude, and the subprincipal action;
* the smoothed spectral projector f(k(E - T_k(H))), against a sum over
  classical return times on the energy level.

Modules
-------
symplin   the torus's 2 x 2 linear algebra on the standard complex
          structure: symplecticity, det^{1,0} directly and by polar
          factors, square roots on the branch an argument estimate picks
torusgeo  the fixed torus phase space: autonomous symbols of (p, q), flows,
          the prequantum phase, amplitudes, return times
thetaq    quantum spaces: theta-function basis, Gram/Toeplitz matrices
propkern  exact kernels (any spectral function of an operator; propagators
          of multi-diagonal operators matrix-free), propagator
          predictors, and their comparison
specproj  smoothed spectral projector kernels, exact and asymptotic
harness   command-line entry point, config handling, CSV/JSON reports

Importing the package sets OPENBLAS_NUM_THREADS=1 unless it is already set,
before numpy loads, so every BLAS call runs on the calling thread; a table
depends on the thread count only in the last digits of the eigh routes.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy first loads it.  Most products here are
# small: waking a sleeping second worker for one (about 23 ms) costs far more
# than the product (under 1 ms).  The projector's dense eigh is the one call a
# second thread speeds up, about 1.5x at dim 400-800 (README, "Environment").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

__all__ = ["__version__"]
