"""Numerical toolkit for holomorphic differentials on explicit curves.

Submodules:

- ``pairindex``: enumeration of unordered index pairs and the symmetric
  square calculus built on it.
- ``linalg``: small dense complex linear algebra on LAPACK, with
  degeneracy certificates and Hadamard-bound normalized determinant
  residuals.
- ``curves``: plane and hyperelliptic curve models, point sampling and
  curve description files.
- ``bases``: bases of holomorphic n-differentials, cardinal bases
  normalized at anchor points, and pair-product expansions.
- ``petri``: determinantal relations among products of 1-differentials
  on canonical curves and explicit relation coefficients.
- ``siegel``: the Siegel upper half-space metric, symplectic transport,
  volume-form minors and the Bergman pairing.
- ``theta``: Riemann theta functions with half-integer characteristics
  and trisecant-type identity checks.
- ``jacobian``: period matrices and the Abel map for real hyperelliptic
  curves via adaptive singular quadrature.
"""

__version__ = "0.1.0"
