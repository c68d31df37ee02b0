"""Exact projective rational-map algebra.

The renormalization maps live on the projective plane and are represented by
triples of coprime homogeneous polynomials with integer coefficients.  This
subpackage provides:

- ``poly``      sparse exact-rational multivariate polynomials and binary forms
- ``maps``      the builtin maps, exact/float evaluation, projective equality
                (``proportional``) and indeterminacy verification
- ``charts``    blow-up chart computations (images of exceptional divisors)
- ``degrees``   degree growth along generic lines and dynamical degrees
- ``potential`` the renormalized logarithmic potential of a determinant cascade
"""

from spectral_renorm.ratmaps.poly import MultiPoly, BinaryForm
from spectral_renorm.ratmaps.maps import (
    IndeterminacyError,
    RationalMapP2,
    builtin_map,
    proportional,
    univar,
    verify_indeterminacy,
)
from spectral_renorm.ratmaps.degrees import compose_along_line, dynamical_degree
from spectral_renorm.ratmaps.potential import RecursionPotential, potential, potential_grid

__all__ = [
    "MultiPoly",
    "BinaryForm",
    "IndeterminacyError",
    "RationalMapP2",
    "builtin_map",
    "proportional",
    "univar",
    "verify_indeterminacy",
    "compose_along_line",
    "dynamical_degree",
    "RecursionPotential",
    "potential",
    "potential_grid",
]
