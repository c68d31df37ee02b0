"""Spectra of Schreier graphs of self-similar groups via Schur renormalization.

Subpackages and modules:

- ``groups``        wreath recursions and their level actions on rooted trees
- ``exact``         exact linear algebra over Q: sparse determinants, row reduction
- ``pencils``       operator pencils, exact determinants, Schur recursions
- ``spectra``       eigenvalue measures, densities of states, limit laws
- ``ratmaps``       exact projective rational maps, degree growth, potentials
- ``conjugacy``     symbolic (semi-)conjugacy checks
- ``experiments``   equidistribution experiments on the model systems
- ``verification``  contracted curves, fixed curves and indeterminacy points
- ``cohomology``    intersection calculus on plane blow-ups, invariant classes
- ``output``        deterministic CSV/JSON/SVG/PGM writers
- ``cli``           batch front-end writing CSV/JSON/SVG artifacts
"""

__version__ = "0.1.0"
