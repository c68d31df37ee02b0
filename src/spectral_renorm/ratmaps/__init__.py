"""Exact projective rational-map algebra.

The renormalization maps live on the projective plane and are represented by
triples of coprime homogeneous polynomials with integer coefficients.  This
subpackage provides:

- ``poly``      sparse exact-rational multivariate polynomials
- ``modp``      polynomials and binary forms over F_p, p < 2^31, and their gcd
- ``maps``      the builtin maps, exact evaluation, composition of forms
                (``compose``) and projective equality (``proportional``); the
                facts checked with them are rows of ``verification.FACTS``
- ``charts``    empty, kept only while ``bench/run.py`` imports it
- ``degrees``   degree growth along random lines over F_p, dynamical degrees
                (its first iterate certifies that the components are coprime,
                ``verification.components_coprime``)
- ``potential`` the renormalized logarithmic potential of a determinant cascade,
                with its float evaluator of forms (``PowerTable``, ``_grid_eval``)
                and the rounding bound ``_error_bound``
"""
