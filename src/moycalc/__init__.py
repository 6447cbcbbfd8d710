"""moycalc: exact quantum sl(k) web calculus and companions.

Layers (each importable on its own):

- ``qlaurent``   exact Laurent polynomials in q
- ``symhecke``   symmetric groups, Hecke algebra, Kazhdan-Lusztig bases,
  parabolic sign modules, translation combinatorics
- ``boxcomb``    box diagrams, column-strict fillings, the wedge-basis
  bijection, and the diagrammatic split/merge operators
- ``weblin``     tensor/wedge linear algebra: the local window maps and
  intertwiner matrices for web generators, and the crossing matrices
- ``webgraph``   a text format for closed/open webs and their evaluation
- ``tangleinv``  oriented tangles, the link polynomial, skein and
  Reidemeister checks, and the Grothendieck comparison map
- ``foamalg``    the rank-3 Frobenius/flag-ring shadow of the foam
  category, with degree bookkeeping
- ``verify``     the table of verification suites and the bijection,
  Hecke and transport sweeps
- ``cli``        the ``moycalc`` command-line entry point
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = ["__version__"]
