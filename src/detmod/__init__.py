"""Exact toolkit for grid persistence modules with points at minus infinity.

Modules over the integer grid that are determined by a box of data are
extended to the grid with -inf coordinates, where finite point sets can
determine them outright.  The package decides that determinacy, builds and
checks finite encodings, locates births and deaths, and constructs verified
finite presentations, all over exact prime field or rational coefficients.
"""

from .errors import CommutativityError, DetmodError, InputError, NotDeterminedError
from .extgrid import (Box, CartesianSet, NEG_INF, as_point, convex_projection,
                      critical_grid, ext_box, extended_projection, in_upset,
                      is_integral, join_below, join_closure, leq, lt, meet_above,
                      min_point, mub, point_sort_key, pointed_closure, sort_points)
from .linalg import (DiagramCheck, Matrix, PosetDiagram, PrimeField, QQ,
                     RationalField, cokernel_projection, diagrams_isomorphic, hstack,
                     is_invertible, kernel_basis, poset_covers, rank, solve,
                     validate_diagram)
from .grid_module import GridModule, restrict_view, window_module
from .determinacy import (DeterminacyReport, canonical_grid, canonical_set, check_encoding,
                          default_oracle_window, encode, is_S_determined,
                          is_S_determined_oracle)
from .presentation import (BirthDeathReport, Presentation, PresentationCheck,
                           births_deaths, build_presentation,
                           diagram_births_deaths, is_admissible,
                           verify_presentation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
