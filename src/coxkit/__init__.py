"""coxkit: exact computation in Coxeter groups at desk scale.

Length-bounded balls of arbitrary Coxeter systems (one exact engine
that builds the Cayley table level by level and follows free words
past the radius), reflections and the reflection order, intermediate
and k-absolute orders, parabolic projections, poset analytics
(gradedness, Sperner, shellability), distance generating polynomials,
and exploratory Ollivier-Ricci curvature.
"""
from .ball import GroupBall, enumerate_ball
from .curvature import curvature_spectrum, ollivier_ricci_edge
from .errors import (CoxkitError, DomainError, IncompleteSliceError,
                     OutOfBallError, ResourceError)
from .matrices import INF, CoxeterMatrix, named_matrix, parse_coxeter_matrix
from .orders import (intermediate_poset, k_absolute_length_all,
                     k_absolute_poset, omega_graph, refinement_chain_check)
from .polynomials import (CoeffVector, count_t_k_type_A, dihedral_formula_poly,
                          gen_poly, is_log_concave, is_unimodal)
from .posets import (Poset, check_graded, is_graded, max_h_family, nc_lattice,
                     order_complex, poset_isomorphic, shellability,
                     strong_sperner_check)
from .projections import (parabolic_decompose, phi_k_image_poset,
                          project_PJ, project_QJ, projection_map,
                          projection_monoid, is_order_preserving)
from .reflections import (dihedral_subgroup, reflections_in_ball, t_k_set,
                          t_order_poset)
from .wordcore import IMPLEMENTATION as WORDCORE_IMPLEMENTATION
from .wordcore import is_reduced, normal_form, reduce_word

__version__ = "1.0.0"

__all__ = [
    "CoxeterMatrix", "INF", "named_matrix", "parse_coxeter_matrix",
    "GroupBall", "enumerate_ball", "reduce_word", "normal_form",
    "is_reduced", "reflections_in_ball", "t_k_set", "dihedral_subgroup",
    "t_order_poset", "omega_graph", "intermediate_poset",
    "k_absolute_length_all", "k_absolute_poset", "refinement_chain_check",
    "parabolic_decompose", "project_PJ", "project_QJ", "projection_map",
    "is_order_preserving", "phi_k_image_poset", "projection_monoid",
    "Poset", "check_graded", "is_graded", "max_h_family",
    "strong_sperner_check", "order_complex", "shellability",
    "poset_isomorphic", "nc_lattice", "CoeffVector", "gen_poly",
    "is_log_concave", "is_unimodal", "dihedral_formula_poly",
    "count_t_k_type_A", "ollivier_ricci_edge", "curvature_spectrum",
    "CoxkitError", "DomainError", "OutOfBallError", "ResourceError",
    "IncompleteSliceError", "WORDCORE_IMPLEMENTATION",
]
