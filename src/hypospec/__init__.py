"""Exact and numeric verification for the doubled-cycle hypergraph pairs.

`polyalg` carries the exact sparse polynomial ring and its endomorphisms,
`hypergraph` the uniform hypergraph container and file formats, `families`
the recursive constructions, `spectral` the adjacency-tensor eigenpair
machinery, `iso` canonical labeling and decks, and `verify` turns the whole
stack into pass/fail claims.  `cli` exposes everything as subcommands.
"""

from .families import (FAMILY_TAGS, FamilySpec, base_cycles, e_map,
                       family_hypergraph, family_poly, mod_v,
                       orbit_substitution, p_eps, p_map, q_map, sigma_endo,
                       sigma_perm, tau_endo, theta_endo, theta_perm)
from .hypergraph import (BadCoefficientError, Hypergraph, NonSquarefreeError,
                         UnknownVertexError, WrongDegreeError,
                         hypergraph_from_lagrangian, lagrangian_of)
from .iso import (CanonicalForm, Deck, SizeBoundExceededError,
                  are_isomorphic, automorphism_count, canonical_form, deck,
                  delete_vertex, hypomorphic)
from .polyalg import Endomorphism, MissingVariableError, SparsePoly, x
from .spectral import (EigenPair, NotConnectedError, SolverConfig, codegree,
                       degree, is_connected, lagrangian_value, oracle_radius,
                       principal_eigenpair, rational_bracket,
                       refined_eigenvector, report_record, residual_at,
                       tensor_apply, vector_digest)
from .verify import (Claim, claims_to_json, cone_over, f_poly,
                     fixed_point_map, pair_gap_poly, run_suite,
                     verify_basis_step, verify_identity_suite,
                     verify_induction_cycles, verify_induction_neigh,
                     verify_main_theorem, verify_neigh_general,
                     verify_regular_cone, verify_sigma_general,
                     write_verdict)

__version__ = "0.1.0"

__all__ = [
    "FAMILY_TAGS", "FamilySpec", "base_cycles", "e_map", "family_hypergraph",
    "family_poly", "mod_v", "orbit_substitution", "p_eps", "p_map", "q_map",
    "sigma_endo", "sigma_perm", "tau_endo", "theta_endo", "theta_perm",
    "BadCoefficientError", "Hypergraph", "NonSquarefreeError",
    "UnknownVertexError", "WrongDegreeError", "hypergraph_from_lagrangian",
    "lagrangian_of",
    "CanonicalForm", "Deck", "SizeBoundExceededError", "are_isomorphic",
    "automorphism_count", "canonical_form", "deck", "delete_vertex",
    "hypomorphic",
    "Endomorphism", "MissingVariableError", "SparsePoly", "x",
    "EigenPair", "NotConnectedError", "SolverConfig", "codegree", "degree",
    "is_connected", "lagrangian_value", "oracle_radius",
    "principal_eigenpair", "rational_bracket", "refined_eigenvector",
    "report_record", "residual_at", "tensor_apply", "vector_digest",
    "Claim", "claims_to_json", "cone_over", "f_poly", "fixed_point_map",
    "pair_gap_poly", "run_suite", "verify_basis_step",
    "verify_identity_suite", "verify_induction_cycles",
    "verify_induction_neigh", "verify_main_theorem", "verify_neigh_general",
    "verify_regular_cone", "verify_sigma_general", "write_verdict",
    "__version__",
]
