"""simpchrom: exact chromatic polynomials of simplicial complexes and the
Stanley-Reisner identities that determine them."""

__version__ = "0.1.0"

from .analysis import (dehn_sommerville_check, log_concavity_report,
                       octahedron_boundary, reciprocity_report,
                       uniform_matroid_complex)
from .auxiliary import (AlphaAssignment, auxiliary_complex,
                        check_intersection_property, check_target_invariant,
                        hilbert_polynomial_window, lift_disjoint, lift_with_apex,
                        search_alpha, verify_constant_component,
                        verify_main_theorem)
from .chromatic import (Graph, MERGE_VERTEX, REMOVE_ONLY, chromatic_polynomial,
                        complete_graph, complex_of_graph, finite_model_count,
                        graph_chromatic, tidied_contraction,
                        verify_addition_contraction)
from .complexes import NonfaceFamily, SimplicialComplex
from .cyclotomic import (CyclotomicSpec, build_residue_subcomplex,
                         check_constant_term_detection, check_cyclotomic_homology,
                         cyclotomic_polynomial, facet_of_residue)
from .hilbert import (HVector, h_from_f, h_vector,
                      numerator_by_inclusion_exclusion, numerator_from_h,
                      series_coefficients, standard_monomial_count)
from .homology import (IntegerMatrix, boundary_matrix, reduced_homology,
                       smith_normal_form)
from .polynomials import (IntPolynomial, brenti_criterion, format_poly,
                          is_log_concave, is_signed_palindrome, reciprocal,
                          substitute_shift)
from .report import CheckReport, GuardError
