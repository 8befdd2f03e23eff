"""factorum: factorization-theoretic invariants for noncommutative
cancellative semigroups given by finite presentations, for monoids of
zero-sum sequences over finite abelian groups, and for integer triangular
and full matrix semigroups."""

from .presentation import (AdyanReport, AtomAnswer, AtomKind, BudgetOverride,
                           CongruenceBall, Element, EmptyRelationSideError,
                           Equality, ExplorationBudget, Presentation,
                           PresentationError, PresentationSemigroup, Relation,
                           UndeclaredGeneratorError, check_adyan,
                           parse_presentation)
from .handles import FactorialVectorHandle, SemigroupHandle
from .factorizations import (FactorizationSet, LengthSet,
                             PermutableFactorization, RigidFactorization,
                             length_profile, permutable_factorizations,
                             rigid_factorizations)
from .distances import (Alignment, AxiomReport, DistanceKind,
                        InstanceTooLarge, distance, length_distance,
                        permutable_distance, rigid_distance,
                        rigid_distance_alignment, rigid_distance_oracle,
                        verify_axioms)
from .catenary import (CatenaryReport, ChainWitness, adjacent_catenary,
                       catenary, catenary_in_fibers, equal_catenary,
                       monotone_catenary, semigroup_catenary)
from .divisibility import (AlmostPrimeLikeReport, DivisibilityKind,
                           NotAlmostPrimeLikeError, OmegaReport, TameReport,
                           ValuationSet, divides, divides_p,
                           is_almost_prime_like, is_prime_like,
                           min_subproduct_k, occurs_in, omega_element,
                           omega_semigroup, tame_element, tame_semigroup,
                           valuation_set)
from .zerosum import (BlockMonoidHandle, FiniteAbelianGroup, GroupTooLarge,
                      OrderBoundReport, atoms_of_block_monoid, block_catenary,
                      davenport, invariant_factors, maximal_order_bound,
                      zero_sum_sequences)
from .matrices import (AtomProfile, DetTooLargeError, FullMatrixHandle,
                       NotAtomError, SnfResult, TransferMap, TransferReport,
                       TriangularMatrixHandle, annihilator_profile, delta_map,
                       delta_transfer_map, det_transfer, det_transfer_map,
                       identity_transfer_map, mat_is_atom, mat_left_divisors,
                       parse_matrix, snf, snf_ascending,
                       tri_associate_normal_form, tri_atoms_associated,
                       tri_is_atom, tri_left_divisors,
                       verify_transfer_properties)
from .abelianization import (CommutativeVectorSemigroup, EquivPWitness,
                             ExwtReport, LengthMapReport, abelianize,
                             check_exwt, equiv_p, length_map,
                             weak_transfer_counterexample)
from .reports import Certification, InvariantReport

__version__ = "0.1.0"
