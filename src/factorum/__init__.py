"""factorum: factorization-theoretic invariants for noncommutative
cancellative semigroups given by finite presentations, for monoids of
zero-sum sequences over finite abelian groups, and for integer triangular
and full matrix semigroups.

The package loads no layer module on import: each public name below is
imported from its module the first time it is read (PEP 562), and so is
each submodule read as ``factorum.<submodule>``.  A command therefore
compiles only the layers it uses."""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("presentation", "AdyanReport AtomAnswer AtomKind BudgetOverride "
     "CongruenceBall Element EmptyRelationSideError Equality "
     "ExplorationBudget Presentation PresentationError PresentationSemigroup "
     "Relation UndeclaredGeneratorError check_adyan parse_presentation"),
    ("handles", "FactorialVectorHandle SemigroupHandle"),
    ("factorizations", "FactorizationSet LengthSet PermutableFactorization "
     "RigidFactorization length_profile permutable_factorizations "
     "rigid_factorizations"),
    ("distances", "Alignment AxiomReport DistanceKind InstanceTooLarge "
     "distance length_distance permutable_distance rigid_distance "
     "rigid_distance_alignment rigid_distance_oracle verify_axioms"),
    ("catenary", "CatenaryReport ChainWitness adjacent_catenary catenary "
     "catenary_in_fibers equal_catenary monotone_catenary "
     "semigroup_catenary"),
    ("divisibility", "AlmostPrimeLikeReport DivisibilityKind "
     "NotAlmostPrimeLikeError OmegaReport TameReport ValuationSet divides "
     "divides_p is_almost_prime_like is_prime_like min_subproduct_k "
     "occurs_in omega_element omega_semigroup tame_element tame_semigroup "
     "valuation_set"),
    ("zerosum", "BlockMonoidHandle FiniteAbelianGroup GroupTooLarge "
     "OrderBoundReport atoms_of_block_monoid block_catenary davenport "
     "invariant_factors maximal_order_bound zero_sum_sequences"),
    ("matrices", "AtomProfile DetTooLargeError FullMatrixHandle NotAtomError "
     "SnfResult TransferMap TransferReport TriangularMatrixHandle "
     "annihilator_profile delta_map delta_transfer_map det_transfer "
     "det_transfer_map identity_transfer_map mat_is_atom mat_left_divisors "
     "parse_matrix snf snf_ascending tri_associate_normal_form "
     "tri_atoms_associated tri_is_atom tri_left_divisors "
     "verify_transfer_properties"),
    ("abelianization", "CommutativeVectorSemigroup EquivPWitness ExwtReport "
     "LengthMapReport abelianize check_exwt equiv_p length_map "
     "weak_transfer_counterexample"),
    ("reports", "Certification InvariantReport"),
) for name in names.split()}

_SUBMODULES = frozenset((
    "abelianization", "arith", "catenary", "cli", "distances",
    "divisibility", "factorizations", "handles", "matrices", "presentation",
    "presets", "regression", "reports", "zerosum"))

__all__ = tuple(_EXPORTS)


def __getattr__(name):
    # called only on a miss, so a name read once is a plain module global
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    setattr(sys.modules[__name__], name, value)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)


class _Package(ModuleType):
    """The package module, which keeps an export over a submodule of the
    same name: importing a submodule binds it on the package, and
    ``catenary`` is both a submodule and an exported function."""

    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
