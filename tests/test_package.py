"""The lazily loaded package: every public name resolves to its defining
module's object, ``factorum.catenary`` stays the function whatever loads
the ``catenary`` module first, and a command loads only its own layers."""

import importlib
import os
import subprocess
import sys

import pytest

import factorum
from factorum import catenary as catenary_fn
from factorum.cli import build_parser

# the public names of the package, by defining module
PUBLIC = {
    "presentation": "AdyanReport AtomAnswer AtomKind BudgetOverride "
    "CongruenceBall Element EmptyRelationSideError Equality ExplorationBudget "
    "Presentation PresentationError PresentationSemigroup Relation "
    "UndeclaredGeneratorError check_adyan parse_presentation",
    "handles": "FactorialVectorHandle SemigroupHandle",
    "factorizations": "FactorizationSet LengthSet PermutableFactorization "
    "RigidFactorization length_profile permutable_factorizations "
    "rigid_factorizations",
    "distances": "Alignment AxiomReport DistanceKind InstanceTooLarge "
    "distance length_distance permutable_distance rigid_distance "
    "rigid_distance_alignment rigid_distance_oracle verify_axioms",
    "catenary": "CatenaryReport ChainWitness adjacent_catenary catenary "
    "catenary_in_fibers equal_catenary monotone_catenary semigroup_catenary",
    "divisibility": "AlmostPrimeLikeReport DivisibilityKind "
    "NotAlmostPrimeLikeError OmegaReport TameReport ValuationSet divides "
    "divides_p is_almost_prime_like is_prime_like min_subproduct_k occurs_in "
    "omega_element omega_semigroup tame_element tame_semigroup valuation_set",
    "zerosum": "BlockMonoidHandle FiniteAbelianGroup GroupTooLarge "
    "OrderBoundReport atoms_of_block_monoid block_catenary davenport "
    "invariant_factors maximal_order_bound zero_sum_sequences",
    "matrices": "AtomProfile DetTooLargeError FullMatrixHandle NotAtomError "
    "SnfResult TransferMap TransferReport TriangularMatrixHandle "
    "annihilator_profile delta_map delta_transfer_map det_transfer "
    "det_transfer_map identity_transfer_map mat_is_atom mat_left_divisors "
    "parse_matrix snf snf_ascending tri_associate_normal_form "
    "tri_atoms_associated tri_is_atom tri_left_divisors "
    "verify_transfer_properties",
    "abelianization": "CommutativeVectorSemigroup EquivPWitness ExwtReport "
    "LengthMapReport abelianize check_exwt equiv_p length_map "
    "weak_transfer_counterexample",
    "reports": "Certification InvariantReport",
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names.split()]


def fresh(code):
    """Run ``code`` in a new interpreter that imports the package from
    this checkout."""
    src = os.path.dirname(os.path.dirname(factorum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_the_public_names_are_pinned():
    assert len(NAMES) == 106
    assert sorted(factorum.__all__) == sorted(name for _, name in NAMES)
    assert {name for _, name in NAMES} <= set(dir(factorum))


@pytest.mark.parametrize("module,name", NAMES,
                         ids=[name for _, name in NAMES])
def test_a_public_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"factorum.{module}")
    assert getattr(factorum, name) is getattr(defining, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        factorum.no_such_name
    assert not hasattr(factorum, "no_such_name")


@pytest.mark.parametrize("first", [
    "import factorum.zerosum",
    "import factorum; factorum.block_catenary",
    "from factorum import catenary",
])
def test_catenary_is_the_function_whatever_loads_first(first):
    fresh(f"{first}\n"
          "import types, factorum, factorum.catenary\n"
          "assert isinstance(factorum.catenary, types.FunctionType)\n"
          "assert factorum.catenary is factorum.catenary_in_fibers.__globals__"
          "['catenary']\n")


def test_catenary_is_the_function_here_too():
    assert factorum.catenary is catenary_fn
    assert factorum.catenary.__module__ == "factorum.catenary"


def test_a_submodule_resolves_on_a_fresh_import():
    fresh("import factorum\n"
          "from factorum.matrices import mat_det\n"
          "assert factorum.matrices.mat_det is mat_det\n")
    fresh("import factorum\n"
          "assert factorum.matrices.mat_det(((2, 1), (0, 3))) == 6\n")


def test_the_variant_choices_are_the_catenary_variants():
    from factorum.catenary import VARIANTS
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices["catenary"]
    variant = next(a for a in sub._actions if a.dest == "variant")
    assert variant.choices == tuple(VARIANTS)


def test_a_matrix_command_loads_no_presentation_layer():
    fresh("import sys, contextlib, io\n"
          "from factorum import cli\n"
          "with contextlib.redirect_stdout(io.StringIO()):\n"
          "    assert cli.main(['tri', '--matrix', '2 0; 0 1', 'atom']) == 0\n"
          "loaded = {'factorum.presentation', 'factorum.zerosum',\n"
          "          'factorum.abelianization'} & set(sys.modules)\n"
          "assert not loaded, loaded\n")
