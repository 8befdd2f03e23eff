"""The classes that validate their input, leave a field out of equality,
define their own length or equality, or carry the CLI's reports: fields
that cannot be assigned, the equality and hash of the records they
replaced, their length and iteration, their repr, validation on
construction and on ``_replace``, and an import path that never loads
``dataclasses``, nor any layer module."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import factorum
from factorum.abelianization import VectorElement
from factorum.factorizations import FactorizationSet, RigidFactorization
from factorum.presentation import (BudgetError, BudgetOverride, CongruenceBall,
                                   Element, EmptyRelationSideError,
                                   ExplorationBudget, Presentation,
                                   PresentationError, Relation,
                                   UndeclaredGeneratorError)
from factorum.regression import CheckRow
from factorum.reports import Certification, InvariantReport
from factorum.zerosum import FiniteAbelianGroup

A, AB = ("a",), ("a", "b")
_Z = RigidFactorization((Element(A),), Element(A))


def _instances():
    """(name, instance, its repr) for each class."""
    budget = ExplorationBudget(3, 50)
    return [
        ("ExplorationBudget", budget,
         "ExplorationBudget(max_word_length=3, max_ball_size=50)"),
        ("BudgetOverride", BudgetOverride(4),
         "BudgetOverride(max_word_length=4, max_ball_size=None)"),
        ("Presentation", Presentation(("a", "b"), (Relation(AB, AB[::-1]),),
                                      budget),
         "Presentation(generators=('a', 'b'), relations=(Relation(lhs=('a', "
         "'b'), rhs=('b', 'a')),), budget=ExplorationBudget(max_word_length=3,"
         " max_ball_size=50))"),
        ("FiniteAbelianGroup", FiniteAbelianGroup((2, 4)),
         "FiniteAbelianGroup(orders=(2, 4))"),
        ("CongruenceBall", CongruenceBall(A, frozenset({A}), True, A, False,
                                          None, Element(A)),
         "CongruenceBall(seed=('a',), members=frozenset({('a',)}), "
         "closed=True, canonical=('a',), truncated=False, "
         "least_long_member=None, element=Element(word=('a',), "
         "certified=True))"),
        ("InvariantReport", InvariantReport("x", 1, Certification.EXACT),
         "InvariantReport(invariant='x', value=1, certification="
         "<Certification.EXACT: 'exact'>, budget={}, witnesses=[], "
         "warnings=[])"),
        ("CheckRow", CheckRow("L", 1, 2, Certification.LOWER_BOUND, ">="),
         "CheckRow(label='L', expected=1, computed=2, certification="
         "<Certification.LOWER_BOUND: 'lower-bound'>, relation='>=')"),
        ("Element", Element(AB, False),
         "Element(word=('a', 'b'), certified=False)"),
        ("FactorizationSet", FactorizationSet((_Z,), True),
         "FactorizationSet(factorizations=(RigidFactorization(atoms=("
         "Element(word=('a',), certified=True),), product=Element(word=("
         "'a',), certified=True)),), complete=True)"),
        ("VectorElement", VectorElement((1, 0)),
         "VectorElement(coords=(1, 0), certified=True)"),
    ]


_INSTANCES = _instances()
_IDS = [name for name, _, _ in _INSTANCES]
_SLOTTED = (Element, FactorizationSet, VectorElement)


def test_every_class_is_covered():
    assert len(set(_IDS)) == len(_IDS) == 10
    for name, obj, _ in _INSTANCES:
        assert type(obj).__name__ == name


@pytest.mark.parametrize("name,obj,text", _INSTANCES, ids=_IDS)
def test_fields_cannot_be_assigned(name, obj, text):
    fields = type(obj).__slots__ if isinstance(obj, _SLOTTED) else obj._fields
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(obj, f, getattr(obj, f))
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name,obj,text", _INSTANCES, ids=_IDS)
def test_repr_is_unchanged(name, obj, text):
    assert repr(obj) == text


def test_element_equality_and_hash_ignore_certified():
    assert Element(AB, True) == Element(AB, False)
    assert Element(AB) != Element(A) and Element(AB) != AB
    assert hash(Element(AB, False)) == hash(Element(AB)) == hash((AB,))
    assert len(Element(AB)) == 2


def test_hashes_follow_the_record_fields():
    budget = ExplorationBudget(3, 50)
    assert hash(budget) == hash((3, 50))
    assert hash(BudgetOverride(4)) == hash((4, None))
    p = Presentation(("a",), (), budget)
    assert hash(p) == hash((("a",), (), budget))
    assert hash(FiniteAbelianGroup((2, 4))) == hash(((2, 4),))
    fs = FactorizationSet((_Z,), True)
    assert hash(fs) == hash(((_Z,), True))
    assert hash(VectorElement((1, 0), False)) == hash((1, 0))


def test_factorization_set_length_iteration_and_equality():
    fs = FactorizationSet((_Z, _Z), False)
    assert len(fs) == 2 and list(fs) == [_Z, _Z]
    assert len(FactorizationSet((), True)) == 0
    assert fs == FactorizationSet((_Z, _Z), False)
    assert fs != FactorizationSet((_Z, _Z), True)
    assert fs != ((_Z, _Z), False)


def test_vector_element_compares_by_coordinates():
    assert VectorElement((1, 0), True) == VectorElement((1, 0), False)
    assert VectorElement((1, 0)) != VectorElement((0, 1))
    assert VectorElement((1, 0)) != (1, 0)


def test_named_tuples_compare_by_fields():
    # equal to a plain tuple, and to each other when the fields agree
    assert ExplorationBudget(12, 5) == (12, 5) == BudgetOverride(12, 5)
    assert FiniteAbelianGroup((2,)) == ((2,),)
    ball = CongruenceBall(A, frozenset({A}), True, A, False, None, Element(A))
    assert ball == ball._replace(element=Element(A, False))
    assert ball != ball._replace(element=None)


_INVALID = {
    "budget-length": (lambda: ExplorationBudget(0), BudgetError),
    "budget-size": (lambda: ExplorationBudget(3, 0), BudgetError),
    "budget-replace": (
        lambda: ExplorationBudget(3, 50)._replace(max_word_length=0),
        BudgetError),
    "override": (lambda: BudgetOverride(None, 0), BudgetError),
    "override-replace": (
        lambda: BudgetOverride(4)._replace(max_word_length=-1), BudgetError),
    "duplicate-generator": (lambda: Presentation(("a", "a"), ()),
                            PresentationError),
    "generator-replace": (
        lambda: Presentation(("a",), ())._replace(generators=("1",)),
        PresentationError),
    "empty-side": (lambda: Presentation(("a",), (Relation((), A),)),
                   EmptyRelationSideError),
    "undeclared-replace": (
        lambda: Presentation(("a",), ())._replace(
            relations=(Relation(A, AB),)),
        UndeclaredGeneratorError),
    "relation-past-cap": (
        lambda: Presentation(("a",), (Relation(A, A * 4),),
                             ExplorationBudget(3)),
        BudgetError),
    "relation-past-cap-replace": (
        lambda: Presentation(("a",), (Relation(A, A * 4),))._replace(
            budget=ExplorationBudget(3)),
        BudgetError),
    "group-order": (lambda: FiniteAbelianGroup((2, 0)), ValueError),
    "group-replace": (
        lambda: FiniteAbelianGroup((2,))._replace(orders=(0,)), ValueError),
}


@pytest.mark.parametrize("build,error", _INVALID.values(), ids=_INVALID)
def test_constructor_and_replace_validate(build, error):
    with pytest.raises(error):
        build()


def test_replace_and_make_keep_the_class():
    budget = ExplorationBudget(3, 50)._replace(max_ball_size=7)
    assert type(budget) is ExplorationBudget and budget == (3, 7)
    group = FiniteAbelianGroup._make([(3,)])
    assert type(group) is FiniteAbelianGroup and group.order == 3
    assert BudgetOverride(None, 9).apply(budget) == ExplorationBudget(3, 9)


@pytest.mark.parametrize("name,obj,text", _INSTANCES, ids=_IDS)
def test_copies_are_equal(name, obj, text):
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and repr(clone) == text


def test_cold_import_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(factorum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # nor any layer module, nor what the reports need to render
    code = ("import sys, factorum, factorum.cli; "
            "loaded = {'dataclasses', 'inspect', 'json', 'fractions'} "
            "& set(sys.modules); "
            "loaded |= {m for m in sys.modules if m.startswith('factorum.')} "
            "- {'factorum.cli'}; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
