"""The contract every result record keeps: its fields cannot be assigned,
a copy rebuilt from its fields compares and hashes equal to it, and its
repr names the type and each field.  Each record is taken from a real
call of the public API."""

import pytest

from factorum.abelianization import check_exwt, equiv_p, length_map
from factorum.catenary import catenary
from factorum.distances import (DistanceKind, rigid_distance_alignment,
                                verify_axioms)
from factorum.divisibility import (divides_p, is_almost_prime_like,
                                   is_prime_like, omega_element, tame_element,
                                   valuation_set)
from factorum.factorizations import (length_profile, permutable_factorizations,
                                     rigid_factorizations)
from factorum.matrices import (TriangularMatrixHandle, delta_transfer_map,
                               parse_matrix, snf, tri_is_atom,
                               verify_transfer_properties)
from factorum.presentation import check_adyan
from factorum.presets import engine
from factorum.zerosum import FiniteAbelianGroup, maximal_order_bound


def _records():
    """(name, record) for every record type the public API returns."""
    h = engine("aba_ba3bc")
    aba = h.element_from_str("a b a")
    a, b = h.element_from_str("a"), h.element_from_str("b")
    fs = rigid_factorizations(h, aba)
    z, zp = fs.factorizations[:2]
    cat = catenary(h, aba, DistanceKind.PERMUTABLE)
    els, complete = h.enumerate_elements(4)

    cede = engine("ab_cd_cede_ba")
    omega = omega_element(cede, cede.element_from_str("b a"),
                          cede.element_from_str("a"), "nonunits")
    de = engine("abc_de")
    tame = tame_element(de, de.element_from_str("d e"),
                        [de.element_from_str("a")])

    cd = engine("ab_cd")
    equiv = equiv_p(cd, cd.element_from_str("a b"), cd.element_from_str("b a"))

    t2 = TriangularMatrixHandle(2)
    m = parse_matrix("4 2; 0 6")
    tmap = delta_transfer_map(t2)

    return [
        ("Relation", h.presentation.relations[0]),
        ("AdyanReport", check_adyan(h.presentation)),
        ("AtomAnswer", h.atom_answer(aba)),
        ("RigidFactorization", z),
        ("PermutableFactorization", permutable_factorizations(h, aba)[0][0]),
        ("LengthSet", length_profile(h, aba)),
        ("Alignment", rigid_distance_alignment(h, z, zp)[1]),
        ("AxiomReport", verify_axioms(h, DistanceKind.RIGID, [fs])),
        ("ChainWitness", cat.witness),
        ("CatenaryReport", cat),
        ("DivisibilityAnswer", divides_p(h, a, aba)),
        ("AlmostPrimeLikeReport", is_almost_prime_like(h, a, els, complete)),
        ("ValuationSet", valuation_set(h, a, aba)),
        ("PrimeLikeReport", is_prime_like(h, b, els, complete)),
        ("OmegaWitness", omega.witness),
        ("OmegaReport", omega),
        ("TameReport", tame),
        ("AtomProfile", tri_is_atom(parse_matrix("1 5; 0 7"))),
        ("SnfResult", snf(m)),
        ("TransferMap", tmap),
        ("TransferReport", verify_transfer_properties(tmap, [m])),
        ("EquivPWitness", equiv.witness),
        ("EquivPAnswer", equiv),
        ("ExwtReport", check_exwt(cd, 3)),
        ("LengthMapReport", length_map(cd)),
        ("OrderBoundReport", maximal_order_bound(FiniteAbelianGroup((2,)))),
    ]


_RECORDS = _records()


def _fields(record):
    return list(type(record).__annotations__)


def test_every_record_type_is_covered():
    names = [name for name, _ in _RECORDS]
    assert len(set(names)) == len(names) == 26
    for name, record in _RECORDS:
        assert type(record).__name__ == name


@pytest.mark.parametrize("name,record", _RECORDS, ids=[n for n, _ in _RECORDS])
def test_record_fields_cannot_be_assigned(name, record):
    for f in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f))


@pytest.mark.parametrize("name,record", _RECORDS, ids=[n for n, _ in _RECORDS])
def test_rebuilt_record_compares_and_hashes_equal(name, record):
    copy = type(record)(**{f: getattr(record, f) for f in _fields(record)})
    assert copy is not record
    assert copy == record
    assert hash(copy) == hash(record)


@pytest.mark.parametrize("name,record", _RECORDS, ids=[n for n, _ in _RECORDS])
def test_record_repr_names_type_and_fields(name, record):
    fields = _fields(record)
    text = repr(record)
    assert text.startswith(f"{name}({fields[0]}=")
    assert text.endswith(")")
    for f in fields:
        assert f"{f}={getattr(record, f)!r}" in text
