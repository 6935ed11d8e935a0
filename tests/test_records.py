"""The value-type contract of orbitlab's records (immutable, equal and hashed
by their fields), which caches, sets and dict keys across the package rely on."""

from fractions import Fraction

import pytest

from orbitlab.actions import FiniteAction, FullnessWitness, GrowthProfile, LemmaReport
from orbitlab.categories import CategoryKind, InjectionMorphism
from orbitlab.errors import MalformedInputError
from orbitlab.modlab import ChainReport, GroebnerBasis, RestrictionReport, WidthChainResult
from orbitlab.orbitcat import PhiIsoReport
from orbitlab.polynomials import LEX, CoefficientField, MonomialOrder
from orbitlab.structures import (
    Amalgam,
    AmalgamationProblem,
    FiniteStructure,
    SapReport,
    StructureEmbedding,
    age_for,
)

OI = CategoryKind.OI
LINEAR = age_for("linear")


def point():
    return FiniteStructure(("a",), (("lt", 2),), (("lt", frozenset()),))


def inclusion():
    return StructureEmbedding(point(), point(), ("a",))


# (record class, a function building it from the same fields on each call, a field)
RECORDS = [
    (FiniteAction, lambda: FiniteAction(3, ((2, 1, 3), (1, 3, 2))), "generators"),
    (GrowthProfile, lambda: GrowthProfile((1,), (1,), (1,), 1), "f"),
    (LemmaReport, lambda: LemmaReport(1, True, True, True, True, None), "cond1"),
    (FullnessWitness, lambda: FullnessWitness((2, 1), 1, Fraction(0), Fraction(1)), "lhs"),
    (InjectionMorphism, lambda: InjectionMorphism(OI, 1, 2, (2,)), "image"),
    (GroebnerBasis, lambda: GroebnerBasis((), LEX, False), "vectors"),
    (WidthChainResult, lambda: WidthChainResult(1, 1, (1,), True, False), "rank_profile"),
    (ChainReport, lambda: ChainReport(OI, 1, 1, LEX, ()), "results"),
    (RestrictionReport, lambda: RestrictionReport(OI, 1, 2, True, (), ()), "ok"),
    (PhiIsoReport, lambda: PhiIsoReport(1, ((1,),), ((1,),), (), (), ()), "hom_counts"),
    (MonomialOrder, lambda: MonomialOrder("grevlex"), "name"),
    (CoefficientField, lambda: CoefficientField(7), "modulus"),
    (FiniteStructure, point, "universe"),
    (StructureEmbedding, inclusion, "images"),
    (AmalgamationProblem, lambda: AmalgamationProblem(*[point()] * 3, *[inclusion()] * 2, LINEAR), "f1"),
    (Amalgam, lambda: Amalgam(point(), inclusion(), inclusion()), "delta"),
    (SapReport, lambda: SapReport(True, None), "certificate"),
]


@pytest.mark.parametrize("cls, build, field", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS])
def test_records_are_immutable_values(cls, build, field):
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteAction(0, ()),
        lambda: FiniteAction(3, ((1, 1, 2),)),
        lambda: MonomialOrder("degrevlex"),
        lambda: CoefficientField(4),
        lambda: CoefficientField(2**31 + 11),
    ],
    ids=["empty-domain", "not-a-permutation", "unknown-order", "composite-modulus", "large-prime"],
)
def test_records_reject_malformed_fields(build):
    with pytest.raises(MalformedInputError):
        build()
