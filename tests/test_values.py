"""Value semantics of the result records and the immutable containers.

The records are NamedTuples; the series containers and ForestSpec are
slotted classes that are deliberately not tuples.  Every one refuses
assignment and deletion, and survives pickle and deepcopy unchanged.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from polyakit.asymptotics import (DecompositionConstants, ForestAsymptotics,
                                  PolyaSingularity, VariantSingularity)
from polyakit.families import OmegaSet
from polyakit.oracle import LEAF, ForestSpec, make_forest, make_tree
from polyakit.sampler import DecompositionSample, run_experiment
from polyakit.series import BivariateSeries, RationalSeries, UPoly
from polyakit.verify import CheckRow, VerificationReport

COEFFS = (Fraction(1), Fraction(1, 2), Fraction(-3, 7))
SERIES = RationalSeries(COEFFS)
POLY = UPoly(COEFFS)
BIVARIATE = BivariateSeries((UPoly(()), POLY))
ROW = CheckRow("series vs oracle", 6, True, "exact match")

VALUES = {
    "PolyaSingularity": PolyaSingularity(0.34, 2.68, 2.39, 1.08, 2.9, 1e-16,
                                         1e-12, 60),
    "ForestAsymptotics": ForestAsymptotics(0.34, 2.68, 1.2, 0.8, 0.5, 0.3,
                                           0.7, 0.1, 0.2),
    "DecompositionConstants": DecompositionConstants(0.34, 2.68, 0.8, 0.36,
                                                     0.2, 0.1, 0.5, 1.08),
    "VariantSingularity": VariantSingularity("binary", 0.4, 1.5, 1e-16, 1e-12,
                                             60),
    "DecompositionSample": DecompositionSample(5, 3, 2, 2, {0: 2, 2: 1}, 9),
    "StatsReport": run_experiment(6, 2, "values"),
    "CheckRow": ROW,
    "VerificationReport": VerificationReport(6, (ROW,)),
    "OmegaSet": OmegaSet.parse("0,2"),
    "ForestSpec": make_forest([(make_tree([LEAF]), 2), (LEAF, 3)]),
    "RationalSeries": SERIES,
    "UPoly": POLY,
    "BivariateSeries": BIVARIATE,
}


@pytest.mark.parametrize("name", VALUES)
def test_assignment_and_deletion_raise(name):
    value = VALUES[name]
    before = repr(value)
    field = next(iter(value.__slots__ or value._fields))
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == before


@pytest.mark.parametrize("name", VALUES)
def test_pickle_and_deepcopy_round_trip(name):
    value = VALUES[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


@pytest.mark.parametrize("value", [SERIES, POLY, BIVARIATE])
def test_containers_are_not_sequences(value):
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        3 * value
    # a RationalSeries reads coefficients by index, and iter() walks that
    # index until it raises, as it always has
    if value is not SERIES:
        with pytest.raises(TypeError):
            iter(value)


def test_containers_equal_only_their_own_class():
    assert SERIES != POLY and POLY != SERIES
    assert SERIES != COEFFS and POLY != COEFFS
    assert SERIES == RationalSeries.from_coeffs(COEFFS)
    assert hash(SERIES) == hash(RationalSeries.from_coeffs(COEFFS))
    assert BIVARIATE == BivariateSeries((UPoly.zero(), POLY))


SLOTTED = (RationalSeries, UPoly, BivariateSeries, ForestSpec)


@pytest.mark.parametrize("cls", SLOTTED)
def test_slotted_classes_share_one_value_protocol(cls):
    # construction, equality, hashing and pickling are written once, in
    # their common base, not once per class
    own = {"__init__", "__eq__", "__hash__", "__reduce__"} & set(vars(cls))
    assert not own, f"{cls.__name__} defines {sorted(own)}"


@pytest.mark.parametrize("cls", SLOTTED)
def test_constructor_takes_one_value_per_slot(cls):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls((), ())


def test_forest_spec_is_not_its_component_tuple():
    forest = VALUES["ForestSpec"]
    assert forest != forest.components and forest.components != forest
    assert forest == ForestSpec(forest.components)
    assert hash(forest) == hash(ForestSpec(forest.components))


def test_reprs_read_as_before():
    assert repr(SERIES) == ("RationalSeries(coeffs=(Fraction(1, 1), "
                            "Fraction(1, 2), Fraction(-3, 7)))")
    assert repr(BIVARIATE) == ("BivariateSeries(rows=(UPoly(coeffs=()), "
                               "UPoly(coeffs=(Fraction(1, 1), Fraction(1, 2), "
                               "Fraction(-3, 7)))))")
    assert repr(VALUES["VariantSingularity"]) == (
        "VariantSingularity(family='binary', tau=0.4, mu=1.5, "
        "residual=1e-16, tau_shift=1e-12, order=60)")
    assert repr(ROW) == ("CheckRow(name='series vs oracle', max_n=6, "
                         "passed=True, detail='exact match')")


def test_omega_set_hash_is_the_field_tuple_hash():
    assert hash(OmegaSet.parse("0,2")) == hash((frozenset({0, 2}), False))


def test_dict_fields_take_part_in_equality():
    sample = VALUES["DecompositionSample"]
    assert sample == DecompositionSample(5, 3, 2, 2, {0: 2, 2: 1}, 9)
    assert sample != sample._replace(forest_size_histogram={0: 1, 1: 2})
    report = VALUES["StatsReport"]
    assert report != report._replace(forest_size_distribution={})
