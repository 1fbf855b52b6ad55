"""Value semantics of the immutable result and data types."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from conftest import cusp_matrix, replace, table_gluing
from gluesurf.fourlines import OrbitRecord, enumerate_orbits
from gluesurf.gluing import (
    CurveComponent,
    DegenerateCusp,
    GluingData,
    NormalComponent,
    ValidatedGluing,
    cusps,
    quotient_curve,
)
from gluesurf.grouptheory import FiniteGroup, Fingerprint, catalog_group
from gluesurf.intlinalg import IntegerMatrix, Record, SmithDecomposition, snf
from gluesurf.invariants import InvariantReport, compute_report, picard_summary


def samples() -> list:
    """One instance of each value type, taken from a run on X0.1."""
    vg = table_gluing("X0.1")
    report = compute_report(vg, catalog=(catalog_group("C2"), catalog_group("S3")))
    record = enumerate_orbits()[0]
    return [
        report.homology.h1, snf(cusp_matrix(vg)),
        vg.data.normal_components[0], vg.data.curve_components[0], vg.data, cusps(vg)[0], vg,
        quotient_curve(vg),
        report.pi1, catalog_group("S3"), report.fingerprint,
        report, picard_summary(report),
        record.representative, record,
    ]


SAMPLES = samples()


def sample(cls):
    """The one sample of type ``cls``."""
    return next(v for v in SAMPLES if type(v) is cls)


def test_every_value_type_has_a_sample():
    # IntegerMatrix keeps its entries under another name than its
    # constructor's; tests/test_intlinalg.py checks its value semantics
    assert {type(v) for v in SAMPLES} == set(Record.__subclasses__()) - {IntegerMatrix}


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_value_semantics(value):
    cls = type(value)
    names = list(inspect.signature(cls).parameters)
    args = [getattr(value, name) for name in names]
    positional, keyword = cls(*args), cls(**dict(zip(names, args)))
    assert positional == keyword == value
    assert not positional != value
    assert copy.copy(value) == value
    # a holder of read-only mapping views, which neither hash nor pickle,
    # hashes and rebuilds itself, as GluingData and ValidatedGluing do
    assert hash(positional) == hash(keyword) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(AttributeError):
        setattr(value, names[0], None)
    with pytest.raises(AttributeError):
        value.unknown = 1
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    assert getattr(value, names[0]) is args[0]


@pytest.mark.parametrize("build", [
    lambda seq: CurveComponent("L", "p", 0, seq(["a", "b"]), seq([1, 0])),
    lambda seq: GluingData(seq([NormalComponent("p", 1)]),
                           seq([CurveComponent("L", "p", 0, ("a",), ())]), {}, {}, {}),
    lambda seq: FiniteGroup("C2", 2, seq([seq([0, 1]), seq([1, 0])])),
    lambda seq: DegenerateCusp(seq(["a", "b"]), seq(["c", "d"])),
    lambda seq: Fingerprint(seq([seq(["C2", 1, 1]), seq(["S3", 6, 0])])),
    lambda seq: replace(sample(OrbitRecord), orbit=seq(sample(OrbitRecord).orbit),
                        stabilizer=seq(map(seq, sample(OrbitRecord).stabilizer))),
    lambda seq: replace(sample(InvariantReport),
                        cusp_partition=seq(sample(InvariantReport).cusp_partition)),
    lambda seq: SmithDecomposition(IntegerMatrix(1, 1, {0: {0: 2}}), seq([2])),
    lambda seq: replace(sample(ValidatedGluing),
                        dbar_components=seq(map(seq, sample(ValidatedGluing).dbar_components))),
], ids=["CurveComponent", "GluingData", "FiniteGroup", "DegenerateCusp", "Fingerprint",
        "OrbitRecord", "InvariantReport", "SmithDecomposition", "ValidatedGluing"])
def test_built_from_lists_equals_its_tuple_twin(build):
    # the lists are kept as tuples, so a caller's list cannot change the value,
    # and the value hashes
    from_lists, from_tuples = build(list), build(tuple)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert all(type(getattr(from_lists, name)) is not list for name in type(from_lists)._fields)

