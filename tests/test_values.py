"""Value semantics of the immutable result and data types."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from conftest import cusp_matrix, table_gluing
from gluesurf.fourlines import enumerate_orbits
from gluesurf.gluing import CurveComponent, GluingData, NormalComponent, cusps, quotient_curve
from gluesurf.grouptheory import FiniteGroup, catalog_group
from gluesurf.intlinalg import IntegerMatrix, Record, snf
from gluesurf.invariants import compute_report, picard_summary
from gluesurf.topology import homotopy_graph


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
        homotopy_graph("D", vg),
        report, picard_summary(report),
        record.representative, record,
    ]


SAMPLES = samples()


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
], ids=["CurveComponent", "GluingData", "FiniteGroup"])
def test_built_from_lists_equals_its_tuple_twin(build):
    # the lists are kept as tuples, so a caller's list cannot change the value
    from_lists, from_tuples = build(list), build(tuple)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert all(type(getattr(from_lists, name)) is not list for name in type(from_lists)._fields)
