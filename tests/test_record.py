"""calibration.Record against a frozen dataclass with the same fields: the
record keeps the value semantics the package had from dataclasses. The
records whose fields hold numpy arrays compare and hash by identity."""

from __future__ import annotations

import dataclasses
import functools
import math

from hypothesis import given, strategies as st
import numpy as np
import pytest

from dpmeta.calibration import Ball, Record
from dpmeta.geometry import ParamDomain
from dpmeta.learners import LearnerOutput
from dpmeta.losses import TaskSamples
from dpmeta.meta import MetaState, MetaTraining
from dpmeta.task_env import EnvSpec, TaskSpec


def _check(a):
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")


class Base(Record):
    a: float
    b: float = 0.0


class Point(Base):
    a: float  # re-declared: keeps its place, first
    label: str = "p"
    note: str = ""
    uncompared = ("note",)

    def __post_init__(self):
        _check(self.a)
        object.__setattr__(self, "_double", 2.0 * self.a)

    @functools.cached_property
    def total(self):
        return self.a + self.b


@dataclasses.dataclass(frozen=True)
class TwinBase:
    a: float
    b: float = 0.0


@dataclasses.dataclass(frozen=True)
class Twin(TwinBase):
    a: float
    label: str = "p"
    note: str = dataclasses.field(default="", compare=False)

    def __post_init__(self):
        _check(self.a)


finite = st.floats(allow_nan=False, allow_infinity=False)
values = st.tuples(finite, finite, st.text(max_size=5), st.text(max_size=5))
# the second is the first, the first with another note, or a fresh draw, so
# that == holds and fails
pairs = values.flatmap(lambda x: st.tuples(st.just(x), st.one_of(
    st.just(x), st.text(max_size=5).map(lambda note: x[:3] + (note,)), values)))


def test_fields_are_the_annotated_names_bases_first():
    assert Point.fields == tuple(f.name for f in dataclasses.fields(Twin))
    assert Point.fields == ("a", "b", "label", "note")
    assert Base.fields == ("a", "b")


@given(pairs)
def test_eq_hash_and_repr_agree_with_the_dataclass(xy):
    x, y = xy
    p, q, tp, tq = Point(*x), Point(*y), Twin(*x), Twin(*y)
    assert (p == q) == (tp == tq)
    assert (p != q) == (tp != tq)
    assert hash(p) == hash(tp)
    assert repr(p).removeprefix("Point") == repr(tp).removeprefix("Twin")
    assert p != tp and Point(*x) == p and hash(Point(*x)) == hash(p)
    # by keyword, with defaults, as the dataclass
    assert Point(a=x[0]) == Point(x[0], 0.0, "p", "") and Twin(a=x[0]) == Twin(x[0])


@given(values, st.text(max_size=5))
def test_an_uncompared_field_stays_out_of_eq_and_hash(x, note):
    p, other = Point(*x), Point(*x[:3], note)
    assert p == other and hash(p) == hash(other)
    assert (Twin(*x) == Twin(*x[:3], note)) and other.note == note


@given(values, finite, st.sampled_from([math.inf, -math.inf, math.nan]))
def test_replace_builds_through_init(x, b, bad):
    p = Point(*x)
    moved, twin = p.replace(b=b), dataclasses.replace(Twin(*x), b=b)
    assert repr(moved).removeprefix("Point") == repr(twin).removeprefix("Twin")
    # __post_init__ ran on the copy, and the original is unchanged
    assert moved._double == 2.0 * x[0] and p.b == x[1]
    with pytest.raises(ValueError):
        p.replace(a=bad)
    with pytest.raises(ValueError):
        dataclasses.replace(Twin(*x), a=bad)
    with pytest.raises(TypeError):
        p.replace(bogus=1)


@given(values)
def test_fields_can_be_neither_assigned_nor_deleted(x):
    p = Point(*x)
    for name in Point.fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(p, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.a, p.b, p.label, p.note) == x


def test_a_missing_unknown_or_repeated_argument_raises_type_error():
    for args, kwargs in [((), {}), ((1.0,), {"bogus": 2}), ((1.0,), {"a": 2.0}),
                         ((1.0, 2.0, "p", "", 5), {}), ((), {"b": 1.0})]:
        with pytest.raises(TypeError):
            Point(*args, **kwargs)
        with pytest.raises(TypeError):
            Twin(*args, **kwargs)


@given(values)
def test_cached_property_computes_once(x):
    p = Point(*x)
    assert "total" not in vars(p)
    assert p.total == x[0] + x[1]
    assert vars(p)["total"] == p.total and p == Point(*x)


ARRAY_RECORDS = {
    ParamDomain: lambda: ParamDomain(np.zeros(2), 1.0),
    EnvSpec: lambda: EnvSpec(ParamDomain(np.zeros(2), 1.0), np.zeros(2), 0.1, 3),
    TaskSamples: lambda: TaskSamples(np.ones((1, 2)), curvature=1.0),
    TaskSpec: lambda: TaskSpec(np.zeros(2)),
    LearnerOutput: lambda: LearnerOutput(np.zeros(2), np.zeros(2)),
    MetaState: lambda: MetaState(np.zeros(2), 0, np.zeros(2)),
    MetaTraining: lambda: MetaTraining(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2))),
}


@pytest.mark.parametrize("cls", ARRAY_RECORDS, ids=lambda cls: cls.__name__)
def test_records_holding_arrays_compare_and_hash_by_identity(cls):
    # an array has no truth value and no hash, so == and hash over the
    # fields would raise; these records are equal only to themselves
    a, b = ARRAY_RECORDS[cls](), ARRAY_RECORDS[cls]()
    assert type(a) is cls and a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    # a Ball, whose center is a tuple, still compares by value
    assert Ball((0.0, 0.0), 1.0) == Ball((0.0, 0.0), 1.0)
