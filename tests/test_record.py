"""calibration.Record against a frozen dataclass with the same fields and
eq=False: the record keeps the construction, repr, replace and frozen
behaviour the package had from dataclasses. Every record compares and hashes
by identity, as object does."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import pkgutil

from hypothesis import given, strategies as st
import numpy as np
import pytest

import dpmeta
from dpmeta.calibration import Ball, Environment, PrivacyParams, Record
from dpmeta.config import ExperimentConfig, build_config
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

    def __post_init__(self):
        _check(self.a)
        object.__setattr__(self, "_double", 2.0 * self.a)

    @functools.cached_property
    def total(self):
        return self.a + self.b


@dataclasses.dataclass(frozen=True, eq=False)
class TwinBase:
    a: float
    b: float = 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class Twin(TwinBase):
    a: float
    label: str = "p"
    note: str = ""

    def __post_init__(self):
        _check(self.a)


finite = st.floats(allow_nan=False, allow_infinity=False)
values = st.tuples(finite, finite, st.text(max_size=5), st.text(max_size=5))


def test_fields_are_the_annotated_names_bases_first():
    assert Point.fields == tuple(f.name for f in dataclasses.fields(Twin))
    assert Point.fields == ("a", "b", "label", "note")
    assert Base.fields == ("a", "b")
    # EnvSpec re-declares domain and planted_center with array types: they
    # keep their places, which positional EnvSpec(...) calls and
    # ExperimentConfig.env rely on
    assert EnvSpec.fields == Environment.fields


@given(values)
def test_eq_hash_and_repr_agree_with_the_dataclass(x):
    p, q, tp, tq = Point(*x), Point(*x), Twin(*x), Twin(*x)
    # identity, whatever the fields, as the eq=False dataclass
    assert (p == p, p == q, p != q) == (tp == tp, tp == tq, tp != tq) == (True, False, True)
    assert hash(p) == object.__hash__(p) and hash(tp) == object.__hash__(tp)
    assert repr(p).removeprefix("Point") == repr(tp).removeprefix("Twin")
    # by keyword, with defaults, as the dataclass
    assert repr(Point(a=x[0])) == repr(Point(x[0], 0.0, "p", ""))
    assert repr(Point(a=x[0])).removeprefix("Point") == repr(Twin(a=x[0])).removeprefix("Twin")


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
    assert vars(p)["total"] == p.total


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_every_record_compares_and_hashes_by_identity():
    for module in pkgutil.iter_modules(dpmeta.__path__):
        importlib.import_module(f"dpmeta.{module.name}")
    found = set(_record_classes())
    for cls in found:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    assert {cls.__name__ for cls in found} >= {
        "Ball", "PrivacyParams", "NoisySgdPlan", "RegularityProfile", "CalibrationRecord",
        "ExperimentConfig", "ParamDomain", "TaskSamples", "OgdConfig", "LearnerOutput",
        "MetaState", "MetaTraining", "Environment", "EnvSpec", "TaskSpec", "ArmResult",
        "MetricsReport"}


def _assert_identity(a, b):
    # two records with equal fields: each is equal only to itself
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


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
    a, b = ARRAY_RECORDS[cls](), ARRAY_RECORDS[cls]()
    assert type(a) is cls
    _assert_identity(a, b)


CONFIG_ITEMS = {"dim": "2", "domain_radius": "1.0", "similarity_v": "0.5",
                "samples_per_task": "10", "t_train": "1", "epsilon": "1.0",
                "delta": "1e-5", "master_seed": "0"}
VALUE_RECORDS = {
    Ball: lambda: Ball((0.0, 0.0), 1.0),
    PrivacyParams: lambda: PrivacyParams(1.0, 1e-5),
    Environment: lambda: Environment(Ball((0.0, 0.0), 1.0), (0.0, 0.0), 0.1, 3),
    ExperimentConfig: lambda: build_config(CONFIG_ITEMS),
}


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_records_of_plain_values_compare_and_hash_by_identity(cls):
    # these held no arrays, so they compared and hashed by their fields once
    a, b = VALUE_RECORDS[cls](), VALUE_RECORDS[cls]()
    assert type(a) is cls and repr(a) == repr(b)
    _assert_identity(a, b)
