"""The value records' hand-written constructors against generated ones.

``VertexSubset``, ``ForestStats``, ``ForestPartition``, ``ConditionRecord``,
``VStarDetail``, ``VmDetail`` and ``WitnessRecord`` are frozen dataclasses
whose ``__init__`` stores the fields straight into the instance
``__dict__``.  Each is compared here with a reference class that
``dataclasses.make_dataclass`` builds from the same fields, whose
``__init__`` the dataclass machinery generates: construction,
``fields``, ``astuple``, ``replace``, eq, hash, repr, freezing, pickling and
deep copies must all behave the same.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from wfcover.forests import ForestPartition, ForestStats
from wfcover.graphs import VertexSubset
from wfcover.theorems import ConditionRecord, VmDetail, VStarDetail, WitnessRecord


def _subsets(order, *masks):
    return tuple(VertexSubset(order, mask) for mask in masks)


# per class, argument tuples: the first two differ in one field, and a later
# one leaves a defaulted field out
_ARGS = {
    VertexSubset: [(24, 0b1011), (24, 0b1001), (1, 0), (70, 1 << 69)],
    ForestStats: [(1, 2, 3, 4), (1, 2, 3, 5), (0, 0, 0, 0)],
    ForestPartition: [_subsets(6, 1, 2, 4, 8, 16), _subsets(6, 1, 2, 4, 8, 0), _subsets(3, 0, 0, 0, 0, 0)],
    ConditionRecord: [
        (VertexSubset(6, 0b111), ForestStats(1, 1, 0, 0), 5, 5, True, VertexSubset(3, 1)),
        (VertexSubset(6, 0b111), ForestStats(1, 1, 0, 0), 5, 4, True, VertexSubset(3, 1)),
        (VertexSubset(6, 0b111), ForestStats(1, 1, 0, 0), 5, 4, False),
    ],
    VStarDetail: [
        (VertexSubset(6, 0b11), 0, "min", VertexSubset(3, 0b101), None),
        (VertexSubset(6, 0b11), 0, "min", VertexSubset(3, 0b101), "not maximal"),
        (VertexSubset(6, 0b11), 2, "max"),
    ],
    VmDetail: [
        (VertexSubset(6, 0b1001), VertexSubset(3, 0b11), True, None),
        (VertexSubset(6, 0b1001), VertexSubset(3, 0b11), True, "not maximal"),
        (VertexSubset(6, 0b1001), VertexSubset(3, 0b11)),
    ],
    WitnessRecord: [
        ("vstar", VertexSubset(6, 0b11), 2, True, VStarDetail(VertexSubset(3, 0b11), 0, "min")),
        ("vstar", VertexSubset(6, 0b11), 2, False, VStarDetail(VertexSubset(3, 0b11), 0, "min")),
        ("vm", None, None, False, VmDetail(VertexSubset(3, 1), VertexSubset(2, 1), None, "no subset")),
        ("vm", None, None, False, {"error": "no subset"}),
    ],
}
_CLASSES = list(_ARGS)


def _reference(cls):
    """A frozen dataclass with ``cls``'s name and fields and a generated
    ``__init__``."""
    specs = []
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            specs.append((f.name, f.type))
        else:
            specs.append((f.name, f.type, dataclasses.field(default=f.default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and text of what it raises."""
    try:
        return "returns", call(*args)
    except Exception as exc:  # the outcome itself is compared
        return "raises", type(exc), str(exc)


def _pairs(cls):
    """Each argument tuple's instance of ``cls`` and of its reference."""
    ref = _reference(cls)
    return [(cls(*args), ref(*args)) for args in _ARGS[cls]]


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
class TestGeneratedContract:
    def test_signature_and_fields(self, cls):
        ref = _reference(cls)

        def params(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        def spec(c):
            return [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash, f.kw_only)
                    for f in dataclasses.fields(c)]

        assert params(cls) == params(ref)
        assert spec(cls) == spec(ref)
        assert cls.__match_args__ == ref.__match_args__

    def test_positional_and_keyword_construction(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        for args in _ARGS[cls]:
            by_position = cls(*args)
            by_keyword = cls(**dict(zip(names, args)))
            assert by_position == by_keyword
            assert vars(by_position) == vars(by_keyword) == vars(_reference(cls)(*args))
            assert list(vars(by_position)) == names

    def test_astuple_and_replace(self, cls):
        ref = _reference(cls)
        for obj, twin in _pairs(cls):
            assert dataclasses.astuple(obj) == dataclasses.astuple(twin)
            assert dataclasses.asdict(obj) == dataclasses.asdict(twin)
        first, second = _ARGS[cls][:2]
        (name, value), = [(f.name, b) for f, a, b in zip(dataclasses.fields(cls), first, second) if a != b]
        changed = dataclasses.replace(cls(*first), **{name: value})
        assert type(changed) is cls and changed == cls(*second)
        assert vars(changed) == vars(dataclasses.replace(ref(*first), **{name: value}))

    def test_eq_hash_and_repr(self, cls):
        pairs = _pairs(cls)
        for obj, twin in pairs:
            assert repr(obj) == repr(twin)
            assert _outcome(hash, obj) == _outcome(hash, twin)
            for other, other_twin in pairs:
                assert (obj == other) == (twin == other_twin)
                assert (obj != other) == (twin != other_twin)
            assert obj != twin  # another class, as between any two dataclasses

    def test_frozen(self, cls):
        for obj, twin in _pairs(cls):
            for f in dataclasses.fields(cls):
                before = getattr(obj, f.name)
                for act in (lambda o: setattr(o, f.name, 0), lambda o: delattr(o, f.name)):
                    with pytest.raises(dataclasses.FrozenInstanceError) as got:
                        act(obj)
                    with pytest.raises(dataclasses.FrozenInstanceError) as want:
                        act(twin)
                    assert str(got.value) == str(want.value)
                assert getattr(obj, f.name) is before
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.extra = 1

    def test_pickle_and_deepcopy(self, cls):
        for obj, _ in _pairs(cls):
            for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
                assert type(back) is cls
                assert back == obj and vars(back) == vars(obj)
                assert _outcome(hash, back) == _outcome(hash, obj)

