"""Value semantics of cubary's six immutable record types.

Each behaves as a frozen dataclass would: keyword construction, a
``Name(field=value, ...)`` repr, field-wise equality and hashing within
one class only, and AttributeError on assignment and on deletion.
"""

from fractions import Fraction

import pytest

from cubary import FVector, LongHVector, ShortHVector, ValidationReport, VoxelSpec
from cubary.transform import CoeffMatrix

# (type, keyword fields, repr, an instance of another type with equal fields or None)
CASES = [
    (VoxelSpec, {"ambient_dim": 1, "corners": ((0,),)},
     "VoxelSpec(ambient_dim=1, corners=((0,),))", None),
    (ValidationReport, {"ok": False, "violations": ("bad",)},
     "ValidationReport(ok=False, violations=('bad',))", None),
    (FVector, {"entries": (1, 2)}, "FVector(entries=(1, 2))", ShortHVector((1, 2))),
    (ShortHVector, {"entries": (1, Fraction(1, 2))},
     "ShortHVector(entries=(1, Fraction(1, 2)))", None),
    (LongHVector, {"entries": (2, 1, 1)}, "LongHVector(entries=(2, 1, 1))",
     ShortHVector((2, 1, 1))),
    (CoeffMatrix, {"kind": "B", "d": 1, "entries": ((1,),)},
     "CoeffMatrix(kind='B', d=1, entries=((1,),))", None),
]


@pytest.mark.parametrize("cls,fields,text,twin", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, text, twin):
    a = cls(**fields)
    b = cls(*fields.values())
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # another class with equal fields, or the bare field values, is unequal
    values = tuple(fields.values())
    assert a != values
    if twin is not None:
        assert tuple(getattr(twin, k) for k in fields) == values
        assert a != twin and twin != a
    name = next(iter(fields))
    for attr in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b


def test_cached_scaling_leaves_value_alone():
    a = CoeffMatrix("B", 2, ((Fraction(1, 2), 3), (1, 0)))
    b = CoeffMatrix("B", 2, ((Fraction(1, 2), 3), (1, 0)))
    assert a._scaled == (2, ((1, 6), (2, 0)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "CoeffMatrix(kind='B', d=2, entries=((Fraction(1, 2), 3), (1, 0)))"
