"""Value semantics of cubary's seven immutable record types, and the
immutability of all eight value types.

Each record behaves as a frozen dataclass would: keyword construction, a
repr (``Name(field=value, ...)``, or ``RatPoly([...])``), field-wise
equality and hashing within one class only, and AttributeError on
assignment and on deletion. ``CubicalComplex`` keeps identity equality
but refuses assignment and deletion the same way.
"""

from fractions import Fraction

import pytest

from cubary import (
    CubicalComplex,
    FVector,
    LongHVector,
    RatPoly,
    ShortHVector,
    ValidationReport,
    VoxelSpec,
    gen_cube,
)
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
    (RatPoly, {"coeffs": (1, 2)}, "RatPoly([1, 2])", None),
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


# (type, a factory, the instance's fields)
VALUES = [
    *[(cls, lambda cls=cls, fields=fields: cls(**fields), tuple(fields))
      for cls, fields, _, _ in CASES],
    (CubicalComplex, lambda: gen_cube(1), ("dims", "covered", "keys")),
]


@pytest.mark.parametrize("cls,make,fields", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_assignment_and_deletion_fail(cls, make, fields):
    obj = make()
    before = tuple(getattr(obj, name) for name in fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in fields) == before
    assert not hasattr(obj, "extra")
    if cls is not CubicalComplex:
        assert obj == cls(*before)


def test_slotted_values_have_no_dict():
    assert not hasattr(RatPoly((1,)), "__dict__")
    assert not hasattr(gen_cube(0), "__dict__")
