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


@pytest.mark.parametrize(
    "kind,d,entries,error,message",
    [
        ("Z", -3, ((1, 2),), ValueError, "kind 'B' or 'C' and d >= 1"),
        ("B", 0, (), ValueError, "kind 'B' or 'C' and d >= 1"),
        ("B", True, ((1,),), TypeError, "a str kind and an int d"),
        (b"B", 1, ((1,),), TypeError, "a str kind and an int d"),
        ("B", 1, [[1]], TypeError, "a tuple of tuples"),
        ("B", 1, ([1],), TypeError, "a tuple of tuples"),
        ("B", 2, ((1, 2),), ValueError, r"^B\(2\) entries must be 2 x 2$"),
        ("C", 1, ((1,),), ValueError, r"^C\(1\) entries must be 2 x 2$"),
        ("C", 1, ((1, 2), (3,)), ValueError, r"^C\(1\) entries must be 2 x 2$"),
        ("B", 1, ((0.5,),), TypeError, "ints or Fractions"),
        ("B", 1, ((True,),), TypeError, "ints or Fractions"),
    ],
    ids=["kind-Z-d-minus-3", "d-zero", "bool-d", "bytes-kind", "list-entries", "list-row",
         "B-too-short", "C-too-short", "C-ragged", "float-entry", "bool-entry"],
)
def test_coeff_matrix_rejects(kind, d, entries, error, message):
    with pytest.raises(error, match=message):
        CoeffMatrix(kind, d, entries)


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
