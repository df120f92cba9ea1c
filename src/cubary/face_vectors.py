"""f-vectors, short and long cubical h-vectors, and the exact integer
identities relating them.

Throughout, a complex of dimension dim has d = dim + 1, the f-vector has
length d, the short h-vector length d, and the long h-vector length d+1
with leading entry 2^(d-1). All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from ._base import _Record
from .polytools import RatPoly, Scalar, _cleared, _exact, _mobius

if TYPE_CHECKING:
    from .complex_core import CubicalComplex


class _Vector(_Record):
    """A vector of exact entries; d = len(entries) unless overridden."""

    __match_args__ = ("entries",)
    entries: tuple[Scalar, ...]

    @property
    def d(self) -> int:
        return len(self.entries)

    def polynomial(self) -> RatPoly:
        return RatPoly(self.entries)


class FVector(_Vector):
    """Face counts (f_0, ..., f_{d-1}); d = len(entries)."""

    def __init__(self, entries: Iterable[int]):
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("f-vector must have length >= 1")
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in entries):
            raise ValueError("f-vector entries must be nonnegative integers")
        if entries[-1] < 1:
            raise ValueError("top face count f_{d-1} must be positive")


class ShortHVector(_Vector):
    """Short cubical h-vector (h_0, ..., h_{d-1}).

    Entries are integers for every actual complex; exact rationals are
    tolerated so transform outputs on non-realizable input stay
    representable.
    """

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(map(_exact, entries)))
        if not self.entries:
            raise ValueError("short h-vector must have length >= 1")


class LongHVector(_Vector):
    """Long cubical h-vector (h_0, ..., h_d); h_0 is pinned to 2^(d-1)."""

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(map(_exact, entries)))
        if len(self.entries) < 2:
            raise ValueError("long h-vector must have length >= 2")
        if self.entries[0] != 2 ** (self.d - 1):
            raise ValueError(
                f"long h-vector must start with 2^(d-1) = {2 ** (self.d - 1)}, "
                f"got {self.entries[0]}"
            )

    @property
    def d(self) -> int:
        return len(self.entries) - 1


def f_vector(K: CubicalComplex) -> FVector:
    """Exact face counts of K by dimension.

    Assumes K is a valid complex (see validate(), which the CLI runs on
    every complex it reads).
    """
    counts = [0] * (K.dim + 1)
    for d in K.dims:
        counts[d] += 1
    return FVector(tuple(counts))


def hsc_from_f(f: FVector) -> ShortHVector:
    """Short h-vector: h_i = sum_{j<=i} C(d-1-j, d-1-i) (-1)^(i-j) 2^j f_j.

    Equivalently the coefficient vector of
    sum_j f_j (2x)^j (1-x)^(d-1-j).
    """
    d = f.d
    h = []
    for i in range(d):
        s = 0
        for j in range(i + 1):
            s += math.comb(d - 1 - j, d - 1 - i) * (-1) ** (i - j) * 2**j * f.entries[j]
        h.append(s)
    return ShortHVector(tuple(h))


def f_from_hsc(h: ShortHVector) -> FVector:
    """Invert hsc_from_f: f_j = 2^(-j) sum_{i<=j} C(d-1-i, d-1-j) h_i,
    the coefficients of sum_i h_i x^i (x+2)^(d-1-i) / 2^(d-1).

    Raises ValueError at the first index where the result is not a
    nonnegative integer, which signals that h is not the short h-vector
    of any cubical complex.
    """
    den, hs = _cleared(h.entries)
    den <<= h.d - 1
    f = []
    for j, u in enumerate(_mobius(hs, 1, 0, 1, 2)):
        if u % den or u < 0:
            raise ValueError(f"entry f_{j} = {Fraction(u, den)} is not a nonnegative integer")
        f.append(u // den)
    return FVector(tuple(f))


def _hc_recursion(h: ShortHVector) -> LongHVector:
    """Long h-vector via h_{i+1}^c = h_i^sc - h_i^c, started at h_0^c = 2^(d-1)."""
    hc: list[Scalar] = [2 ** (h.d - 1)]
    for x in h.entries:
        hc.append(x - hc[-1])
    return LongHVector(hc)


def _hc_closed_form(h: ShortHVector) -> list[Scalar]:
    """h_i^c = sum_{j<i} (-1)^(i+j-1) h_j^sc + (-1)^i 2^(d-1), for i = 0..d."""
    d = h.d
    return [
        sum((-1) ** (i + j - 1) * h.entries[j] for j in range(i)) + (-1) ** i * 2 ** (d - 1)
        for i in range(d + 1)
    ]


def _hc_mismatch(h: ShortHVector, hc: LongHVector) -> str:
    """"" when hc agrees entrywise with the closed form for h, else the
    first differing index and both values."""
    for i, (rec, closed) in enumerate(zip(hc.entries, _hc_closed_form(h))):
        if rec != closed:
            return f"index {i}: {rec} vs {closed}"
    return ""


def hc_from_hsc(h: ShortHVector) -> LongHVector:
    """Long h-vector via the recursion h_{i+1}^c = h_i^sc - h_i^c,
    started at h_0^c = 2^(d-1).

    The alternating-sum closed form is recomputed independently and must
    agree entrywise; a disagreement raises RuntimeError.
    """
    hc = _hc_recursion(h)
    mismatch = _hc_mismatch(h, hc)
    if mismatch:
        raise RuntimeError(f"long h-vector recursion and closed form disagree at {mismatch}")
    return hc


def hsc_from_hc(h: LongHVector) -> ShortHVector:
    """Collapse a long h-vector: h_i^sc = h_i^c + h_{i+1}^c."""
    return ShortHVector(
        tuple(h.entries[i] + h.entries[i + 1] for i in range(h.d))
    )


def euler_reduced(f: FVector) -> int:
    """Reduced Euler characteristic: -1 + sum (-1)^i f_i."""
    return -1 + sum((-1) ** i * fi for i, fi in enumerate(f.entries))


def check_long_short_identity(f: FVector) -> bool:
    """Verify (1+x) h^c(x) = 2^(d-1) + x h^sc(x) + 2^(d-1) (-x)^(d+1) chi~
    as exact polynomials, with every quantity derived from f."""
    hsc, top = hsc_from_f(f), 2 ** (f.d - 1)
    lhs = RatPoly((1, 1)) * _hc_recursion(hsc).polynomial()
    return lhs == RatPoly((top, *hsc.entries, (-1) ** (f.d + 1) * top * euler_reduced(f)))


def summary(K: CubicalComplex) -> dict:
    """JSON-ready vector summary: d, f, hsc, hc, reduced Euler characteristic.

    Assumes K is a valid complex; the CLI validates it first.
    """
    f = f_vector(K)
    hsc = hsc_from_f(f)
    hc = hc_from_hsc(hsc)
    return {
        "d": f.d,
        "f": list(f.entries),
        "hsc": list(hsc.entries),
        "hc": list(hc.entries),
        "euler_reduced": euler_reduced(f),
    }
