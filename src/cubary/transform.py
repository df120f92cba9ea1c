"""Coefficient matrices for the h-vector transforms under cubical
barycentric subdivision, applied without constructing the subdivision,
plus iterate closed forms and limit distances.

The short-transform matrix B(d) is d x d with column j holding the
coefficients of (3x+1)^j (x+3)^(d-1-j) / 2^(d-1). The long-transform
matrix C(d) is (d+1) x (d+1); its columns come from three column
generating functions and are cross-checked against two independent
formulations. Both are built as integer columns over 2^(d-1) by linear
steps (times 3x+1, exactly over x+3), and each entry is formed once.
"""

from __future__ import annotations

import operator
import warnings
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice
from math import comb

from ._base import _Record
from .face_vectors import FVector, LongHVector, ShortHVector, hsc_from_hc
from .polytools import RatPoly, Scalar, _cleared, _divided, _mobius, _times


class CoeffMatrix(_Record):
    """Exact rational transform matrix, entries[i][j], kind "B" or "C"."""

    __match_args__ = ("kind", "d", "entries")
    kind: str
    d: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __init__(self, kind: str, d: int, entries: tuple[tuple[Scalar, ...], ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", entries)
        if type(kind) is not str or type(d) is not int:
            raise TypeError(f"CoeffMatrix needs a str kind and an int d, got {kind!r} and {d!r}")
        if kind not in ("B", "C") or d < 1:
            raise ValueError(f"CoeffMatrix needs kind 'B' or 'C' and d >= 1, got {kind!r} and {d}")
        if type(entries) is not tuple or {*map(type, entries)} - {tuple}:
            raise TypeError("CoeffMatrix entries must be a tuple of tuples")
        size = d + (kind == "C")  # B(d) is d x d, C(d) is (d+1) x (d+1)
        if len(entries) != size or {*map(len, entries)} != {size}:
            raise ValueError(f"{kind}({d}) entries must be {size} x {size}")
        if {*map(type, chain.from_iterable(entries))} - {int, Fraction}:
            raise TypeError("CoeffMatrix entries must be ints or Fractions")

    @property
    def size(self) -> int:
        return len(self.entries)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The entries' common denominator and the entries times it."""
        den, flat = _cleared([e for row in self.entries for e in row])
        it = iter(flat)
        return den, tuple(tuple(islice(it, len(row))) for row in self.entries)

    def apply(self, vec) -> tuple[Scalar, ...]:
        """Matrix-vector product over exact rationals: an int where the
        entry is integral, a Fraction otherwise.

        The vector's denominators are cleared too, so each entry is one
        integer dot product and one exact division.
        """
        if len(vec) != self.size:
            raise ValueError(f"vector length {len(vec)} != {self.size}")
        if not all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for x in vec):
            raise TypeError("apply needs int or Fraction entries")
        vden, xs = _cleared(vec)
        den, rows = self._scaled
        den *= vden
        out = []
        for row in rows:
            s = sum(map(operator.mul, row, xs))
            q, r = divmod(s, den)
            out.append(Fraction(s, den) if r else q)
        return tuple(out)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def _over(den: int, rows) -> tuple:
    """Rows of integer numerators over den as entries: an int where the
    entry is integral, a Fraction in lowest terms otherwise."""
    return tuple(tuple(Fraction(n, den) if n % den else n // den for n in row) for row in rows)


def _columns(m: int) -> list[list[int]]:
    """(3x+1)^j (x+3)^(m-j) for j = 0..m, m+1 coefficients each: (x+3)^m
    by the binomial theorem, then each column times 3x+1 over x+3."""
    cols = [[comb(m, i) * 3 ** (m - i) for i in range(m + 1)]]
    for _ in range(m):
        cols.append(_divided(_times(cols[-1], 1, 3), 3))
    return cols


@lru_cache(maxsize=None, typed=True)
def b_matrix(d: int) -> CoeffMatrix:
    """Short h-vector transform matrix for complexes with d = dim + 1.

    Column j times 2^(d-1) is (3x+1)^j (x+3)^(d-1-j).
    """
    if type(d) is not int or d < 1:
        raise ValueError("d must be an int >= 1")
    return CoeffMatrix("B", d, _over(2 ** (d - 1), zip(*_columns(d - 1))))


@lru_cache(maxsize=None, typed=True)
def c_matrix(d: int) -> CoeffMatrix:
    """Long h-vector transform matrix for complexes with d = dim + 1.

    Built from the per-column closed forms (the j=0 and j=d cases divide
    exactly by 1+x), then required to agree with (a) alternating sums
    over the B matrix and (b) the bivariate generating function,
    coefficient by coefficient, all on integer rows over 2^(d-1).
    Disagreement means an implementation bug and raises RuntimeError.
    """
    if type(d) is not int or d < 1:
        raise ValueError("d must be an int >= 1")
    den, rows = _c_closed_forms(d)
    if _c_alternating_sums(d) != (den, rows):
        raise RuntimeError(f"C({d}) closed forms disagree with alternating sums over B")
    _check_c_bivariate(d, den, rows)
    return CoeffMatrix("C", d, _over(den, rows))


def _c_closed_forms(d: int) -> tuple[int, tuple]:
    """C's rows as integers over den = 2^(d-1), from the columns' closed
    forms times den; independent of B."""
    den = 2 ** (d - 1)
    xp3 = [comb(d - 1, i) * 3 ** (d - 1 - i) for i in range(d)]
    # j = 0: (x (x+3)^(d-1) + den) / (1+x)
    cols = [_divided([den, *xp3], 1) + [0]]
    # 1 <= j <= d-1: 4x (3x+1)^(j-1) (x+3)^(d-1-j)
    cols += ([0, *(4 * c for c in col), 0] for col in (_columns(d - 2) if d > 1 else ()))
    # j = d: (x (3x+1)^(d-1) + den x^(d+1)) / (1+x); (3x+1)^(d-1) is (x+3)^(d-1) reversed
    cols.append(_divided([0, *reversed(xp3), den], 1))
    return den, tuple(zip(*cols))


def _c_alternating_sums(d: int) -> tuple[int, tuple]:
    """C's rows as integers over B's least denominator, 2^(d-1), from
    alternating sums of B columns (B(d,k,d) taken as 0).

    C[i][j] = (-1)^i [j=0] + sum_{k<i} (-1)^(i+k-1) (B[k][j] + B[k][j-1]),
    computed by the recursion it sums: C[0][j] = [j=0] and
    C[i+1][j] = B[i][j] + B[i][j-1] - C[i][j], so the time is O(d^2).
    """
    den, B = b_matrix(d)._scaled
    rows = [(den,) + (0,) * d]
    for row in B:
        rows.append(tuple(a + b - c for a, b, c in zip(row + (0,), (0,) + row, rows[-1])))
    return den, tuple(rows)


def _check_c_bivariate(d: int, den: int, rows: tuple) -> None:
    """Compare sum_{i,j} C[i][j] x^i y^j, C = rows / den, with its bivariate
    generating function coefficient by coefficient. Times 2^(d+1) (1+x) g,
    g = x+3 - (3x+1) y, that function is
    g (2^(d+1) + 4x a) + g y^d (4x b + 2^(d+1) x^(d+1)) + 16x (1+x) (a y - b y^d),
    a = (x+3)^(d-1) and b = (3x+1)^(d-1), a reversed; the difference D of
    the two sides must vanish. D has x-degree <= d+2 and y-degree <= d+1,
    so a nonzero D is nonzero somewhere on x = 1..d+3, y = 2..d+3, where
    neither 1+x nor g is 0; the error names the first such point.
    """
    s, m, a = 2 ** (d + 1), 16 * den, [comb(d - 1, k) * 3 ** (d - 1 - k) for k in range(d)]
    # (x power, y power, coefficient) terms of 2^(d+1) (1+x) g, and of -den g
    lhs = ((0, 0, 3 * s), (1, 0, 4 * s), (2, 0, s), (0, 1, -s), (1, 1, -4 * s), (2, 1, -3 * s))
    g = ((0, 0, -3 * den), (1, 0, -den), (0, 1, den), (1, 1, 3 * den))
    # (xs, q, terms): D += sum_i xs[i] x^i y^q times the terms' sum
    pieces = [(col, j, lhs) for j, col in enumerate(zip(*rows))] + [
        ([s, *(4 * c for c in a)], 0, g), ([0, *(4 * c for c in a[::-1]), s], d, g),
        (a, 1, ((1, 0, -m), (2, 0, -m))), (a[::-1], d, ((1, 0, m), (2, 0, m)))]
    D = {}
    for xs, q, terms in pieces:
        for i, c in enumerate(xs):
            for p, r, e in terms:
                D[i + p, q + r] = D.get((i + p, q + r), 0) + e * c
    bad = [(ij, c) for ij, c in D.items() if c]
    if bad:
        x, y = next((x, y) for x in range(1, d + 4) for y in range(2, d + 4)
                    if sum(c * x**i * y**j for (i, j), c in bad))
        raise RuntimeError(
            f"C({d}) disagrees with its bivariate generating function at x={x}, y={y}")


def f_of_subdivision(f: FVector) -> FVector:
    """f-vector of the subdivision: f_i' = 2^i sum_{j>=i} C(j,i) f_j.

    Exact integers; the f-polynomial with 1+2x substituted for x.
    """
    return FVector(_mobius(f.entries, 2, 1, 0, 1))


def _warn_if_fractional(entries, what: str) -> None:
    if any(isinstance(x, Fraction) for x in entries):
        warnings.warn(
            f"{what} produced non-integer entries; the input vector is not "
            f"realizable as a cubical h-vector",
            RuntimeWarning,
            stacklevel=3,
        )


def hsc_of_subdivision(h: ShortHVector) -> ShortHVector:
    """Short h-vector of the subdivision, via the B matrix alone."""
    out = b_matrix(h.d).apply(h.entries)
    _warn_if_fractional(out, "hsc_of_subdivision")
    return ShortHVector(out)


def hc_of_subdivision(h: LongHVector) -> LongHVector:
    """Long h-vector of the subdivision, via the C matrix alone."""
    out = c_matrix(h.d).apply(h.entries)
    _warn_if_fractional(out, "hc_of_subdivision")
    return LongHVector(out)


def _iterate(h: ShortHVector, euler: int | None, n: int) -> tuple[int, list[int]]:
    """The short h-polynomial after n subdivisions (euler None) or the
    long one (euler the reduced Euler characteristic), as d or d+1
    integer numerators over one den > 0.

    The short one substitutes ((2^n+1)x + 2^n-1) / ((2^n-1)x + 2^n+1)
    into h's polynomial, clears denominators to degree d-1 and scales by
    2^-(d-1). The long one divides (1+x) h^c(x) = 2^(d-1) + x h^sc(x) +
    2^(d-1) (-x)^(d+1) euler exactly by 1+x.
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    d = h.d
    a, b, top = 2**n + 1, 2**n - 1, 2 ** (d - 1)
    den, hs = _cleared(h.entries)
    nums = _mobius(hs, a, b, b, a)
    den *= top
    if euler is not None:
        nums = _divided([top * den, *nums, (-1) ** (d + 1) * top * euler * den], 1)
    return den, nums


def hsc_poly_of_iterate(h: ShortHVector, n: int) -> RatPoly:
    """Short h-polynomial after n subdivisions, in closed form. For n=0
    this is h's own; for n=1 it matches one application of the B matrix."""
    den, nums = _iterate(h, None, n)
    return RatPoly(Fraction(u, den) for u in nums)


def hc_poly_of_iterate(hsc: ShortHVector, euler: int, n: int) -> RatPoly:
    """Long h-polynomial after n subdivisions, from the short iterate."""
    if type(euler) is not int:  # None would ask _iterate for the short one
        raise ValueError("euler must be an int")
    den, nums = _iterate(hsc, euler, n)
    return RatPoly(Fraction(u, den) for u in nums)


def limit_distance_hsc(h: ShortHVector, f_top: int, n: int) -> Fraction:
    """Max-norm distance between the 2^-n(d-1)-scaled level-n short
    h-polynomial and its coefficientwise limit f_top * (x+1)^(d-1)."""
    d = h.d
    rows = _limit_rows(h, f_top, None, (n,))
    if sum(h.entries) != 2 ** (d - 1) * f_top:
        raise ValueError(
            f"f_top={f_top} inconsistent with h: sum(h) = {sum(h.entries)} "
            f"!= 2^(d-1) * f_top = {2 ** (d - 1) * f_top}"
        )
    return next(rows)[1]


def limit_distance_hc(h: LongHVector, f_top: int, euler: int, n: int) -> Fraction:
    """Max-norm distance between the 2^-n(d-1)-scaled level-n long
    h-polynomial and its limit f_top * x * (x+1)^(d-2)."""
    d = h.d
    if d < 2:
        raise ValueError("long h-vector limits need d >= 2")
    if type(euler) is not int:  # None would ask _limit_rows for short rows
        raise ValueError("euler must be an int")
    hsc = hsc_from_hc(h)
    rows = _limit_rows(hsc, f_top, euler, (n,))
    if h.entries[-1] != (-2) ** (d - 1) * euler:
        raise ValueError(
            f"euler={euler} inconsistent with h: h_d = {h.entries[-1]} "
            f"!= (-2)^(d-1) * euler = {(-2) ** (d - 1) * euler}"
        )
    if sum(hsc.entries) != 2 ** (d - 1) * f_top:
        raise ValueError(
            f"f_top={f_top} inconsistent with h: derived short h-vector "
            f"sums to {sum(hsc.entries)}, expected {2 ** (d - 1) * f_top}"
        )
    return next(rows)[1]


def _limit_rows(hsc: ShortHVector, f_top: int, euler: int | None, ns):
    """For each n in ns, the level-n short h-polynomial (euler None) or
    long one (euler the reduced Euler characteristic) scaled by
    2^-n(d-1), as the numerators of _iterate over 2^n(d-1) times its
    den, and its max-norm distance from the limit f_top (x+1)^(d-1) or
    f_top x (x+1)^(d-2). f_top is checked at the call, before the
    callers' consistency checks multiply it.
    """
    if type(f_top) is not int:
        raise ValueError("f_top must be an int")
    d, long = hsc.d, euler is not None
    limit = [0] * long + [f_top * comb(d - 1 - long, i) for i in range(d)]

    def row(n):
        den, nums = _iterate(hsc, euler, n)
        den <<= n * (d - 1)
        return nums, Fraction(max(abs(u - den * v) for u, v in zip(nums, limit)), den)

    return map(row, ns)


def _distance_bits(hsc: ShortHVector, f_top: int, euler: int, n: int) -> int:
    """Bits bounding the numerator and denominator of every distance
    _limit_rows gives for rows 0..n of an integer short h-vector, short
    or long.

    The level-n polynomials have denominators dividing 2^(d-1), so the
    scaled ones have denominators dividing 2^E, E = (n+1)(d-1). Each
    Mobius term h_k (ax+b)^k (bx+a)^(d-1-k) has coefficients summing to
    at most |h_k| (a+b)^(d-1) = |h_k| 2^E, so a scaled short coefficient
    is at most |h|_1 in absolute value. Dividing by 1+x sums prefixes of
    the long right-hand side, adding at most 2^(d-1) (1 + |euler|), and
    no limit coefficient exceeds f_top 2^(d-1). So the numerator is
    below B 2^E with B = |h|_1 + 2^(d-1) (f_top + 1 + |euler|); the bound
    grows with n.
    """
    d = hsc.d
    bound = sum(map(abs, hsc.entries)) + 2 ** (d - 1) * (f_top + 1 + abs(euler))
    return (n + 1) * (d - 1) + bound.bit_length()
