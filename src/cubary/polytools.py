"""Exact rational polynomial arithmetic, Moebius-composed substitutions,
real root counting and isolation, and vector shape predicates.

Everything here is exact: coefficients are Python ints or
``fractions.Fraction`` and no floating point is used anywhere. One
primitive integer Sturm sequence serves root counting and, divided
exactly by its last member, rational root isolation. One linear-factor
step, ``_times`` or ``_divided``, expands the substitution's linear
powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

from ._base import _Record

Scalar = Union[int, Fraction]


def _exact(x) -> Scalar:
    """Coerce to int or Fraction; integral Fractions become ints."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RatPoly(_Record):
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored constant-term first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)
    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def padded(self, n: int) -> tuple:
        """Coefficients c_0..c_{n-1}, zero-padded; fails if degree >= n."""
        if len(self.coeffs) > n:
            raise ValueError(f"degree {self.degree} does not fit in {n} slots")
        return self.coeffs + (0,) * (n - len(self.coeffs))

    def __add__(self, other):
        other = _as_poly(other)
        return RatPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _exact(other)  # a bool is refused, as in +
            return RatPoly(c * other for c in self.coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int:
            raise TypeError(f"polynomial exponent must be an int, got {type(n).__name__}")
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = RatPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = Fraction(other.leading())
        quot = [0] * max(dd - dv + 1, 0)
        for k in range(dd - dv, -1, -1):
            c = rem[dv + k]
            if c == 0:
                continue
            q = _exact(c / lead)
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= q * b
        return RatPoly(quot), RatPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "RatPoly") -> "RatPoly":
        """Divide, requiring a zero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division: remainder {r}")
        return q

    def __call__(self, t: Scalar) -> Scalar:
        t, acc = _exact(t), 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return _exact(acc) if isinstance(acc, Fraction) else acc

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(str(c) if i == 0 else f"{c}*x^{i}" if i > 1 else f"{c}*x")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"RatPoly({list(self.coeffs)!r})"


def _as_poly(p) -> RatPoly:
    if isinstance(p, RatPoly):
        return p
    if isinstance(p, (int, Fraction)):
        return RatPoly((p,))
    raise TypeError(f"cannot treat {type(p).__name__} as a polynomial")


def mobius_transform(p: RatPoly, a: int, b: int, c: int, e: int, m: int) -> RatPoly:
    """Expand (c*x + e)^m * p((a*x + b) / (c*x + e)) exactly.

    Equals sum_k p_k (a*x + b)^k (c*x + e)^(m-k) for an int m >= deg(p),
    summed by _mobius on p's cleared coefficients.
    """
    if type(m) is not int or m < p.degree:
        raise ValueError(f"m={m!r} must be an int >= deg(p)={p.degree}")
    a, b, c, e = map(_exact, (a, b, c, e))
    den, ps = _cleared(p.padded(m + 1))
    return RatPoly(Fraction(u, den) for u in _mobius(ps, a, b, c, e))


def _mobius(ps: Sequence[int], a: int, b: int, c: int, e: int) -> list[int]:
    """sum_k ps[k] (a*x + b)^k (c*x + e)^(m-k), m = len(ps) - 1, by homogeneous
    Horner from k = m down: acc (a*x + b) + ps[k] (c*x + e)^(m-k)."""
    acc, power = [], [1]
    for pk in reversed(ps):
        acc = [u + pk * v for u, v in zip(_times(acc, b, a), power)]
        power = _times(power, e, c)
    return acc


def _times(p: Sequence[Scalar], a: Scalar, b: Scalar) -> list:
    """p (a + b*x), coefficients constant term first; one entry longer than p."""
    return [a * u + b * v for u, v in zip([*p, 0], [0, *p])]


def _divided(p: Sequence[Scalar], a: Scalar) -> list:
    """p / (x + a), one entry shorter; ValueError unless p(-a) = 0."""
    q = [0]
    for c in reversed(p):
        q.append(c - a * q[-1])
    if q.pop():
        raise ValueError(f"x + {a} does not divide the polynomial exactly")
    return q[:0:-1]


def _quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b over ints; ValueError on a remainder or a non-integer quotient."""
    r, q = list(a), []
    for k in range(len(a) - len(b), -1, -1):
        q.append(r[k + len(b) - 1] // b[-1])
        for j, bj in enumerate(b, k):
            r[j] -= q[-1] * bj
    if any(r):
        raise ValueError("inexact polynomial division over the ints")
    return q[::-1]


def _remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lead b|^(deg a - deg b + 1) * (a mod b) over ints: a positive
    multiple of the Euclidean remainder, so every sign is kept."""
    lead = abs(b[-1])
    b = b[:-1] if b[-1] > 0 else [-c for c in b[:-1]]
    r = list(a)
    for k in range(len(a) - len(b) - 1, -1, -1):
        c = r.pop()
        r = [x * lead for x in r]
        if c:
            for j, bj in enumerate(b, k):
                r[j] -= c * bj
    while r and r[-1] == 0:
        r.pop()
    return r


def _chain(p: RatPoly) -> list[list[int]]:
    """Sturm sequence of a nonzero p over ints: p, p', then negated
    remainders until one is zero, each made primitive. Each member is a
    positive multiple of the Euclidean one, so sign variations count p's
    distinct real roots, square-free or not, and the last member is
    gcd(p, p') up to a constant."""
    q = _primitive(p.coeffs)
    chain = [q] if len(q) == 1 else [q, _primitive([i * c for i, c in enumerate(q) if i])]
    while len(chain) > 1 and (r := _remainder(chain[-2], chain[-1])):
        chain.append([-c for c in _primitive(r)])
    return chain


def _variations(values: Iterable[int]) -> int:
    """Sign changes along values, zeros skipped."""
    neg = [v < 0 for v in values if v]
    return sum(a != b for a, b in zip(neg, neg[1:]))


def _count(chain: list[list[int]]) -> int:
    """Distinct real roots of chain[0]: variations at -oo minus at +oo."""
    at_neg = _variations(f[-1] if len(f) % 2 else -f[-1] for f in chain)
    return at_neg - _variations(f[-1] for f in chain)


def real_root_count(p: RatPoly) -> int:
    """Number of distinct real roots of p, counted exactly on p's own
    integer Sturm sequence; no numeric root finding is involved."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    return _count(_chain(p))


def is_real_rooted(p: RatPoly) -> bool:
    """True iff every complex root of p is real (multiplicities allowed):
    p has deg p - deg gcd(p, p') distinct roots, and that gcd ends its
    Sturm sequence. Nonzero constants are vacuously real-rooted."""
    if p.is_zero():
        raise ValueError("real-rootedness of the zero polynomial is undefined")
    chain = _chain(p)
    return _count(chain) == len(chain[0]) - len(chain[-1])


def rational_roots(p: RatPoly) -> list[Fraction]:
    """All distinct rational roots of p, ascending.

    Zero is split off first. The rest gets its primitive integer Sturm
    sequence, and each member is divided exactly by the last, the gcd of
    the rest and its derivative. That divided sequence is a Sturm
    sequence of its first member q, the square-free part, so a rational
    root u/v in lowest terms has v dividing the leading coefficient L of
    q, and two such roots lie at least 1/L^2 apart. The real roots of q
    are isolated by its variation counts from a power of two above the
    Cauchy bound, and each isolating interval is bisected to a width
    under 1/(2 L^2). The only candidate in it is then the fraction with
    denominator at most L nearest its midpoint, and it is kept only when
    exact evaluation gives 0. Every step is integer arithmetic on dyadic
    points, so the time is polynomial in the degree and the coefficient
    bit size.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    low = next(i for i, c in enumerate(p.coeffs) if c != 0)
    roots = [Fraction(0)] if low else []
    if p.degree > low:
        chain = _chain(RatPoly(p.coeffs[low:]))
        roots += _nonzero_rational_roots([_quotient(f, chain[-1]) for f in chain])
    return sorted(roots)


def _cleared(xs: Sequence[Scalar]) -> tuple[int, list[int]]:
    """The least common denominator of xs, and each x times it."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _primitive(coeffs: Sequence[Scalar]) -> list[int]:
    """Integer coefficients of a positive rational multiple with content 1."""
    ints = _cleared(coeffs)[1]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _homogeneous(f: Sequence[int], a: int, b: int) -> int:
    """b^deg(f) * f(a/b) by integer Horner; its sign is that of f(a/b) for b > 0."""
    acc, bp = 0, 1
    for c in reversed(f):
        acc = acc * a + c * bp
        bp *= b
    return acc


def _nonzero_rational_roots(chain: list[list[int]]) -> list[Fraction]:
    """Rational roots of a square-free q = chain[0] with q(0) != 0, given a
    Sturm sequence of q over ints (see rational_roots)."""
    q, lead = chain[0], abs(chain[0][-1])

    def variations(a: int, k: int) -> int:
        return _variations(_homogeneous(f, a, 1 << k) for f in chain)

    # a power of two above the Cauchy bound 1 + max|q_i| / lead, so no root
    # lies on either end of the first interval
    bound = 1 << (max(map(abs, q[:-1])) // lead + 2).bit_length()
    # (lo, hi, k, V(lo), V(hi)): the interval (lo/2^k, hi/2^k] holds
    # V(lo) - V(hi) distinct real roots
    stack = [(-bound, bound, 0, variations(-bound, 0), variations(bound, 0))]
    roots = []
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1 and (hi - lo) * 2 * lead * lead < 1 << k:
            cand = Fraction(lo + hi, 1 << (k + 1)).limit_denominator(lead)
            if _homogeneous(q, cand.numerator, cand.denominator) == 0:
                roots.append(cand)
            continue
        mid, k = lo + hi, k + 1
        v_mid = variations(mid, k)
        stack.append((2 * lo, mid, k, v_lo, v_mid))
        stack.append((mid, 2 * hi, k, v_mid, v_hi))
    return roots


def shape_predicates(v: Sequence[Scalar]) -> dict:
    """Nonnegativity, symmetry (palindrome), and unimodality of a vector
    of ints or Fractions; a float or bool entry raises TypeError."""
    v = [*map(_exact, v)]
    n = len(v)
    nonnegative = all(x >= 0 for x in v)
    symmetric = all(v[i] == v[n - 1 - i] for i in range(n))
    i = 0
    while i + 1 < n and v[i] <= v[i + 1]:
        i += 1
    while i + 1 < n and v[i] >= v[i + 1]:
        i += 1
    unimodal = i == n - 1 or n == 0
    return {"nonnegative": nonnegative, "symmetric": symmetric, "unimodal": unimodal}
