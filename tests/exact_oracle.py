"""The seed's trial-division root search, Fraction-evaluated C-matrix
cross-check, term-by-term alternating sums, Fraction matrix-vector
product and Fraction-built B and C matrices, kept as test oracles.

``cubary.rational_roots`` replaced the divisor search with Sturm
isolation and bisection over integers, ``_check_c_bivariate`` now
evaluates both sides with integer Horner, ``_c_alternating_sums`` runs
the recursion its sums satisfy, ``CoeffMatrix.apply`` multiplies by
integer-scaled rows with one exact division per entry, and ``b_matrix``
and ``_c_closed_forms`` build integer columns over 2^(d-1) and convert
each entry once. The oracles below are the seed's code, unchanged but
for their names; they take time exponential in the coefficient bit size
(roots), rebuild every power as a ``Fraction`` (bivariate check and the
matrix builders) or take O(d^3) additions (alternating sums), so tests
feed them small inputs only.
"""

import math
from fractions import Fraction

from cubary import CoeffMatrix, RatPoly, b_matrix


def rational_roots_oracle(p: RatPoly) -> list[Fraction]:
    """All distinct rational roots of p, ascending.

    Candidate search over divisors of the cleared constant and leading
    coefficients; every candidate is confirmed by exact evaluation.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    # strip factors of x, then clear denominators to integer coefficients
    roots = set()
    coeffs = list(p.coeffs)
    if coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) > 1:
        lcm = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * lcm) for c in coeffs]
        for pn in _divisors(abs(ints[0])):
            for qd in _divisors(abs(ints[-1])):
                for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                    if p(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            out.append(n // k)
        k += 1
    return sorted(set(out))


def check_c_bivariate_oracle(d: int, entries: tuple) -> None:
    """Compare sum_{i,j} C[i][j] x^i y^j with its bivariate generating
    function on a grid large enough to separate polynomials of the
    degrees involved (x-degree <= d+2, y-degree <= d+1 after clearing
    the two denominators), at points where neither denominator vanishes.
    """
    for x in range(1, d + 4):
        xp3 = Fraction(x + 3)
        x3p1 = Fraction(3 * x + 1)
        for y in range(2, d + 4):
            lhs = sum(
                entries[i][j] * Fraction(x) ** i * Fraction(y) ** j
                for i in range(d + 1)
                for j in range(d + 1)
            )
            rhs = (
                Fraction(1 + x ** (d + 1) * y**d, 1 + x)
                + Fraction(x * y) * Fraction(2) ** (3 - d)
                * (xp3 ** (d - 1) - x3p1 ** (d - 1) * y ** (d - 1))
                / (xp3 - x3p1 * y)
                + Fraction(x, 2 ** (d - 1) * (1 + x))
                * (xp3 ** (d - 1) + x3p1 ** (d - 1) * y**d)
            )
            if lhs != rhs:
                raise RuntimeError(
                    f"C({d}) disagrees with its bivariate generating function "
                    f"at x={x}, y={y}"
                )


def c_alternating_sums_oracle(d: int) -> tuple:
    """C entries from alternating sums of B columns (B(d,k,d) taken as 0)."""
    B = b_matrix(d)

    def b(k: int, j: int):
        return 0 if j == d else B.entries[k][j]

    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i == 0:
                row.append(1 if j == 0 else 0)
                continue
            s = sum(
                (-1) ** (i + k - 1) * (b(k, j) + (b(k, j - 1) if j >= 1 else 0))
                for k in range(i)
            )
            if j == 0:
                s += (-1) ** i
            row.append(int(s) if isinstance(s, Fraction) and s.denominator == 1 else s)
        rows.append(tuple(row))
    return tuple(rows)


def apply_oracle(M, vec) -> tuple:
    """Matrix-vector product over exact rationals."""
    if len(vec) != M.size:
        raise ValueError(f"vector length {len(vec)} != {M.size}")
    out = []
    for row in M.entries:
        s = sum(a * x for a, x in zip(row, vec))
        if isinstance(s, Fraction) and s.denominator == 1:
            s = int(s)
        out.append(s)
    return tuple(out)


def _columns_to_rows(cols: list[tuple], size: int) -> tuple:
    return tuple(tuple(col[i] for col in cols) for i in range(size))


def b_matrix_oracle(d: int) -> CoeffMatrix:
    """Short h-vector transform matrix for complexes with d = dim + 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    half = Fraction(1, 2 ** (d - 1))
    cols = []
    for j in range(d):
        p = RatPoly((1, 3)) ** j * RatPoly((3, 1)) ** (d - 1 - j) * half
        cols.append(p.padded(d))
    return CoeffMatrix("B", d, _columns_to_rows(cols, d))


def c_closed_forms_oracle(d: int) -> tuple:
    one_plus_x = RatPoly((1, 1))
    x = RatPoly.x()
    cols = []
    # j = 0: (x (x+3)^(d-1) / 2^(d-1) + 1) / (1+x)
    num = x * RatPoly((3, 1)) ** (d - 1) * Fraction(1, 2 ** (d - 1)) + 1
    cols.append(num.exact_div(one_plus_x).padded(d + 1))
    # 1 <= j <= d-1: x (3x+1)^(j-1) (x+3)^(d-1-j) / 2^(d-3)
    scale = Fraction(2) ** (3 - d)
    for j in range(1, d):
        p = x * RatPoly((1, 3)) ** (j - 1) * RatPoly((3, 1)) ** (d - 1 - j) * scale
        cols.append(p.padded(d + 1))
    # j = d: (x (3x+1)^(d-1) / 2^(d-1) + x^(d+1)) / (1+x)
    num = x * RatPoly((1, 3)) ** (d - 1) * Fraction(1, 2 ** (d - 1)) + x ** (d + 1)
    cols.append(num.exact_div(one_plus_x).padded(d + 1))
    return _columns_to_rows(cols, d + 1)
