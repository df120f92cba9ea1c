"""The seed's trial-division root search and Fraction-evaluated C-matrix
cross-check, kept as test oracles.

``cubary.rational_roots`` replaced the divisor search with Sturm
isolation and bisection over integers, and ``_check_c_bivariate`` now
evaluates both sides with integer Horner. The oracles below are the
seed's code, unchanged but for their names; they take time exponential
in the coefficient bit size (roots) or rebuild every power as a
``Fraction`` (bivariate check), so tests feed them small inputs only.
"""

import math
from fractions import Fraction

from cubary import RatPoly


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
