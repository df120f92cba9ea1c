"""The seed's trial-division root search, Fraction-evaluated C-matrix
cross-check, term-by-term alternating sums, Fraction matrix-vector
product, Fraction-built B and C matrices, Fraction Euclid behind the
gcd, square-free part and Sturm counts, the Moebius substitution by
``RatPoly`` powers, the Fraction route from the Moebius substitution to
the iterates and the limit rows, and the double sums behind
``f_of_subdivision`` and ``f_from_hsc``, kept as test oracles.

``cubary.rational_roots`` replaced the divisor search with Sturm
isolation and bisection over integers, ``_check_c_bivariate`` first
evaluated both sides with integer Horner on the same grid and now
compares the cleared polynomials coefficient by coefficient (the grid
is kept as a second oracle), ``_c_alternating_sums`` runs
the recursion its sums satisfy, ``CoeffMatrix.apply`` multiplies by
integer-scaled rows with one exact division per entry, ``b_matrix``
and ``_c_closed_forms`` build integer columns over 2^(d-1) and convert
each entry once, ``real_root_count`` and ``is_real_rooted`` read one
primitive integer Sturm sequence, ``rational_roots`` divides that
sequence exactly by its last member, gcd(p, p'), in place of a separate
gcd and square-free part, and ``mobius_transform`` sums by
homogeneous Horner with one linear factor per step; the iterates,
``_limit_rows``, ``f_of_subdivision`` and ``f_from_hsc`` run that sum
on integer numerators and form Fractions only in what they return. The oracles
below are the earlier code, unchanged but for their names (the iterates
substitute with ``mobius_transform_oracle``, so they do not share the
integer Horner sum); they take time exponential in the coefficient bit
size (roots), rebuild every power as a ``Fraction`` (bivariate check,
the matrix builders, the substitution and the iterates), take
O(d^3) additions (alternating sums) or big-int Horner steps
(integer grid), or grow Fraction remainders to
about degree^5 time (Euclid), so tests feed them small inputs only.
"""

import math
from fractions import Fraction

from typing import Sequence

from cubary import CoeffMatrix, FVector, RatPoly, ShortHVector, b_matrix, hsc_from_hc
from cubary.polytools import Scalar, _divided, _homogeneous


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


def check_c_bivariate_grid_oracle(d: int, den: int, rows: tuple) -> None:
    """Compare sum_{i,j} C[i][j] x^i y^j, C = rows / den, with its
    bivariate generating function on a grid large enough to separate
    polynomials of the degrees involved (x-degree <= d+2, y-degree <= d+1
    after clearing the two denominators), at points where neither
    denominator vanishes.

    Everything is integer arithmetic: rows are evaluated by Horner in y
    for each grid y and then in x. The generating function is multiplied
    through by 2^(d+1) (1+x) (x+3 - (3x+1) y), and the two sides are
    compared cross-multiplied, so the time is polynomial in d.
    """
    # at_y[y][i] = den * sum_j C[i][j] y^j, so den * lhs is a polynomial in x
    at_y = {y: [_homogeneous(row, y, 1) for row in rows] for y in range(2, d + 4)}
    for x in range(1, d + 4):
        xp3, x3p1 = x + 3, 3 * x + 1
        a, b = xp3 ** (d - 1), x3p1 ** (d - 1)
        for y in range(2, d + 4):
            lhs = _homogeneous(at_y[y], x, 1)
            g = xp3 - x3p1 * y
            rhs = (
                2 ** (d + 1) * (1 + x ** (d + 1) * y**d) * g
                + 16 * x * y * (a - b * y ** (d - 1)) * (1 + x)
                + 4 * x * (a + b * y**d) * g
            )
            if lhs * 2 ** (d + 1) * (1 + x) * g != den * rhs:
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


def poly_gcd_oracle(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic gcd (a nonzero constant is returned as 1)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * Fraction(1, Fraction(a.leading()))


def square_free_part_oracle(p: RatPoly) -> RatPoly:
    """p divided by gcd(p, p'); has the same roots, all simple."""
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free part")
    if p.degree == 0:
        return RatPoly((1,))
    g = poly_gcd_oracle(p, p.derivative())
    return p.exact_div(g)


def sturm_chain_oracle(p: RatPoly) -> list[RatPoly]:
    """Sturm sequence p, p', then negated Euclidean remainders."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append(-r)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def sturm_count_oracle(q: RatPoly) -> int:
    """Number of real roots of a square-free, nonzero q.

    The sign variation difference of its Sturm chain is taken between
    -infinity and +infinity, read off from leading coefficients.
    """
    if q.degree == 0:
        return 0
    chain = sturm_chain_oracle(q)
    at_neg = [_sign(f.leading()) * (-1) ** f.degree for f in chain]
    at_pos = [_sign(f.leading()) for f in chain]
    return _variations(at_neg) - _variations(at_pos)


def real_root_count_oracle(p: RatPoly) -> int:
    """Number of distinct real roots of p, counted exactly.

    Uses the Sturm chain of the square-free part of p. No numeric root
    finding is involved.
    """
    if p.is_zero():
        raise ValueError("root count of the zero polynomial is undefined")
    return sturm_count_oracle(square_free_part_oracle(p))


def is_real_rooted_oracle(p: RatPoly) -> bool:
    """True iff every complex root of p is real (multiplicities allowed).

    A polynomial has only real roots exactly when its square-free part
    does, so distinct-root counting suffices. Nonzero constants are
    vacuously real-rooted.
    """
    if p.is_zero():
        raise ValueError("real-rootedness of the zero polynomial is undefined")
    q = square_free_part_oracle(p)
    return sturm_count_oracle(q) == q.degree


def mobius_transform_oracle(p: RatPoly, a: int, b: int, c: int, e: int, m: int) -> RatPoly:
    """Expand (c*x + e)^m * p((a*x + b) / (c*x + e)) exactly.

    Equals sum_k p_k (a*x + b)^k (c*x + e)^(m-k); requires m >= deg(p) so
    every term clears its denominator.
    """
    if m < p.degree:
        raise ValueError(f"m={m} is smaller than deg(p)={p.degree}")
    num = RatPoly((b, a))
    den = RatPoly((e, c))
    acc = RatPoly()
    for k, pk in enumerate(p.coeffs):
        if pk == 0:
            continue
        acc = acc + pk * num**k * den ** (m - k)
    return acc


def f_of_subdivision_oracle(f: FVector) -> FVector:
    """f-vector of the subdivision: f_i' = 2^i sum_{j>=i} C(j,i) f_j.

    Exact integers; equivalent to substituting 1+2x into the
    f-polynomial.
    """
    d = f.d
    return FVector(
        tuple(
            2**i * sum(math.comb(j, i) * f.entries[j] for j in range(i, d))
            for i in range(d)
        )
    )


def f_from_hsc_oracle(h: ShortHVector) -> FVector:
    """Invert hsc_from_f: f_j = 2^(-j) sum_{i<=j} C(d-1-i, d-1-j) h_i.

    Raises ValueError at the first index where the result is not a
    nonnegative integer, which signals that h is not the short h-vector
    of any cubical complex.
    """
    d = h.d
    f = []
    for j in range(d):
        s = sum(math.comb(d - 1 - i, d - 1 - j) * h.entries[i] for i in range(j + 1))
        fj = Fraction(s, 2**j)
        if fj.denominator != 1 or fj < 0:
            raise ValueError(f"entry f_{j} = {fj} is not a nonnegative integer")
        f.append(int(fj))
    return FVector(tuple(f))


def long_short_rhs_oracle(d: int, hsc: RatPoly, chi: int) -> RatPoly:
    """2^(d-1) + x h^sc(x) + 2^(d-1) (-x)^(d+1) chi~, which is (1+x) h^c(x)."""
    return RatPoly((2 ** (d - 1), *hsc.padded(d), (-1) ** (d + 1) * 2 ** (d - 1) * chi))


def hsc_poly_of_iterate_oracle(h: ShortHVector, n: int) -> RatPoly:
    """Short h-polynomial after n subdivisions, in closed form.

    Substitutes ((2^n+1)x + 2^n-1) / ((2^n-1)x + 2^n+1) into the
    polynomial of h, clears denominators to degree d-1, and scales by
    2^-(d-1). For n=0 this is the identity; for n=1 it matches one
    application of the B matrix.
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    d = h.d
    a, b = 2**n + 1, 2**n - 1
    return mobius_transform_oracle(h.polynomial(), a, b, b, a, d - 1) * Fraction(1, 2 ** (d - 1))


def hc_poly_of_iterate_oracle(hsc: ShortHVector, euler: int, n: int) -> RatPoly:
    """Long h-polynomial after n subdivisions, from the short iterate."""
    rhs = long_short_rhs_oracle(hsc.d, hsc_poly_of_iterate_oracle(hsc, n), euler)
    return RatPoly(_divided(rhs.coeffs, 1))


def limit_rows_oracle(hsc: ShortHVector, f_top: int, euler, ns):
    """For each n in ns, the level-n short h-polynomial (euler None) or
    long one (euler the reduced Euler characteristic), scaled by
    2^-n(d-1) and padded to d or d+1 coefficients, and its max-norm
    distance from the limit f_top (x+1)^(d-1) or f_top x (x+1)^(d-2).
    """
    d = hsc.d
    if euler is None:
        limit, length = f_top * RatPoly((1, 1)) ** (d - 1), d
    else:
        limit, length = f_top * RatPoly.x() * RatPoly((1, 1)) ** (d - 2), d + 1
    limit = limit.padded(length)
    for n in ns:
        p_n = (
            hsc_poly_of_iterate_oracle(hsc, n) if euler is None
            else hc_poly_of_iterate_oracle(hsc, euler, n)
        )
        scaled = (p_n * Fraction(1, 2 ** (n * (d - 1)))).padded(length)
        dist = max((abs(Fraction(a - b)) for a, b in zip(scaled, limit)), default=Fraction(0))
        yield scaled, dist


def limit_distance_hsc_oracle(h: ShortHVector, f_top: int, n: int) -> Fraction:
    """Max-norm distance between the 2^-n(d-1)-scaled level-n short
    h-polynomial and its coefficientwise limit f_top * (x+1)^(d-1)."""
    d = h.d
    if sum(h.entries) != 2 ** (d - 1) * f_top:
        raise ValueError(
            f"f_top={f_top} inconsistent with h: sum(h) = {sum(h.entries)} "
            f"!= 2^(d-1) * f_top = {2 ** (d - 1) * f_top}"
        )
    return next(limit_rows_oracle(h, f_top, None, (n,)))[1]


def limit_distance_hc_oracle(h, f_top: int, euler: int, n: int) -> Fraction:
    """Max-norm distance between the 2^-n(d-1)-scaled level-n long
    h-polynomial and its limit f_top * x * (x+1)^(d-2)."""
    d = h.d
    if d < 2:
        raise ValueError("long h-vector limits need d >= 2")
    if h.entries[-1] != (-2) ** (d - 1) * euler:
        raise ValueError(
            f"euler={euler} inconsistent with h: h_d = {h.entries[-1]} "
            f"!= (-2)^(d-1) * euler = {(-2) ** (d - 1) * euler}"
        )
    hsc = hsc_from_hc(h)
    if sum(hsc.entries) != 2 ** (d - 1) * f_top:
        raise ValueError(
            f"f_top={f_top} inconsistent with h: derived short h-vector "
            f"sums to {sum(hsc.entries)}, expected {2 ** (d - 1) * f_top}"
        )
    return next(limit_rows_oracle(hsc, f_top, euler, (n,)))[1]
