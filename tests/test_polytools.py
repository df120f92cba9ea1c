import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary.polytools import (
    RatPoly,
    is_real_rooted,
    mobius_transform,
    rational_roots,
    real_root_count,
    shape_predicates,
    _divided,
    _quotient,
    _times,
)
from cubary import polytools
from exact_oracle import (
    derivative_oracle,
    divmod_oracle,
    exact_div_oracle,
    poly_add,
    poly_mul,
    poly_pow,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(RatPoly)


class TestRatPoly:
    def test_trims_trailing_zeros(self):
        assert RatPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert RatPoly((0, 0)).coeffs == ()
        assert RatPoly(()).is_zero()
        assert RatPoly(()).degree == -1

    def test_integral_fractions_normalize(self):
        p = RatPoly((Fraction(4, 2), Fraction(1, 3)))
        assert p.coeffs == (2, Fraction(1, 3))
        assert isinstance(p.coeffs[0], int)

    @pytest.mark.parametrize(
        "op, error",
        [
            (lambda p: p + p, TypeError),
            (lambda p: p + 1, TypeError),
            (lambda p: 1 + p, TypeError),
            (lambda p: p - p, TypeError),
            (lambda p: p - 1, TypeError),
            (lambda p: -p, TypeError),
            (lambda p: p**2, TypeError),
            (lambda p: RatPoly.x(), AttributeError),
            (lambda p: p.leading(), AttributeError),
        ],
        ids=["p+q", "p+1", "1+p", "p-q", "p-1", "-p", "p**2", "RatPoly.x", "p.leading"],
    )
    def test_only_products_and_evaluation(self, op, error):
        # RatPoly multiplies and evaluates; sums, differences, negation,
        # powers, x and the leading coefficient live in the test oracles
        p = RatPoly((1, 1))
        with pytest.raises(error):
            op(p)
        assert p * p == RatPoly((1, 2, 1))
        assert 2 * p == p * 2 == RatPoly((2, 2))
        assert p(2) == 3 and p(Fraction(1, 2)) == Fraction(3, 2)

    def test_eval_is_exact(self):
        p = RatPoly((Fraction(1, 2), 0, 1))
        assert p(Fraction(1, 2)) == Fraction(3, 4)
        assert p(2) == Fraction(9, 2)
        assert type(RatPoly((1, 1))(Fraction(2, 1))) is int

    @pytest.mark.parametrize("t", [0.5, True, False, 1j, "1", None])
    def test_eval_rejects_inexact_points(self, t):
        for p in (RatPoly((1, 1)), RatPoly()):
            with pytest.raises(TypeError, match="expected int or Fraction"):
                p(t)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_scalar_refused(self, flag):
        p = RatPoly((1, 1))
        for product in (lambda: p * flag, lambda: flag * p):
            with pytest.raises(TypeError, match="^expected int or Fraction, got bool$"):
                product()

    # RatPoly has no division or derivative: these test the Fraction long
    # division and derivative that the oracles in exact_oracle.py keep
    def test_divmod_roundtrip(self):
        p = RatPoly((2, 5, 4, 1))
        q = RatPoly((1, 1))
        quo, rem = divmod_oracle(p, q)
        assert poly_add(poly_mul(quo.coeffs, q.coeffs), rem.coeffs) == p.coeffs
        assert rem.degree < q.degree

    def test_exact_div(self):
        p = RatPoly((1, 2, 1))
        assert exact_div_oracle(p, RatPoly((1, 1))) == RatPoly((1, 1))
        with pytest.raises(ValueError):
            exact_div_oracle(RatPoly((1, 1, 1)), RatPoly((1, 1)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_oracle(RatPoly((1,)), RatPoly(()))

    def test_derivative(self):
        assert derivative_oracle(RatPoly((5, 3, 2))) == RatPoly((3, 4))
        assert derivative_oracle(RatPoly((7,))).is_zero()

    def test_str(self):
        assert str(RatPoly(())) == "0"
        assert str(RatPoly((Fraction(1, 2), 2, 0, 3))) == "1/2 + 2*x + 3*x^3"

    def test_padded(self):
        assert RatPoly((1,)).padded(3) == (1, 0, 0)
        with pytest.raises(ValueError):
            RatPoly((1, 1, 1)).padded(2)

    @given(small_polys, small_polys, rationals)
    @settings(max_examples=150, derandomize=True)
    def test_product_evaluates_pointwise(self, p, q, t):
        assert (p * q)(t) == p(t) * q(t)

    @given(small_polys, small_polys)
    @settings(max_examples=100, derandomize=True)
    def test_divmod_identity(self, p, q):
        if q.is_zero():
            return
        quo, rem = divmod_oracle(p, q)
        assert poly_add(poly_mul(quo.coeffs, q.coeffs), rem.coeffs) == p.coeffs
        assert rem.degree < q.degree


class TestMobius:
    def test_identity_substitution(self):
        p = RatPoly((1, 1))
        assert mobius_transform(p, 1, 0, 0, 1, 1) == p

    def test_segment_f_to_hsc(self):
        # (1-x) * f(2x/(1-x)) for the f-polynomial 2 + x collapses to 2
        assert mobius_transform(RatPoly((2, 1)), 2, 0, -1, 1, 1) == RatPoly((2,))

    def test_cube_boundary_substitution(self):
        got = mobius_transform(RatPoly((8, 8, 8)), 3, 1, 1, 3, 2)
        assert got == RatPoly((104, 176, 104))
        assert got == 4 * RatPoly((26, 44, 26))

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            mobius_transform(RatPoly((1, 1, 1)), 1, 0, 0, 1, 1)

    @given(
        st.lists(rationals, min_size=1, max_size=5).map(RatPoly),
        st.tuples(*[st.integers(-3, 3)] * 4),
        st.tuples(*[st.integers(-3, 3)] * 4),
    )
    @settings(max_examples=100, derandomize=True)
    def test_composition_is_matrix_product(self, p, m1, m2):
        """Substituting twice equals substituting once with the product
        of the two coefficient matrices."""
        a1, b1, c1, e1 = m1
        a2, b2, c2, e2 = m2
        m = max(p.degree, 0)
        inner = mobius_transform(p, a2, b2, c2, e2, m)
        two_step = mobius_transform(inner, a1, b1, c1, e1, m)
        a = a2 * a1 + b2 * c1
        b = a2 * b1 + b2 * e1
        c = c2 * a1 + e2 * c1
        e = c2 * b1 + e2 * e1
        assert two_step == mobius_transform(p, a, b, c, e, m)


class TestLinearStep:
    @given(small_polys, st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=100, derandomize=True)
    def test_times_then_divided_round_trips(self, p, a, b):
        q = _times(p.coeffs, a, b)
        assert RatPoly(q) == p * RatPoly((a, b))
        assert len(q) == len(p.coeffs) + 1
        assert _divided(_times(p.coeffs, a, 1), a) == list(p.coeffs)

    @pytest.mark.parametrize("c", [5, -1, Fraction(1, 3)])
    @pytest.mark.parametrize("a", [0, 1, -2])
    def test_divided_refuses_a_nonzero_constant(self, c, a):
        with pytest.raises(ValueError):
            _divided([c], a)

    @given(small_polys, st.integers(-5, 5))
    @settings(max_examples=100, derandomize=True)
    def test_divided_raises_exactly_when_minus_a_is_no_root(self, p, a):
        if p(-a) == 0:
            assert RatPoly(_divided(p.coeffs, a)) * RatPoly((a, 1)) == p
        else:
            with pytest.raises(ValueError):
                _divided(p.coeffs, a)

    def test_divided_keeps_length(self):
        assert _divided([], 4) == []
        assert _divided([0], 4) == []
        assert _divided([3, 4, 1], 1) == [3, 1]
        assert _divided([0, 0, 0], 7) == [0, 0]


class TestSturm:
    def test_non_real_quadratic(self):
        p = RatPoly((1, 1, 1))
        assert real_root_count(p) == 0
        assert not is_real_rooted(p)

    def test_sqrt_two(self):
        p = RatPoly((-2, 0, 1))
        assert real_root_count(p) == 2
        assert is_real_rooted(p)

    def test_double_root_counts_once(self):
        p = RatPoly((1, 2, 1))
        assert real_root_count(p) == 1
        assert is_real_rooted(p)

    def test_linear_and_constant(self):
        assert is_real_rooted(RatPoly((3, 1)))
        assert is_real_rooted(RatPoly((5,)))
        assert real_root_count(RatPoly((5,))) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_root_count(RatPoly(()))
        with pytest.raises(ValueError):
            is_real_rooted(RatPoly(()))

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            min_size=0,
            max_size=3,
        ),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(1, 5)).filter(
                lambda bc: bc[0] ** 2 - 4 * bc[1] < 0
            ),
            min_size=0,
            max_size=2,
        ),
    )
    @settings(max_examples=120, derandomize=True)
    def test_count_matches_constructed_factorization(self, roots, quads):
        """Products of known linear and irreducible quadratic factors."""
        p = RatPoly((1,))
        for r in roots:
            p = p * RatPoly((-r, 1))
        for b, c in quads:
            p = p * RatPoly((c, b, 1))
        assert real_root_count(p) == len(set(roots))
        assert is_real_rooted(p) == (len(quads) == 0)


class TestQuotient:
    def test_exact(self):
        # (2x^2 - 3)(3x + 1) / (3x + 1)
        assert _quotient([-3, -9, 2, 6], [1, 3]) == [-3, 0, 2]
        assert _quotient([4, -6], [-2]) == [-2, 3]
        assert _quotient([], [1, 1]) == []

    @pytest.mark.parametrize("a,b", [([1, 0, 1], [0, 1]), ([5], [1, 1]), ([2, 1, 1], [1, 1])])
    def test_nonzero_remainder(self, a, b):
        with pytest.raises(ValueError):
            _quotient(a, b)

    @pytest.mark.parametrize("a,b", [([0, 1], [0, 2]), ([3, 3], [2]), ([1, 3, 2], [2, 4])])
    def test_non_integer_quotient(self, a, b):
        # 1/2, 3/2 + 3/2 x and (1 + 2x)(1 + x) / 2(1 + 2x) divide exactly over Q only
        with pytest.raises(ValueError):
            _quotient(a, b)


def planted_roots(randint) -> tuple:
    """(p, its rational roots, its distinct real root count, real-rooted?).

    p is a nonzero rational constant times linear powers (den x - num)^m,
    m in 1..3, and quadratics irreducible over Q, with real or complex
    roots, up to degree 40. Distinct primitive quadratics share no
    root, and none shares a root with a linear factor.
    """
    p = RatPoly((Fraction(randint(1, 9) * (-1) ** randint(0, 1), randint(1, 7)),))
    roots, real, nonreal = set(), set(), set()
    for _ in range(randint(1, 30)):
        if randint(0, 2):
            m = randint(1, 3)
            root = Fraction(randint(-12, 12), randint(1, 6))
            if p.degree + m <= 40:
                p = p * RatPoly(poly_pow((-root.numerator, root.denominator), m))
                roots.add(root)
            continue
        a, b, c = randint(1, 4), randint(-6, 6), randint(-6, 6)
        disc = b * b - 4 * a * c
        if p.degree + 2 <= 40 and (disc < 0 or math.isqrt(disc) ** 2 != disc):
            p = p * RatPoly((c, b, a))
            g = math.gcd(a, b, c)
            (real if disc > 0 else nonreal).add((a // g, b // g, c // g))
    return p, sorted(roots), len(roots) + 2 * len(real), not nonreal


def _finds_planted(randint) -> int:
    """Check the root routines on one planted polynomial; return its degree."""
    p, roots, count, real_rooted = planted_roots(randint)
    got = rational_roots(p)
    assert (got, [type(r) for r in got]) == (roots, [Fraction] * len(roots)), p
    assert (real_root_count(p), is_real_rooted(p)) == (count, real_rooted), p
    return p.degree


def _calls(monkeypatch, name: str, fn, p: RatPoly) -> int:
    """How many times fn(p) calls polytools.<name>."""
    calls = []
    original = getattr(polytools, name)
    with monkeypatch.context() as m:
        m.setattr(polytools, name, lambda *args: calls.append(args) or original(*args))
        fn(p)
    return len(calls)


class TestRationalRoots:
    def test_planted_to_degree_40_fixed_seed(self):
        rng = random.Random(1967)
        degrees = [_finds_planted(rng.randint) for _ in range(60)]
        assert degrees.count(40) >= 10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_planted_to_degree_40_hypothesis(self, data):
        _finds_planted(lambda lo, hi: data.draw(st.integers(lo, hi)))

    def test_one_chain_per_call(self, monkeypatch):
        for coeffs in ((-6, 11, -6, 1), (0, 0, 1, 2, 1), (4, -12, 9), (1, 1, 1), (0, 1, -3, 2, 4)):
            assert _calls(monkeypatch, "_chain", rational_roots, RatPoly(coeffs)) == 1, coeffs

    def test_no_remainder_outside_the_chain(self, monkeypatch):
        # real_root_count is the variation count of p's chain alone
        for coeffs in ((-6, 11, -6, 1), (1, 2, 1), (4, -12, 9), (1, 1, 1), (-2, 1, -3, 2, 4, 1, 2)):
            p = RatPoly(coeffs) * RatPoly(coeffs)
            once = _calls(monkeypatch, "_remainder", real_root_count, p)
            assert _calls(monkeypatch, "_remainder", rational_roots, p) == once > 0, coeffs

    def test_simple(self):
        p = RatPoly((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
        assert rational_roots(p) == [1, 2, 3]

    def test_fractional_and_zero(self):
        p = RatPoly((0, -1, 2))  # x(2x - 1)
        assert rational_roots(p) == [0, Fraction(1, 2)]

    def test_none(self):
        assert rational_roots(RatPoly((1, 1, 1))) == []
        assert rational_roots(RatPoly((7,))) == []


class TestShapePredicates:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((8, 8, 8), (True, True, True)),
            ((26, 44, 26), (True, True, True)),
            ((1, 0, 2), (True, False, False)),
            ((-1, 0), (False, False, True)),
            ((1, 2, 2, 1), (True, True, True)),
            ((3, 1, 2), (True, False, False)),
            ((), (True, True, True)),
            ((5,), (True, True, True)),
        ],
    )
    def test_cases(self, v, expected):
        got = shape_predicates(v)
        assert (got["nonnegative"], got["symmetric"], got["unimodal"]) == expected

    @pytest.mark.parametrize("v", [[0.5, 1], [True], [1, 2, False]])
    def test_inexact_entries_refused(self, v):
        with pytest.raises(TypeError, match="^expected int or Fraction, got (float|bool)$"):
            shape_predicates(v)

    def test_exact_rationals_accepted(self):
        got = shape_predicates((Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)))
        assert got == {"nonnegative": True, "symmetric": True, "unimodal": True}
