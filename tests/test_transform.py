from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import (
    FVector,
    LongHVector,
    RatPoly,
    ShortHVector,
    b_matrix,
    c_matrix,
    f_of_subdivision,
    euler_reduced,
    f_vector,
    gen_cube,
    gen_cube_boundary,
    hc_from_hsc,
    hc_of_subdivision,
    hc_poly_of_iterate,
    hsc_from_f,
    hsc_of_subdivision,
    hsc_poly_of_iterate,
    limit_distance_hc,
    limit_distance_hsc,
    mobius_transform,
    subdivide,
    subdivide_n,
)
from cubary.cli import LIMIT_BIT_BUDGET
from cubary.transform import _c_alternating_sums, _distance_bits, _limit_rows, _over


class TestBMatrix:
    def test_d1_is_identity(self):
        assert b_matrix(1).entries == ((1,),)

    def test_d2(self):
        F = Fraction
        assert b_matrix(2).entries == (
            (F(3, 2), F(1, 2)),
            (F(1, 2), F(3, 2)),
        )

    def test_d3_column_zero(self):
        B = b_matrix(3).entries
        assert [row[0] for row in B] == [Fraction(9, 4), Fraction(3, 2), Fraction(1, 4)]

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            b_matrix(0)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_invariants(self, d):
        B = b_matrix(d)
        for i in range(d):
            for j in range(d):
                assert B.entries[i][j] >= 0
                assert B.entries[i][j] == B.entries[d - 1 - i][d - 1 - j]
        for j in range(d):
            assert sum(B.entries[i][j] for i in range(d)) == 2 ** (d - 1)

    def test_cached(self):
        assert b_matrix(4) is b_matrix(4)


class TestCMatrix:
    def test_d3_column_zero(self):
        assert [row[0] for row in c_matrix(3).entries] == [1, Fraction(5, 4), Fraction(1, 4), 0]

    def test_d3_column_one(self):
        assert [row[1] for row in c_matrix(3).entries] == [0, 3, 1, 0]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_top_left_entry_is_one(self, d):
        assert c_matrix(d).entries[0][0] == 1

    @pytest.mark.parametrize("d", range(1, 11))
    def test_invariants(self, d):
        C = c_matrix(d)
        assert C.entries[0] == tuple([1] + [0] * d)
        for i in range(d + 1):
            for j in range(d + 1):
                assert C.entries[i][j] >= 0
                assert C.entries[d - i][d - j] == C.entries[i][j]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_closed_forms_equal_alternating_sums(self, d):
        assert _over(*_c_alternating_sums(d)) == c_matrix(d).entries

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            c_matrix(0)

    def test_matrix_json(self):
        obj = b_matrix(2).to_json_obj()
        assert obj == {
            "kind": "B",
            "d": 2,
            "entries": [["3/2", "1/2"], ["1/2", "3/2"]],
        }


class TestFOfSubdivision:
    @pytest.mark.parametrize(
        "f,expected",
        [
            ((2, 1), (3, 2)),
            ((4, 4, 1), (9, 12, 4)),
            ((8, 12, 6), (26, 48, 24)),
        ],
    )
    def test_examples(self, f, expected):
        assert f_of_subdivision(FVector(f)).entries == expected


class TestShortTransform:
    @pytest.mark.parametrize(
        "h,expected",
        [
            ((2, 0), (3, 1)),
            ((4, 0, 0), (9, 6, 1)),
            ((8, 8, 8), (26, 44, 26)),
        ],
    )
    def test_worked_triples(self, h, expected):
        assert hsc_of_subdivision(ShortHVector(h)).entries == expected

    def test_matches_explicit_subdivision(self, corpus):
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            via_matrix = hsc_of_subdivision(h)
            via_complex = hsc_from_f(f_vector(subdivide(K)))
            assert via_matrix == via_complex, name

    def test_substitution_identity(self, corpus):
        # 2^(d-1) h_sd(x) = (x+3)^(d-1) h((3x+1)/(x+3))
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            d = h.d
            lhs = 2 ** (d - 1) * hsc_of_subdivision(h).polynomial()
            rhs = mobius_transform(h.polynomial(), 3, 1, 1, 3, d - 1)
            assert lhs == rhs, name

    def test_warns_on_non_realizable_input(self):
        with pytest.warns(RuntimeWarning, match="not\\s+realizable"):
            out = hsc_of_subdivision(ShortHVector((1, 0)))
        assert out.entries == (Fraction(3, 2), Fraction(1, 2))

    def test_nonnegativity_preserved(self):
        # immediate from matrix nonnegativity; spot-check an arbitrary vector
        out = b_matrix(4).apply((0, 7, 1, 3))
        assert all(x >= 0 for x in out)


class TestLongTransform:
    @pytest.mark.parametrize(
        "h,expected",
        [
            ((4, 0, 0, 0), (4, 5, 1, 0)),
            ((4, 4, 4, 4), (4, 22, 22, 4)),
            ((2, 0, 0), (2, 1, 0)),
        ],
    )
    def test_worked_triples(self, h, expected):
        assert hc_of_subdivision(LongHVector(h)).entries == expected

    def test_leading_entry_preserved(self):
        with pytest.warns(RuntimeWarning):
            out = hc_of_subdivision(LongHVector((8, 1, 2, 3, 4)))
        assert out.entries[0] == 8

    def test_matches_explicit_subdivision(self, corpus):
        for name, K in corpus:
            hc = hc_from_hsc(hsc_from_f(f_vector(K)))
            via_matrix = hc_of_subdivision(hc)
            via_complex = hc_from_hsc(hsc_from_f(f_vector(subdivide(K))))
            assert via_matrix == via_complex, name


@st.composite
def palindromes(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    half = draw(
        st.lists(
            st.integers(-30, 30), min_size=(n + 1) // 2, max_size=(n + 1) // 2
        )
    )
    return half + half[: n // 2][::-1]


class TestSymmetryPreservation:
    @given(palindromes())
    @settings(max_examples=60, derandomize=True)
    def test_b_matrix_preserves_palindromes(self, vec):
        out = b_matrix(len(vec)).apply(vec)
        assert list(out) == list(out[::-1])

    @given(palindromes())
    @settings(max_examples=60, derandomize=True)
    def test_c_matrix_preserves_palindromes(self, vec):
        if len(vec) < 2:
            return
        out = c_matrix(len(vec) - 1).apply(vec)
        assert list(out) == list(out[::-1])


class TestIterateClosedForm:
    def test_n0_is_identity(self):
        h = ShortHVector((8, 8, 8))
        assert hsc_poly_of_iterate(h, 0) == h.polynomial()

    def test_n1_square(self):
        assert hsc_poly_of_iterate(ShortHVector((4, 0, 0)), 1) == RatPoly((9, 6, 1))

    def test_n2_segment(self):
        assert hsc_poly_of_iterate(ShortHVector((2, 0)), 2) == RatPoly((5, 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hsc_poly_of_iterate(ShortHVector((2, 0)), -1)

    def test_matches_repeated_matrix_application(self, corpus):
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            v = h
            for n in range(4):
                assert hsc_poly_of_iterate(h, n) == v.polynomial(), (name, n)
                v = hsc_of_subdivision(v)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
    def test_semigroup_property(self, corpus, m, n):
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            w = h
            for _ in range(n):
                w = hsc_of_subdivision(w)
            assert hsc_poly_of_iterate(h, m + n) == hsc_poly_of_iterate(w, m), name


class TestLongIterate:
    def test_matches_matrix_at_n1(self, corpus):
        from cubary import euler_reduced, hc_poly_of_iterate

        for name, K in corpus:
            f = f_vector(K)
            h = hsc_from_f(f)
            chi = euler_reduced(f)
            want = hc_of_subdivision(hc_from_hsc(h)).polynomial()
            assert hc_poly_of_iterate(h, chi, 1) == want, name

    def test_n0_recovers_long_polynomial(self, corpus):
        from cubary import euler_reduced, hc_poly_of_iterate

        for name, K in corpus:
            f = f_vector(K)
            h = hsc_from_f(f)
            assert hc_poly_of_iterate(h, euler_reduced(f), 0) == hc_from_hsc(
                h
            ).polynomial(), name


class TestLimits:
    def test_hsc_example(self):
        assert limit_distance_hsc(ShortHVector((8, 8, 8)), 6, 0) == 4

    def test_hsc_dimension_zero_is_exact(self):
        h = ShortHVector((7,))
        for n in range(5):
            assert limit_distance_hsc(h, 7, n) == 0

    def test_hsc_inconsistent_f_top(self):
        with pytest.raises(ValueError, match="inconsistent"):
            limit_distance_hsc(ShortHVector((8, 8, 8)), 5, 0)

    def test_hc_examples(self):
        assert limit_distance_hc(LongHVector((4, 4, 4, 4)), 6, 1, 0) == 4
        assert limit_distance_hc(LongHVector((4, 0, 0, 0)), 1, 0, 0) == 4

    def test_hc_rejects_d1(self):
        with pytest.raises(ValueError, match="d >= 2"):
            limit_distance_hc(LongHVector((1, 1)), 1, -1, 0)

    def test_hc_inconsistent_euler(self):
        with pytest.raises(ValueError, match="euler"):
            limit_distance_hc(LongHVector((4, 4, 4, 4)), 6, 0, 0)

    def test_hc_inconsistent_f_top(self):
        with pytest.raises(ValueError, match="f_top"):
            limit_distance_hc(LongHVector((4, 4, 4, 4)), 7, 1, 0)

    def test_distances_strictly_decrease(self, corpus):
        for name, K in corpus:
            f = f_vector(K)
            if f.d < 2:
                continue
            h = hsc_from_f(f)
            dists = [limit_distance_hsc(h, f.entries[-1], n) for n in range(8)]
            if dists[0] == 0:
                assert all(x == 0 for x in dists), name
                continue
            assert all(b < a for a, b in zip(dists, dists[1:])), name

    def test_geometric_rate(self, corpus):
        # the substitution parameters approach their fixed point like 2^-n
        for name, K in corpus:
            f = f_vector(K)
            h = hsc_from_f(f)
            d0 = limit_distance_hsc(h, f.entries[-1], 0)
            for n in range(1, 21):
                dn = limit_distance_hsc(h, f.entries[-1], n)
                assert dn <= d0 * Fraction(1, 2**n), (name, n)

    @pytest.mark.parametrize("which", ["hsc", "hc"])
    def test_distance_bits_bound_the_printed_digits(self, corpus, which):
        for name, K in corpus:
            f = f_vector(K)
            d, f_top, chi = f.d, f.entries[-1], euler_reduced(f)
            if which == "hc" and d < 2:
                continue
            h = hsc_from_f(f)
            euler = chi if which == "hc" else None
            for n, (_, dist) in enumerate(_limit_rows(h, f_top, euler, range(8))):
                bits = _distance_bits(h, f_top, chi, n)
                digits = max(len(str(abs(dist.numerator))), len(str(dist.denominator)))
                assert digits <= len(str(2**bits - 1)), (name, n)
                assert max(abs(dist.numerator), dist.denominator) < 2**bits, (name, n)

    def test_distance_bits_refuse_near_the_first_unprintable_row(self):
        # on the 5-sphere's long h-vector, row 2858 is the first whose
        # distance has an integer over 4300 digits; the projection refuses
        # from row 2854 on
        f = f_vector(gen_cube_boundary(6))
        h, f_top, chi = hsc_from_f(f), f.entries[-1], euler_reduced(f)
        widest = []
        for _, dist in _limit_rows(h, f_top, chi, (2857, 2858)):
            widest.append(max(abs(dist.numerator), dist.denominator))
        assert widest[0] < 10**4300 <= widest[1]
        assert 2**LIMIT_BIT_BUDGET < 10**4300 < 2 ** (LIMIT_BIT_BUDGET + 1)
        assert _distance_bits(h, f_top, chi, 2853) <= LIMIT_BIT_BUDGET < _distance_bits(h, f_top, chi, 2854)


# each call admits the int 1 and must refuse True, which equals it
INT_PARAMETERS = {
    "b_matrix": b_matrix,
    "c_matrix": c_matrix,
    "hsc_poly_of_iterate": lambda v: hsc_poly_of_iterate(ShortHVector((1, 1)), v),
    # f_top and euler: (4, 0) has euler 1, and (2, 1, -2) has f_top 1 and euler 1
    "limit_distance_hsc": lambda v: limit_distance_hsc(ShortHVector((1, 1)), v, 1),
    "hc_poly_of_iterate": lambda v: hc_poly_of_iterate(ShortHVector((4, 0)), v, 1),
    "limit_distance_hc": lambda v: limit_distance_hc(LongHVector((2, 1, -2)), 1, v, 1),
    "mobius_transform": lambda v: mobius_transform(RatPoly((1, 1)), 1, 0, 0, 1, v),
    "subdivide_n": lambda v: subdivide_n(gen_cube(1), v),
    # the point's one-face subdivision fits a budget of 1
    "subdivide_n_face_budget": lambda v: subdivide_n(gen_cube(0), 1, face_budget=v),
    "gen_cube": gen_cube,
    "gen_cube_boundary": gen_cube_boundary,
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", list(INT_PARAMETERS))
def test_bool_parameters_are_refused(name, warm):
    call = INT_PARAMETERS[name]
    b_matrix.cache_clear()
    c_matrix.cache_clear()
    if warm:
        call(1)
    with pytest.raises(ValueError):
        call(True)


@pytest.mark.parametrize("bad", [None, 1.5, 99.5, -1], ids=repr)
def test_face_budget_must_be_an_int(bad):
    # None used to die inside the projection, and a float was compared
    with pytest.raises(ValueError, match="face_budget must be an int >= 0"):
        subdivide_n(gen_cube(1), 1, face_budget=bad)


@pytest.mark.parametrize("bad", [6.0, Fraction(6), True, None, "6"], ids=repr)
def test_limit_parameters_must_be_ints(bad):
    # each bad value sits where 6 (f_top) or 1 (euler) is consistent with h;
    # a float, bool or Fraction used to pass the consistency checks
    with pytest.raises(ValueError, match="f_top must be an int"):
        limit_distance_hsc(ShortHVector((8, 8, 8)), bad, 1)
    with pytest.raises(ValueError, match="f_top must be an int"):
        limit_distance_hc(LongHVector((4, 4, 4, 4)), bad, 1, 1)
    with pytest.raises(ValueError, match="euler must be an int"):
        hc_poly_of_iterate(ShortHVector((8, 8, 8)), bad, 1)
    with pytest.raises(ValueError, match="euler must be an int"):
        limit_distance_hc(LongHVector((4, 4, 4, 4)), 6, bad, 1)
    with pytest.raises(ValueError, match="f_top must be an int"):
        _limit_rows(ShortHVector((8, 8, 8)), bad, None, range(3))
