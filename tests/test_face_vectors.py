from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import (
    FVector,
    LongHVector,
    RatPoly,
    ShortHVector,
    VoxelSpec,
    check_long_short_identity,
    euler_reduced,
    f_from_hsc,
    f_vector,
    from_voxels,
    gen_cube,
    gen_cube_boundary,
    hc_from_hsc,
    hsc_from_f,
    hsc_from_hc,
    mobius_transform,
    summary,
)

from builder_oracle import from_keyed_faces_oracle
from conftest import expand_hsc_oracle

f_vectors = st.lists(
    st.integers(min_value=0, max_value=40), min_size=1, max_size=8
).map(lambda xs: xs[:-1] + [max(xs[-1], 1)]).map(lambda xs: FVector(tuple(xs)))


class TestVectorTypes:
    def test_fvector_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            FVector(())
        with pytest.raises(ValueError):
            FVector((2, -1, 1))
        with pytest.raises(ValueError):
            FVector((2, 0))

    def test_fvector_rejects_bools(self):
        with pytest.raises(ValueError, match="nonnegative integers"):
            FVector((True, True))

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "build",
        [RatPoly, ShortHVector, lambda v: LongHVector((1, *v))],
        ids=["RatPoly", "ShortHVector", "LongHVector"],
    )
    def test_inexact_entries_rejected(self, build, bad):
        with pytest.raises(TypeError, match=f"^expected int or Fraction, got {type(bad).__name__}$"):
            build((bad,))

    def test_long_hvector_pins_leading_entry(self):
        LongHVector((4, 1, 2, 3))
        with pytest.raises(ValueError):
            LongHVector((3, 1, 2, 3))

    def test_entries_normalize_integral_fractions(self):
        h = ShortHVector((Fraction(4, 2), Fraction(1, 2)))
        assert h.entries == (2, Fraction(1, 2))
        assert isinstance(h.entries[0], int)

    def test_d_conventions(self):
        assert FVector((8, 12, 6)).d == 3
        assert ShortHVector((8, 8, 8)).d == 3
        assert LongHVector((4, 4, 4, 4)).d == 3


class TestShortFromF:
    @pytest.mark.parametrize(
        "f,h",
        [
            ((8, 12, 6), (8, 8, 8)),
            ((2, 1), (2, 0)),
            ((4, 4, 1), (4, 0, 0)),
        ],
    )
    def test_examples(self, f, h):
        assert hsc_from_f(FVector(f)).entries == h

    def test_agrees_with_polynomial_expansion(self, corpus):
        for name, K in corpus:
            f = f_vector(K)
            assert hsc_from_f(f).entries == expand_hsc_oracle(f), name

    @given(f_vectors)
    @settings(max_examples=100, derandomize=True)
    def test_closed_form_equals_expansion(self, f):
        assert hsc_from_f(f).entries == expand_hsc_oracle(f)


class TestFFromShort:
    @pytest.mark.parametrize(
        "h,f",
        [
            ((8, 8, 8), (8, 12, 6)),
            ((2, 0), (2, 1)),
            ((4, 0, 0), (4, 4, 1)),
        ],
    )
    def test_examples(self, h, f):
        assert f_from_hsc(ShortHVector(h)).entries == f

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError, match="f_1"):
            f_from_hsc(ShortHVector((2, 1)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="f_1"):
            f_from_hsc(ShortHVector((2, -8)))

    @given(f_vectors)
    @settings(max_examples=100, derandomize=True)
    def test_roundtrip(self, f):
        assert f_from_hsc(hsc_from_f(f)) == f


class TestLongFromShort:
    @pytest.mark.parametrize(
        "h,hc",
        [
            ((8, 8, 8), (4, 4, 4, 4)),
            ((4, 0, 0), (4, 0, 0, 0)),
            ((2, 0), (2, 0, 0)),
        ],
    )
    def test_examples(self, h, hc):
        assert hc_from_hsc(ShortHVector(h)).entries == hc

    def test_recursion_matches_alternating_closed_form(self, corpus):
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            hc = hc_from_hsc(h)
            d = h.d
            for i in range(1, d + 1):
                closed = sum(
                    (-1) ** (i + j - 1) * h.entries[j] for j in range(i)
                ) + (-1) ** i * 2 ** (d - 1)
                assert hc.entries[i] == closed, (name, i)

    def test_short_from_long_inverts(self, corpus):
        for name, K in corpus:
            h = hsc_from_f(f_vector(K))
            assert hsc_from_hc(hc_from_hsc(h)) == h, name


class TestEuler:
    @pytest.mark.parametrize(
        "f,chi",
        [((8, 12, 6), 1), ((2, 1), 0), ((4, 4, 1), 0)],
    )
    def test_examples(self, f, chi):
        assert euler_reduced(FVector(f)) == chi

    def test_sphere_values(self):
        # boundary of the d-cube is a (d-1)-sphere: chi~ = (-1)^(d-1)
        for d in range(1, 5):
            f = f_vector(gen_cube_boundary(d))
            assert euler_reduced(f) == (-1) ** (d - 1)


class TestIdentities:
    @pytest.mark.parametrize("f", [(8, 12, 6), (2, 1), (4, 4, 1)])
    def test_long_short_identity_examples(self, f):
        assert check_long_short_identity(FVector(f))

    def test_long_short_identity_corpus(self, corpus):
        for name, K in corpus:
            assert check_long_short_identity(f_vector(K)), name

    def test_mobius_identities_corpus(self, corpus):
        # hsc(x) = (1-x)^(d-1) f(2x/(1-x)) and its inverse
        for name, K in corpus:
            f = f_vector(K)
            d = f.d
            fp, hp = f.polynomial(), hsc_from_f(f).polynomial()
            assert hp == mobius_transform(fp, 2, 0, -1, 1, d - 1), name
            assert 2 ** (d - 1) * fp == mobius_transform(hp, 1, 0, 1, 2, d - 1), name

    def test_hsc_sum_counts_top_faces(self, corpus):
        for name, K in corpus:
            f = f_vector(K)
            h = hsc_from_f(f)
            assert sum(h.entries) == 2 ** (f.d - 1) * f.entries[-1], name

    def test_top_long_entry_is_euler_multiple(self, corpus):
        for name, K in corpus:
            f = f_vector(K)
            hc = hc_from_hsc(hsc_from_f(f))
            assert hc.entries[-1] == (-2) ** (f.d - 1) * euler_reduced(f), name


class TestSummary:
    def test_block_payload(self):
        import itertools

        K = from_voxels(VoxelSpec(3, tuple(itertools.product((0, 1), repeat=3))))
        payload = summary(K)
        assert payload == {
            "d": 4,
            "f": [27, 54, 36, 8],
            "hsc": [27, 27, 9, 1],
            "hc": [8, 19, 8, 1, 0],
            "euler_reduced": 0,
        }

    def test_all_entries_are_ints(self, corpus):
        for name, K in corpus:
            payload = summary(K)
            for key in ("f", "hsc", "hc"):
                assert all(isinstance(x, int) for x in payload[key]), name

    def test_non_pure_complex(self):
        # a square with a dangling edge: non-pure, still well-formed
        sq = gen_cube(2).to_json_obj()
        faces = {f["key"]: (f["dim"], []) for f in sq["faces"]}
        for f in sq["faces"]:
            faces[f["key"]] = (
                f["dim"],
                [sq["faces"][c]["key"] for c in f["covered"]],
            )
        faces["w"] = (0, [])
        faces["dangle"] = (1, ["w", ";0,0"])
        from cubary import validate

        K = from_keyed_faces_oracle(faces)
        assert validate(K).ok
        payload = summary(K)
        assert payload["f"] == [5, 5, 1]
        assert payload["d"] == 3
