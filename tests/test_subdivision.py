import pytest

from cubary import (
    FaceBudgetExceeded,
    FVector,
    VoxelSpec,
    euler_reduced,
    f_of_subdivision,
    f_vector,
    from_voxels,
    gen_cube,
    gen_cube_boundary,
    mobius_transform,
    subdivide,
    subdivide_n,
    validate,
)

from conftest import brute_force_interval_fvector


class TestSubdivide:
    def test_segment(self):
        K = from_voxels(VoxelSpec(1, ((0,),)))
        assert f_vector(subdivide(K)).entries == (3, 2)

    def test_square(self):
        K = gen_cube(2)
        S = subdivide(K)
        assert f_vector(S).entries == (9, 12, 4)
        assert f_vector(S).entries == brute_force_interval_fvector(K)
        assert f_vector(S).entries == f_of_subdivision(f_vector(K)).entries

    def test_point_is_fixed(self):
        K = gen_cube(0)
        S = subdivide(K)
        assert f_vector(S).entries == (1,)
        assert validate(S).ok

    def test_dimension_preserved(self, corpus):
        for name, K in corpus:
            assert subdivide(K).dim == K.dim, name

    def test_result_validates(self, corpus):
        for name, K in corpus:
            report = validate(subdivide(K))
            assert report.ok, (name, report.violations[:3])

    def test_fvector_transform_matches_enumeration(self, corpus):
        for name, K in corpus:
            predicted = f_of_subdivision(f_vector(K)).entries
            assert predicted == f_vector(subdivide(K)).entries, name
            assert predicted == brute_force_interval_fvector(K), name

    def test_fpolynomial_substitution_identity(self, corpus):
        # f-polynomial of the subdivision is the original at 1 + 2x
        for name, K in corpus:
            fp = f_vector(K).polynomial()
            fp_sd = f_vector(subdivide(K)).polynomial()
            d = f_vector(K).d
            assert fp_sd == mobius_transform(fp, 2, 1, 0, 1, d - 1), name

    def test_euler_characteristic_invariant(self, corpus):
        for name, K in corpus:
            assert euler_reduced(f_vector(subdivide(K))) == euler_reduced(
                f_vector(K)
            ), name

    def test_square_subdivision_is_2x2_grid(self):
        # geometric sanity: subdividing one square gives the 2x2 vertex grid
        S = subdivide(gen_cube(2))
        G = from_voxels(VoxelSpec(2, ((0, 0), (1, 0), (0, 1), (1, 1))))
        assert f_vector(S).entries == f_vector(G).entries

    def test_interval_keys_are_pairs(self):
        K = gen_cube(0)
        S = subdivide(K)
        assert S.keys == (f"[{K.keys[0]}|{K.keys[0]}]",)


class TestSubdivideN:
    def test_zero_is_identity(self):
        K = gen_cube_boundary(2)
        assert subdivide_n(K, 0) is K

    def test_cube_boundary_once(self):
        K = gen_cube_boundary(3)
        assert f_vector(subdivide_n(K, 1)).entries == (26, 48, 24)

    def test_segment_twice(self):
        K = from_voxels(VoxelSpec(1, ((0,),)))
        assert f_vector(subdivide_n(K, 2)).entries == (5, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subdivide_n(gen_cube(1), -1)

    def test_budget_abort_reports_projection(self):
        K = gen_cube_boundary(3)
        with pytest.raises(FaceBudgetExceeded) as exc:
            subdivide_n(K, 9, face_budget=1000)
        assert exc.value.step == 3
        assert sum(exc.value.projected.entries) == 1538
        assert exc.value.projected == f_of_subdivision(f_of_subdivision(f_of_subdivision(f_vector(K))))
        assert str(exc.value) == (
            "subdivision step 3 projects 1538 faces (f = [386, 768, 384]), exceeding the budget of 1000"
        )

    def test_key_length_budget(self):
        # a point stays one face while its key grows from 1 to 2^(n+2) - 3
        # characters; the budget of 1000 allows 25,000 key characters
        with pytest.raises(FaceBudgetExceeded) as exc:
            subdivide_n(gen_cube(0), 100, face_budget=1000)
        assert exc.value.step == 13
        assert exc.value.max_key == 2**15 - 3
        assert exc.value.projected == FVector((1,))
        assert str(exc.value) == (
            "subdivision step 13 projects 1 faces (f = [1]) with keys of up to 32765 characters, "
            "exceeding 25 key characters per face of the budget of 1000"
        )
        assert len(subdivide_n(gen_cube(0), 12, face_budget=1000).keys[0]) == 2**14 - 3

    def test_budget_checked_before_construction(self):
        # a budget bust at step 1 must not build anything big first
        K = gen_cube_boundary(4)
        with pytest.raises(FaceBudgetExceeded):
            subdivide_n(K, 1, face_budget=10)

    def test_default_budget_threshold_for_cube_boundary_3(self):
        # total faces after n rounds are 24 * 4^n + 2: the default budget
        # of 10^7 admits n = 9 (6,291,458 faces) and rejects n = 10
        f = f_vector(gen_cube_boundary(3))
        totals = {}
        for n in range(1, 12):
            f = f_of_subdivision(f)
            totals[n] = sum(f.entries)
        for n in (8, 9, 10, 11):
            assert totals[n] == 24 * 4**n + 2
        assert totals[9] <= 10**7
        assert totals[10] > 10**7

    def test_iterated_equals_nested(self):
        K = gen_cube_boundary(2)
        via_n = subdivide_n(K, 2)
        nested = subdivide(subdivide(K))
        assert via_n.to_json() == nested.to_json()
