"""Randomized end-to-end sweep: every closed-form prediction against the
explicitly constructed subdivision, over fixed-seed random voxel
complexes (frequently disconnected, with holes and mixed topology)."""

import pytest

from cubary import (
    euler_reduced,
    f_of_subdivision,
    f_vector,
    hc_from_hsc,
    hc_of_subdivision,
    hsc_from_f,
    hsc_of_subdivision,
    is_real_rooted,
    subdivide,
    validate,
)
from conftest import random_voxel_complexes


@pytest.mark.parametrize("dim,seed,count", [(1, 501, 10), (2, 502, 15), (3, 503, 10)])
def test_transforms_match_construction_on_random_complexes(dim, seed, count):
    for spec, K in random_voxel_complexes(seed, dim, count):
        assert validate(K).ok, spec.corners
        S = subdivide(K)
        assert validate(S).ok, spec.corners
        f, f_sd = f_vector(K), f_vector(S)
        assert f_of_subdivision(f) == f_sd, spec.corners
        assert euler_reduced(f_sd) == euler_reduced(f), spec.corners
        h, h_sd = hsc_from_f(f), hsc_from_f(f_sd)
        assert hsc_of_subdivision(h) == h_sd, spec.corners
        assert hc_of_subdivision(hc_from_hsc(h)) == hc_from_hsc(h_sd), spec.corners
        assert is_real_rooted(h.polynomial()) == is_real_rooted(
            h_sd.polynomial()
        ), spec.corners


def test_disconnected_complexes_occur_in_the_sample():
    # the sweep above is only convincing if the sample is topologically
    # varied; a complex with chi~ != 0 is disconnected or has holes
    chis = set()
    for spec, K in random_voxel_complexes(502, 2, 15):
        chis.add(euler_reduced(f_vector(K)))
    assert len(chis) > 1


def test_transforms_match_construction_at_d5():
    # one case above the corpus dimension range
    from cubary import gen_cube_boundary

    K = gen_cube_boundary(5)
    f = f_vector(K)
    assert f.entries == (32, 80, 80, 40, 10)
    S = subdivide(K)
    f_sd = f_vector(S)
    assert f_of_subdivision(f) == f_sd
    h, h_sd = hsc_from_f(f), hsc_from_f(f_sd)
    assert hsc_of_subdivision(h) == h_sd
    assert hc_of_subdivision(hc_from_hsc(h)) == hc_from_hsc(h_sd)
    assert validate(S).ok
