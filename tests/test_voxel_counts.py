"""The bitset face count behind ``mine`` against two independent counts.

``_voxel_f_counts(spec)`` must equal ``f_vector(from_voxels(spec))`` on
fixed-seed draws of the random voxel model in dimensions 1-4, on
hypothesis-drawn specs with negative and non-contiguous corners, and on
the default corpus's voxel specs. In dimensions 5 and 6, where the poset
is slow to build, it must equal the set count in ``conftest.py``.

The grid draw and the count must also match the per-cell draw and the
spread-list count kept in ``voxel_oracle.py``: the same corners, the same
f-vectors and the same generator state after every draw, in dimensions
1-9 under fixed and hypothesis-drawn seeds, empty dim-1 redraws included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import VoxelSpec, f_vector, from_voxels
from cubary import corpus as corpus_mod
from cubary.complex_core import _voxel_f_counts
from cubary.corpus import bernoulli_voxel_spec
from conftest import voxel_face_set_fvector
from voxel_oracle import bernoulli_voxel_spec_oracle, voxel_f_counts_oracle


def poset_fvector(spec: VoxelSpec) -> list[int]:
    return list(f_vector(from_voxels(spec)).entries)


@pytest.mark.parametrize(
    "dim,seed,draws", [(1, 801, 200), (2, 802, 200), (3, 803, 40), (4, 804, 6)]
)
def test_random_draws_match_the_poset(dim, seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        spec = bernoulli_voxel_spec(rng, dim)
        got = _voxel_f_counts(spec)
        assert got == poset_fvector(spec), spec.corners
        assert got == voxel_face_set_fvector(spec), spec.corners


@st.composite
def voxel_specs(draw, dims, coords):
    """Specs whose corners may be negative and leave gaps on every axis."""
    dim = draw(dims)
    corners = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=12, unique=True))
    return VoxelSpec(dim, tuple(corners))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=voxel_specs(st.integers(1, 4), st.integers(-6, 6)))
def test_voxel_specs_match_the_poset(spec):
    assert _voxel_f_counts(spec) == poset_fvector(spec)


def test_default_corpus_voxel_specs_match(monkeypatch):
    specs = []

    def recording_from_voxels(spec):
        specs.append(spec)
        return from_voxels(spec)

    monkeypatch.setattr(corpus_mod, "from_voxels", recording_from_voxels)
    corpus_mod.default_corpus()
    assert len(specs) == 7
    for spec in specs:
        assert _voxel_f_counts(spec) == poset_fvector(spec), spec.corners


@pytest.mark.parametrize("dim,seed,draws", [(5, 805, 3), (6, 806, 1)])
def test_high_dimensional_draws_match_the_face_set(dim, seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        spec = bernoulli_voxel_spec(rng, dim)
        assert _voxel_f_counts(spec) == voxel_face_set_fvector(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=voxel_specs(st.integers(5, 6), st.integers(-2, 3)))
def test_sparse_high_dimensional_specs_match_the_face_set(spec):
    assert _voxel_f_counts(spec) == voxel_face_set_fvector(spec)


def assert_draws_match_the_oracle(seed: int, dim: int, draws: int) -> int:
    """Compare `draws` draws from two generators seeded alike; returns how
    many of them redrew an empty grid."""
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    redraws = 0
    for _ in range(draws):
        if dim == 1:  # the four cells' bits, read from a copy of the state
            probe = random.Random()
            probe.setstate(rng.getstate())
            redraws += not any(probe.getrandbits(1) for _ in range(4))
        spec = bernoulli_voxel_spec(rng, dim)
        want = bernoulli_voxel_spec_oracle(oracle_rng, dim)
        assert spec.corners == want.corners
        assert rng.getstate() == oracle_rng.getstate()
        assert _voxel_f_counts(spec) == voxel_f_counts_oracle(want), spec.corners
    return redraws


@pytest.mark.parametrize(
    "dim,seed,draws",
    [(1, 901, 300), (2, 902, 100), (3, 903, 30), (4, 904, 10), (5, 905, 4),
     (6, 906, 2), (7, 907, 1), (8, 908, 1), (9, 909, 1)],
)
def test_draws_and_counts_match_the_oracle(dim, seed, draws):
    assert_draws_match_the_oracle(seed, dim, draws)


def test_dim_1_redraws_match_the_oracle():
    # each dim-1 draw is empty with probability 1/16
    assert assert_draws_match_the_oracle(910, 1, 300) > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), dim=st.integers(1, 7), draws=st.integers(1, 4))
def test_hypothesis_seeds_match_the_oracle(seed, dim, draws):
    assert_draws_match_the_oracle(seed, dim, draws)
