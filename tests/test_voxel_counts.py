"""The grid draw and face count behind ``mine`` against independent
draws and counts.

``corpus._draw`` gives one 0/1 byte per cell of the side-4 grid and
``corpus._f_counts`` counts the faces of those cells. The count must
equal ``f_vector(from_voxels(spec))`` on fixed-seed draws in dimensions
1-4, on hypothesis-drawn grids and on the default corpus's voxel specs.
In dimensions 5 and 6, where the poset is slow to build, it must equal
the set count in ``conftest.py``.

The draw and the count must also match the per-cell draw and the
spread-list count kept in ``voxel_oracle.py``: the same corners, the same
f-vectors and the same generator state after every draw, in dimensions
1-9 under fixed and hypothesis-drawn seeds, empty dim-1 redraws included.
That spread-list count handles negative and gapped corners too, and is
itself checked against the poset and the set count on such specs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import VoxelSpec, f_vector, from_voxels
from cubary import complex_core
from cubary.corpus import GRID_SIDE, _corners, _draw, _f_counts, bernoulli_voxel_spec, default_corpus
from conftest import voxel_face_set_fvector
from voxel_oracle import bernoulli_voxel_spec_oracle, voxel_f_counts_oracle


def poset_fvector(spec: VoxelSpec) -> list[int]:
    return list(f_vector(from_voxels(spec)).entries)


def spec_of(dim: int, cells: bytes) -> VoxelSpec:
    return VoxelSpec(dim, tuple(_corners(dim, cells)))


def cells_of(spec: VoxelSpec) -> bytes:
    """The grid bytes of a spec whose corners lie in the side-4 grid."""
    cells = bytearray(GRID_SIDE**spec.ambient_dim)
    for c in spec.corners:
        cells[sum(x * GRID_SIDE**i for i, x in enumerate(reversed(c)))] = 1
    return bytes(cells)


@pytest.mark.parametrize(
    "dim,seed,draws", [(1, 801, 200), (2, 802, 200), (3, 803, 40), (4, 804, 6)]
)
def test_random_draws_match_the_poset(dim, seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        cells = _draw(rng, dim)
        spec = spec_of(dim, cells)
        got = _f_counts(dim, cells)
        assert got == poset_fvector(spec), spec.corners
        assert got == voxel_face_set_fvector(spec), spec.corners


@st.composite
def grid_cells(draw, dims):
    """Nonempty 0/1 grids of any occupancy, as _draw gives them."""
    dim = draw(dims)
    cells = draw(st.lists(st.integers(0, 1), min_size=GRID_SIDE**dim, max_size=GRID_SIDE**dim))
    cells[draw(st.integers(0, GRID_SIDE**dim - 1))] = 1
    return dim, bytes(cells)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid=grid_cells(st.integers(1, 3)))
def test_grid_cells_match_the_poset(grid):
    dim, cells = grid
    spec = spec_of(dim, cells)
    assert cells_of(spec) == cells
    assert _f_counts(dim, cells) == poset_fvector(spec)


@st.composite
def voxel_specs(draw, dims, coords):
    """Specs whose corners may be negative and leave gaps on every axis."""
    dim = draw(dims)
    corners = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=12, unique=True))
    return VoxelSpec(dim, tuple(corners))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=voxel_specs(st.integers(1, 4), st.integers(-6, 6)))
def test_voxel_specs_match_the_poset(spec):
    # the oracle that checks the grid count, off the grid
    assert voxel_f_counts_oracle(spec) == poset_fvector(spec)


def test_default_corpus_voxel_specs_match(monkeypatch):
    specs = []

    def recording_from_voxels(spec):
        specs.append(spec)
        return from_voxels(spec)

    monkeypatch.setattr(complex_core, "from_voxels", recording_from_voxels)
    default_corpus()
    assert len(specs) == 7
    for spec in specs:
        want = poset_fvector(spec)
        assert _f_counts(spec.ambient_dim, cells_of(spec)) == want, spec.corners
        assert voxel_f_counts_oracle(spec) == want, spec.corners


@pytest.mark.parametrize("dim,seed,draws", [(5, 805, 3), (6, 806, 1)])
def test_high_dimensional_draws_match_the_face_set(dim, seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        cells = _draw(rng, dim)
        assert _f_counts(dim, cells) == voxel_face_set_fvector(spec_of(dim, cells))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=voxel_specs(st.integers(5, 6), st.integers(-2, 3)))
def test_sparse_high_dimensional_specs_match_the_face_set(spec):
    assert voxel_f_counts_oracle(spec) == voxel_face_set_fvector(spec)


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
        cells = _draw(rng, dim)
        want = bernoulli_voxel_spec_oracle(oracle_rng, dim)
        assert tuple(_corners(dim, cells)) == want.corners
        assert rng.getstate() == oracle_rng.getstate()
        assert _f_counts(dim, cells) == voxel_f_counts_oracle(want), want.corners
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


@pytest.mark.parametrize("dim,seed,draws", [(1, 911, 50), (3, 913, 5), (5, 915, 1)])
def test_bernoulli_voxel_spec_is_the_draw(dim, seed, draws):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        spec = bernoulli_voxel_spec(rng, dim)
        assert spec == bernoulli_voxel_spec_oracle(oracle_rng, dim)
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("dim", [True, False, 0, -1, 2.0, "2", None])
def test_bernoulli_voxel_spec_rejects_a_bad_dim(dim):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^dim must be an int >= 1, got "):
        bernoulli_voxel_spec(rng, dim)
    assert rng.getstate() == state
