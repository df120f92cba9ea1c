"""The integer face-table builders against the seed's string-keyed ones.

``gen_cube``, ``gen_cube_boundary``, ``from_voxels`` and ``subdivide``
must give byte-identical ``to_json()`` to the builders kept in
``builder_oracle.py``: on the default corpus, its first and second
subdivisions, fixed-seed random voxel complexes and hypothesis-drawn
voxel specs. ``from_keyed_faces`` must match the seed's version on
keyed tables given in shuffled order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import CubicalComplex, VoxelSpec, from_voxels, subdivide
from cubary import corpus as corpus_mod
from cubary.corpus import random_voxel_complexes
from builder_oracle import (
    from_keyed_faces_oracle,
    from_voxels_oracle,
    gen_cube_boundary_oracle,
    gen_cube_oracle,
    subdivide_oracle,
)


@pytest.fixture()
def oracle_corpus(monkeypatch):
    """The default corpus, built by the string-keyed builders."""
    monkeypatch.setattr(corpus_mod, "gen_cube", gen_cube_oracle)
    monkeypatch.setattr(corpus_mod, "gen_cube_boundary", gen_cube_boundary_oracle)
    monkeypatch.setattr(corpus_mod, "from_voxels", from_voxels_oracle)
    return corpus_mod.default_corpus()


def test_corpus_and_two_subdivisions_match(corpus, oracle_corpus):
    assert [name for name, _ in corpus] == [name for name, _ in oracle_corpus]
    for (name, K), (_, O) in zip(corpus, oracle_corpus):
        for rounds in range(3):
            assert K.to_json() == O.to_json(), f"sd^{rounds}({name})"
            if rounds < 2:
                K, O = subdivide(K), subdivide_oracle(O)


@pytest.mark.parametrize("dim,seed", [(1, 701), (2, 702), (3, 703)])
def test_random_voxel_complexes_match(dim, seed):
    for spec, K in random_voxel_complexes(seed, dim, 4):
        O = from_voxels_oracle(spec)
        assert K.to_json() == O.to_json(), spec.corners
        assert subdivide(K).to_json() == subdivide_oracle(O).to_json(), spec.corners


@st.composite
def voxel_specs(draw):
    dim = draw(st.integers(1, 3))
    corner = st.tuples(*[st.integers(-2, 2)] * dim)
    corners = draw(st.lists(corner, min_size=1, max_size=6, unique=True))
    return VoxelSpec(dim, tuple(corners))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=voxel_specs())
def test_voxel_specs_match(spec):
    K, O = from_voxels(spec), from_voxels_oracle(spec)
    assert K.to_json() == O.to_json()
    assert subdivide(K).to_json() == subdivide_oracle(O).to_json()


def test_from_keyed_faces_matches(corpus, non_cube_square):
    rng = random.Random(2010)
    for name, K in corpus + [("non_cube_square", non_cube_square)]:
        table = [
            (K.keys[i], (K.dims[i], [K.keys[c] for c in K.covered[i]])) for i in range(len(K))
        ]
        rng.shuffle(table)
        faces = dict(table)
        got = CubicalComplex.from_keyed_faces(faces).to_json()
        assert got == from_keyed_faces_oracle(faces).to_json(), name
