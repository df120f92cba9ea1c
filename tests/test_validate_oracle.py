"""``validate`` against two earlier validators.

``validate`` must return the same ``ok`` verdict as the seed's all-pairs
validator, and exactly the same violations, in order and text, as the
facet-local validator it replaced. Both hold on valid complexes and on
the four mutations that break them: a dropped cover, two glued
vertices, a doubled top cell and a wrong-dimension cover. Each mutation
runs once from a fixed seed over a pool of complexes and once under
hypothesis; hypothesis also edits one cover of small voxel complexes.
The one allowed disagreement with the seed, a face whose lower set has
a cube's profile without being a cube's face lattice, is asserted
explicitly.
"""

import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import CubicalComplex, VoxelSpec, from_voxels, subdivide, validate
from cubary.corpus import default_corpus
from builder_oracle import from_keyed_faces_oracle
from conftest import random_voxel_complexes
from validate_oracle import validate_facet_local, validate_oracle


def _random_voxels():
    return [
        (f"voxels_{dim}_{seed}_{i}", K)
        for dim, seed, count in ((1, 601, 4), (2, 602, 4), (3, 603, 3))
        for i, (_, K) in enumerate(random_voxel_complexes(seed, dim, count))
    ]


@functools.cache
def _pool():
    """Valid complexes the mutations start from, kept small for the oracle.

    Complexes of dimension 0 are left out: they have no cover to drop or
    to replace.
    """
    base = [(name, K) for name, K in default_corpus() + _random_voxels() if K.dim > 0]
    return base + [(f"sd({name})", subdivide(K)) for name, K in base if len(K) <= 150]


def _agreed_verdict(K: CubicalComplex, label: str) -> bool:
    new, old = validate(K), validate_oracle(K)
    assert new.ok == old.ok, (label, new.violations[:3], old.violations[:3])
    assert new == validate_facet_local(K), label
    return new.ok


def test_agree_on_corpus_and_its_subdivisions():
    for name, K in default_corpus():
        for rounds in range(3):
            assert _agreed_verdict(K, f"sd^{rounds}({name})")
            if rounds < 2:
                K = subdivide(K)


def test_agree_on_random_voxel_complexes():
    for name, K in _random_voxels():
        assert _agreed_verdict(K, name)
        assert _agreed_verdict(subdivide(K), f"sd({name})")


def test_only_disagreement_is_a_non_cube_face(non_cube_square):
    assert validate_oracle(non_cube_square).ok
    report = validate(non_cube_square)
    assert not report.ok
    assert any("is not a cube" in v for v in report.violations)
    assert report == validate_facet_local(non_cube_square)


def test_free_coordinates_reported_for_the_face_lower_set_lists_first():
    # after two edited covers several faces below the cube have labels
    # fixing the wrong number of letters; the same one must be named
    faces = _table(from_voxels(VoxelSpec(3, ((0, 1, 1),))))
    faces["2;1,2,1"] = (1, [";1,2,2"])
    faces["1,2;1,1,1"] = (2, ["1;1,1,1", "2;1,1,1"])
    K = from_keyed_faces_oracle(faces)
    report = validate(K)
    assert "face 26 of dim 3 is not a cube: face 7 of dim 0 has 1 free coordinates" in report.violations
    assert report == validate_facet_local(K)


def _star(k: int) -> CubicalComplex:
    """k edges at one vertex: 2k + 1 faces, k(k-1)/2 pairs of maximal faces."""
    faces = {"c": (0, [])}
    for i in range(k):
        faces[f"v{i}"] = (0, [])
        faces[f"e{i}"] = (1, ["c", f"v{i}"])
    return from_keyed_faces_oracle(faces)


def test_star_of_edges_needs_no_pair_set():
    # the facet-local validator held all 179,700 vertex-sharing pairs at once
    K = _star(600)
    tracemalloc.start()
    try:
        report = validate(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 4 * 2**20, peak
    assert report == validate_facet_local(K)


def _table(K: CubicalComplex) -> dict:
    return {
        K.keys[i]: (K.dims[i], sorted(K.keys[c] for c in K.covered[i]))
        for i in range(len(K))
    }


# Each mutation takes a keyed-face table and `choose`, which picks one
# element of a nonempty sequence, and returns the mutated table.

def drop_cover(faces, choose):
    key = choose(sorted(k for k, (_, cov) in faces.items() if cov))
    dim, cov = faces[key]
    gone = choose(cov)
    return {**faces, key: (dim, [c for c in cov if c != gone])}


def glue_vertices(faces, choose):
    vertices = sorted(k for k, (d, _) in faces.items() if d == 0)
    gone = choose(vertices)
    kept = choose([u for u in vertices if u != gone])
    return {
        k: (d, [kept if c == gone else c for c in cov])
        for k, (d, cov) in faces.items()
        if k != gone
    }


def double_top_cell(faces, choose):
    top = max(d for d, _ in faces.values())
    key = choose(sorted(k for k, (d, _) in faces.items() if d == top))
    return {**faces, key + "'": faces[key]}


def wrong_dimension_cover(faces, choose):
    key = choose(sorted(k for k, (_, cov) in faces.items() if cov))
    dim, cov = faces[key]
    other = choose(sorted(k for k, (d, _) in faces.items() if d != dim - 1))
    gone = choose(cov)
    return {**faces, key: (dim, [other if c == gone else c for c in cov])}


MUTATIONS = [drop_cover, glue_vertices, double_top_cell, wrong_dimension_cover]


def _check_mutant(mutation, name, K, choose):
    faces = mutation(_table(K), choose)
    M = from_keyed_faces_oracle(faces)
    _agreed_verdict(M, f"{mutation.__name__}({name})")


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_agree_on_mutations_fixed_seed(mutation):
    rng = random.Random(2010)
    for name, K in _pool():
        for _ in range(2):
            _check_mutant(mutation, name, K, rng.choice)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_agree_on_mutations_hypothesis(mutation, data):
    name, K = data.draw(st.sampled_from(_pool()), label="complex")
    _check_mutant(mutation, name, K, lambda seq: data.draw(st.sampled_from(seq)))


@st.composite
def voxel_complex_with_one_cover_edited(draw):
    """A small voxel complex, one of whose faces has one cover dropped,
    or one cover added or replaced by a face of the right dimension."""
    dim = draw(st.integers(2, 3))
    # a small box, so that most cubes share faces with others
    box = st.tuples(*[st.integers(0, 2 if dim < 3 else 1)] * dim)
    corners = draw(st.lists(box, min_size=2, max_size=5, unique=True))
    K = from_voxels(VoxelSpec(dim, tuple(corners)))
    faces = _table(K)
    keys = sorted(faces)
    # edit a face strictly between the vertices and the cubes: a cover
    # dropped there can hide behind a second path down to the same vertex
    key = draw(st.sampled_from([k for k in keys if 0 < faces[k][0] < dim]))
    dim_k, cov = faces[key]
    # grading holds after the edit, so checks (i) and (ii) both run
    other = draw(st.sampled_from([k for k in keys if faces[k][0] == dim_k - 1]))
    gone = draw(st.sampled_from(cov))
    edit = draw(st.sampled_from(["drop", "add", "replace"]))
    if edit == "drop":
        cov = [c for c in cov if c != gone]
    elif edit == "add":
        cov = cov + [other]
    else:
        cov = [other if c == gone else c for c in cov]
    return from_keyed_faces_oracle({**faces, key: (dim_k, cov)})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(K=voxel_complex_with_one_cover_edited())
def test_same_violations_on_voxel_complexes_with_one_cover_edited(K):
    assert validate(K) == validate_facet_local(K)
