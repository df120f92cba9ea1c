"""The facet-local validator against the seed's all-pairs validator.

Both must return the same ``ok`` verdict on valid complexes and on the
four mutations that break them: a dropped cover, two glued vertices, a
doubled top cell and a wrong-dimension cover. Each mutation runs once
from a fixed seed over a pool of complexes and once under hypothesis.
The one allowed disagreement, a face whose lower set has a cube's
profile without being a cube's face lattice, is asserted explicitly.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import CubicalComplex, subdivide, validate
from cubary.corpus import default_corpus, random_voxel_complexes
from validate_oracle import validate_oracle


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
    M = CubicalComplex.from_keyed_faces(faces)
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
