"""Shared fixtures, the seeded random voxel complexes and independent
brute-force oracles.

The oracles here deliberately avoid the code paths they are used to
check: interval counting goes through the generic order relation only,
voxel faces are counted as a set of (free axes, corner) pairs, and the
short h-vector oracle expands the defining polynomial sum by plain
convolution instead of the binomial closed form.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cubary import CubicalComplex, FVector, VoxelSpec, from_voxels
from cubary.corpus import bernoulli_voxel_spec, default_corpus
from builder_oracle import from_keyed_faces_oracle


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def non_cube_square():
    """A 2-face whose four edges form a triangle plus a pendant edge.

    Vertices a, b, c, d and edges ab, bc, ca, cd: every face has a
    square's cover count and lower-set profile, but the lower set is not
    a square's face lattice (bc shares a vertex with every other edge).
    """
    return from_keyed_faces_oracle(
        {
            "a": (0, []), "b": (0, []), "c": (0, []), "d": (0, []),
            "ab": (1, ["a", "b"]), "bc": (1, ["b", "c"]),
            "ca": (1, ["c", "a"]), "cd": (1, ["c", "d"]),
            "s": (2, ["ab", "bc", "ca", "cd"]),
        }
    )


def random_voxel_complexes(
    seed: int, dim: int, count: int
) -> list[tuple[VoxelSpec, CubicalComplex]]:
    """count draws of the random voxel model from one seeded generator,
    each with the complex it spans."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        spec = bernoulli_voxel_spec(rng, dim)
        out.append((spec, from_voxels(spec)))
    return out


def brute_force_interval_fvector(K: CubicalComplex) -> tuple[int, ...]:
    """f-vector of the subdivision by counting poset intervals directly.

    Walks every ordered pair through K.leq; never touches the cover
    bookkeeping that subdivide() uses.
    """
    counts = [0] * (K.dim + 1)
    n = len(K)
    for b in range(n):
        for a in range(n):
            if K.leq(a, b):
                counts[K.dims[b] - K.dims[a]] += 1
    return tuple(counts)


def voxel_face_set_fvector(spec: VoxelSpec) -> list[int]:
    """f-vector of a voxel complex as a set of (free axes, corner) faces.

    Lists every face of every cube and lets a set merge the shared ones;
    builds no poset and shifts no bits.
    """
    dim = spec.ambient_dim
    faces = set()
    for c in spec.corners:
        for free in itertools.product((False, True), repeat=dim):
            ends = [(x,) if free[i] else (x, x + 1) for i, x in enumerate(c)]
            faces.update((free, w) for w in itertools.product(*ends))
    f = [0] * (dim + 1)
    for free, _ in faces:
        f[sum(free)] += 1
    return f


def _convolve(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expand_hsc_oracle(f: FVector) -> tuple[int, ...]:
    """Short h-vector via direct expansion of sum_j f_j (2x)^j (1-x)^(d-1-j)."""
    d = f.d
    total = [Fraction(0)] * d
    for j, fj in enumerate(f.entries):
        term = [Fraction(fj)]
        for _ in range(j):
            term = _convolve(term, [Fraction(0), Fraction(2)])
        for _ in range(d - 1 - j):
            term = _convolve(term, [Fraction(1), Fraction(-1)])
        for i, c in enumerate(term):
            total[i] += c
    assert all(c.denominator == 1 for c in total)
    return tuple(int(c) for c in total)
