"""Built-in complex corpus and the random voxel model.

The corpus mixes pure and non-pure situations at sub-second scale:
cubes and cube boundaries up to d=4, single voxels, a 2-edge path, a
2x2 grid, an L-shaped tromino, and a solid 2x2x2 block.
"""

from __future__ import annotations

import itertools
import random

from .complex_core import CubicalComplex, VoxelSpec, from_voxels, gen_cube, gen_cube_boundary


def default_corpus() -> list[tuple[str, CubicalComplex]]:
    items: list[tuple[str, CubicalComplex]] = []
    for d in range(1, 5):
        items.append((f"cube_{d}", gen_cube(d)))
    for d in range(1, 5):
        items.append((f"cube_boundary_{d}", gen_cube_boundary(d)))
    for d in range(1, 4):
        items.append((f"voxel_{d}", from_voxels(VoxelSpec(d, (tuple([0] * d),)))))
    items.append(("path_2", from_voxels(VoxelSpec(1, ((0,), (1,))))))
    items.append(("grid_2x2", from_voxels(VoxelSpec(2, ((0, 0), (1, 0), (0, 1), (1, 1))))))
    items.append(("tromino_L", from_voxels(VoxelSpec(2, ((0, 0), (1, 0), (0, 1))))))
    items.append(
        ("block_2x2x2", from_voxels(VoxelSpec(3, tuple(itertools.product((0, 1), repeat=3)))))
    )
    return items


GRID_SIDE = 4

# maps a byte to its top bit
_TOP_BIT = bytes(128) + bytes([1]) * 128


def bernoulli_voxel_spec(rng: random.Random, dim: int) -> VoxelSpec:
    """One draw of the random voxel model.

    Each unit cube of the side-4 grid is kept independently with
    probability 1/2 (one bit per cell, cells in lexicographic corner
    order). Empty draws are discarded and redrawn, so the result is
    always a nonempty complex; everything is deterministic given the
    generator state.

    CPython's getrandbits(1) is the top bit of one 32-bit word, and
    getrandbits(32 n) packs n words, lowest first: same bits, same state.
    """
    n = GRID_SIDE**dim
    while True:  # bytes 3, 7, 11, ... are the words' top bytes
        keep = rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(_TOP_BIT)
        corners = tuple(itertools.compress(itertools.product(range(GRID_SIDE), repeat=dim), keep))
        if corners:
            return VoxelSpec(dim, corners)
