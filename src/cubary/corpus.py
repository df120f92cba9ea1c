"""Built-in complex corpus and the random voxel model.

The corpus mixes pure and non-pure situations at sub-second scale:
cubes and cube boundaries up to d=4, single voxels, a 2-edge path, a
2x2 grid, an L-shaped tromino, and a solid 2x2x2 block.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _grid_cells(dim: int) -> tuple[tuple[int, ...], ...]:
    """Corners of the side-4 grid's cells in lexicographic order."""
    return tuple(itertools.product(range(GRID_SIDE), repeat=dim))


def bernoulli_voxel_spec(rng: random.Random, dim: int) -> VoxelSpec:
    """One draw of the random voxel model.

    Each unit cube of the side-4 grid is kept independently with
    probability 1/2 (one bit per cell, cells in lexicographic corner
    order). Empty draws are discarded and redrawn, so the result is
    always a nonempty complex; everything is deterministic given the
    generator state.
    """
    cells = _grid_cells(dim)
    while True:
        corners = tuple(c for c in cells if rng.getrandbits(1))
        if corners:
            return VoxelSpec(dim, corners)

