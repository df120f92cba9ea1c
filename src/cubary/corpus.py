"""Built-in complex corpus and the random voxel model.

The corpus mixes pure and non-pure situations at sub-second scale:
cubes and cube boundaries up to d=4, single voxels, a 2-edge path, a
2x2 grid, an L-shaped tromino, and a solid 2x2x2 block.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .complex_core import CubicalComplex, VoxelSpec


def default_corpus() -> list[tuple[str, CubicalComplex]]:
    from .complex_core import VoxelSpec, from_voxels, gen_cube, gen_cube_boundary

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
# maps a cell byte to the digit int() parses
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _draw(rng: random.Random, dim: int) -> bytes:
    """One grid of the random voxel model: a 0/1 byte per cell.

    Each cell is kept independently with probability 1/2, cells in
    lexicographic corner order. Empty draws are discarded and redrawn.
    mine counts faces from these bytes and builds corner tuples only for
    a finding, so it never loads the poset layer.

    CPython's getrandbits(1) is the top bit of one 32-bit word, and
    getrandbits(32 n) packs n words, lowest first: same bits, same state
    as one getrandbits(1) call per cell.
    """
    n = GRID_SIDE**dim
    while True:  # bytes 3, 7, 11, ... are the words' top bytes
        cells = rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(_TOP_BIT)
        if 1 in cells:
            return cells


def _corners(dim: int, cells: bytes) -> Iterator[tuple[int, ...]]:
    """The minimal corners of a draw's kept cells, in lexicographic order."""
    return itertools.compress(itertools.product(range(GRID_SIDE), repeat=dim), cells)


def _f_counts(dim: int, cells: bytes) -> list[int]:
    """f-vector of the voxel complex of a draw, counted without a poset.

    A face with free-axis mask m and minimal corner w lies in the cube at
    c when w agrees with c on the free axes and w_i is c_i or c_i + 1 on
    each fixed axis i. So the corners of the faces with mask m are the
    cube corners spread by +1 along every fixed axis. Corners are bits of
    one int over the vertex lattice, 5 digits an axis, so vertex
    coordinate 4 still fits and a shift never carries into the next axis.
    """
    # widen the axes from last to first: after each run of 4 digits, a zero
    for k in range(dim):
        run = (GRID_SIDE + 1) ** k
        pad, chunk = bytes(run), GRID_SIDE * run
        cells = pad.join([cells[i : i + chunk] for i in range(0, len(cells), chunk)]) + pad
    f = [0] * (dim + 1)
    # one digit per bit, highest first, which int() parses in linear time
    _walk(f, int(cells[::-1].translate(_DIGIT), 2), dim, dim)
    return f


def _walk(f: list[int], corners: int, below: int, free: int) -> None:
    """Count the faces whose corners are the bits of corners into f[free].

    Fixing an axis spreads the face corners by +1 along it. Each set of
    fixed axes extends the one without its lowest axis, depth first, so
    only the sets on the current path, at most D + 1, are alive. A module
    function, not a self-calling closure, so no call leaves a cycle.
    """
    f[free] += corners.bit_count()
    for axis in range(below):
        _walk(f, corners | corners << (GRID_SIDE + 1) ** axis, axis, free - 1)


def bernoulli_voxel_spec(rng: random.Random, dim: int) -> VoxelSpec:
    """One draw of the random voxel model as a spec.

    Each unit cube of the side-4 grid is kept independently with
    probability 1/2 (one bit per cell, cells in lexicographic corner
    order). Empty draws are discarded and redrawn, so the result is
    always a nonempty complex; everything is deterministic given the
    generator state. A dim that is not an int >= 1 raises ValueError
    before anything is drawn.
    """
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim must be an int >= 1, got {dim!r}")
    from .complex_core import VoxelSpec

    return VoxelSpec(dim, tuple(_corners(dim, _draw(rng, dim))))
