"""The random voxel model's earlier draw and face count, kept as test
oracles.

``bernoulli_voxel_spec_oracle`` draws one bit per cell with
``rng.getrandbits(1)`` over a tuple of all corner tuples;
``voxel_f_counts_oracle`` sets one bit per cube with ``|=`` and keeps
every set of face corners in a list. ``cubary`` draws a whole grid with
one ``getrandbits`` call and walks the sets depth first; the two must
give the same corners, the same f-vectors and the same generator state.
"""

import itertools
import random

from cubary import VoxelSpec

GRID_SIDE = 4


def bernoulli_voxel_spec_oracle(rng: random.Random, dim: int) -> VoxelSpec:
    cells = tuple(itertools.product(range(GRID_SIDE), repeat=dim))
    while True:
        corners = tuple(c for c in cells if rng.getrandbits(1))
        if corners:
            return VoxelSpec(dim, corners)


def voxel_f_counts_oracle(spec: VoxelSpec) -> list[int]:
    D = spec.ambient_dim
    axes = list(zip(*spec.corners))
    strides = [1]  # strides[i] is axis i's place value; the last is unused
    for axis in axes:
        strides.append(strides[-1] * (max(axis) - min(axis) + 2))
    origin = sum(min(axis) * s for axis, s in zip(axes, strides))
    cells = 0
    for c in spec.corners:
        bit = -origin
        for x, s in zip(c, strides):
            bit += x * s
        cells |= 1 << bit
    # spread[fixed] is the set of face corners when the axes in `fixed`
    # are fixed; each set extends the one without its lowest axis
    spread = [cells]
    for fixed in range(1, 1 << D):
        lowest = fixed & -fixed
        prev = spread[fixed ^ lowest]
        spread.append(prev | prev << strides[lowest.bit_length() - 1])
    f = [0] * (D + 1)
    for fixed, corners in enumerate(spread):
        f[D - fixed.bit_count()] += corners.bit_count()
    return f
