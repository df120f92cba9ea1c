"""Cubical barycentric subdivision as a face-poset operation.

The faces of the subdivision are the closed intervals [F, G] of the
poset of nonempty faces, ordered by interval inclusion ([F', G'] lies
inside [F, G] iff F <= F' and G' <= G). The dimension of [F, G] is
dim(G) - dim(F); the result has the same dimension as the input.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._base import DEFAULT_FACE_BUDGET
from .complex_core import CubicalComplex, _canonical_order

if TYPE_CHECKING:
    from .face_vectors import FVector

# A step may also hold at most this many key characters per budgeted face,
# counted as projected faces times the projected longest key. Keys double
# in length each round, so a complex whose face count barely grows (a
# point, a segment) would otherwise exhaust memory on keys alone. At the
# default budget this caps a step at 2.5 * 10^8 characters, small next to
# the face records the budget admits, so complexes with short keys stay
# bound by their face count.
KEY_CHARS_PER_FACE = 25


class FaceBudgetExceeded(RuntimeError):
    """Raised before constructing a subdivision step that would be too big.

    ``max_key`` is set when the face count fits the budget but the faces
    times the longest key exceed ``KEY_CHARS_PER_FACE`` times the budget.
    """

    def __init__(
        self, step: int, projected: FVector, budget: int, max_key: int | None = None
    ):
        self.step = step
        self.projected = projected
        self.budget = budget
        self.max_key = max_key
        total = sum(projected.entries)
        what = f"subdivision step {step} projects {total} faces (f = {list(projected.entries)})"
        if max_key is None:
            super().__init__(f"{what}, exceeding the budget of {budget}")
        else:
            super().__init__(
                f"{what} with keys of up to {max_key} characters, exceeding "
                f"{KEY_CHARS_PER_FACE} key characters per face of the budget of {budget}"
            )


def subdivide(K: CubicalComplex) -> CubicalComplex:
    """One round of cubical barycentric subdivision.

    Interval [F, G] covers [X, G] for each X <= G covering F, and
    [F, G'] for each G' covered by G with F <= G'. Intervals are keyed by
    the pair of the constituent keys and sorted first, so each cover is
    written once, in final ids, through one dict per face g, ids[g][f].
    Assumes K is a valid complex; the CLI validates it first.
    """
    lower = K.all_lower_sets()
    dims, keys = [], []
    for below, dim_g, key_g in zip(lower, K.dims, K.keys):
        dims += [dim_g - K.dims[f] for f in below]
        keys += [f"[{K.keys[f]}|{key_g}]" for f in below]
    order, final = _canonical_order(dims, keys)
    run = iter(final)  # zip draws from `below` first, so each takes its own run
    ids = [dict(zip(below, run)) for below in lower]
    covered: list[list[int]] = [[] for _ in order]
    for g, in_g in enumerate(ids):
        for x, i in in_g.items():
            for c in K.covered[x]:
                covered[in_g[c]].append(i)
        for g2 in K.covered[g]:
            for f, i in ids[g2].items():
                covered[in_g[f]].append(i)
    return CubicalComplex([dims[i] for i in order], covered, [keys[i] for i in order])


def subdivide_n(
    K: CubicalComplex, n: int, face_budget: int = DEFAULT_FACE_BUDGET
) -> CubicalComplex:
    """n-fold subdivision by explicit construction.

    Before each step the face count of the result is projected from the
    current complex as sum_j 3^j f_j, since each j-face has 3^j faces
    below it, and its longest key from the current one: the key of [F|F]
    for the longest key F has 2 len(F) + 3 characters, and no key is
    longer. A step whose faces exceed face_budget, or whose faces times
    longest key exceed KEY_CHARS_PER_FACE * face_budget, raises
    FaceBudgetExceeded without constructing anything. n=0 returns K
    unchanged.
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be an int >= 0")
    if type(face_budget) is not int or face_budget < 0:
        raise ValueError("face_budget must be an int >= 0")
    max_key = max(map(len, K.keys), default=0)
    for step in range(1, n + 1):
        f = [0] * (K.dim + 1)
        for d in K.dims:
            f[d] += 1
        max_key = 2 * max_key + 3
        total = sum(3**j * f_j for j, f_j in enumerate(f))
        if total > face_budget or total * max_key > KEY_CHARS_PER_FACE * face_budget:
            from .face_vectors import FVector
            from .transform import f_of_subdivision

            projected = f_of_subdivision(FVector(f))
            if total > face_budget:
                raise FaceBudgetExceeded(step, projected, face_budget)
            raise FaceBudgetExceeded(step, projected, face_budget, max_key)
        K = subdivide(K)
    return K
