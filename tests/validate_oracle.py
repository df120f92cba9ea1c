"""The seed's all-pairs validator, kept as a test oracle.

It checks every face's lower-set profile and the unique-maximal-common-
subface condition on every pair of faces that share a vertex.
``cubary.validate`` replaced it with facet-local checks; the two must
agree on every ``ok`` verdict except on faces whose lower sets have a
cube's profile without being a cube's face lattice, which only the
facet-local validator rejects.
"""

import math

from cubary import CubicalComplex, ValidationReport


def validate_oracle(K: CubicalComplex) -> ValidationReport:
    """Check the cubical-complex axioms; violations are data, not errors.

    Checked, in order: canonical id ordering; gradedness (every cover
    drops dimension by exactly 1, vertices cover nothing); the cube cover
    count (a j-face covers exactly 2j faces); cube lower-set counts (a
    j-face has 2^(j-k)*C(j,k) subfaces of dimension k); and the
    intersection property (two faces sharing subfaces have a unique
    maximal common subface). Counting and intersection checks are skipped
    when grading is broken, since lower sets are then meaningless.
    """
    v: list[str] = []
    n = len(K.dims)

    order = [(K.dims[i], K.keys[i]) for i in range(n)]
    if order != sorted(order):
        v.append("faces are not in canonical (dim, key) order")

    graded = True
    for i in range(n):
        d = K.dims[i]
        if d < 0:
            v.append(f"face {i} has negative dimension {d}")
            graded = False
        if d == 0 and K.covered[i]:
            v.append(f"vertex {i} covers faces {sorted(K.covered[i])}")
            graded = False
        for c in K.covered[i]:
            if c == i:
                v.append(f"face {i} covers itself")
                graded = False
            elif K.dims[c] != d - 1:
                v.append(
                    f"face {i} (dim {d}) covers face {c} of dim {K.dims[c]}"
                )
                graded = False
        if d > 0 and not K.covered[i]:
            v.append(f"face {i} of dim {d} covers nothing")

    for i in range(n):
        j = K.dims[i]
        if j > 0 and len(K.covered[i]) != 2 * j:
            v.append(
                f"face {i} of dim {j} covers {len(K.covered[i])} faces, "
                f"expected 2*{j}"
            )

    if not graded:
        return ValidationReport(False, tuple(v))

    lower = K.all_lower_sets()
    for i in range(n):
        j = K.dims[i]
        counts = [0] * (j + 1)
        for f in lower[i]:
            counts[K.dims[f]] += 1
        want = [2 ** (j - k) * math.comb(j, k) for k in range(j + 1)]
        if counts != want:
            v.append(
                f"face {i} of dim {j} has lower-set profile {counts}, "
                f"expected {want}"
            )

    # Intersection property: only pairs sharing a vertex can share subfaces.
    above: dict[int, list[int]] = {}
    for i in range(n):
        for f in lower[i]:
            if K.dims[f] == 0:
                above.setdefault(f, []).append(i)
    pairs = set()
    for members in above.values():
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                pairs.add((members[ai], members[bi]))
    for a, b in sorted(pairs):
        common = lower[a] & lower[b]
        if not common:
            continue
        # common is a down-set, so its maximal elements are those not
        # covered by another of its elements
        dominated = set()
        for f in common:
            dominated |= K.covered[f] & common
        maximal = common - dominated
        if len(maximal) > 1:
            v.append(
                f"faces {a} and {b} have {len(maximal)} maximal common "
                f"subfaces {sorted(maximal)}"
            )

    return ValidationReport(not v, tuple(v))
