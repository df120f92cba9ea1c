"""Two earlier validators, kept as test oracles.

``validate_oracle`` is the seed's all-pairs validator. It checks every
face's lower-set profile and the unique-maximal-common-subface condition
on every pair of faces that share a vertex. The facet-local validator
that replaced it must agree on every ``ok`` verdict except on faces whose
lower sets have a cube's profile without being a cube's face lattice,
which only the facet-local validator rejects.

``validate_facet_local`` is that facet-local validator: it intersects
the lower sets of every pair of maximal faces that share a vertex.
``cubary.validate`` tests each such pair with one lookup in a cube
labelling instead, and must return the same violations, in the same
order and with the same text.
"""

import itertools
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
        common = frozenset(lower[a]) & frozenset(lower[b])
        if not common:
            continue
        # common is a down-set, so its maximal elements are those not
        # covered by another of its elements
        dominated = set()
        for f in common:
            dominated |= frozenset(K.covered[f]) & common
        maximal = common - dominated
        if len(maximal) > 1:
            v.append(
                f"faces {a} and {b} have {len(maximal)} maximal common "
                f"subfaces {sorted(maximal)}"
            )

    return ValidationReport(not v, tuple(v))


def validate_facet_local(K: CubicalComplex) -> ValidationReport:
    """The facet-local validator that cubary.validate replaced.

    Same checks, order and violation text as cubary.validate, whose
    docstring gives the proofs; check (ii) intersects the lower sets of
    every pair of maximal faces that share a vertex, listed in one set.
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

    covered_somewhere = set().union(*K.covered)
    lower: dict[int, tuple[int, ...]] = {}
    tops_at_vertex: dict[int, list[int]] = {}
    for top in range(n):
        if top in covered_somewhere:
            continue
        below = K.lower_set(top)
        lower[top] = below
        problem = _cube_lattice_problem(K, top, below)
        if problem:
            v.append(f"face {top} of dim {K.dims[top]} is not a cube: {problem}")
        for f in below:
            if K.dims[f] == 0:
                tops_at_vertex.setdefault(f, []).append(top)

    pairs = set()
    for tops in tops_at_vertex.values():
        pairs.update(itertools.combinations(tops, 2))
    for a, b in sorted(pairs):
        common = frozenset(lower[a]) & frozenset(lower[b])
        # common is a down-set, so its maximal elements are those not
        # covered by another of its elements
        dominated = set()
        for f in common:
            dominated |= frozenset(K.covered[f]) & common
        maximal = common - dominated
        if len(maximal) > 1:
            v.append(
                f"faces {a} and {b} have {len(maximal)} maximal common "
                f"subfaces {sorted(maximal)}"
            )

    return ValidationReport(not v, tuple(v))


def _cube_lattice_problem(
    K: CubicalComplex, top: int, below: tuple[int, ...]
) -> str | None:
    """Why the lower set `below` of `top` is not a cube's face lattice.

    Returns None when it is one; see check (i) in cubary.validate().
    Assumes a graded complex, so sorting by dimension orders every cover.
    """
    j = K.dims[top]
    # facets first: 2j distinct facets keep 3^j polynomial in the face count
    facets = sorted(K.covered[top])
    if len(facets) != 2 * j:
        return f"{len(facets)} facets, expected {2 * j}"
    if len(below) != 3**j:
        return f"{len(below)} faces below it, expected 3^{j}"
    above = dict.fromkeys(below, 0)  # bit k set: below facets[k]
    for k, f in enumerate(facets):
        above[f] = 1 << k
    for y in sorted(below, key=K.dims.__getitem__, reverse=True):
        for c in K.covered[y]:
            above[c] |= above[y]

    touching = [0] * (2 * j)  # facets sharing a vertex with facets[k]
    for f in below:
        if K.dims[f] == 0:
            for k in range(2 * j):
                if above[f] >> k & 1:
                    touching[k] |= above[f]
    everything = (1 << 2 * j) - 1
    for k in range(2 * j):
        opp = everything & ~touching[k]
        if opp.bit_count() != 1 or everything & ~touching[opp.bit_length() - 1] != 1 << k:
            return f"facet {facets[k]} has no unique opposite facet"

    # No face lies below both facets of an opposite pair, since its
    # vertices would. Where the cover counts hold every face has a vertex;
    # where they fail validate_facet_local() has already reported it.
    labels = set()
    for f in below:
        m = above[f]
        if K.dims[f] != j - m.bit_count():
            return f"face {f} of dim {K.dims[f]} has {j - m.bit_count()} free coordinates"
        labels.add(m)
    if len(labels) != len(below):
        return "two faces below it get the same cube coordinates"
    return None
