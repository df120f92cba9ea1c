"""Cubical complexes as graded face posets.

A complex is stored purely combinatorially: each face has a dimension,
a sorted tuple of the ids it covers (its codimension-1 subfaces), and a
canonical key. Faces get dense ids 0..N-1 in canonical order, i.e.
sorted by (dimension, key). The empty face is implicit and never stored.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from typing import Iterable

from ._base import _Frozen, _Record


class VoxelSpec(_Record):
    """Unit-cube complex given by the minimal corners of its cubes."""

    __match_args__ = ("ambient_dim", "corners")
    ambient_dim: int
    corners: tuple[tuple[int, ...], ...]

    def __init__(self, ambient_dim: int, corners: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "corners", corners)
        # exact ints in tuples (not bool, float or list) keep the spec hashable
        if type(corners) is not tuple or not all(type(c) is tuple for c in corners):
            raise ValueError("voxel spec corners must be a tuple of tuples")
        for x in (ambient_dim, *(x for c in corners for x in c)):
            if type(x) is not int:
                raise ValueError(f"voxel spec needs int dimension and coordinates, got {x!r}")
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be >= 1")
        if not corners:
            raise ValueError("voxel spec needs at least one corner")
        for c in corners:
            if len(c) != ambient_dim:
                raise ValueError(f"corner {c} has wrong length")
        if len(set(corners)) != len(corners):
            raise ValueError("duplicate corners in voxel spec")


_INT = re.compile("[+-]?[0-9]+")


def parse_voxel_text(text: str) -> VoxelSpec:
    """Parse the voxel text format.

    First line ``dim <n>`` with n >= 1; every further nonempty line that
    does not start with ``#`` lists n integers (a minimal corner). An
    integer is ASCII ``[+-]?[0-9]+``: no ``_`` separators and no other
    scripts' digits, which ``int`` would accept. Duplicates are rejected.
    """
    lines = [ln.strip() for ln in str.splitlines(text)]  # TypeError unless text is a str
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("voxel file must start with 'dim <n>'")
    head = lines[0].split()
    if len(head) != 2 or not _INT.fullmatch(head[1]):
        raise ValueError("malformed dim line")
    n = int(head[1])
    if n < 1:
        raise ValueError("ambient_dim must be >= 1")
    corners = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"corner line {ln!r} does not have {n} entries")
        if not all(map(_INT.fullmatch, parts)):
            raise ValueError(f"corner line {ln!r} has an entry that is not an integer")
        corners.append(tuple(map(int, parts)))
    return VoxelSpec(ambient_dim=n, corners=tuple(corners))


class CubicalComplex(_Frozen):
    """Immutable graded face poset of a cubical complex.

    Attributes
    ----------
    dims:    face dimension per id
    covered: ascending tuple of covered (codim-1) face ids per id, no repeats
    keys:    canonical key string per id

    The constructor checks a face table (row i: dim, covered rows, key),
    then sorts rows into (dim, key) order, renumbering covers to match.
    """

    __slots__ = ("dims", "covered", "keys")

    def __init__(self, dims, covered, keys):
        try:
            dims, cov, keys = tuple(dims), tuple(map(tuple, covered)), tuple(keys)
        except TypeError as exc:
            raise ValueError(f"face table columns and covers must be iterable: {exc}") from exc
        if not dims:
            raise ValueError("empty complexes are not supported")
        if not (len(dims) == len(cov) == len(keys)):
            raise ValueError("inconsistent face table lengths")
        # in bulk and before any sort: a bool dim prints as false, a stray id reads as a face
        flat = [*itertools.chain.from_iterable(cov)]
        if {*map(type, dims)} != {int}:
            raise ValueError("face dims must be ints")
        if not {*map(type, flat)} <= {int} or flat and not 0 <= min(flat) <= max(flat) < len(dims):
            raise ValueError(f"covered ids must be ints in 0..{len(dims) - 1}")
        if {*map(type, keys)} != {str}:
            raise ValueError("face keys must be strings")
        if not _in_order(dims, keys):  # renumbered once checked, so no -1 wraps to the last row
            order, new_id = _canonical_order(dims, keys)
            dims, keys = tuple(map(dims.__getitem__, order)), tuple(map(keys.__getitem__, order))
            cov = [map(new_id.__getitem__, cov[i]) for i in order]
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "covered", tuple(map(tuple, map(sorted, map(set, cov)))))
        object.__setattr__(self, "keys", keys)
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate canonical keys")

    def __len__(self):
        return len(self.dims)

    @property
    def dim(self) -> int:
        return max(self.dims)

    def lower_set(self, fid: int) -> tuple[int, ...]:
        """Ascending ids of all subfaces of fid, including fid itself."""
        self._check_id(fid)
        seen = {fid}
        stack = [fid]
        while stack:
            for c in self.covered[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return tuple(sorted(seen))

    def all_lower_sets(self) -> list[tuple[int, ...]]:
        """lower_set() of every face; single bottom-up pass over the table.

        Assumes covered ids point to lower ids (true for canonically
        ordered, graded complexes); falls back to per-face search when
        the assumption fails so it stays usable on broken input.
        """
        out: list[tuple[int, ...] | None] = [None] * len(self.dims)
        for i in range(len(self.dims)):
            acc = {i}
            ok = True
            for c in self.covered[i]:
                if c >= i or out[c] is None:
                    ok = False
                    break
                acc.update(out[c])
            out[i] = tuple(sorted(acc)) if ok else self.lower_set(i)
        return out  # type: ignore[return-value]

    def _check_id(self, fid: int):
        if type(fid) is not int or not 0 <= fid < len(self.dims):
            raise ValueError(f"invalid face id {fid!r}")

    def _json_keys(self) -> tuple[str, ...]:
        """The keys; JSON would read a surrogate pair back as one character."""
        for i, k in enumerate(() if "".join(self.keys).isascii() else self.keys):
            if re.search("[\ud800-\udbff][\udc00-\udfff]", k):
                raise ValueError(f"face {i} key {k!r} holds a surrogate pair, which JSON cannot keep")
        return self.keys

    def to_json_obj(self) -> dict:
        faces = enumerate(zip(self.dims, self.covered, self._json_keys()))
        return {
            "dim": self.dim,
            "faces": [{"id": i, "dim": d, "covered": list(c), "key": k} for i, (d, c, k) in faces],
        }

    def to_json(self) -> str:
        """json.dumps(to_json_obj()) with compact separators, one f-string per face."""
        quote = json.encoder.encode_basestring_ascii
        ids = list(map(str, range(len(self.dims))))  # each id rendered once
        faces = ",".join(
            f'{{"id":{i},"dim":{d},"covered":[{",".join(map(ids.__getitem__, c))}],"key":{quote(k)}}}'
            for i, d, c, k in zip(ids, self.dims, self.covered, self._json_keys())
        )
        return f'{{"dim":{self.dim},"faces":[{faces}]}}'

    @classmethod
    def from_json_obj(cls, obj) -> "CubicalComplex":
        """Ingest the JSON format, re-canonicalizing ids.

        Structural problems (wrong JSON types, bad ids, duplicate keys,
        dim mismatch, an id repeated in one face's covers) raise
        ValueError; poset-axiom violations are left for validate(). Ids
        and dims must be JSON integers, not floats or booleans; covered
        must be a list of ids and key a string.
        """
        try:
            declared = obj["dim"]
            columns = [*zip(*map(operator.itemgetter("id", "dim", "covered", "key"), obj["faces"]))]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed complex JSON: {exc}") from exc
        if type(declared) is not int:
            raise ValueError(f"malformed complex JSON: dim must be an integer, got {declared!r}")
        if not columns:
            raise ValueError("empty complexes are not supported")
        ids, dims, covered, keys = columns
        n = len(ids)
        K = None  # JSON's own checks (by type too: (0, True) == (0, 1)), then the constructor's
        if {*map(type, ids)} == {int} and ids == tuple(range(n)) and {*map(type, covered)} == {list}:
            try:
                K = cls(dims, covered, keys)
            except ValueError:
                pass
        if K is None:  # name the first fault in list order, or put the rows in id order
            stray = None  # row of the first face covering an unknown id
            for r, (fid, dim, cov, key) in enumerate(zip(ids, dims, covered, keys)):
                if type(fid) is not int or type(dim) is not int:
                    raise ValueError(
                        f"malformed complex JSON: face id and dim must be integers, "
                        f"got id {fid!r} and dim {dim!r}"
                    )
                if type(cov) is not list or not all(type(c) is int for c in cov):
                    raise ValueError(
                        f"malformed complex JSON: face {fid} covered must be a list "
                        f"of integer ids, got {cov!r}"
                    )
                if cov and stray is None and (min(cov) < 0 or max(cov) >= n):
                    stray = r
                if type(key) is not str:
                    raise ValueError(
                        f"malformed complex JSON: face {fid} key must be a string, got {key!r}"
                    )
            # row[fid] is the list position of face fid
            row = [None] * n
            for r, fid in enumerate(ids):
                if not 0 <= fid < n or row[fid] is not None:
                    raise ValueError("face ids must be exactly 0..N-1")
                row[fid] = r
            seen = set()
            for key in keys[:stray]:  # a duplicate key before the stray cover is reported first
                if key in seen:
                    raise ValueError(f"duplicate key {key!r}")
                seen.add(key)
            if stray is not None:
                c = next(c for c in covered[stray] if not 0 <= c < n)
                raise ValueError(f"face {ids[stray]} covers unknown id {c}")
            dims, covered, keys = ([col[r] for r in row] for col in (dims, covered, keys))
            K = cls(dims, covered, keys)
        if K.dim != declared:
            raise ValueError(f"declared dim {declared} != max face dim {K.dim}")
        # the complex keeps each cover once, so a repeat shortens the total
        if sum(map(len, covered)) != sum(map(len, K.covered)):
            fid, cov = next(row for row in enumerate(covered) if len(set(row[1])) < len(row[1]))
            repeated = next(c for c in cov if cov.count(c) > 1)
            raise ValueError(f"face {fid} covers id {repeated} more than once")
        return K

    @classmethod
    def from_json(cls, text: str) -> "CubicalComplex":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("invalid JSON: nested too deeply") from exc
        return cls.from_json_obj(obj)

    def __repr__(self):
        return f"<CubicalComplex dim={self.dim} faces={len(self.dims)}>"


def _in_order(dims, keys) -> bool:
    """True iff the rows are in (dim, key) order: each neighbouring pair is.
    zip reuses its result tuple, so this builds no tuple per face."""
    return not any(map(operator.gt, zip(dims, keys), itertools.islice(zip(dims, keys), 1, None)))


def _canonical_order(dims, keys) -> tuple[list[int], list[int]]:
    """(order, new_id): the rows sorted by (dim, key), and each row's place there."""
    # two stable sorts, so no (dim, key) tuple is built per face
    order = sorted(range(len(keys)), key=keys.__getitem__)
    order.sort(key=dims.__getitem__)
    new_id = [0] * len(order)
    for i, old in enumerate(order):
        new_id[old] = i
    return order, new_id


class ValidationReport(_Record):
    __match_args__ = ("ok", "violations")
    ok: bool
    violations: tuple[str, ...]

    def __init__(self, ok: bool, violations: tuple[str, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)

    def __bool__(self):
        return self.ok


def validate(K: CubicalComplex) -> ValidationReport:
    """Check the cubical-complex axioms; violations are data, not errors.

    Checked, in order: gradedness (every cover drops dimension by
    exactly 1, vertices cover nothing); the cube cover count (a j-face
    covers exactly 2j faces); then, one maximal face at a time, (i) the
    faces below a maximal face of dimension j form the face lattice of a
    j-cube, and (ii) two maximal faces sharing a vertex have a unique
    maximal common subface. Checks (i) and (ii) are skipped when grading
    is broken, since lower sets are then meaningless.

    Check (i) labels each face x below the maximal face M by the set of
    M's facets above x. Two facets are opposite when they share no
    vertex; the 2j facets must split into j opposite pairs, so a label
    reads as a word in {0,1,*}^j: 0 or 1 where x lies below the first or
    second facet of a pair, * where below neither (no face lies below
    both, as its vertices would). The labels must be a bijection onto
    {0,1,*}^j (3^j faces, distinct labels) and dim x must equal its
    number of *s. If y covers x, every facet above y is above x, so
    label(x) only fixes more letters than label(y); the dimension check
    makes it exactly one more, so every cover replaces one * by a 0 or a
    1. Where every cover count holds, a d-face covers 2d faces and there
    are 2d such replacements, so the covers below M are those of the
    cube, and hence so is the order.

    Check (ii) intersects no lower sets. For maximal faces a < b sharing
    vertices, a a cube, let c be the face of a labelled by the AND of a's
    labels of the common vertices: the smallest face of a above them all.
    Every common subface has its vertices among the common ones, so lies
    below c in a's cube: if c <= b, c is the unique maximum. A unique
    maximum m lies above every common vertex, so c <= m <= b. Only pairs
    failing c <= b, or with no cube lattice below a, are scanned.

    Why (ii) on pairs of maximal faces is enough: in a cube lattice two
    faces meet in one face or not at all. Take faces a <= A and b <= B
    with A, B maximal and lower(A) & lower(B) = lower(c) (c = A when
    A = B). Then lower(a) & lower(b) = lower(c) & lower(a) & lower(b).
    Inside A's cube, lower(c) & lower(a) is empty or lower(e) for one
    face e <= c <= B; inside B's cube, lower(e) & lower(b) is empty or
    has a unique maximum. Faces sharing no vertex share no subface, as
    every nonempty face has a vertex below it. Every lower set is a
    subcube of a checked one, so each j-face also has the cube's
    2^(j-k)*C(j,k) subfaces of dimension k.
    """
    if not isinstance(K, CubicalComplex):
        raise TypeError(f"validate needs a CubicalComplex, got {type(K).__name__}")
    v: list[str] = []
    dims, covered = K.dims, K.covered
    graded, miscounted = True, []
    for i, (d, cov) in enumerate(zip(dims, covered)):
        if d < 0:
            v.append(f"face {i} has negative dimension {d}")
            graded = False
        elif d == 0 and cov:
            v.append(f"vertex {i} covers faces {list(cov)}")
            graded = False
        elif d > 0 and len(cov) != 2 * d:
            if not cov:
                v.append(f"face {i} of dim {d} covers nothing")
            miscounted.append(f"face {i} of dim {d} covers {len(cov)} faces, expected 2*{d}")
        for c in cov:
            if c == i:
                v.append(f"face {i} covers itself")
                graded = False
            elif dims[c] != d - 1:
                v.append(f"face {i} (dim {d}) covers face {c} of dim {dims[c]}")
                graded = False
    v += miscounted
    if not graded:
        return ValidationReport(False, tuple(v))

    tops: dict[int, tuple] = {}  # maximal face -> _cube_labels()
    star: dict[int, list[int]] = {}  # vertex -> maximal faces above it, ascending
    for top in sorted(set(range(len(dims))).difference(*covered)):
        tops[top] = _, vertices, coords = _cube_labels(K, top)
        if type(coords) is str:
            v.append(f"face {top} of dim {dims[top]} is not a cube: {coords}")
        for u in vertices:
            star.setdefault(u, []).append(top)

    for a, (label, vertices, coords) in tops.items():
        vouched = not miscounted and type(coords) is dict
        meet: dict[int, int] = {}  # partner b > a -> AND of a's common vertex labels
        for u in vertices:
            del star[u][0]  # a itself, as tops are walked in ascending order
            for b in star[u]:
                meet[b] = meet.get(b, label[u]) & label[u]
        for b in sorted(meet):
            if vouched and coords[meet[b]] in tops[b][0]:
                continue
            # a down-set's maximal elements are those no other covers
            common = label.keys() & tops[b][0].keys()
            maximal = common.difference(*(covered[f] for f in common))
            if len(maximal) > 1:
                v.append(f"faces {a} and {b} have {len(maximal)} maximal common subfaces {sorted(maximal)}")
    return ValidationReport(not v, tuple(v))


def _cube_labels(K: CubicalComplex, top: int) -> tuple[dict, list, dict | str]:
    """(label, vertices, coords) of the faces below `top`; see validate().

    label maps each face below top, top included, to the bitmask of
    top's facets above it, bit k for the k-th smallest facet id; coords
    maps each label back to its face, or says why these faces are not a
    cube's face lattice. The pass goes level by level, so K must be graded.
    """
    dims, covered = K.dims, K.covered
    j = dims[top]
    facets = covered[top]
    label = {top: 0, **{f: 1 << k for k, f in enumerate(facets)}}
    level = facets if j else [top]
    off = False  # a face whose label does not fix j - dim letters
    for fixed in range(1, j):  # level holds the faces of dim j - fixed
        if not level:  # a face that covers nothing; 3^j may be huge
            break
        nxt = []
        for y in level:
            m = label[y]
            off |= m.bit_count() != fixed
            for c in covered[y]:
                if c in label:
                    label[c] |= m
                else:
                    label[c] = m
                    nxt.append(c)
        level = nxt
    # facets first: 2j distinct facets keep 3^j polynomial in the face count
    if len(facets) != 2 * j:
        return label, level, f"{len(facets)} facets, expected {2 * j}"
    if len(label) != 3**j:
        return label, level, f"{len(label)} faces below it, expected 3^{j}"
    touching = [0] * (2 * j)  # facets sharing a vertex with facets[k]
    for m in map(label.__getitem__, level):
        off |= m.bit_count() != j
        rest = m
        while rest:  # each facet above the vertex, lowest bit first
            touching[(rest & -rest).bit_length() - 1] |= m
            rest &= rest - 1
    everything = (1 << 2 * j) - 1
    for k in range(2 * j):
        opp = everything & ~touching[k]
        if opp.bit_count() != 1 or everything & ~touching[opp.bit_length() - 1] != 1 << k:
            return label, level, f"facet {facets[k]} has no unique opposite facet"

    # No face lies below both facets of an opposite pair, since its
    # vertices would. Where the cover counts hold every face has a vertex;
    # where they fail validate() has already reported it.
    if off:  # name the first such face in lower_set()'s order
        f = next(f for f in K.lower_set(top) if dims[f] + label[f].bit_count() != j)
        return label, level, f"face {f} of dim {dims[f]} has {j - label[f].bit_count()} free coordinates"
    coords = {m: f for f, m in label.items()}
    if len(coords) != len(label):
        return label, level, "two faces below it get the same cube coordinates"
    return label, level, coords


def _cube_faces(ambient: int, corners: Iterable[tuple[int, ...]]) -> tuple[list, list, list]:
    """Face table (dims, covered ids, keys) of the unit cubes at `corners`.

    A face is indexed by (mask, corner): the bitmask of its free axes and
    its minimal corner, so cubes sharing a face deduplicate. Within a
    cube masks ascend, so every face a face covers is already in the
    table. Each key is rendered once, when its face is added.
    """
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    dims, covered, keys = [], [], []
    for corner in corners:
        for mask in range(1 << ambient):
            free = [i for i in range(ambient) if mask >> i & 1]
            # a free axis starts at the cube's corner, a fixed one at either end
            ends = [(c,) if mask >> i & 1 else (c, c + 1) for i, c in enumerate(corner)]
            for w in itertools.product(*ends):
                if (mask, w) in index:
                    continue
                cov = []
                for i in free:  # a facet fixes axis i at either end
                    for end in (w[i], w[i] + 1):
                        cov.append(index[mask ^ 1 << i, w[:i] + (end,) + w[i + 1 :]])
                index[mask, w] = len(keys)
                dims.append(len(free))
                covered.append(cov)
                keys.append(",".join(map(str, free)) + ";" + ",".join(map(str, w)))
    return dims, covered, keys


def gen_cube(d: int) -> CubicalComplex:
    """The complex of all faces of the standard d-cube, top cell included."""
    if type(d) is not int or d < 0:
        raise ValueError("d must be >= 0")
    return CubicalComplex(*_cube_faces(d, [(0,) * d]))


def gen_cube_boundary(d: int) -> CubicalComplex:
    """All proper faces of the d-cube; the (d-1)-sphere for d >= 1."""
    if type(d) is not int or d < 1:
        raise ValueError("cube boundary needs d >= 1 (no empty complexes)")
    dims, covered, keys = _cube_faces(d, [(0,) * d])
    # the top cell has the full mask, so it is the last row
    return CubicalComplex(dims[:-1], covered[:-1], keys[:-1])


def from_voxels(spec: VoxelSpec) -> CubicalComplex:
    """Complex whose facets are the unit cubes [c, c+1] of the spec.

    Faces are keyed by (free coordinate set, minimal corner), so cubes
    sharing a face deduplicate automatically, and axis-aligned unit-cube
    geometry makes the intersection property hold by construction.
    """
    return CubicalComplex(*_cube_faces(spec.ambient_dim, spec.corners))
