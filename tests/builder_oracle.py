"""The seed's string-keyed complex builders and JSON decoder, kept as
test oracles.

Each builder here writes a ``{key: (dim, [covered keys])}`` table and
canonicalizes it with the seed's ``from_keyed_faces``, copied below so
the oracle shares no construction code with ``cubary``. ``cubary``
replaced them with builders that index faces by integer tuples and
render every key once; the two must produce byte-identical ``to_json()``.
``from_json_obj_oracle`` is the decoder as it was before it read the
faces into four columns instead of a table of 4-tuples and a sorted
copy; it must accept the same objects and refuse the others with the
same message.
"""

from cubary import CubicalComplex, VoxelSpec


def from_keyed_faces_oracle(faces) -> CubicalComplex:
    """Build from a key -> (dim, covered keys) table, canonicalizing ids."""
    order = sorted(faces, key=lambda k: (faces[k][0], k))
    ids = {k: i for i, k in enumerate(order)}
    dims, covered = [], []
    for k in order:
        dim, cov = faces[k]
        try:
            covered.append(frozenset(ids[c] for c in cov))
        except KeyError as exc:
            raise ValueError(f"face {k!r} covers unknown face {exc.args[0]!r}")
        dims.append(dim)
    return CubicalComplex(dims, covered, order)


def _cube_key(free: tuple[int, ...], corner: tuple[int, ...]) -> str:
    return ",".join(map(str, free)) + ";" + ",".join(map(str, corner))


def _cube_faces_into(
    faces: dict, ambient: int, corner: tuple[int, ...]
) -> None:
    """Add all faces of the unit cube at `corner` to a keyed-face table."""
    axes = range(ambient)
    # iterate over subsets of free coordinates via bitmasks
    for mask in range(1 << ambient):
        free = tuple(i for i in axes if mask >> i & 1)
        fixed = [i for i in axes if not mask >> i & 1]
        for choice in range(1 << len(fixed)):
            w = list(corner)
            for t, i in enumerate(fixed):
                w[i] += choice >> t & 1
            key = _cube_key(free, tuple(w))
            if key in faces:
                continue
            cov = []
            for i in free:
                sub = tuple(x for x in free if x != i)
                for delta in (0, 1):
                    w2 = list(w)
                    w2[i] += delta
                    cov.append(_cube_key(sub, tuple(w2)))
            faces[key] = (len(free), cov)


def gen_cube_oracle(d: int) -> CubicalComplex:
    """The complex of all faces of the standard d-cube, top cell included."""
    if d < 0:
        raise ValueError("d must be >= 0")
    faces: dict = {}
    _cube_faces_into(faces, d, (0,) * d)
    return from_keyed_faces_oracle(faces)


def gen_cube_boundary_oracle(d: int) -> CubicalComplex:
    """All proper faces of the d-cube; the (d-1)-sphere for d >= 1."""
    if d < 1:
        raise ValueError("cube boundary needs d >= 1 (no empty complexes)")
    faces: dict = {}
    _cube_faces_into(faces, d, (0,) * d)
    del faces[_cube_key(tuple(range(d)), (0,) * d)]
    return from_keyed_faces_oracle(faces)


def from_voxels_oracle(spec: VoxelSpec) -> CubicalComplex:
    """Complex whose facets are the unit cubes [c, c+1] of the spec."""
    faces: dict = {}
    for corner in spec.corners:
        _cube_faces_into(faces, spec.ambient_dim, corner)
    return from_keyed_faces_oracle(faces)


def subdivide_oracle(K: CubicalComplex) -> CubicalComplex:
    """One round of cubical barycentric subdivision.

    An interval [F, G] is keyed by the pair of the constituent keys. Its
    covered faces are [F', G] for each F' covering F inside G, and
    [F, G'] for each G' covered by G with F below it; both kinds are read
    off the input's cover relation directly.
    """
    lower = K.all_lower_sets()
    parents = [set() for _ in range(len(K))]  # faces covering each face
    for g in range(len(K)):
        for c in K.covered[g]:
            parents[c].add(g)
    keys = K.keys

    def ikey(f: int, g: int) -> str:
        return f"[{keys[f]}|{keys[g]}]"

    faces: dict[str, tuple[int, list[str]]] = {}
    for g in range(len(K)):
        in_g = lower[g]
        for f in in_g:
            cov = [ikey(f2, g) for f2 in parents[f] if f2 in in_g]
            cov += [ikey(f, g2) for g2 in K.covered[g] if f in lower[g2]]
            faces[ikey(f, g)] = (K.dims[g] - K.dims[f], cov)
    return from_keyed_faces_oracle(faces)


def from_json_obj_oracle(obj) -> CubicalComplex:
    """Ingest the JSON format, re-canonicalizing ids."""
    try:
        declared = obj["dim"]
        raw = obj["faces"]
        table = [(f["id"], f["dim"], f["covered"], f["key"]) for f in raw]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex JSON: {exc}") from exc
    if type(declared) is not int:
        raise ValueError(f"malformed complex JSON: dim must be an integer, got {declared!r}")
    for fid, dim, cov, key in table:
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
        if type(key) is not str:
            raise ValueError(
                f"malformed complex JSON: face {fid} key must be a string, got {key!r}"
            )
    if not table:
        raise ValueError("empty complexes are not supported")
    rows = sorted(table, key=lambda t: t[0])
    if [t[0] for t in rows] != list(range(len(rows))):
        raise ValueError("face ids must be exactly 0..N-1")
    seen = set()
    for fid, dim, cov, key in table:
        for c in cov:
            if not 0 <= c < len(rows):
                raise ValueError(f"face {fid} covers unknown id {c}")
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
    _, dims, covered, keys = zip(*rows)
    order = sorted(range(len(keys)), key=lambda i: (dims[i], keys[i]))
    new_id = {old: i for i, old in enumerate(order)}
    K = CubicalComplex(
        [dims[i] for i in order],
        [[new_id[c] for c in covered[i]] for i in order],
        [keys[i] for i in order],
    )
    if K.dim != declared:
        raise ValueError(f"declared dim {declared} != max face dim {K.dim}")
    return K
