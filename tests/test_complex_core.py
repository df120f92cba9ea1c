import gc
import itertools
import json
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import (
    CubicalComplex,
    VoxelSpec,
    f_vector,
    from_voxels,
    gen_cube,
    gen_cube_boundary,
    parse_voxel_text,
    subdivide,
    validate,
)
from builder_oracle import from_keyed_faces_oracle


class TestGenerators:
    @pytest.mark.parametrize(
        "d,f",
        [(1, (2, 1)), (2, (4, 4, 1)), (3, (8, 12, 6, 1))],
    )
    def test_cube_examples(self, d, f):
        assert f_vector(gen_cube(d)).entries == f

    @pytest.mark.parametrize("d", range(7))
    def test_cube_counts_closed_form(self, d):
        f = f_vector(gen_cube(d)).entries
        assert f == tuple(2 ** (d - i) * math.comb(d, i) for i in range(d + 1))

    def test_cube_zero_is_a_point(self):
        K = gen_cube(0)
        assert f_vector(K).entries == (1,)
        assert K.dim == 0

    def test_cube_rejects_negative(self):
        with pytest.raises(ValueError):
            gen_cube(-1)

    @pytest.mark.parametrize(
        "d,f",
        [(3, (8, 12, 6)), (1, (2,)), (2, (4, 4))],
    )
    def test_boundary_examples(self, d, f):
        assert f_vector(gen_cube_boundary(d)).entries == f

    def test_boundary_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_cube_boundary(0)

    @pytest.mark.parametrize(
        "spec,f",
        [
            (VoxelSpec(1, ((0,),)), (2, 1)),
            (VoxelSpec(1, ((0,), (1,))), (3, 2)),
            (VoxelSpec(2, (((0, 0)),)), (4, 4, 1)),
        ],
    )
    def test_voxel_examples(self, spec, f):
        assert f_vector(from_voxels(spec)).entries == f

    def test_voxels_dedupe_shared_faces(self):
        # two cubes stacked along z share one square
        K = from_voxels(VoxelSpec(3, ((0, 0, 0), (0, 0, 1))))
        assert f_vector(K).entries == (12, 20, 11, 2)

    def test_negative_corners_allowed(self):
        K = from_voxels(VoxelSpec(2, ((-1, -3), (0, -3))))
        assert f_vector(K).entries == (6, 7, 2)
        assert validate(K).ok

    @pytest.mark.parametrize(
        "spec, bad",
        [
            ((2, ((0, 0.5),)), "0.5"),
            ((2, ((True, 0),)), "True"),
            ((1.0, ((0,),)), "1.0"),
            ((True, ((0,),)), "True"),
        ],
    )
    def test_non_int_spec_rejected(self, spec, bad):
        # refused when the spec is built, before from_voxels sees it
        with pytest.raises(ValueError) as exc:
            VoxelSpec(*spec)
        assert str(exc.value) == f"voxel spec needs int dimension and coordinates, got {bad}"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_voxel_complexes_validate(self, dim):
        from conftest import random_voxel_complexes

        for spec, K in random_voxel_complexes(99, dim, 5):
            report = validate(K)
            assert report.ok, (spec.corners, report.violations[:3])


class TestVoxelSpec:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VoxelSpec(2, ((0, 0), (0, 0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VoxelSpec(1, ())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VoxelSpec(2, ((0, 0, 0),))

    @pytest.mark.parametrize("corners", [[(0,)], ((0,), [1]), range(1)])
    def test_non_tuple_corners_rejected(self, corners):
        with pytest.raises(ValueError, match="^voxel spec corners must be a tuple of tuples$"):
            VoxelSpec(1, corners)

    def test_hashable(self):
        spec = VoxelSpec(2, ((0, 0), (1, 0)))
        assert hash(spec) == hash(VoxelSpec(2, ((0, 0), (1, 0))))

    def test_zero_ambient_dim_rejected(self):
        with pytest.raises(ValueError, match="ambient_dim must be >= 1"):
            VoxelSpec(0, ((),))

    def test_parse_text(self):
        spec = parse_voxel_text("dim 2\n# a comment\n0 0\n\n1 0\n")
        assert spec == VoxelSpec(2, ((0, 0), (1, 0)))

    @pytest.mark.parametrize(
        "text",
        ["", "0 0\n", "dim x\n0\n", "dim 2\n0\n", "dim 1\n0\n0\n"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_voxel_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dim 1\n1_0\n", "corner line '1_0' has an entry that is not an integer"),
            ("dim 1\n\u0663\n", "corner line '\u0663' has an entry that is not an integer"),
            ("dim 2\n0 0x1\n", "corner line '0 0x1' has an entry that is not an integer"),
            ("dim 1\n1.0\n", "corner line '1.0' has an entry that is not an integer"),
            ("dim 1_0\n0\n", "malformed dim line"),
            ("dim \u0663\n0 0 0\n", "malformed dim line"),
            ("dim 2 junk\n0 0\n", "malformed dim line"),
            ("dim -1\n0\n", "ambient_dim must be >= 1"),
            ("dim 0\n", "ambient_dim must be >= 1"),
        ],
        ids=["underscore", "arabic-indic-digit", "hex", "float", "dim-underscore",
             "dim-arabic-indic", "dim-junk", "dim-negative", "dim-zero"],
    )
    def test_parse_accepts_only_ascii_integers(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_voxel_text(text)

    def test_parse_signed_and_padded_integers(self):
        assert parse_voxel_text("dim +2\n-1 +0\n007 0\n") == VoxelSpec(2, ((-1, 0), (7, 0)))

    @pytest.mark.parametrize("text", [5, b"dim 1\n0\n", None])
    def test_parse_needs_a_str(self, text):
        with pytest.raises(TypeError, match=r"^[^\n]*'str'[^\n]*$"):
            parse_voxel_text(text)


class TestValidate:
    @pytest.mark.parametrize("K", ["x", None, {"dim": 0, "faces": []}], ids=["str", "none", "json"])
    def test_needs_a_complex(self, K):
        with pytest.raises(TypeError, match="^validate needs a CubicalComplex, got "):
            validate(K)

    def test_generators_validate(self, corpus):
        for name, K in corpus:
            report = validate(K)
            assert report.ok, (name, report.violations)

    def test_edge_covering_three_vertices(self):
        K = from_keyed_faces_oracle(
            {
                "v1": (0, []),
                "v2": (0, []),
                "v3": (0, []),
                "e": (1, ["v1", "v2", "v3"]),
            }
        )
        report = validate(K)
        assert not report.ok
        assert any("expected 2*1" in v for v in report.violations)

    def test_squares_glued_along_two_opposite_edges(self):
        faces = {
            "v1": (0, []), "v2": (0, []), "v3": (0, []), "v4": (0, []),
            "a": (1, ["v1", "v2"]), "b": (1, ["v3", "v4"]),
            "L1": (1, ["v1", "v3"]), "R1": (1, ["v2", "v4"]),
            "L2": (1, ["v1", "v3"]), "R2": (1, ["v2", "v4"]),
            "s1": (2, ["a", "b", "L1", "R1"]),
            "s2": (2, ["a", "b", "L2", "R2"]),
        }
        report = validate(from_keyed_faces_oracle(faces))
        assert not report.ok
        assert any("maximal common" in v for v in report.violations)

    def test_broken_grading_reported(self):
        K = from_keyed_faces_oracle(
            {"v": (0, []), "s": (2, ["v"])}
        )
        report = validate(K)
        assert not report.ok
        assert any("covers face" in v for v in report.violations)

    @pytest.mark.parametrize(
        "table,violation",
        [
            (([-1], [[]], ["a"]), "face 0 has negative dimension -1"),
        ],
        ids=["negative-dim"],
    )
    def test_table_violation_reported(self, table, violation):
        report = validate(CubicalComplex(*table))
        assert not report.ok
        assert violation in report.violations

    def test_constructor_puts_rows_in_canonical_order(self):
        # a table out of (dim, key) order is renumbered, so validate has no order to flag
        K = CubicalComplex([0, 0], [[], []], ["b", "a"])
        assert K.keys == ("a", "b")
        assert validate(K).ok


class TestPosetOrder:
    # a <= b is `a in K.lower_set(b)`
    def test_leq_is_partial_order_exhaustively(self):
        # cube(3) has 27 faces, sd(square) has 25; both well under 200
        for K in (gen_cube(3), subdivide(gen_cube(2))):
            n = len(K)
            below = [K.lower_set(b) for b in range(n)]
            rel = [[a in below[b] for b in range(n)] for a in range(n)]
            for a in range(n):
                assert rel[a][a]
                for b in range(n):
                    if rel[a][b] and rel[b][a]:
                        assert a == b
                    for c in range(n):
                        if rel[a][b] and rel[b][c]:
                            assert rel[a][c]

    def test_vertex_below_edge(self):
        K = gen_cube(1)
        assert K.dims == (0, 0, 1)
        v0, v1, e = range(3)
        assert K.lower_set(e) == {v0, v1, e}
        assert K.lower_set(v0) == {v0} and K.lower_set(v1) == {v1}

    def test_invalid_id_rejected(self):
        K = gen_cube(1)
        for fid in (99, 3, -1):
            with pytest.raises(ValueError, match=re.escape(f"invalid face id {fid!r}")):
                K.lower_set(fid)

    @pytest.mark.parametrize("fid", [False, True, 1.0])
    def test_non_int_id_rejected(self, fid):
        # False and True equal the ids 0 and 1, which isinstance admitted
        K = gen_cube(1)
        with pytest.raises(ValueError, match=re.escape(f"invalid face id {fid!r}")):
            K.lower_set(fid)

    def test_lower_set_of_top_cell_is_everything(self):
        K = gen_cube(2)
        (top,) = [i for i, d in enumerate(K.dims) if d == 2]
        assert K.lower_set(top) == frozenset(range(len(K)))


class TestSerialization:
    def test_roundtrip_ids_stable(self, corpus):
        for name, K in corpus:
            K2 = CubicalComplex.from_json(K.to_json())
            assert K2.keys == K.keys, name
            assert K2.dims == K.dims, name
            assert K2.covered == K.covered, name
            assert K2.to_json() == K.to_json(), name

    def test_roundtrip_after_subdivision(self):
        K = subdivide(gen_cube_boundary(2))
        assert CubicalComplex.from_json(K.to_json()).to_json() == K.to_json()

    def test_non_canonical_input_is_renumbered(self):
        # swap the two vertices of a segment; then a fixed-seed random id
        # permutation of a subdivided cube boundary, faces listed shuffled
        sd = subdivide(gen_cube_boundary(3))
        perm = list(range(len(sd)))
        random.Random(2010).shuffle(perm)
        for K, remap in ((gen_cube(1), {0: 1, 1: 0, 2: 2}), (sd, dict(enumerate(perm)))):
            obj = K.to_json_obj()
            obj["faces"] = [
                {
                    "id": remap[f["id"]],
                    "dim": f["dim"],
                    "covered": [remap[c] for c in f["covered"]],
                    "key": f["key"],
                }
                for f in obj["faces"]
            ]
            random.Random(2011).shuffle(obj["faces"])
            K2 = CubicalComplex.from_json_obj(obj)
            assert K2.to_json_obj() == K.to_json_obj()

    # keys quoted, escaped, past ASCII, past the BMP and unpaired surrogates
    AWKWARD_KEYS = ['a"b', "c\\d", "\x00\x1f\n\t\x7f", "é", "\u2028ß", "\U0001f600", "\ud800", "x\udfff"]

    # JSON spells a high surrogate followed by a low one as two escapes,
    # which json.loads reads back as the one character they encode
    PAIRED_SURROGATES = re.compile("[\ud800-\udbff][\udc00-\udfff]")

    @staticmethod
    def _assert_encodes_like_json_dumps(keys):
        """Vertices under `keys`, and one edge over the first two.

        A complex with a key holding a surrogate pair must refuse both
        encodings, naming the first such face.
        """
        faces = {k: (0, []) for k in keys}
        faces[max(keys) + "!"] = (1, keys[:2])
        K = from_keyed_faces_oracle(faces)
        paired = [i for i, k in enumerate(K.keys) if TestSerialization.PAIRED_SURROGATES.search(k)]
        if paired:
            for encode in (K.to_json, K.to_json_obj):
                with pytest.raises(ValueError, match=f"^face {paired[0]} key .* holds a surrogate pair"):
                    encode()
            return
        text = K.to_json()
        assert text == json.dumps(K.to_json_obj(), separators=(",", ":"))
        K2 = CubicalComplex.from_json(text)
        assert (K2.dims, K2.covered, K2.keys) == (K.dims, K.covered, K.keys)

    def test_to_json_escapes_keys_like_json_dumps(self):
        self._assert_encodes_like_json_dumps(self.AWKWARD_KEYS)
        self._assert_encodes_like_json_dumps(self.AWKWARD_KEYS[::-1])

    @pytest.mark.parametrize("keys", [["", "\ud800\udc00"], ["a", "b\udbff\udfffc"], ["\ud800", "\udc00"]])
    def test_surrogate_pairs_refused(self, keys):
        # the last case holds no pair within one key, so it round-trips
        self._assert_encodes_like_json_dumps(keys)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(keys=st.lists(
        st.text(st.characters() | st.characters(categories=["Cs"])), min_size=2, unique=True,
    ))
    def test_to_json_escapes_any_key(self, keys):
        self._assert_encodes_like_json_dumps(keys)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.__setitem__("dim", 5),
            lambda o: o["faces"][0].__setitem__("id", 77),
            lambda o: o["faces"][0].__setitem__("key", o["faces"][1]["key"]),
            lambda o: o.pop("faces"),
            lambda o: o["faces"][-1]["covered"].append(99),
        ],
    )
    def test_malformed_json_rejected(self, mutate):
        obj = gen_cube(2).to_json_obj()
        mutate(obj)
        with pytest.raises(ValueError):
            CubicalComplex.from_json_obj(obj)

    # two vertices and an edge over them, its covers repeating an id;
    # the decoder used to merge the repeats and build a segment
    REPEATED_COVERS = [
        ([[], [], [0, 0, 1, 1, 1]], "face 2 covers id 0 more than once"),
        ([[], [], [1, 0, 1]], "face 2 covers id 1 more than once"),
    ]

    @pytest.mark.parametrize("covers,message", REPEATED_COVERS)
    def test_repeated_cover_rejected(self, covers, message):
        faces = [
            {"id": i, "dim": int(len(c) > 0), "covered": c, "key": k}
            for i, (c, k) in enumerate(zip(covers, "abe"))
        ]
        with pytest.raises(ValueError, match=f"^{message}$"):
            CubicalComplex.from_json_obj({"dim": 1, "faces": faces})

    def test_repeated_cover_named_by_input_id(self):
        # listed out of canonical order, so the decoder renumbers the rows
        faces = [
            {"id": 0, "dim": 1, "covered": [1, 2], "key": "e"},
            {"id": 1, "dim": 0, "covered": [], "key": "a"},
            {"id": 2, "dim": 0, "covered": [], "key": "b"},
            {"id": 3, "dim": 1, "covered": [2, 1, 2], "key": "f"},
        ]
        with pytest.raises(ValueError, match="^face 3 covers id 2 more than once$"):
            CubicalComplex.from_json_obj({"dim": 1, "faces": faces})

    def test_bad_json_text(self):
        with pytest.raises(ValueError):
            CubicalComplex.from_json("{not json")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CubicalComplex.from_json(json.dumps({"dim": 0, "faces": []}))

    @pytest.mark.parametrize(
        "table,message",
        [
            (([], [], []), "empty complexes are not supported"),
            (([0, 0], [[]], ["a", "b"]), "inconsistent face table lengths"),
            (([0, 0], [[], []], ["a", "a"]), "duplicate canonical keys"),
            (([False], [[]], ["a"]), "^face dims must be ints$"),
            (([0.0], [[]], ["a"]), "^face dims must be ints$"),
            (([0, 1], [[], [-1]], ["a", "b"]), r"^covered ids must be ints in 0\.\.1$"),
            (([0, 1], [[], [2]], ["a", "b"]), r"^covered ids must be ints in 0\.\.1$"),
            (([0, 1], [[], [True]], ["a", "b"]), r"^covered ids must be ints in 0\.\.1$"),
            (([0, 1], [[], [0.0]], ["a", "b"]), r"^covered ids must be ints in 0\.\.1$"),
            # checked before the covers are sorted, which would raise TypeError
            (([0], [["a", 1]], ["k"]), r"^covered ids must be ints in 0\.\.0$"),
            (([0], [[[1]]], ["k"]), r"^covered ids must be ints in 0\.\.0$"),
            (([0], [[]], [b"a"]), "^face keys must be strings$"),
            # checked before the rows are put in (dim, key) order, which would
            # read -1 as the last row and True as row 1
            (([1, 0, 0], [[1, -1], [], []], "eba"), r"^covered ids must be ints in 0\.\.2$"),
            (([1, 0, 0], [[1, 3], [], []], "eba"), r"^covered ids must be ints in 0\.\.2$"),
            (([1, 0, 0], [[1, True], [], []], "eba"), r"^covered ids must be ints in 0\.\.2$"),
        ],
        ids=["empty", "lengths", "duplicate-keys", "bool-dim", "float-dim", "cover-minus-1",
             "cover-out-of-range", "bool-cover", "float-cover", "mixed-cover", "nested-cover",
             "bytes-key", "unordered-cover-minus-1", "unordered-cover-n", "unordered-bool-cover"],
    )
    def test_constructor_rejects(self, table, message):
        with pytest.raises(ValueError, match=message):
            CubicalComplex(*table)

    def test_decoder_builds_once(self, monkeypatch):
        # ids in list order, rows out of canonical order: one constructor call
        calls = []
        init = CubicalComplex.__init__

        def counting(self, *table):
            calls.append(len(table[0]))
            init(self, *table)

        monkeypatch.setattr(CubicalComplex, "__init__", counting)
        faces = [
            {"id": 0, "dim": 1, "covered": [1, 2], "key": "e"},
            {"id": 1, "dim": 0, "covered": [], "key": "b"},
            {"id": 2, "dim": 0, "covered": [], "key": "a"},
        ]
        K = CubicalComplex.from_json_obj({"dim": 1, "faces": faces})
        assert calls == [3]
        assert (K.keys, K.covered) == (("a", "b", "e"), (set(), set(), {0, 1}))

    def test_complexes_are_immutable(self):
        K = gen_cube(1)
        with pytest.raises(AttributeError):
            K.dims = ()


class TestCoverStorage:
    """Each face's covers are stored as one sorted id tuple; `covered` is
    a frozenset view of them, and every encoding reads the same ids."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_constructor_normalises_any_iterable(self, data):
        n = data.draw(st.integers(1, 8))
        covers = data.draw(st.lists(st.lists(st.integers(0, n - 1)), min_size=n, max_size=n))
        kinds = data.draw(st.lists(st.sampled_from([list, set, frozenset, tuple]), min_size=n, max_size=n))
        K = CubicalComplex([0] * n, [kind(c) for kind, c in zip(kinds, covers)], map(str, range(n)))
        assert K.covered == tuple(frozenset(c) for c in covers)
        obj = K.to_json_obj()
        assert [f["covered"] for f in obj["faces"]] == [sorted(set(c)) for c in covers]
        assert K.to_json() == json.dumps(obj, separators=(",", ":"))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_constructor_ignores_row_order(self, rng):
        K = subdivide(gen_cube_boundary(3))
        perm = list(range(len(K)))
        rng.shuffle(perm)  # row perm[i] holds face i
        dims, covered, keys = [None] * len(K), [None] * len(K), [None] * len(K)
        for i, r in enumerate(perm):
            dims[r], covered[r], keys[r] = K.dims[i], [perm[c] for c in K.covered[i]], K.keys[i]
        canonical = CubicalComplex(K.dims, [list(c) for c in K.covered], K.keys)
        shuffled = CubicalComplex(dims, covered, keys)
        assert canonical.to_json() == shuffled.to_json() == K.to_json()
        assert canonical.covered == shuffled.covered == K.covered

    def test_decoded_complex_memory_per_face(self):
        cells = list(itertools.product(range(6), repeat=3))
        spec = VoxelSpec(3, tuple(sorted(random.Random(2010).sample(cells, 190))))
        text = subdivide(from_voxels(spec)).to_json()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            K = CubicalComplex.from_json(text)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(K) > 14000
        assert held / len(K) <= 300, held / len(K)
