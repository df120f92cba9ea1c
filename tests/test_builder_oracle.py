"""The integer face-table builders against the seed's string-keyed ones.

``gen_cube``, ``gen_cube_boundary``, ``from_voxels`` and ``subdivide``
must give byte-identical ``to_json()`` to the builders kept in
``builder_oracle.py``: on the default corpus, its first and second
subdivisions, fixed-seed random voxel complexes and hypothesis-drawn
voxel specs. ``from_json_obj`` must match the seed's decoder on
complexes whose faces come in shuffled order, and on objects with up to
three defects it must fail with the same message: the first bad face in
list order wins. An id repeated in one face's covers, which the seed's
decoder merged, is refused after every other fault.
"""

import copy
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubary import (
    CubicalComplex,
    VoxelSpec,
    from_voxels,
    gen_cube,
    gen_cube_boundary,
    subdivide,
)
from cubary import complex_core
from cubary import corpus as corpus_mod
from conftest import random_voxel_complexes
from builder_oracle import (
    from_json_obj_oracle,
    from_keyed_faces_oracle,
    from_voxels_oracle,
    gen_cube_boundary_oracle,
    gen_cube_oracle,
    subdivide_oracle,
)


@pytest.fixture()
def oracle_corpus(monkeypatch):
    """The default corpus, built by the string-keyed builders (corpus
    imports them from complex_core when it runs)."""
    monkeypatch.setattr(complex_core, "gen_cube", gen_cube_oracle)
    monkeypatch.setattr(complex_core, "gen_cube_boundary", gen_cube_boundary_oracle)
    monkeypatch.setattr(complex_core, "from_voxels", from_voxels_oracle)
    return corpus_mod.default_corpus()


def test_corpus_and_two_subdivisions_match(corpus, oracle_corpus):
    assert [name for name, _ in corpus] == [name for name, _ in oracle_corpus]
    for (name, K), (_, O) in zip(corpus, oracle_corpus):
        for rounds in range(3):
            assert K.to_json() == O.to_json(), f"sd^{rounds}({name})"
            if rounds < 2:
                K, O = subdivide(K), subdivide_oracle(O)


@pytest.mark.parametrize("dim,seed", [(1, 701), (2, 702), (3, 703)])
def test_random_voxel_complexes_match(dim, seed):
    for spec, K in random_voxel_complexes(seed, dim, 4):
        O = from_voxels_oracle(spec)
        assert K.to_json() == O.to_json(), spec.corners
        assert subdivide(K).to_json() == subdivide_oracle(O).to_json(), spec.corners


@st.composite
def voxel_specs(draw):
    dim = draw(st.integers(1, 3))
    corner = st.tuples(*[st.integers(-2, 2)] * dim)
    corners = draw(st.lists(corner, min_size=1, max_size=6, unique=True))
    return VoxelSpec(dim, tuple(corners))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=voxel_specs())
def test_voxel_specs_match(spec):
    K, O = from_voxels(spec), from_voxels_oracle(spec)
    assert K.to_json() == O.to_json()
    assert subdivide(K).to_json() == subdivide_oracle(O).to_json()


def _decoded(decode, obj):
    try:
        return decode(obj).to_json()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _one_face_moved_last(obj, r):
    """obj with face r listed last and ids renumbered to list positions,
    so the ids run 0..N-1 but are out of canonical order."""
    n = len(obj["faces"])
    new_id = {i: i - (i > r) for i in range(n)}
    new_id[r] = n - 1
    faces = obj["faces"][:r] + obj["faces"][r + 1 :] + [obj["faces"][r]]
    return dict(obj, faces=[
        dict(f, id=new_id[f["id"]], covered=[new_id[c] for c in f["covered"]]) for f in faces
    ])


def test_json_decode_matches(corpus):
    rng = random.Random(2011)
    for name, K in corpus:
        want = subdivide(K).to_json()
        canonical = json.loads(want)
        tables = [canonical, _one_face_moved_last(canonical, 0)]
        for _ in range(3):
            obj = json.loads(want)
            rng.shuffle(obj["faces"])
            tables.append(obj)
        for obj in tables:
            got = _decoded(CubicalComplex.from_json_obj, obj)
            assert got == _decoded(from_json_obj_oracle, obj) == want, name


# keys that are prefixes of one another, or hold the characters that
# interval keys are made of
AWKWARD_KEY_TABLES = [
    {";1,2,3": (0, []), ";1,2,30": (0, []), ";1,2": (0, []),
     "0;1,2,3": (1, [";1,2,3", ";1,2,30"]), "0;1,2": (1, [";1,2", ";1,2,3"])},
    {"[": (0, []), "]": (0, []), "|": (0, []), "[|]": (0, []),
     "a[": (1, ["[", "]"]), "]a": (1, ["]", "|"]), "|a|": (1, ["|", "[|]"]), "": (1, ["[|]", "["])},
    {"a": (0, []), "a|": (0, []), "a]": (0, []), "[a": (0, []),
     "b": (1, ["a", "a|"]), "b|": (1, ["a|", "a]"]), "[b": (1, ["a]", "[a"]),
     "c": (2, ["b", "b|", "[b"])},
]


@pytest.mark.parametrize("faces", AWKWARD_KEY_TABLES, ids=["prefixes", "brackets", "bars"])
def test_subdivide_awkward_keys_matches(faces):
    K = from_keyed_faces_oracle(faces)
    assert subdivide(K).to_json() == subdivide_oracle(K).to_json()


@pytest.mark.parametrize(
    "faces",
    [
        # [a|b] below c and a below [b|c] both give the interval key [a|b|c]
        {"a": (0, []), "a|b": (0, []), "x": (0, []), "c": (1, ["a|b", "x"]), "b|c": (1, ["a", "x"])},
        {"a|b": (0, []), "a": (0, []), "c": (1, ["a|b"]), "b|c": (1, ["a"])},
    ],
)
def test_subdivide_colliding_interval_keys_rejected(faces):
    with pytest.raises(ValueError, match="^duplicate canonical keys$"):
        subdivide(from_keyed_faces_oracle(faces))


JSON_BASES = [json.loads(K.to_json()) for K in (gen_cube(2), gen_cube_boundary(3))]
FIELDS = ["id", "dim", "covered", "key"]


@st.composite
def defective_json(draw):
    obj = copy.deepcopy(draw(st.sampled_from(JSON_BASES)))
    faces = obj["faces"]
    draw(st.randoms(use_true_random=False)).shuffle(faces)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["set", "drop_field", "drop_face", "dup_face", "add_cover", "top_dim"]
        ))
        if kind == "top_dim":
            obj["dim"] = draw(st.integers(-1, 4) | st.none() | st.text(max_size=2))
        elif kind == "drop_face" and len(faces) > 1:
            # later ids move down one, unless the ids were already broken
            gone = faces.pop(draw(st.integers(0, len(faces) - 1))).get("id")
            for face in faces:
                if type(face.get("id")) is int and type(gone) is int and face["id"] > gone:
                    face["id"] -= 1
        elif kind == "dup_face":
            face = dict(draw(st.sampled_from(faces)))
            if draw(st.booleans()):  # keep the ids 0..N-1, repeat the key
                face["id"] = len(faces)
            faces.append(face)
        elif kind == "add_cover":
            face = draw(st.sampled_from(faces))
            if type(face.get("covered")) is list:
                face["covered"] = face["covered"] + [draw(st.integers(-2, len(faces) + 1))]
        else:
            face = draw(st.sampled_from(faces))
            field = draw(st.sampled_from(FIELDS))
            if kind == "drop_field":
                face.pop(field, None)
            else:
                face[field] = draw(
                    st.integers(-2, len(faces) + 1)
                    | st.lists(st.integers(-1, len(faces)), max_size=4)
                    | st.text(max_size=2)
                    | st.booleans()
                    | st.none()
                )
    return obj


def _two_defects_in_one_face():
    """A copy of the last face under a fresh id, covering an unknown id."""
    obj = copy.deepcopy(JSON_BASES[0])
    n = len(obj["faces"])
    obj["faces"].append(dict(obj["faces"][-1], id=n, covered=[n + 3]))
    return obj


def _repeated_covers():
    """Two faces, listed last, each covering one id twice."""
    obj = copy.deepcopy(JSON_BASES[1])
    for face in obj["faces"][-2:]:
        face["covered"] = face["covered"] * 2
    obj["faces"].reverse()
    return obj


def _id_replaced(value):
    """A complex listed in id order with face 1's id written as `value`,
    True or 1.0: equal to 1, but not a JSON integer."""
    obj = copy.deepcopy(JSON_BASES[0])
    obj["faces"][1]["id"] = value
    return obj


def _wrapping_cover():
    """Rows listed by id but out of (dim, key) order, one covering id -1,
    which renumbering by list index would read as the last row."""
    obj = _one_face_moved_last(JSON_BASES[0], 0)
    obj["faces"][-2]["covered"] = [0, -1]
    return obj


def _first_repeat(obj) -> str | None:
    """The refusal of the face with the lowest id whose covers repeat an id."""
    for face in sorted(obj["faces"], key=lambda face: face["id"]):
        cov = face["covered"]
        repeated = [c for c in cov if cov.count(c) > 1]
        if repeated:
            return f"ValueError: face {face['id']} covers id {repeated[0]} more than once"
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=defective_json())
@example(obj=_two_defects_in_one_face())
@example(obj=_repeated_covers())
@example(obj=_id_replaced(True))
@example(obj=_id_replaced(1.0))
@example(obj=_wrapping_cover())
def test_json_decode_fails_like_the_seed(obj):
    # the seed merged an id repeated in one face's covers; now that is
    # refused, and looked for after every fault the seed reports
    want = _decoded(from_json_obj_oracle, obj)
    if not want.startswith("ValueError"):
        want = _first_repeat(obj) or want
    assert _decoded(CubicalComplex.from_json_obj, obj) == want
