"""Fuzz the CLI with mutated complex JSON on stdin and mutated argv.

Each stdin example takes a small valid complex, mutates its JSON either
as text (a character deleted, inserted or replaced) or as a structure (a
field replaced by an arbitrary JSON value, a field or face dropped, a
face duplicated under its own id or as a fresh face, a cover added),
and feeds it to one command through ``cli.main`` in-process. Each argv
example takes a real command line and drops, duplicates or replaces
tokens, with a small valid complex on stdin. Whatever the input, the
command must return an exit code from 0 to 5, raise nothing, on exit 0
print JSON, and otherwise end stderr with an ``error:`` line (for the
stdin fuzz, the only line).
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubary import gen_cube, gen_cube_boundary, subdivide
from cubary.cli import main

BASES = [
    K.to_json_obj()
    for K in (
        gen_cube(1),
        gen_cube(2),
        gen_cube_boundary(2),
        gen_cube_boundary(3),
        subdivide(gen_cube(1)),
    )
]

COMMANDS = [
    ["vectors"],
    ["subdivide", "-n", "1"],
    ["limit", "--max-n", "2"],
    ["verify", "--suite", "fvec"],
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated_text(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    faces = obj["faces"]
    kind = draw(
        st.sampled_from(
            ["text", "field", "drop_field", "drop_face", "dup_face", "add_cover", "top_dim"]
        )
    )
    if kind == "top_dim":
        obj["dim"] = draw(json_values)
    elif kind == "drop_face":
        faces.pop(draw(st.integers(0, len(faces) - 1)))
    elif kind == "dup_face":
        face = dict(draw(st.sampled_from(faces)))
        if draw(st.booleans()):  # a fresh id and key give a second copy of the face
            face.update(id=len(faces), key=face["key"] + "'")
        faces.append(face)
    elif kind == "add_cover":
        face = draw(st.sampled_from(faces))
        face["covered"] = face["covered"] + [draw(st.integers(-2, len(faces) + 1))]
    elif kind in ("field", "drop_field"):
        face = draw(st.sampled_from(faces))
        field = draw(st.sampled_from(["id", "dim", "covered", "key"]))
        if kind == "field":
            face[field] = draw(
                st.integers(-1, 4)
                | st.lists(st.integers(-1, len(faces)), max_size=6)
                | st.text(max_size=3)
                | json_values
            )
        else:
            del face[field]
    text = json.dumps(obj)
    if kind == "text":
        pos = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from('{}[],:"0123456789-.eE tfn'))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            text = text[:pos] + text[pos + 1 :]
        elif edit == "insert":
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + char + text[pos + 1 :]
    return text


def run_cli(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(text=mutated_text())
def test_mutated_complex_json(argv, text):
    code, out, err = run_cli(argv, text)
    assert code in range(6), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out
        for line in out.splitlines():
            json.loads(line)
    else:
        assert err.count("\n") == 1, err


VALUES = ["-1", "0", "1", "2", "x", "", "1.5"]
# flags whose size is checked before any work, so huge values stay fast
BOUNDED = {"--cube", "--cube-boundary", "--dim", "--seed", "--budget"}
HUGE = [str(2**64), str(10**6)]
VOXELS = "{voxels}"
SQUARE = json.dumps(BASES[1])

ARGVS = [
    ["gen", "--cube", "2"],
    ["gen", "--cube-boundary", "2"],
    ["gen", "--voxels", VOXELS],
    ["subdivide", "-n", "1", "--budget", "1000"],
    ["vectors"],
    ["coeffs", "--matrix", "C", "-d", "2"],
    ["verify", "--suite", "fvec"],
    ["limit", "--max-n", "2", "--which", "hc"],
    ["mine", "--target", "realroot", "--dim", "2", "--trials", "2", "--seed", "0"],
]


@st.composite
def mutated_argv(draw, argv):
    """argv with a flag's value replaced (half the time by a huge one if the
    flag is bounded), which mostly leaves it valid, then up to two more
    edits: a token dropped, duplicated or replaced, or another value."""
    argv = list(argv)
    more = st.sampled_from(["drop", "duplicate", "replace", "value"])
    for edit in ["value"] + draw(st.lists(more, max_size=2)):
        if edit == "value":
            flags = [i for i, a in enumerate(argv[:-1]) if a.startswith("-")]
            if flags:
                i = draw(st.sampled_from(flags))
                values = st.sampled_from(VALUES)
                if argv[i] in BOUNDED:
                    values = st.sampled_from(HUGE) | values
                argv[i + 1] = draw(values)
        elif argv:
            pos = draw(st.integers(0, len(argv) - 1))
            if edit == "drop":
                del argv[pos]
            elif edit == "duplicate":
                argv.insert(pos, argv[pos])
            else:
                argv[pos] = draw(st.sampled_from(VALUES))
    return argv


@pytest.fixture(scope="module")
def voxel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "voxels.txt"
    path.write_text("dim 2\n0 0\n1 0\n")
    return str(path)


@pytest.mark.parametrize("base", ARGVS, ids=lambda a: "-".join(a[:2]))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_argv(voxel_file, base, data):
    argv = [voxel_file if a == VOXELS else a for a in data.draw(mutated_argv(base))]
    code, out, err = run_cli(argv, SQUARE)
    assert code in range(6), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        for line in out.splitlines():
            json.loads(line)
    else:
        assert "error:" in err.splitlines()[-1], (argv, err)
