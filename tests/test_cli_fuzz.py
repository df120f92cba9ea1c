"""Fuzz the CLI with mutated complex JSON on stdin.

Each example takes a small valid complex, mutates its JSON either as
text (a character deleted, inserted or replaced) or as a structure (a
field replaced by an arbitrary JSON value, a field or face dropped, a
face duplicated under its own id or as a fresh face, a cover added),
and feeds it to one command through ``cli.main`` in-process. Whatever the input, the command must return an
exit code from 0 to 5, raise nothing, and on exit 0 print JSON.
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
