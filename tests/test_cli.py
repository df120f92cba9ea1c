import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cubary import (
    CubicalComplex,
    FVector,
    LongHVector,
    RatPoly,
    ShortHVector,
    VoxelSpec,
    b_matrix,
    c_matrix,
    euler_reduced,
    f_vector,
    from_voxels,
    gen_cube,
    gen_cube_boundary,
    hc_from_hsc,
    hc_of_subdivision,
    hc_poly_of_iterate,
    hsc_from_f,
    hsc_of_subdivision,
    hsc_poly_of_iterate,
    is_real_rooted,
    limit_distance_hc,
    limit_distance_hsc,
    shape_predicates,
    subdivide,
)
import cubary
from cubary import cli as cli_mod
from cubary import face_vectors
from cubary.cli import build_parser, main
from cubary.corpus import _corners
from cubary.verify import SUITES, run_suites
from exact_oracle import apply_oracle
from voxel_oracle import bernoulli_voxel_spec_oracle, voxel_f_counts_oracle


@pytest.fixture()
def cli(monkeypatch, capsys):
    def run(argv, stdin_text=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return run


def gen_json(cli, *argv):
    code, out, _ = cli(["gen", *argv])
    assert code == 0
    return out


BAD_COMPLEX = json.dumps(
    {
        "dim": 1,
        "faces": [
            {"id": 0, "dim": 0, "covered": [], "key": "v1"},
            {"id": 1, "dim": 0, "covered": [], "key": "v2"},
            {"id": 2, "dim": 0, "covered": [], "key": "v3"},
            {"id": 3, "dim": 1, "covered": [0, 1, 2], "key": "e"},
        ],
    }
)


class TestGen:
    def test_cube_boundary_3(self, cli):
        obj = json.loads(gen_json(cli, "--cube-boundary", "3"))
        assert obj["dim"] == 2
        assert len(obj["faces"]) == 26

    def test_cube_zero(self, cli):
        obj = json.loads(gen_json(cli, "--cube", "0"))
        assert obj["dim"] == 0
        assert len(obj["faces"]) == 1

    def test_voxels_file(self, cli, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("dim 1\n0\n1\n")
        obj = json.loads(gen_json(cli, "--voxels", str(p)))
        assert len(obj["faces"]) == 5

    def test_duplicate_corner_exits_1(self, cli, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("dim 1\n0\n0\n")
        code, _, err = cli(["gen", "--voxels", str(p)])
        assert code == 1
        assert "duplicate" in err

    def test_missing_file_exits_1(self, cli):
        code, _, _ = cli(["gen", "--voxels", "/nonexistent/x.txt"])
        assert code == 1

    def test_boundary_zero_exits_1(self, cli):
        code, _, _ = cli(["gen", "--cube-boundary", "0"])
        assert code == 1

    def test_no_source_exits_1(self, cli):
        code, _, _ = cli(["gen"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [["--cube", "15"], ["--cube-boundary", "15"], ["--cube", "10000000000"]]
    )
    def test_oversized_cube_exits_3_fast(self, cli, argv):
        # 3^15 - 1 faces exceed the default budget; nothing may be built first
        start = time.perf_counter()
        code, out, err = cli(["gen", *argv])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "face budget" in err


class TestSubdivide:
    def test_once(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, _ = cli(["subdivide", "-n", "1"], stdin_text=src)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["faces"]) == 98

    def test_zero_is_identity(self, cli):
        src = gen_json(cli, "--cube", "2")
        code, out, _ = cli(["subdivide", "-n", "0"], stdin_text=src)
        assert code == 0
        assert out.strip() == src.strip()

    def test_budget_exceeded_exits_3(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, _, err = cli(
            ["subdivide", "-n", "9", "--budget", "1000"], stdin_text=src
        )
        assert code == 3
        assert "1538" in err

    def test_point_key_growth_exits_3_without_traceback(self, cli):
        # a point stays one face, so only the key-length projection stops
        # it; before, it died in a MemoryError traceback after gigabytes
        src = gen_json(cli, "--cube", "0")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cubary", "subdivide", "-n", "10000"],
            input=src,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "key characters" in proc.stderr

    def test_invalid_complex_exits_2(self, cli):
        code, _, err = cli(["subdivide", "-n", "1"], stdin_text=BAD_COMPLEX)
        assert code == 2
        assert "invalid complex" in err

    def test_garbage_stdin_exits_1(self, cli):
        code, _, _ = cli(["subdivide", "-n", "1"], stdin_text="{oops")
        assert code == 1

    def test_negative_n_exits_1(self, cli):
        src = gen_json(cli, "--cube", "1")
        code, _, _ = cli(["subdivide", "-n", "-2"], stdin_text=src)
        assert code == 1

    def test_negative_budget_exits_1(self, cli):
        src = gen_json(cli, "--cube", "1")
        code, _, err = cli(["subdivide", "-n", "1", "--budget", "-5"], stdin_text=src)
        assert code == 1
        assert "budget" in err

    def test_non_cube_face_exits_2(self, cli, non_cube_square):
        code, _, err = cli(["subdivide", "-n", "1"], stdin_text=non_cube_square.to_json())
        assert code == 2
        assert "is not a cube" in err

    @pytest.mark.parametrize(
        "face,field,value",
        [
            (0, "id", 0.7),
            (2, "dim", True),
            (0, "key", None),
            (0, "covered", ""),
            (2, "covered", [0.0, 1]),
        ],
        ids=["id-float", "dim-bool", "key-null", "covered-string", "covered-float-id"],
    )
    def test_json_of_wrong_type_exits_1(self, cli, face, field, value):
        obj = json.loads(gen_json(cli, "--cube", "1"))
        obj["faces"][face][field] = value
        code, out, err = cli(["subdivide", "-n", "0"], stdin_text=json.dumps(obj))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "malformed complex JSON" in err


class TestVectors:
    def test_cube_boundary_3(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, _ = cli(["vectors"], stdin_text=src)
        assert code == 0
        obj = json.loads(out)
        assert obj["f"] == [8, 12, 6]
        assert obj["hsc"] == [8, 8, 8]
        assert obj["hc"] == [4, 4, 4, 4]
        assert obj["euler_reduced"] == 1
        assert obj["hsc_shape"] == {
            "nonnegative": True,
            "symmetric": True,
            "unimodal": True,
        }

    @pytest.mark.parametrize(
        "gen_args,hsc,hc",
        [
            (("--cube", "1"), [2, 0], [2, 0, 0]),
            (("--cube", "2"), [4, 0, 0], [4, 0, 0, 0]),
        ],
    )
    def test_small_generators(self, cli, gen_args, hsc, hc):
        src = gen_json(cli, *gen_args)
        code, out, _ = cli(["vectors"], stdin_text=src)
        assert code == 0
        obj = json.loads(out)
        assert obj["hsc"] == hsc and obj["hc"] == hc
        assert obj["euler_reduced"] == 0

    def test_invalid_complex_exits_2(self, cli):
        code, _, _ = cli(["vectors"], stdin_text=BAD_COMPLEX)
        assert code == 2


class TestCoeffs:
    def test_b_matrix(self, cli):
        code, out, _ = cli(["coeffs", "--matrix", "B", "-d", "2"])
        assert code == 0
        assert json.loads(out)["entries"] == [["3/2", "1/2"], ["1/2", "3/2"]]

    def test_c_matrix_row_zero(self, cli):
        code, out, _ = cli(["coeffs", "--matrix", "C", "-d", "3"])
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][0] == ["1", "0", "0", "0"]
        assert len(obj["entries"]) == 4

    def test_d_zero_exits_1(self, cli):
        code, _, _ = cli(["coeffs", "--matrix", "B", "-d", "0"])
        assert code == 1

    @pytest.mark.parametrize("matrix", ["B", "C"])
    def test_projection_bounds_the_output(self, cli, matrix):
        for d in range(1, 61):
            code, out, _ = cli(["coeffs", "--matrix", matrix, "-d", str(d)])
            assert code == 0
            assert len(out.encode()) <= cli_mod._coeffs_bytes(matrix, d), d

    def test_every_d_up_to_200_is_admitted(self):
        assert all(
            cli_mod._coeffs_bytes(m, d) <= cli_mod.COEFFS_BYTE_BUDGET
            for m in "BC" for d in range(1, 201)
        )

    def test_roundtrip_fractions(self, cli):
        from fractions import Fraction

        code, out, _ = cli(["coeffs", "--matrix", "C", "-d", "4"])
        assert code == 0
        rows = json.loads(out)["entries"]
        parsed = [[Fraction(x) for x in row] for row in rows]
        assert all(x >= 0 for row in parsed for x in row)


class TestVerify:
    def test_corpus_all(self, cli):
        code, out, _ = cli(["verify", "--suite", "all", "--corpus", "default"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_hsc_suite_on_stdin(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, _ = cli(["verify", "--suite", "hsc"], stdin_text=src)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        (check,) = report["checks"]
        assert "[26, 44, 26]" in check["detail"]

    def test_realroot_suite_on_path(self, cli, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text("dim 1\n0\n1\n")
        src = gen_json(cli, "--voxels", str(p))
        code, out, _ = cli(["verify", "--suite", "realroot"], stdin_text=src)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        root_map = [c for c in report["checks"] if c["check"] == "realroot/root-map"]
        assert root_map and "-5/3 -> -3" in root_map[0]["detail"]

    def test_invalid_stdin_exits_2(self, cli):
        code, _, _ = cli(["verify", "--suite", "fvec"], stdin_text=BAD_COMPLEX)
        assert code == 2

    def test_unknown_suite_exits_1(self, cli):
        code, _, _ = cli(["verify", "--suite", "nope", "--corpus", "default"])
        assert code == 1

    def test_each_suite_alone_gives_its_records_from_all(self, corpus):
        # the suites share each item's cached data, so none may depend on
        # what another suite computed before it
        every = run_suites("all", corpus)["checks"]
        for suite in SUITES:
            own = [r for r in every if r["check"].split("/")[0] == suite]
            assert own, suite
            assert run_suites(suite, corpus)["checks"] == own, suite

    @pytest.fixture()
    def hc_closed_off_by_one(self, monkeypatch):
        real = face_vectors._hc_closed_form

        def off_by_one(h):
            closed = real(h)
            closed[-1] += 1
            return closed

        monkeypatch.setattr(face_vectors, "_hc_closed_form", off_by_one)

    def test_hc_closed_form_disagreement_fails_its_record(self, cli, hc_closed_off_by_one):
        code, out, err = cli(["verify", "--suite", "identity", "--corpus", "default"])
        assert code == 5
        report = json.loads(out)
        failed = [r for r in report["checks"] if not r["ok"]]
        assert [r["item"] for r in failed] == report["items"]
        for r in failed:
            assert r["check"] == "identity/hc-recursion-vs-closed"
            _, rec, closed = re.fullmatch(r"index (\d+): (-?\d+) vs (-?\d+)", r["detail"]).groups()
            assert int(closed) == int(rec) + 1
        first = failed[0]
        assert err == f"cubary: error: check {first['check']} failed on {first['item']}: {first['detail']}\n"

    @pytest.mark.parametrize("suite, want", [("hc", 0), ("all", 5), ("identity", 5)])
    def test_hc_closed_form_disagreement_reaches_only_its_record(
        self, cli, hc_closed_off_by_one, suite, want
    ):
        # the hc suite builds its long h-vectors by the recursion alone, so
        # a closed-form fault fails one record per item instead of exit 4
        code, out, _ = cli(["verify", "--suite", suite, "--corpus", "default"])
        assert code == want
        report = json.loads(out)
        failed = [(r["item"], r["check"]) for r in report["checks"] if not r["ok"]]
        check = "identity/hc-recursion-vs-closed"
        assert failed == ([] if suite == "hc" else [(item, check) for item in report["items"]])


class TestLimit:
    def test_hsc_distances_decrease(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, _ = cli(["limit", "--max-n", "3"], stdin_text=src)
        assert code == 0
        rows = json.loads(out)["rows"]
        dists = [row["distance"] for row in rows]
        assert dists == ["4", "1", "1/4", "1/16"]
        assert all(row["unimodal"] for row in rows[1:])

    def test_point_complex_is_at_limit(self, cli):
        src = gen_json(cli, "--cube", "0")
        code, out, _ = cli(["limit", "--max-n", "4"], stdin_text=src)
        assert code == 0
        assert all(row["distance"] == "0" for row in json.loads(out)["rows"])

    def test_hc_square(self, cli):
        src = gen_json(cli, "--cube", "2")
        code, out, _ = cli(["limit", "--max-n", "0", "--which", "hc"], stdin_text=src)
        assert code == 0
        assert json.loads(out)["rows"][0]["distance"] == "4"

    def test_hc_on_points_exits_1(self, cli):
        src = gen_json(cli, "--cube", "0")
        code, _, err = cli(["limit", "--max-n", "2", "--which", "hc"], stdin_text=src)
        assert code == 1
        assert "d >= 2" in err

    def test_negative_max_n_exits_1(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, err = cli(["limit", "--max-n", "-3"], stdin_text=src)
        assert code == 1
        assert out == ""
        assert "max-n" in err

    @pytest.mark.parametrize(
        "boundary,which",
        [("4", "hsc"), ("4", "hc"), ("5", "hsc"), ("5", "hc")],
        ids=["hsc", "hc", "boundary-5-hsc", "boundary-5-hc"],
    )
    def test_rows_match_the_public_functions(self, cli, boundary, which):
        # each row as the seed computed it: the distance from the public
        # limit_distance_* and the shapes from the iterate built again
        src = gen_json(cli, "--cube-boundary", boundary)
        code, out, _ = cli(["limit", "--max-n", "6", "--which", which], stdin_text=src)
        assert code == 0
        f = f_vector(CubicalComplex.from_json(src))
        d, f_top, chi = f.d, f.entries[-1], euler_reduced(f)
        hsc = hsc_from_f(f)
        rows = []
        for n in range(7):
            scale = Fraction(1, 2 ** (n * (d - 1)))
            if which == "hsc":
                dist = limit_distance_hsc(hsc, f_top, n)
                vec = [x * scale for x in hsc_poly_of_iterate(hsc, n).padded(d)]
            else:
                dist = limit_distance_hc(hc_from_hsc(hsc), f_top, chi, n)
                vec = [x * scale for x in hc_poly_of_iterate(hsc, chi, n).padded(d + 1)]
            rows.append({"n": n, "distance": str(dist), **shape_predicates(vec)})
        got = json.loads(out)
        assert got["d"] == d
        assert [{k: r[k] for k in rows[0]} for r in got["rows"]] == rows

    def test_decimal_rendering(self, cli):
        src = gen_json(cli, "--cube-boundary", "3")
        code, out, _ = cli(["limit", "--max-n", "2"], stdin_text=src)
        rows = json.loads(out)["rows"]
        assert rows[2]["distance_decimal"] == "0.25"


def mine_reference(target: str, dim: int, trials: int, seed: int) -> str:
    """mine's stdout from the loop it ran before verdicts were cached: every
    draw evaluated afresh, the B or C matrix applied by the Fraction oracle,
    each grid drawn and counted by the voxel oracles."""
    rng = random.Random(seed)
    lines, findings = [], 0
    for trial in range(trials):
        spec = bernoulli_voxel_spec_oracle(rng, dim)
        f = FVector(voxel_f_counts_oracle(spec))
        hsc = hsc_from_f(f)
        if target == "unimodality":
            vec = hsc.entries
            if not all(x >= 0 for x in vec):
                continue
            out = apply_oracle(b_matrix(f.d), vec)
            ok = shape_predicates(out)["unimodal"]
        else:
            vec = hc_from_hsc(hsc).entries
            if not all(x >= 0 for x in vec):
                continue
            out = apply_oracle(c_matrix(f.d), vec)
            ok = is_real_rooted(RatPoly(out))
        if not ok:
            findings += 1
            lines.append({
                "type": "finding", "trial": trial, "target": target, "dim": dim,
                "corners": [list(c) for c in spec.corners], "f": list(f.entries),
                "vector": [str(x) for x in vec], "subdivided_vector": [str(x) for x in out],
            })
    lines.append({"type": "summary", "target": target, "dim": dim, "trials": trials,
                  "seed": seed, "findings": findings})
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)


# sha256 of mine's stdout with --seed 0, recorded while each cell's bit
# came from its own getrandbits(1) call and the count kept all 2^D sets.
# Only the dim-2 realroot run has a finding (trial 1934); elsewhere the
# digest fixes the summary, and the voxel oracles fix the draws.
MINE_SEED_0_DIGESTS = [
    ("unimodality", 1, 200, "eb6b1fbb12c279d1fdaea32e0742b031d0a638804c95326b7c11dd11401b23cb"),
    ("unimodality", 2, 200, "14e3ffe6f02b59d88dc5afa5e5818ff956e233d6ecbd7613d0654a57e9f6e141"),
    ("unimodality", 3, 100, "7a5c415ab0fe37637738651e4fa1744dc1f3d96c787e3c6f6d69aef453295b54"),
    ("unimodality", 4, 50, "0792978afe3541c91f7d3835b79e1b3835523dccc6bacc495671c6bd9ee85a4e"),
    ("unimodality", 5, 20, "8e6581bd429036ce6ffe0f7bb5982bf556ac5ee71df698a67bcd7d94430aeb22"),
    ("unimodality", 6, 10, "70a6f6661f55e159745214742735b7911899c7e7b3d87fd76dea265af25e168f"),
    ("unimodality", 7, 4, "dd62428251be64f61771c122db4940403bf9d441ba44d3924fff95f1c9734ce7"),
    ("unimodality", 8, 2, "17c38fb0121491f33bc4d593f0352af1ac488fde482fd7bd8e46da5b42d47979"),
    ("unimodality", 9, 1, "e2f7fe9072d7fe17ee91027ee73239f9abf7ab41c0ee6af6ee3df1bddf9e5bfc"),
    ("realroot", 1, 200, "9217ad98d46e9352b98a530c8c80651742dbcac60242272f421c5401b5868d6f"),
    ("realroot", 2, 2000, "d7b268ffdab53e257c45b6c0f04bfe80ad63d9226a7363cf708aafd49b7d25d5"),
    ("realroot", 3, 100, "5e3df449dd0a04e3f7fe06110eba43448d651a29ae0dd447545fdd826f08ce68"),
    ("realroot", 4, 50, "04b45588c2523710297392c244cb0cda12ef355f3e860aab5788734a73028298"),
    ("realroot", 5, 20, "7aa08e284c0bb47875c6ec46b109cff70f162e7e6d641c1a90183e36fc12ff01"),
    ("realroot", 6, 10, "3f5c37345f912a90e3a5edd5444a4dac35a3775b15a7456e30f90f7e57e39e7d"),
    ("realroot", 7, 4, "27b6d413f3eb1e03593988844efb4442c2892477faca3dcb63468192042f2adb"),
    ("realroot", 8, 2, "22c7d0221c0671c1609a74b7b207678a1a7ab70a8d5c06f6817c9c15a92b196b"),
    ("realroot", 9, 1, "46037d4c195f74cd25a66fd6d6124b475dcb29c3f0f026da392ebffbab7ebde3"),
]


class TestMine:
    @pytest.mark.parametrize(
        "target,dim,trials,digest", MINE_SEED_0_DIGESTS,
        ids=[f"{target}-{dim}" for target, dim, *_ in MINE_SEED_0_DIGESTS],
    )
    def test_seed_0_output_is_pinned(self, cli, target, dim, trials, digest):
        argv = ["mine", "--target", target, "--dim", str(dim), "--trials", str(trials),
                "--seed", "0"]
        code, out, err = cli(argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("target", ["unimodality", "realroot"])
    @pytest.mark.parametrize("dim,trials", [(1, 200), (2, 500), (3, 100), (4, 20)])
    def test_output_matches_the_uncached_loop(self, cli, target, dim, trials):
        # seeds 4, 7 and 8 give realroot findings at dim 2
        for seed in (0, 4, 7, 8):
            argv = ["mine", "--target", target, "--dim", str(dim), "--trials", str(trials),
                    "--seed", str(seed)]
            assert cli(argv) == (0, mine_reference(target, dim, trials, seed), "")

    def test_findings_are_covered(self):
        lines = mine_reference("realroot", 2, 500, 4).splitlines()
        assert len(lines) == 3 and json.loads(lines[0])["type"] == "finding"

    def test_each_f_vector_is_evaluated_once(self, cli, monkeypatch):
        evaluated = []

        def counting(target, f):
            evaluated.append(f)
            return real(target, f)

        real = cli_mod._evaluate
        monkeypatch.setattr(cli_mod, "_evaluate", counting)
        argv = ["mine", "--target", "realroot", "--dim", "2", "--trials", "1000", "--seed", "7"]
        assert cli(argv)[0] == 0
        rng = random.Random(7)
        distinct = {tuple(voxel_f_counts_oracle(bernoulli_voxel_spec_oracle(rng, 2)))
                    for _ in range(1000)}
        assert len(distinct) < 1000
        assert sorted(evaluated) == sorted(distinct)

    def test_dim_8_runs(self, cli):
        # refused while the budget counted the grid's 9^8 faces
        code, out, _ = cli(["mine", "--target", "realroot", "--dim", "8", "--trials", "2",
                            "--seed", "0"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["trials"] == 2

    def test_deterministic(self, cli):
        argv = [
            "mine", "--target", "unimodality", "--dim", "2",
            "--trials", "50", "--seed", "7",
        ]
        code1, out1, _ = cli(argv)
        code2, out2, _ = cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_summary_line(self, cli):
        code, out, _ = cli(
            ["mine", "--target", "realroot", "--dim", "3", "--trials", "10",
             "--seed", "1"]
        )
        assert code == 0
        last = json.loads(out.strip().splitlines()[-1])
        assert last["type"] == "summary"
        assert last["trials"] == 10 and last["seed"] == 1

    @pytest.mark.parametrize(
        "target,dim,trials,seed,findings",
        [("realroot", 2, 200, 4, 1), ("unimodality", 2, 200, 7, 0),
         ("realroot", 3, 30, 10, 0), ("unimodality", 1, 50, 12, 0)],
    )
    def test_output_matches_the_poset_count(
        self, cli, monkeypatch, target, dim, trials, seed, findings
    ):
        argv = ["mine", "--target", target, "--dim", str(dim), "--trials", str(trials),
                "--seed", str(seed)]
        code, out, _ = cli(argv)
        assert code == 0
        assert len(out.splitlines()) == findings + 1
        # the same stdout when each draw is built as a complex over its corners
        def poset_count(dim, cells):
            return f_vector(from_voxels(VoxelSpec(dim, tuple(_corners(dim, cells))))).entries

        monkeypatch.setattr("cubary.corpus._f_counts", poset_count)
        assert cli(argv) == (0, out, "")

    def test_dim_6_builds_no_poset(self, cli):
        # one trial took about 16 s when each draw was built as a complex
        start = time.perf_counter()
        code, out, _ = cli(
            ["mine", "--target", "realroot", "--dim", "6", "--trials", "20", "--seed", "0"]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["type"] == "summary"
        assert elapsed < 5

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_range_enforced(self, cli, seed):
        code, _, err = cli(
            ["mine", "--target", "realroot", "--dim", "2", "--trials", "1",
             "--seed", seed]
        )
        assert code == 1
        assert "64-bit" in err


class TestEndToEnd:
    @pytest.mark.parametrize(
        "gen_args",
        [("--cube", str(d)) for d in range(1, 5)]
        + [("--cube-boundary", str(d)) for d in range(1, 5)],
    )
    def test_pipe_agrees_with_transforms(self, cli, gen_args):
        src = gen_json(cli, *gen_args)
        _, direct, _ = cli(["vectors"], stdin_text=src)
        base = json.loads(direct)
        code, out, _ = cli(["subdivide", "-n", "1"], stdin_text=src)
        assert code == 0
        _, after, _ = cli(["vectors"], stdin_text=out)
        got = json.loads(after)
        want_hsc = hsc_of_subdivision(ShortHVector(tuple(base["hsc"])))
        want_hc = hc_of_subdivision(LongHVector(tuple(base["hc"])))
        assert got["hsc"] == list(want_hsc.entries)
        assert got["hc"] == list(want_hc.entries)
        assert got["euler_reduced"] == base["euler_reduced"]

    def test_unknown_command_exits_1(self, cli):
        code, _, _ = cli(["frobnicate"])
        assert code == 1

    def test_help_exits_0(self, cli):
        code, out, _ = cli(["--help"])
        assert code == 0
        assert "cubary" in out


SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(f"cubary.{p.stem}" for p in (SRC / "cubary").glob("*.py") if p.stem != "__init__")


def _layers(*names):
    return [f"cubary.{name}" for name in names]


# Runs a statement, or cli.main(argv), in a fresh interpreter and reports the
# exit code and which of the given modules it newly loaded.
LOAD_PROBE = """
import json, sys
before = set(sys.modules)
what, forbidden = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if isinstance(what, str):
    exec(what)
    code = 0
else:
    from cubary.cli import main
    code = main(what)
sys.stderr.write(json.dumps([code, sorted(set(forbidden) & (set(sys.modules) - before))]))
"""


class TestStartup:
    # without a bytecode cache every process compiles each module it
    # imports, so each command must load only the layers it calls
    @pytest.mark.parametrize(
        "what,stdin,forbidden",
        [
            ("import cubary", "", [*SUBMODULES, "fractions", "decimal"]),
            # dataclasses alone pulls in inspect, ast, dis and tokenize
            ("import cubary.cli", "", ["dataclasses", "inspect"]),
            (["gen", "--cube-boundary", "3"], "",
             [*_layers("polytools", "face_vectors", "transform", "subdivision", "verify", "corpus"),
              "fractions", "decimal"]),
            (["coeffs", "--matrix", "C", "-d", "4"], "",
             _layers("complex_core", "subdivision", "verify", "corpus")),
            (["vectors"], gen_cube_boundary(3).to_json(),
             _layers("transform", "subdivision", "verify", "corpus")),
            (["subdivide", "-n", "1"], gen_cube_boundary(3).to_json(),
             [*_layers("polytools", "face_vectors", "transform", "verify", "corpus"),
              "fractions", "decimal"]),
            (["limit", "--max-n", "3"], gen_cube_boundary(3).to_json(),
             _layers("subdivision", "verify", "corpus")),
            # trials 159 and 469 are findings, whose lines list the draw's corners
            (["mine", "--target", "realroot", "--dim", "2", "--trials", "500", "--seed", "4"], "",
             _layers("complex_core", "subdivision", "verify")),
        ],
        ids=["import", "import-cli", "gen", "coeffs", "vectors", "subdivide", "limit", "mine"],
    )
    def test_loads_only_what_runs(self, what, stdin, forbidden):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", LOAD_PROBE, json.dumps(what), json.dumps(forbidden)],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "[0, []]")

    def test_lazy_namespace_contract(self):
        assert cubary.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            value = getattr(cubary, name)
            module = "cubary._base" if name == "DEFAULT_FACE_BUDGET" else value.__module__
            assert module.startswith("cubary."), name
            assert value is getattr(sys.modules[module], name), name
        assert cubary.DEFAULT_FACE_BUDGET is cubary.subdivision.DEFAULT_FACE_BUDGET
        with pytest.raises(AttributeError, match=r"^module 'cubary' has no attribute 'nope'$"):
            cubary.nope
        # a fresh interpreter: dir() before any name is used, then import *
        probe = (
            "import json, cubary; listed = dir(cubary); ns = {}; exec('from cubary import *', ns); "
            "print(json.dumps([n for n in cubary.__all__ if n not in listed or n not in ns]))"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == SUITES + ("all",)


def _wide_json() -> str:
    """The 14,662-face subdivision of 190 unit cubes of the side-6 block."""
    cells = list(itertools.product(range(6), repeat=3))
    corners = sorted(random.Random(0).sample(cells, 190))
    return subdivide(from_voxels(VoxelSpec(3, tuple(corners)))).to_json()


class TestCollector:
    """python -m cubary and the installed script run with the cyclic
    collector off. That is safe while a command leaves nothing that only
    the collector frees: the one argparse parser a process builds holds
    cycles, and nothing a command leaves may grow with the input or the
    trial count."""

    @pytest.fixture()
    def collectable(self, monkeypatch):
        def run(argv, stdin_text=""):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
            enabled = gc.isenabled()
            gc.disable()
            try:
                gc.collect()
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                return gc.collect()
            finally:
                if enabled:
                    gc.enable()

        return run

    def test_mine_leaves_no_cycle_per_trial(self, collectable):
        # a self-calling closure in the face count left one cycle per call:
        # 768 objects at 100 trials and 5,268 at 1,000
        argv = ["mine", "--target", "realroot", "--dim", "3", "--seed", "1", "--trials"]
        collectable([*argv, "10"])
        assert collectable([*argv, "100"]) == collectable([*argv, "1000"])

    # each side is (argv, a function that makes its stdin)
    @pytest.mark.parametrize(
        "small,large",
        [
            ((["vectors"], gen_cube(3).to_json), (["vectors"], _wide_json)),
            ((["subdivide", "-n", "1"], gen_cube(3).to_json), (["subdivide", "-n", "2"], gen_cube(3).to_json)),
            ((["limit", "--max-n", "3"], gen_cube_boundary(4).to_json),
             (["limit", "--max-n", "30"], gen_cube_boundary(4).to_json)),
        ],
        ids=["vectors", "subdivide", "limit"],
    )
    def test_command_leaves_the_same_on_any_size(self, collectable, small, large):
        (small_argv, small_in), (large_argv, large_in) = small, large
        collectable(small_argv, small_in())
        assert collectable(small_argv, small_in()) == collectable(large_argv, large_in())

    def test_python_m_runs_without_collector(self):
        probe = (
            "import gc, runpy, cubary.cli as cli; "
            "cli.main = lambda: print(gc.isenabled()) or 0; "
            "runpy.run_module('cubary', run_name='__main__')"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_script_runs_without_collector(self):
        # tomllib is missing on 3.10, so the entry is read with a regex
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        (entry,) = re.findall(r'(?m)^cubary = "([^"]*)"$', pyproject.split("[project.scripts]")[1])
        assert entry == "cubary.__main__:run"
        module, _, name = entry.partition(":")
        probe = (
            "import gc, importlib, cubary.cli as cli; "
            "cli.main = lambda: print(gc.isenabled()) or 0; "
            f"getattr(importlib.import_module({module!r}), {name!r})()"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_second_command_leaves_nothing(self, collectable):
        # the parser is built once per process; one per call left 268 objects in cycles
        collectable(["gen", "--cube", "2"])
        assert collectable(["gen", "--cube", "2"]) == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_keeps_callers_setting(self, cli, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert cli(["gen", "--cube", "2"])[0] == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


# the public names in their published order
PUBLIC_NAMES = [
    "CubicalComplex", "ValidationReport", "VoxelSpec", "from_voxels", "gen_cube",
    "gen_cube_boundary", "parse_voxel_text", "validate", "FVector", "LongHVector",
    "ShortHVector", "check_long_short_identity", "euler_reduced", "f_from_hsc", "f_vector",
    "hc_from_hsc", "hsc_from_f", "hsc_from_hc", "summary", "RatPoly", "is_real_rooted",
    "mobius_transform", "rational_roots", "real_root_count", "shape_predicates",
    "DEFAULT_FACE_BUDGET", "FaceBudgetExceeded", "subdivide", "subdivide_n", "CoeffMatrix",
    "b_matrix", "c_matrix", "f_of_subdivision", "hc_of_subdivision", "hc_poly_of_iterate",
    "hsc_of_subdivision", "hsc_poly_of_iterate", "limit_distance_hc", "limit_distance_hsc",
]


class TestHostileInput:
    def test_face_of_huge_dimension_exits_2_fast(self, cli):
        # a face with too few covers must not make validate() build 3^dim
        huge = {"dim": 30000000, "faces": [{"id": 0, "dim": 30000000, "covered": [], "key": "a"}]}
        start = time.perf_counter()
        code, out, err = cli(["vectors"], stdin_text=json.dumps(huge))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "invalid complex" in err

    def test_deeply_nested_json_exits_1_without_traceback(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "cubary", "vectors"],
            input="[" * 200000 + "]" * 200000,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and "invalid JSON" in proc.stderr


CUBARY = [sys.executable, "-m", "cubary"]


def _run(cmd, unbuffered: bool, **streams) -> subprocess.CompletedProcess:
    """cmd with stderr captured and PYTHONUNBUFFERED set to 1 or unset."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(cmd, stderr=subprocess.PIPE, text=True, env=env, timeout=60, **streams)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestClosedStreams:
    """A failed read or write of stdin or stdout, or a closed one, exits 1
    with one stderr line: no traceback, no "Exception ignored" from the
    interpreter's flush at exit, no exit 120, nothing dropped silently."""

    BROKEN = "cubary: error: I/O error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--cube", "2"],  # stays buffered until the flush after main()
            ["gen", "--cube", "6"],  # 51 kB: overflows the 8 kB buffer inside main()
            ["mine", "--target", "realroot", "--dim", "2", "--trials", "300", "--seed", "1"],
        ],
        ids=["gen-small", "gen-large", "mine"],
    )
    def test_reader_gone_before_the_first_write(self, unbuffered, argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _run([*CUBARY, *argv], unbuffered, stdin=subprocess.DEVNULL, stdout=w)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, self.BROKEN)

    def test_reader_closes_after_ten_bytes(self, unbuffered):
        # gen --cube 8 | head -c 10: 569 kB, more than a pipe holds
        cmd = f'"$@" | head -c 10 > /dev/null; exit "${{PIPESTATUS[0]}}"'
        proc = _run(["bash", "-c", cmd, "bash", *CUBARY, "gen", "--cube", "8"], unbuffered)
        assert (proc.returncode, proc.stderr) == (1, self.BROKEN)

    def test_full_device(self, unbuffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            proc = _run([*CUBARY, "gen", "--cube", "2"], unbuffered, stdout=full)
        assert (proc.returncode, proc.stderr) == (
            1, "cubary: error: I/O error: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize(
        "argv,redirect,stream",
        [(["vectors"], "<&-", "stdin"), (["gen", "--cube", "2"], ">&-", "stdout")],
        ids=["stdin", "stdout"],
    )
    def test_closed_descriptor(self, unbuffered, argv, redirect, stream):
        # the shell closes the descriptor, so Python sets sys.<stream> to None
        proc = _run(["sh", "-c", f'exec "$@" {redirect}', "sh", *CUBARY, *argv], unbuffered)
        assert (proc.returncode, proc.stderr) == (1, f"cubary: error: I/O error: {stream} is closed\n")


class TestInternalFailurePaths:
    def test_coeffs_crosscheck_failure_exits_4(self, cli, monkeypatch):
        def boom(d):
            raise RuntimeError("synthetic mismatch")

        monkeypatch.setattr("cubary.transform.c_matrix", boom)
        code, _, err = cli(["coeffs", "--matrix", "C", "-d", "3"])
        assert code == 4
        assert "cross-check" in err

    def test_verify_failure_exits_5(self, cli, monkeypatch):
        report = {
            "suite": "fvec",
            "items": ["cube_1"],
            "checks": [
                {"item": "cube_1", "check": "fvec", "ok": False, "detail": "synthetic"}
            ],
            "ok": False,
        }
        monkeypatch.setattr("cubary.verify.run_suites", lambda *a, **k: report)
        code, out, err = cli(["verify", "--suite", "fvec", "--corpus", "default"])
        assert code == 5
        assert "fvec" in err and "cube_1" in err
        assert json.loads(out)["ok"] is False


def _synthetic_mismatch(*args):
    raise RuntimeError("synthetic mismatch")


def _no_rows(*args):
    raise AssertionError("a refused limit computed a row")


FAILED_REPORT = {
    "suite": "fvec",
    "items": ["cube_1"],
    "checks": [{"item": "cube_1", "check": "fvec", "ok": False, "detail": "synthetic"}],
    "ok": False,
}
SQUARE = gen_cube(2).to_json()
POINT = gen_cube(0).to_json()
BOUNDARY_3 = gen_cube_boundary(3).to_json()
BOUNDARY_6 = gen_cube_boundary(6).to_json()
MINE = ["mine", "--target", "unimodality", "--trials", "1"]
BAD_VIOLATIONS = "face 3 of dim 1 covers 3 faces, expected 2*1; face 3 of dim 1 is not a cube: 3 facets, expected 2"

# (id, argv, stdin, (dotted name in its defining module, replacement) or None,
# exit code, stderr after "cubary: error: "); {tmp} in argv and stderr is the
# voxel file directory
FAILURES = [
    ("subdivide-budget", ["subdivide", "-n", "1", "--budget", "-5"], SQUARE, None, 1,
     "budget must be >= 0"),
    ("subdivide-n", ["subdivide", "-n", "-2"], SQUARE, None, 1, "n must be >= 0"),
    ("subdivide-n-before-stdin", ["subdivide", "-n", "-1"], BAD_COMPLEX, None, 1,
     "n must be >= 0"),
    ("coeffs-d", ["coeffs", "--matrix", "B", "-d", "0"], "", None, 1, "d must be >= 1"),
    ("limit-max-n", ["limit", "--max-n", "-3"], SQUARE, None, 1, "max-n must be >= 0"),
    ("limit-hc-d", ["limit", "--max-n", "2", "--which", "hc"], POINT, None, 1,
     "long h-vector limits need d >= 2"),
    ("mine-seed-negative", [*MINE, "--dim", "2", "--seed", "-1"], "", None, 1,
     "seed must be a 64-bit unsigned integer"),
    ("mine-seed-2^64", [*MINE, "--dim", "2", "--seed", str(2**64)], "", None, 1,
     "seed must be a 64-bit unsigned integer"),
    ("mine-dim", [*MINE, "--dim", "0", "--seed", "0"], "", None, 1, "dim must be >= 1"),
    ("mine-trials", ["mine", "--target", "realroot", "--dim", "2", "--trials", "-1", "--seed", "0"],
     "", None, 1, "trials must be >= 0"),
    ("gen-cube", ["gen", "--cube", "-1"], "", None, 1, "d must be >= 0"),
    ("gen-cube-boundary", ["gen", "--cube-boundary", "0"], "", None, 1,
     "cube boundary needs d >= 1 (no empty complexes)"),
    ("gen-missing-file", ["gen", "--voxels", "{tmp}/missing.txt"], "", None, 1,
     "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
    ("gen-duplicate-corner", ["gen", "--voxels", "{tmp}/dup.txt"], "", None, 1,
     "duplicate corners in voxel spec"),
    ("gen-no-dim-line", ["gen", "--voxels", "{tmp}/nodim.txt"], "", None, 1,
     "voxel file must start with 'dim <n>'"),
    ("gen-underscore-corner", ["gen", "--voxels", "{tmp}/underscore.txt"], "", None, 1,
     "corner line '1_0' has an entry that is not an integer"),
    ("gen-negative-dim", ["gen", "--voxels", "{tmp}/negdim.txt"], "", None, 1,
     "ambient_dim must be >= 1"),
    ("parse-vectors", ["vectors"], "{oops", None, 1,
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("parse-verify", ["verify", "--suite", "fvec"], "", None, 1,
     "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("invalid-subdivide", ["subdivide", "-n", "1"], BAD_COMPLEX, None, 2,
     f"invalid complex: {BAD_VIOLATIONS}"),
    ("invalid-vectors", ["vectors"], BAD_COMPLEX, None, 2, f"invalid complex: {BAD_VIOLATIONS}"),
    ("invalid-negative-dim", ["vectors"],
     '{"dim":-1,"faces":[{"id":0,"dim":-1,"covered":[],"key":"a"}]}', None, 2,
     "invalid complex: face 0 has negative dimension -1"),
    ("invalid-verify", ["verify", "--suite", "fvec"], BAD_COMPLEX, None, 2,
     f"invalid complex: {BAD_VIOLATIONS}"),
    ("budget-verify", ["verify", "--suite", "fvec"], SQUARE,
     ("cubary.verify.DEFAULT_FACE_BUDGET", 24), 3,
     "subdivision step 1 projects 25 faces (f = [9, 12, 4]), exceeding the budget of 24"),
    ("invalid-limit", ["limit", "--max-n", "1"], BAD_COMPLEX, None, 2,
     f"invalid complex: {BAD_VIOLATIONS}"),
    ("gen-validation", ["gen", "--cube", "2"], "",
     ("cubary.complex_core.gen_cube", lambda d: CubicalComplex.from_json(BAD_COMPLEX)), 2,
     "generated complex failed validation: face 3 of dim 1 covers 3 faces, expected 2*1"),
    ("budget-subdivide-faces", ["subdivide", "-n", "9", "--budget", "1000"], BOUNDARY_3, None, 3,
     "subdivision step 3 projects 1538 faces (f = [386, 768, 384]), exceeding the budget of 1000"),
    ("budget-subdivide-keys", ["subdivide", "-n", "10000", "--budget", "10"], POINT, None, 3,
     "subdivision step 6 projects 1 faces (f = [1]) with keys of up to 253 characters, "
     "exceeding 25 key characters per face of the budget of 10"),
    ("budget-cube", ["gen", "--cube", "15"], "", None, 3,
     "--cube 15 projects 3^15 faces, exceeding the face budget of 10000000"),
    ("budget-cube-boundary", ["gen", "--cube-boundary", "15"], "", None, 3,
     "--cube-boundary 15 projects 3^15 - 1 faces, exceeding the face budget of 10000000"),
    ("budget-voxels", ["gen", "--voxels", "{tmp}/dim16.txt"], "", None, 3,
     "--voxels dim 16 projects 3^16 faces, exceeding the face budget of 10000000"),
    ("budget-limit", ["limit", "--max-n", "2858", "--which", "hc"], BOUNDARY_6,
     ("cubary.transform._limit_rows", _no_rows), 3,
     "--max-n 2858 projects distances of up to 14305 bits, "
     "exceeding the budget of 14284 bits (4300 digits)"),
    ("budget-mine", [*MINE, "--dim", "10", "--seed", "0"], "", None, 3,
     "--dim 10 projects 10^10 bits, exceeding the bit budget of 1000000000"),
    ("budget-mine-2^64", [*MINE, "--dim", str(2**64), "--seed", "0"], "", None, 3,
     f"--dim {2**64} projects 10^{2**64} bits, exceeding the bit budget of 1000000000"),
    ("budget-coeffs", ["coeffs", "--matrix", "B", "-d", "100000"], "", None, 3,
     "-d 100000 projects up to 903130000300037 bytes of output, "
     "exceeding the byte budget of 10000000"),
    ("budget-coeffs-10^18", ["coeffs", "--matrix", "C", "-d", str(10**18)], "", None, 3,
     f"-d {10**18} projects up to 903090000000000005806180000000000011903090000000000057 "
     "bytes of output, exceeding the byte budget of 10000000"),
    ("cross-check", ["coeffs", "--matrix", "C", "-d", "3"], "",
     ("cubary.transform.c_matrix", _synthetic_mismatch), 4,
     "cross-check failure: synthetic mismatch"),
    ("cross-check-verify", ["verify", "--suite", "hc", "--corpus", "default"], "",
     ("cubary.verify.run_suites", _synthetic_mismatch), 4, "cross-check failure: synthetic mismatch"),
    ("cross-check-mine", ["mine", "--target", "realroot", "--dim", "2", "--trials", "200", "--seed", "1"],
     "", ("cubary.transform.hc_of_subdivision", _synthetic_mismatch), 4,
     "cross-check failure: synthetic mismatch"),
    ("verify", ["verify", "--suite", "fvec", "--corpus", "default"], "",
     ("cubary.verify.run_suites", lambda *a, **k: FAILED_REPORT), 5,
     "check fvec failed on cube_1: synthetic"),
]


class TestFailureOutput:
    """Each failure kind ends in exactly one pinned stderr line and exit code."""

    @pytest.fixture()
    def voxel_dir(self, tmp_path):
        (tmp_path / "dup.txt").write_text("dim 2\n0 0\n0 0\n")
        (tmp_path / "nodim.txt").write_text("0 0\n")
        (tmp_path / "underscore.txt").write_text("dim 1\n1_0\n")
        (tmp_path / "negdim.txt").write_text("dim -1\n0\n")
        (tmp_path / "dim16.txt").write_text("dim 16\n" + "0 " * 16 + "\n")
        return tmp_path

    @pytest.mark.parametrize(
        "argv,stdin,patch,code,message", [case[1:] for case in FAILURES], ids=[c[0] for c in FAILURES]
    )
    def test_exact_stderr(self, cli, monkeypatch, voxel_dir, argv, stdin, patch, code, message):
        if patch:
            monkeypatch.setattr(*patch)
        tmp = str(voxel_dir)
        start = time.perf_counter()
        got = cli([a.replace("{tmp}", tmp) for a in argv], stdin_text=stdin)
        # every refusal comes before any real work
        assert time.perf_counter() - start < 5
        out = json.dumps(FAILED_REPORT, separators=(",", ":")) + "\n" if code == 5 else ""
        assert got == (code, out, f"cubary: error: {message.replace('{tmp}', tmp)}\n")

    @pytest.mark.parametrize(
        "argv,last",
        [
            (["gen"], "cubary gen: error: one of the arguments --cube --cube-boundary --voxels is required"),
            ([*MINE, "--dim", "x", "--seed", "0"], "cubary mine: error: argument --dim: invalid int value: 'x'"),
        ],
        ids=["gen-no-source", "mine-dim-not-int"],
    )
    def test_usage_error(self, cli, argv, last):
        code, out, err = cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: cubary ")
        assert err.splitlines()[-1] == last
