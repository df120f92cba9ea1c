"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The reconciliation tests make one traced cycle per workload, about a
minute and a half in all.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

import cubary  # noqa: E402

# Public names outside cubary.__all__ that a layer metric needs by name:
# `cli.main` (cli.overhead.s), `run_suites` (verify.run_suites.s) and the
# corpus functions behind `verify --corpus default` and `mine`.
EXTRA_PUBLIC = {
    ("cubary.cli", "main"),
    ("cubary.verify", "run_suites"),
    ("cubary.corpus", "bernoulli_voxel_spec"),
    ("cubary.corpus", "default_corpus"),
}

# Layers each workload must show work in; the rest of LAYER_SPANS may be 0.
CALLED = {
    "poset_pipeline": {"complex_core.build", "complex_core.validate", "complex_core.json_encode",
                       "complex_core.json_decode", "subdivision.subdivide", "face_vectors", "polytools.shape",
                       "cli.emit"},
    "mine_search": {"corpus.draw", "complex_core.build", "face_vectors", "transform.b_matrix", "transform.c_matrix",
                    "transform.apply", "polytools.sturm", "polytools.shape", "cli.emit"},
    "closed_form": {"transform.b_matrix", "transform.c_matrix", "transform.iterate", "transform.limit",
                    "polytools.sturm", "polytools.rational_roots", "polytools.shape", "verify.run_suites",
                    "complex_core.build", "complex_core.validate", "complex_core.json_encode",
                    "complex_core.json_decode", "face_vectors", "cli.emit"},
}


def _sources():
    """The benchmark's files; this test file only reads `cubary.__all__`."""
    return sorted(path for path in HERE.glob("*.py") if path.name != Path(__file__).name)


def test_benchmark_json_matches_the_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_only_public_api():
    allowed = {("cubary", name) for name in cubary.__all__} | EXTRA_PUBLIC
    for path in _sources():
        text = path.read_text(encoding="utf-8")
        assert "cache_" + "clear" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cubary"):
                for alias in node.names:
                    assert (node.module, alias.name) in allowed, f"{path.name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("cubary") for a in node.names), path.name
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
                assert isinstance(node.value, ast.Name) and node.value.id == "self", f"{path.name}: .{node.attr}"


def _result(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reconciles(name):
    p = _result(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1"], ROOT)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, p.stderr
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)

    for layer in run.LAYER_SPANS:
        assert (m[f"{layer}.s"] > 0) == (layer in CALLED[name]), layer
    if name != "closed_form":
        assert m["polytools.rational_roots.s"] == 0
    if name == "mine_search":
        assert m["complex_core.validate.s"] == 0
        assert 0 < m["mine.evaluated_frac"] <= 1

    # Layer self times plus CLI overhead account for the untraced pass, up to
    # the tracing overhead and the time outside every span (replay glue and
    # the benchmark's own work between processes), which must stay under 5%.
    layers = sum(m[f"{layer}.s"] for layer in run.LAYER_SPANS)
    gap = m["reconcile.wall_s"] - layers - m["cli.overhead.s"]
    assert abs(gap) <= abs(m["trace.overhead.s"]) + 0.05 * m["reconcile.wall_s"], (gap, m)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    p = _result(["--workload", "mine_search", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()
