"""No floating point in the package: an AST scan of every module in
src/cubary fails on a float or complex literal, a ``float(...)`` call, or
a ``math`` name other than the integer functions gcd, lcm, comb and isqrt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubary"
INTEGER_MATH = {"gcd", "lcm", "comb", "isqrt"}


def _floats(tree: ast.AST) -> list[str]:
    """Each float-producing construct in tree, as 'line N: what'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float() call")
        elif (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floats(path):
    assert _floats(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


def test_scan_finds_each_kind():
    source = (
        "import math\n"
        "from math import comb, sqrt\n"
        "x = -1.5 + 2j + 1e3\n"
        "y = float('1') + math.log(2) + math.pi + math.gcd(4, 6) + math.isqrt(8)\n"
    )
    assert sorted(_floats(ast.parse(source))) == [
        "line 2: math.sqrt",
        "line 3: literal 1.5",
        "line 3: literal 1000.0",
        "line 3: literal 2j",
        "line 4: float() call",
        "line 4: math.log",
        "line 4: math.pi",
    ]
