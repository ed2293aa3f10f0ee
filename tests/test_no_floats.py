"""Every computed value is an exact integer: the package's source holds no
true division, no float() call and no math function beyond the integer ones.

The one float literal, sampling's ``rng.random() < 0.5``, draws a random
input and decides no value, so no rule here forbids it.
"""

import ast
from pathlib import Path

import simpchrom

INTEGER_MATH = {"comb", "gcd", "lcm", "prod", "isqrt"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            yield node.lineno, f"math.{node.attr}"


def test_the_package_computes_no_float():
    sources = sorted(Path(simpchrom.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [f"{path.name}:{line}: {what}" for path in sources
             for line, what in _offences(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_finds_each_kind_of_float():
    tree = ast.parse("import math\nfrom math import log10, gcd\n"
                     "a = 1 / 2\nb = float(3)\nc = math.sqrt(2)\nd = math.isqrt(9)\n"
                     "e = 7\ne /= 2\nf = 7 // 2\n")
    assert sorted(_offences(tree)) == [
        (2, "math.log10"), (3, "true division"), (4, "float() call"),
        (5, "math.sqrt"), (8, "true division")]
