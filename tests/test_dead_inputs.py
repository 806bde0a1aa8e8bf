"""No function in the package takes an input that its body never reads.

A parameter counts as read when its name is loaded anywhere in the body,
nested functions included.  Parameters whose names start with "_" are
declared unused and exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "delayplatoon"


def dead_inputs(tree: ast.AST, filename: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [
            a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                            *args.kwonlyargs, args.kwarg)
            if a is not None and not a.arg.startswith("_")
        ]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [f"{filename}:{node.lineno} {name}({p})" for p in params if p not in read]
    return found


def test_every_input_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += dead_inputs(ast.parse(path.read_text(), str(path)), path.name)
    assert found == []


def test_scan_finds_a_dead_input():
    tree = ast.parse(
        "def f(rows, params):\n    return rows\n"
        "g = lambda w: 1.0\n"
        "h = lambda _w: 1.0\n"
        "def k(x):\n    def inner():\n        return x\n    return inner\n"
    )
    assert dead_inputs(tree, "m.py") == ["m.py:1 f(params)", "m.py:3 <lambda>(w)"]
