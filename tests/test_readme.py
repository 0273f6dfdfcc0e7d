"""The README's library tour runs, and its expressions give the values their
trailing comments state."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_values():
    """(comment, value) of each commented expression in the tour, run in order."""
    source = re.search(r"## Library tour\n\n```python\n(.*?)```",
                       README.read_text(encoding="utf-8"), re.S).group(1)
    lines, namespace, out = source.splitlines(), {}, []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            out.append((lines[stmt.end_lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return out


def assert_matches(value, expected, atol):
    if isinstance(expected, tuple):
        assert len(value) == len(expected)
        for v, e in zip(value, expected):
            assert_matches(v, e, atol)
    elif isinstance(expected, list):
        np.testing.assert_allclose(value, expected, rtol=0, atol=atol)
    else:
        assert value == expected and type(value) is type(expected)


def test_library_tour_values():
    values = tour_values()
    assert [comment for comment, _ in values] == [
        "True", "True, (-8, 0)", "[1/3, 1/2]", "[1/3, 1/2], True", "close to [1/3, 1/2]"]
    for comment, value in values:
        close = comment.startswith("close to ")
        assert_matches(value, eval(comment.removeprefix("close to ")), 0.02 if close else 1e-12)
