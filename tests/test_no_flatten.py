"""No function of the package flattens what it is given.

Array arguments are read by ``phase_space._array``, which keeps their
depth and rejects nested input by name; a ``reshape(-1)`` would read
``[[0, 1]]`` as two entries.  This lint finds any call that reshapes to one
dimension of unknown length."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "thermocontact"


def _is_minus_one(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and node.operand.value == 1
    )


def _flattening_reshapes(path: Path) -> list[int]:
    """Lines of ``x.reshape(-1)`` and ``x.reshape((-1,))`` calls."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape"
            and len(node.args) == 1
        ):
            continue
        (arg,) = node.args
        shape = arg.elts if isinstance(arg, (ast.Tuple, ast.List)) else [arg]
        if len(shape) == 1 and _is_minus_one(shape[0]):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_input_is_flattened(name):
    assert _flattening_reshapes(SRC / name) == [], name


def test_the_lint_finds_a_flattening_reshape(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(x):\n    a = x.reshape(-1)\n    b = x.reshape((-1,))\n    return x.reshape(-1, 1)\n"
    )
    assert _flattening_reshapes(src) == [2, 3]
