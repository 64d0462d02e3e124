"""Every scalar the package reads is the scalar it computes with.

``phase_space._scalar`` returns the checked value as a Python float (an
int for a count).  A call whose result is dropped checks one value and
leaves the code computing with another, the caller's raw argument, which
may be a numpy scalar with numpy's warning rules.  This lint finds any
``_scalar(...)`` call that is an expression statement or an operand of a
comparison."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "thermocontact"


def _dropped_reads(path: Path) -> list[int]:
    """Lines of ``_scalar(...)`` calls whose result is not kept."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Expr):
            operands = [node.value]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        else:
            continue
        lines += [
            op.lineno
            for op in operands
            if isinstance(op, ast.Call)
            and isinstance(op.func, ast.Name)
            and op.func.id == "_scalar"
        ]
    return sorted(lines)


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_every_read_is_kept(name):
    assert _dropped_reads(SRC / name) == [], name


def test_the_lint_finds_a_dropped_read(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(t0, t1, c):\n"
        "    _scalar(c, 'c')\n"
        "    if not _scalar(t0, 't0') < _scalar(t1, 't1'):\n"
        "        raise ValueError\n"
        "    t0 = _scalar(t0, 't0')\n"
        "    return [_scalar(c, 'c')]\n"
    )
    assert _dropped_reads(src) == [2, 3, 3]
