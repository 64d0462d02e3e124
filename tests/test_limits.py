"""Every numerical limit of the package has one named home.

The "Numerical limits" table of docs/formats.md lists exactly the public
int and float constants that the library modules define, each with its
value, and no function body holds a small float literal of its own."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "thermocontact"
MODULES = ("chords", "models", "processes", "phase_space", "microstate", "cli")
# verify's criterion bounds and the scipy port's float constants are not
# limits of this kind
UNLINTED = ("verify.py", "_solve.py")


def _module_assignments(tree: ast.Module) -> list[ast.Assign | ast.AnnAssign]:
    return [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]


def _defined_constants(module: str) -> list[tuple[str, object]]:
    """The public UPPER_CASE int and float names that ``module`` assigns at
    its top level (imported names are another module's)."""
    mod = importlib.import_module(f"thermocontact.{module}")
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = []
    for node in _module_assignments(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names += [t.id for t in targets if isinstance(t, ast.Name)]
    out = []
    for name in names:
        value = getattr(mod, name)
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and type(value) in (int, float):
            out.append((name, value))
    return out


def test_limits_table_matches_the_code():
    text = (ROOT / "docs" / "formats.md").read_text()
    rows = re.findall(
        r"^\| `([A-Z][A-Z0-9_]*)` \| `(\w+)` \| `([^`]+)` \| [^|]+ \| [^|]+ \|$", text, re.M
    )
    documented = [(name, module) for name, module, _ in rows]
    defined = [(name, module) for module in MODULES for name, _ in _defined_constants(module)]
    assert sorted(documented) == sorted(defined)
    # one name, one limit: no name is defined twice or listed twice
    names = [name for name, _ in defined]
    assert len(set(names)) == len(names)
    assert len({name for name, _ in documented}) == len(documented)
    values = {name: value for module in MODULES for name, value in _defined_constants(module)}
    for name, _, value in rows:
        assert float(value) == values[name], name


def _small_float_literals(path: Path) -> list[int]:
    """Lines of float literals x with 0 < |x| < 1e-6 that are not the whole
    value of a module-level assignment."""
    tree = ast.parse(path.read_text())
    named = {id(node.value) for node in _module_assignments(tree)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-6
        and id(node) not in named
    ]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SRC.glob("*.py") if p.name not in UNLINTED)
)
def test_small_float_literals_are_named_limits(name):
    assert _small_float_literals(SRC / name) == [], name
