"""Every name a ``setchain`` module or a test module imports is used in
that module, and each public constant is defined in one module only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "setchain"

# Imported only so that the benchmark's tracer (perfbench/tracing.py) can
# patch them by module and name; no code in the module itself reads them.
PATCHED_BY_NAME = {
    ("bench", "encode_element_set"),
    ("client", "decode_get_state"),
    ("wire", "sort_elements"),
}


def imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads (no module defines ``__all__``)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name for name in imported_names(tree) - used_names(tree)
              if (path.stem, name) not in PATCHED_BY_NAME}
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_every_name_kept_for_the_tracer_is_still_imported():
    for module, name in sorted(PATCHED_BY_NAME):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in imported_names(tree), f"{module}.{name}"


def public_constants(tree: ast.Module) -> set[str]:
    """The public UPPER_CASE names the module assigns at top level."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.isupper()
                        and not name.id.startswith("_")):
                    names.add(name.id)
    return names


def test_each_public_constant_is_assigned_in_one_module():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for name in public_constants(ast.parse(path.read_text())):
            owners.setdefault(name, []).append(path.stem)
    twice = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not twice, f"assigned in more than one module: {twice}"
