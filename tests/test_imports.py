"""Every name a ``dynabo`` module imports is used.

No linter runs on this package, so this is its unused-import check (pyflakes'
F401): a name a module imports must be referenced in that module, be listed
in its ``__all__``, or sit on a line marked ``# noqa: F401``.  Names in
string annotations count as referenced.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynabo"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module):
    """``(name, line)`` of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno


def referenced_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = referenced_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert not unused


def test_the_check_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import A\ndef f(a: 'A'): pass\n")
    unused = {name for name, _ in imported_names(tree)} - referenced_names(tree)
    assert unused == {"os", "np"}
