"""The package needs nothing at run time beyond the standard library and numpy."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "trisal"


def imported_modules(path):
    """Top-level names of every absolute import in the file at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {f"{p.name}: {name}" for p in files for name in imported_modules(p) if name not in allowed}
    assert not foreign, sorted(foreign)
