"""The package needs nothing at run time beyond the standard library and numpy, and still
has every name the benchmark tracer patches."""

import ast
import pathlib
import sys

from trisal import tensor as T

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "trisal"


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


def test_every_op_the_tracer_patches_is_a_tensor_function():
    """``perfbench/spans.py`` patches ``trisal.tensor.<op>`` for each name in ``OPS``, so a
    removed op would break ``perfbench/run.py --trace 1``."""
    path = ROOT / "perfbench" / "spans.py"
    (ops,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["OPS"]
    )
    assert len(ops) >= 19
    assert [op for op in ops if not callable(getattr(T, op, None))] == []
