"""The package needs nothing at run time beyond the standard library and numpy, and still
has every name the benchmark tracer patches."""

import ast
import importlib
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


def test_every_name_the_tracer_patches_on_data_cli_model_and_metrics_exists():
    """``instrument`` in ``perfbench/spans.py`` patches ``trisal.data``, ``trisal.cli``,
    ``trisal.model`` (and their classes) and ``trisal.metrics`` by name, given as a literal or as
    a loop variable over a literal tuple; a renamed target would break ``perfbench/run.py
    --trace 1``, and one the package stopped calling through its module would leave its row 0."""
    path = ROOT / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(), str(path))
    (instrument,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "instrument")
    watched = ("trisal.data", "trisal.cli", "trisal.model", "trisal.metrics")
    aliases = {
        a.asname: a.name for n in ast.walk(instrument) if isinstance(n, ast.Import) for a in n.names if a.name in watched
    }
    parents = {child: node for node in ast.walk(instrument) for child in ast.iter_child_nodes(node)}

    def dotted(node):
        return [*dotted(node.value), node.attr] if isinstance(node, ast.Attribute) else [node.id]

    patched = set()
    for call in ast.walk(instrument):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "patch"):
            continue
        owner, name = dotted(call.args[0]), call.args[1]
        if owner[0] not in aliases:
            continue
        owner = (aliases[owner[0]], *owner[1:])
        if isinstance(name, ast.Constant):
            patched.add((owner, name.value))
            continue
        # a loop variable: ``for attr, label in ((name, label), ...)`` over a literal tuple
        loop = parents[call]
        while not (isinstance(loop, ast.For) and name.id in {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}):
            loop = parents[loop]
        at = [n.id for n in loop.target.elts].index(name.id)
        patched.update((owner, row[at]) for row in ast.literal_eval(loop.iter))
    assert {owner[0] for owner, _ in patched} == set(watched)
    assert (("trisal.cli",), "_read_pnm") in patched and (("trisal.data",), "_read_pnm") in patched
    metric_names = {"mae", "max_f_measure", "s_measure", "evaluate_sequences"}
    assert metric_names <= {name for owner, name in patched if owner == ("trisal.metrics",)}
    missing = []
    for (module, *attrs), name in sorted(patched):
        obj = importlib.import_module(module)
        for attr in attrs:
            obj = getattr(obj, attr)
        if not callable(getattr(obj, name, None)):
            missing.append(".".join([module, *attrs, name]))
    assert missing == []
