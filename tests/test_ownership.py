"""Each piece of the bound's math has one owner in src/pixelaoa.

These tests read the package source with ast, so a second caller of the
Fisher sweep, a second converter of FD steps or a second window rule in the
CLI fails here, whatever it computes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pixelaoa"


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _trees():
    return {p.name: _tree(p.name) for p in sorted(SRC.glob("*.py"))}


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _spelled(tree):
    """Every identifier the module spells: names, attributes, imports and defs."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from (node.name, node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_fim_sweep_is_called_once_in_crlb_points():
    calls = [(name, node.lineno) for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _callee(node) == "fim_sweep"]
    assert [name for name, _ in calls] == ["crlb.py"], calls
    crlb_points = next(node for node in ast.walk(_tree("crlb.py"))
                       if isinstance(node, ast.FunctionDef) and node.name == "crlb_points")
    assert any(isinstance(node, ast.Call) and _callee(node) == "fim_sweep"
               for node in ast.walk(crlb_points))


def test_fd_steps_are_converted_only_in_crlb():
    spelled = sorted(name for name, tree in _trees().items()
                     if "_step_multiple" in set(_spelled(tree)))
    assert spelled == ["crlb.py"]


def test_optimizer_imports_no_part_of_the_sweep():
    imported = set()
    for node in ast.walk(_tree("optimizer.py")):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not {n.rsplit(".", 1)[-1] for n in imported} & {"kernels", "fd_stencil",
                                                          "_step_multiple"}


def test_cli_tells_no_pattern_set_source_apart():
    # every CLI source builds its patterns on the window the caller gives it
    checks = [ast.unparse(node) for node in ast.walk(_tree("cli.py"))
              if isinstance(node, ast.Call) and _callee(node) == "isinstance"
              and "PatternSet" in ast.unparse(node)]
    assert checks == []
