"""Each piece of the bound's math has one owner in src/pixelaoa.

These tests read the package source with ast, so a second caller of the
Fisher sweep, a second converter of FD steps, a second window rule in the
CLI or a second CSV writer fails here, whatever it computes.
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


def test_csv_is_formatted_only_in_crlb():
    # crlb.write_csv_blocks formats every CSV cell; no other module formats rows itself
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(name, "import csv") for a in node.names if a.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append((name, "from csv import"))
            elif isinstance(node, ast.Call) and _callee(node) == "savetxt":
                found.append((name, ast.unparse(node)))
            elif (isinstance(node, ast.Call) and _callee(node) == "join"
                  and any(isinstance(a, ast.Call) and _callee(a) == "map" and a.args
                          and isinstance(a.args[0], ast.Name) and a.args[0].id == "str"
                          for a in node.args)):
                found.append((name, ast.unparse(node)))
    assert [f for f in found if f[0] != "crlb.py"] == []


def test_cli_optimizer_simulate_write_csv_through_crlb():
    # their only text files of their own are JSON: every file they open for
    # writing is written by json.dump, and each of them calls a crlb writer
    for name in ("cli.py", "optimizer.py", "simulate.py"):
        tree = _tree(name)
        assert {"write_csv", "write_csv_blocks"} & {_callee(node) for node in ast.walk(tree)
                                                    if isinstance(node, ast.Call)}, name
        for node in ast.walk(tree):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                call = item.context_expr
                if not (isinstance(call, ast.Call) and _callee(call) == "open"):
                    continue
                mode = call.args[1] if len(call.args) > 1 else next(
                    (k.value for k in call.keywords if k.arg == "mode"), None)
                if mode is None or "r" in ast.literal_eval(mode):
                    continue
                writes = {ast.unparse(c.func) for stmt in node.body for c in ast.walk(stmt)
                          if isinstance(c, ast.Call) and _callee(c) in ("dump", "write",
                                                                       "writelines")}
                assert "json.dump" in writes, (name, node.lineno, writes)


def _scoped(node, scope=None):
    """(name of the innermost enclosing def or None, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        yield from _scoped(child, child.name if isinstance(child, ast.FunctionDef) else scope)


def test_only_solve_network_reads_the_dataset_arrays():
    # outside emdata.py, e_oc is read through EMDataset.window, and Z and the
    # Gram matrix by the network solve alone, so the dataset owns their storage
    found = {(name, scope, node.attr) for name, tree in _trees().items() if name != "emdata.py"
             for scope, node in _scoped(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("e_oc", "Z", "gram")}
    assert sorted(found) == [("network.py", "solve_network", "Z"),
                             ("network.py", "solve_network", "gram")]
