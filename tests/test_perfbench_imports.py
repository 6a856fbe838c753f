"""The benchmark harness in perfbench/ imports and patches pixelaoa names.

These tests read its source with ast (they import nothing from perfbench)
so that moving or renaming an API name fails here, not in the benchmark's
traced run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import pixelaoa
from pixelaoa import (
    AngleGrid,
    GeometryConfig,
    PortLayout,
    SensingArea,
    crlb_map,
    cli,
    emdata,
    generate_synthetic_dataset,
    kernels,
    optimizer,
    simulate,
    upa_patterns,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS = sorted(PERFBENCH.glob("*.py"))


def _resolve(module: str, name: str):
    """module.name as an attribute, or as a submodule of a package."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _pixelaoa_aliases(tree) -> dict:
    """Local name -> (module, attribute or None) for every pixelaoa import."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pixelaoa":
            for a in node.names:
                aliases[a.asname or a.name] = (node.module, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "pixelaoa" and a.asname:
                    aliases[a.asname] = (a.name, None)
    return aliases


def _alias_target(aliases, local):
    module, name = aliases[local]
    return importlib.import_module(module) if name is None else _resolve(module, name)


def test_harness_pixelaoa_names_resolve():
    assert {"checks.py", "traced_cli.py"} <= {p.name for p in HARNESS}
    patched = 0
    for path in HARNESS:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _pixelaoa_aliases(tree)
        for local in aliases:
            _alias_target(aliases, local)          # raises if the name moved
        for node in ast.walk(tree):
            # a read off an imported pixelaoa module or class: optimizer.ConfigEvaluator
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                owner = _alias_target(aliases, node.value.id)
                assert hasattr(owner, node.attr), f"{path.name}: {node.value.id}.{node.attr}"
            # _patch_function(module, "attr", ...) rebinds module.attr
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_patch_function"):
                mod, attr = node.args[0], node.args[1]
                owner = _alias_target(aliases, mod.id)
                assert callable(getattr(owner, attr.value, None)), \
                    f"{path.name}: _patch_function({mod.id}, {attr.value!r})"
                patched += 1
    assert patched > 0


def _pixelaoa_calls(path):
    """(line, name, callable, positional count, keywords) of each call in path
    to an imported pixelaoa callable whose arguments are all spelled out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _pixelaoa_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in aliases:
            name, target = f.id, _alias_target(aliases, f.id)
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
              and f.value.id in aliases):
            name = f"{f.value.id}.{f.attr}"
            target = getattr(_alias_target(aliases, f.value.id), f.attr)
        else:
            continue
        unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
        if callable(target) and not inspect.ismodule(target) and not unpacked:
            yield node.lineno, name, target, len(node.args), [k.arg for k in node.keywords]


def test_harness_calls_bind_to_their_signatures():
    # a call that passes one argument too many, or a renamed keyword, fails
    # here instead of in the benchmark's correctness checks
    bound = 0
    for path in HARNESS:
        for line, name, target, n_args, keywords in _pixelaoa_calls(path):
            try:
                inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{path.name}:{line}: {name}: {exc}")
            bound += 1
    assert bound >= 25


def test_public_names_resolve():
    for name in pixelaoa.__all__:
        assert hasattr(pixelaoa, name), name


# The traced run's attribute hooks read these arguments by position (or
# keyword) and these result attributes; a rename here would break --trace 1.

def _positional(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_traced_hook_signatures():
    assert _positional(kernels.fim_sweep)[:2] == ["e", "it"]             # _fim_post
    assert _positional(kernels.ml_scores) == ["basis", "rank", "y"]      # _ml_scores_post
    assert _positional(emdata.save_dataset)[1] == "path"                 # _saved_bytes
    # _objective_many_pre/_post and _ml_estimate_pre
    assert _positional(optimizer.ConfigEvaluator.objective_many)[:3] == ["self", "configs",
                                                                          "area"]
    assert _positional(simulate.ml_estimate)[:3] == ["y", "patterns", "search_area"]


def test_traced_ml_scores_basis_has_three_axes():
    # _ml_scores_post unpacks the basis shape as (G, N, 2)
    cand = simulate._CandidateGrid(upa_patterns(2, 2, 0.5, AngleGrid(step_deg=10.0)),
                                   SensingArea(60, 120, -30, 30))
    G, N, r = cand.basis.shape
    assert r == 2
    assert kernels.ml_scores(cand.basis, cand.rank, np.ones(N)).shape == (G,)
    assert kernels.ml_scores(cand.basis, cand.rank, np.ones((3, N))).shape == (3, G)


def test_harness_alternating_optimize_arguments():
    # checks.py passes the first seven by position
    assert _positional(optimizer.alternating_optimize)[:7] == [
        "dataset", "init_config", "area", "ga_params", "snr_linear", "max_outer", "feednet"]
    assert "evaluator" in inspect.signature(optimizer.alternating_optimize).parameters


def test_traced_hook_result_attributes():
    m = crlb_map(upa_patterns(2, 2, 0.5, AngleGrid(step_deg=10.0)), SensingArea(0, 180, 0, 90),
                 1.0)
    # _crlb_map_post
    assert m.n_points == 19 * 10
    assert m.singular.shape == (m.n_points,) and m.singular.dtype == bool


def test_traced_evaluator_counters():
    # _objective_many_pre/_post: evaluated = the rise of misses over one call
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=2),
                                    AngleGrid(step_deg=10.0))
    ev = optimizer.ConfigEvaluator(ds, 1.0)
    assert (ev.hits, ev.misses) == (0, 0)
    area = SensingArea(80, 100, -10, 10)
    a, b = GeometryConfig((0,), (0,)), GeometryConfig((0,), (1,))
    ev.objective_many([a, a], area)
    assert (ev.hits, ev.misses) == (1, 1)
    ev.objective_many([a, b, b], area)
    assert (ev.hits, ev.misses) == (3, 2)


@pytest.mark.parametrize("mode", ["numeric", "both"])
def test_traced_upa_map_is_one_crlb_map_call(tmp_path, monkeypatch, mode):
    # the upa workload's crlb.singular_points comes from the one crlb_map span
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return crlb_map(*args, **kwargs)

    monkeypatch.setattr(cli, "crlb_map", spy)
    assert cli.main(["crlb-map", "--upa", "2x2", "--area", "60:120:-30:30", "--step-deg", "5",
                     "--mode", mode, "--out", str(tmp_path / "map.csv")]) == 0
    assert len(calls) == 1
