"""Run one pixelaoa CLI command with spans around the public layer functions.

Usage: python3 perfbench/traced_cli.py SPANS_JSON PIXELAOA_ARGS...

Each listed function is replaced, in every pixelaoa module namespace that
holds it, by a wrapper that records a span (name, start, end, parent span,
attributes).  Spans stay in memory and are written to SPANS_JSON when the
command returns.  The program itself is not edited; its outputs are the
same as an untraced run's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

import pixelaoa.cli as cli
from pixelaoa import crlb, emdata, kernels, network, optimizer, simulate

# [name, start, end, parent index, attrs or None]
SPANS: list = []
_STACK: list = []


def _wrap(fn, name, pre=None, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args, kwargs) if pre else None
        rec = [name, 0.0, 0.0, _STACK[-1] if _STACK else -1, None]
        _STACK.append(len(SPANS))
        SPANS.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            _STACK.pop()
        if post:
            rec[4] = post(state, args, kwargs, out)
        return out
    return wrapper


def _patch_function(module, attr, name, pre=None, post=None):
    """Rebind module.attr in every pixelaoa module that imported it."""
    orig = getattr(module, attr)
    wrapped = _wrap(orig, name, pre, post)
    holders = [module] + [m for k, m in list(sys.modules.items())
                          if k.startswith("pixelaoa") and m is not None]
    for m in holders:
        if getattr(m, attr, None) is orig:
            setattr(m, attr, wrapped)


# -- attribute hooks ------------------------------------------------------------

def _saved_bytes(state, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


_SEEN_CONFIGS: set = set()


def _objective_many_pre(args, kwargs):
    ev = args[0]
    return ev.hits, ev.misses


def _objective_many_post(state, args, kwargs, out):
    ev, configs, area = args[0], args[1], args[2] if len(args) > 2 else kwargs["area"]
    inf_new = 0
    for cfg, val in zip(configs, out):
        key = (id(ev), cfg.feed_ports, cfg.connections, area.bounds())
        if key not in _SEEN_CONFIGS:
            _SEEN_CONFIGS.add(key)
            inf_new += math.isinf(val)
    return {"requested": len(out), "evaluated": ev.misses - state[1], "inf": inf_new}


def _fim_post(state, args, kwargs, out):
    e, it = args[0], args[1]
    points, two_n = len(it), e.shape[0]
    # five complex128 stencil gathers of 2N entries per point, eight per-point
    # index/step inputs and five outputs of 8 bytes
    nbytes = points * (5 * two_n * 16 + 8 * 8 + 5 * 8)
    return {"points": points, "bytes": nbytes, "singular": int(np.count_nonzero(out[4]))}


def _ml_scores_post(state, args, kwargs, out):
    basis = args[0]
    g, n, r = basis.shape
    # basis (complex128), rank (int64), y (complex128) in; scores out
    return {"candidates": g, "bytes": g * n * r * 16 + g * 8 + n * 16 + g * 8}


_SEEN_SEARCHES: set = set()


def _ml_estimate_pre(args, kwargs):
    patterns = args[1]
    area = args[2] if len(args) > 2 else kwargs["search_area"]
    key = (id(patterns), area.bounds())
    first = key not in _SEEN_SEARCHES
    _SEEN_SEARCHES.add(key)
    return first


def _ml_estimate_post(state, args, kwargs, out):
    return {"first": state}


def _crlb_map_post(state, args, kwargs, out):
    return {"points": int(out.n_points), "singular": int(np.count_nonzero(out.singular))}


def install() -> None:
    _patch_function(emdata, "generate_synthetic_dataset", "emdata.generate_synthetic_dataset")
    _patch_function(emdata, "save_dataset", "emdata.save_dataset", post=_saved_bytes)
    _patch_function(emdata, "load_dataset", "emdata.load_dataset")
    _patch_function(emdata, "upa_patterns", "emdata.upa_patterns")
    _patch_function(network, "load_correction", "network.load_correction")
    _patch_function(network, "overall_patterns", "network.overall_patterns")
    np.linalg.cond = _wrap(np.linalg.cond, "numpy.linalg.cond")
    _patch_function(optimizer, "ga_optimize_connections", "optimizer.ga_optimize_connections")
    _patch_function(optimizer, "sequential_port_update", "optimizer.sequential_port_update")
    _patch_function(optimizer, "save_codebook", "optimizer.save_codebook")
    _patch_function(optimizer, "load_codebook", "optimizer.load_codebook")
    cls = optimizer.ConfigEvaluator
    cls.objective_many = _wrap(cls.objective_many, "optimizer.ConfigEvaluator.objective_many",
                               _objective_many_pre, _objective_many_post)
    _patch_function(kernels, "fim_sweep", "kernels.fim_sweep", post=_fim_post)
    _patch_function(kernels, "ml_scores", "kernels.ml_scores", post=_ml_scores_post)
    _patch_function(simulate, "simulate_snapshot", "simulate.simulate_snapshot")
    _patch_function(simulate, "ml_estimate", "simulate.ml_estimate",
                    _ml_estimate_pre, _ml_estimate_post)
    _patch_function(crlb, "crlb_map", "crlb.crlb_map", post=_crlb_map_post)
    _patch_function(crlb, "crlb_matrix", "crlb.crlb_matrix")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    install()
    root = _wrap(cli.main, "cli.main")
    try:
        return root(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(SPANS, fh)


if __name__ == "__main__":
    sys.exit(main())
