#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pixelaoa CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload codebook|upa --seed N --seconds S --trace 0|1

Each CLI command runs in its own child interpreter from ``src/`` (numpy
backend, ``--threads 1``, single-threaded BLAS), one at a time, so the load
comes from this single process.  With ``--trace 0`` the workload's command
sequence (one pass) repeats until ``--seconds`` have passed (at least once),
and every end-to-end metric is the median over passes.  With ``--trace 1``
one untraced and one traced pass run back to back and the per-layer metrics
come from the spans of the traced pass.  Every pass's outputs must be
byte-identical, and the last pass's outputs are checked against the oracles
in checks.py.  Human-readable lines go first; the last line of stdout is the
JSON result.  Exits 2 without a result when the checkout holds no program.

Scaled times.  On a shared machine the CPU speed drifts by tens of percent
within minutes, and identical work drifts with it.  This process, its
threads and its children are pinned to one CPU.  While each child runs, a
thread of this process times a fixed probe (a pure-Python loop plus one pass
over 8 MB of memory) in thread CPU seconds every PROBE_PERIOD_S, the first at
once, and the child's wall time is reported multiplied by PROBE_NOMINAL_S
over the mean probe time: seconds at the speed where the probe takes
PROBE_NOMINAL_S.  The probe and the child take turns on the CPU instead of
running side by side, and the probe's CPU time leaves out the turns of the
child, so the child's own load does not slow the probe; what the two share is
the speed of the CPU.  Raw walls are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread limits)

PROBE_PERIOD_S = 0.5
PROBE_NOMINAL_S = 0.006   # about the probe's CPU time on a 2-vCPU Xeon VM
SETUP_GROUP = 3           # set-up samples taken at the start and after each command
RUN_BUDGET_S = 140.0      # no new pass starts that could end after this (checks follow)
SETUP_ARGV = (sys.executable, "-c", "import pixelaoa.cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PIXELAOA_BACKEND"] = "numpy"
    return env


_PROBE_MEMORY = np.ones(1 << 19, dtype=np.complex128)     # 8 MB


def probe_s() -> float:
    """Thread CPU time of a fixed pure-Python loop plus one pass over 8 MB of memory."""
    t0 = time.thread_time()
    acc = 0
    for i in range(50_000):
        acc += i * i
    acc += float(np.abs(_PROBE_MEMORY).sum())
    return time.thread_time() - t0


def _probe_until(stop: threading.Event, samples: list) -> None:
    samples.append(probe_s())
    while not stop.wait(PROBE_PERIOD_S):
        samples.append(probe_s())


def run_child(argv, cwd: Path, stdout_path: Path, deadline: float) -> dict:
    """Raw and scaled wall seconds, exit code and peak RSS (MB) of one child."""
    samples: list = []
    stop = threading.Event()
    prober = threading.Thread(target=_probe_until, args=(stop, samples))
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        prober.start()
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            stop.set()
        wall = time.perf_counter() - t0
        prober.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "scaled": wall * PROBE_NOMINAL_S / statistics.mean(samples),
            "rc": proc.returncode, "rss": usage.ru_maxrss / 1024.0}


def sample_setup(work: Path, deadline: float, raw: list, scaled: list) -> None:
    """Time SETUP_GROUP child interpreter starts with ``import pixelaoa.cli``."""
    for _ in range(SETUP_GROUP):
        r = run_child(SETUP_ARGV, work, work / "setup.out", deadline)
        if r["rc"] != 0:
            raise RuntimeError((work / "setup.stderr").read_text())
        raw.append(r["wall"])
        scaled.append(r["scaled"])


def run_pass(wl, work: Path, deadline: float, setup: tuple,
             spans_dir: Path | None = None) -> dict:
    """One pass over the workload's commands: walls, exit codes, RSS, output digests.

    A set-up group runs after every command, so set-up samples spread over
    the whole run.
    """
    res = {"wall": {}, "scaled": {}, "rc": {}, "rss": {}, "digest": {}, "stdout": {}}
    for cmd in wl.commands:
        if spans_dir is None:
            argv = [sys.executable, "-m", "pixelaoa.cli", *cmd.argv]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                    str(spans_dir / f"{cmd.name}.json"), *cmd.argv]
        out = work / f"{cmd.name}.stdout"
        r = run_child(argv, work, out, deadline)
        for key in ("wall", "scaled", "rc", "rss"):
            res[key][cmd.name] = r[key]
        res["stdout"][cmd.name] = out.read_text()
        h = hashlib.sha256(out.read_bytes())
        for name in cmd.outputs:
            if (work / name).exists():
                h.update((work / name).read_bytes())
        res["digest"][cmd.name] = h.hexdigest()
        if r["rc"] != 0:
            print(f"  {cmd.name} exited {r['rc']}: "
                  f"{out.with_suffix('.stderr').read_text()[-2000:]}", file=sys.stderr)
            break
        sample_setup(work, deadline, *setup)
    return res


def failed_commands(wl, passes, check_fails) -> set:
    """Commands that exited non-zero, changed output between passes, or failed a check."""
    bad = set()
    for p in passes:
        for cmd in wl.commands:
            if p["rc"].get(cmd.name, 1) != 0:
                bad.add(cmd.name)
            elif p["digest"].get(cmd.name) != passes[0]["digest"].get(cmd.name):
                bad.add(cmd.name)
                print(f"  check failed: {cmd.name} output differs between passes",
                      file=sys.stderr)
    for cmd, msg in check_fails:
        print(f"  check failed: {cmd}: {msg}", file=sys.stderr)
        bad.add(cmd)
    return bad


def run_checks(wl, work: Path, seed: int, last_pass: dict):
    """(failures, worst_crlb_rad, singular CRLB points or None)."""
    import checks
    if wl.name == "codebook":
        fails, worst = checks.codebook_checks(work, seed, last_pass["stdout"])
        return fails, worst, None
    return checks.upa_checks(work, seed)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "pixelaoa" / "cli.py").is_file():
        print(f"no pixelaoa sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import LAYER_MAP, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    # Threads and children started from here on inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    deadline = started + 170.0
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"workload {wl.name} seed {args.seed}: {wl.why}")
        run_child(SETUP_ARGV, work, work / "setup.out", deadline)     # fills __pycache__
        setup = ([], [])
        sample_setup(work, deadline, *setup)
        passes = []
        if args.trace:
            spans = work / "spans"
            spans.mkdir()
            passes.append(run_pass(wl, work, deadline, setup))
            passes.append(run_pass(wl, work, deadline, setup, spans_dir=spans))
        else:
            t0 = time.monotonic()
            while True:
                p0 = time.monotonic()
                passes.append(run_pass(wl, work, deadline, setup))
                now = time.monotonic()
                if (any(passes[-1]["rc"].values())
                        or now - t0 >= args.seconds
                        or now - started + 1.2 * (now - p0) > RUN_BUDGET_S):
                    break
        for i, p in enumerate(passes):
            kind = "traced" if args.trace and i == 1 else "untraced"
            print(f"pass {i + 1} ({kind}), raw / scaled s: " + ", ".join(
                f"{k} {p['wall'][k]:.3f} / {p['scaled'][k]:.3f}" for k in p["wall"]))
        setup_s = statistics.median(setup[1])
        print(f"setup: {statistics.median(setup[0]):.4f} s raw, {setup_s:.4f} s scaled, "
              f"median of {len(setup[0])}")

        ran_clean = all(len(p["rc"]) == len(wl.commands) and not any(p["rc"].values())
                        for p in passes)
        check_fails, worst, singular = (run_checks(wl, work, args.seed, passes[-1])
                                        if ran_clean else ([], None, None))
        bad = failed_commands(wl, passes, check_fails)

        if args.trace:
            import layers
            span_files = sorted(spans.glob("*.json"))
            metrics = layers.layer_metrics(span_files, passes[0], passes[1])
            traced_singular = metrics["crlb.singular_points"]["value"]
            if singular is not None and traced_singular != singular:
                print(f"  check failed: traced singular count {traced_singular} != "
                      f"CSV {singular}", file=sys.stderr)
                bad.add("crlb_map")
            for name, m in metrics.items():
                print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:6s} "
                      f"{LAYER_MAP.get(name, '')}")
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "pipeline_s": metric(statistics.median(sum(p["scaled"].values())
                                                       for p in passes), "s"),
                "peak_rss_mb": metric(max(v for p in passes for v in p["rss"].values()), "MB"),
                "worst_crlb_rad": metric(worst, "rad"),
            }
            for name, m in metrics.items():
                print(f"  {name:16s} {m['value']} {m['unit']}")
            if singular is not None:
                print(f"  crlb singular points: {singular}")
        attempted = sum(len(p["rc"]) for p in passes)
        failed = sum(name in bad for p in passes for name in p["rc"])
        result = {"correct": not bad, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
