"""Workload definitions: the CLI commands each workload runs, and why.

A workload is a list of ``pixelaoa`` subcommands run one after another in a
scratch directory, each in its own child interpreter (numpy backend,
``--threads 1``, single-threaded BLAS).  The seed feeds every command that
takes one; commands without randomness ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Self-reactance jitter of the synthetic dataset; nonzero so the dataset,
# and with it the codebook, depends on the workload seed.
JITTER_OHM = 1.0
# Sensing space shared by the optimizer and the worst_crlb_rad metric.
SPACE = "80:100:-10:10"
MC_ANGLES_UPA = "90,0;60,40"


@dataclass(frozen=True)
class Command:
    name: str                   # metric key: gen_dataset, optimize, crlb_map, ...
    argv: tuple[str, ...]       # arguments after ``pixelaoa``
    outputs: tuple[str, ...]    # files it writes, manifests aside


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


def codebook(seed: int) -> Workload:
    s = str(seed)
    return Workload(
        name="codebook",
        why=("Pixel-antenna pipeline on a 5x5-pixel, 2-degree dataset (65 ports): dataset "
             "I/O (a 53 MB v1 JSON file loaded four times), the loaded-port network solve "
             "(10132 solves), GA bookkeeping and 10244 small FIM sweeps, 10122 of them in "
             "optimize, carry the time; the ML search is small (121 candidates x 100 "
             "trials).  Counts from the traced run at seed 7."),
        commands=(
            Command("gen_dataset", ("gen-dataset", "--pixels", "5x5", "--step-deg", "2",
                                    "--jitter-ohm", str(JITTER_OHM), "--seed", s,
                                    "--out", "ds.json"), ("ds.json",)),
            Command("validate", ("validate", "--dataset", "ds.json"), ()),
            Command("optimize", ("optimize", "--dataset", "ds.json", "--n-active", "4",
                                 "--space", SPACE, "--schedule", "1,4", "--population", "60",
                                 "--generations", "15", "--seed", s, "--threads", "1",
                                 "--out", "cb.json", "--trace", "trace.csv"),
                    ("cb.json", "trace.csv")),
            Command("crlb_map", ("crlb-map", "--dataset", "ds.json", "--codebook", "cb.json",
                                 "--area", SPACE, "--threads", "1", "--out", "map.csv"),
                    ("map.csv",)),
            Command("montecarlo", ("montecarlo", "--dataset", "ds.json", "--codebook", "cb.json",
                                   "--angles", "90,0", "--snr-db-list", "10", "--trials", "100",
                                   "--seed", s, "--threads", "1", "--out", "mc.csv"),
                    ("mc.csv",)),
        ),
    )


def upa(seed: int) -> Workload:
    return Workload(
        name="upa",
        why=("4x4 UPA baseline with no dataset, network or optimizer: ML scoring (17061 "
             "candidates x 2400 trials) and one 130321-point FIM sweep (1444 singular "
             "points) carry the time, so kernel batch shapes differ from codebook.  Counts "
             "from the traced run; they are the same at every seed."),
        commands=(
            Command("crlb_map", ("crlb-map", "--upa", "4x4", "--area", "0:180:-90:90",
                                 "--step-deg", "0.5", "--mode", "both", "--threads", "1",
                                 "--out", "upa_map.csv"), ("upa_map.csv",)),
            Command("montecarlo", ("montecarlo", "--upa", "4x4", "--angles", MC_ANGLES_UPA,
                                   "--snr-db-list", "0,10,20", "--trials", "400",
                                   "--step-deg", "0.5", "--search-halfwidth-deg", "15",
                                   "--seed", str(seed), "--threads", "1",
                                   "--out", "upa_mc.csv"), ("upa_mc.csv",)),
        ),
    )


WORKLOADS = {"codebook": codebook, "upa": upa}


# Which end-to-end metric each per-layer metric should move, on which
# workload.  The end-to-end time is pipeline_s, the sum of the workload's
# commands; ``cmd.<name>_s`` are the per-command wall times the traced run
# reports, so each entry names the command the layer runs in.  Later
# changes cite these names when they claim a gain.
LAYER_MAP = {
    "emdata.generate_s": "cmd.gen_dataset_s -> pipeline_s on codebook",
    "emdata.save_s": "cmd.gen_dataset_s -> pipeline_s on codebook",
    "emdata.file_mb": "cmd.gen_dataset_s -> pipeline_s on codebook",
    "emdata.load_calls": "cmd.validate/optimize/crlb_map/montecarlo_s -> pipeline_s, "
                         "peak_rss_mb on codebook (0 on upa)",
    "emdata.load_s": "cmd.validate/optimize/crlb_map/montecarlo_s -> pipeline_s, "
                     "peak_rss_mb on codebook (0 on upa)",
    "emdata.upa_patterns_s": "cmd.crlb_map_s, cmd.montecarlo_s -> pipeline_s on upa",
    "network.load_correction_calls": "cmd.optimize_s -> pipeline_s on codebook",
    "network.load_correction_self_s": "cmd.optimize_s -> pipeline_s on codebook",
    "network.cond_calls": "cmd.optimize_s -> pipeline_s on codebook (per-solve SVD guard)",
    "network.cond_s": "cmd.optimize_s -> pipeline_s on codebook (per-solve SVD guard)",
    "network.overall_patterns_s": "cmd.crlb_map_s, cmd.montecarlo_s -> pipeline_s on codebook",
    "optimizer.configs_requested": "cmd.optimize_s -> pipeline_s on codebook",
    "optimizer.configs_evaluated": "cmd.optimize_s -> pipeline_s on codebook; read the "
                                   "optimize time with it",
    "optimizer.cache_hit_ratio": "cmd.optimize_s -> pipeline_s on codebook "
                                 "(base: configs requested)",
    "optimizer.evaluate_ms_per_config": "cmd.optimize_s -> pipeline_s on codebook "
                                        "(base: configs evaluated)",
    "optimizer.evaluate_self_s": "cmd.optimize_s -> pipeline_s on codebook "
                                 "(Schur assembly, e_oc.V projection, cache)",
    "optimizer.ga_self_s": "cmd.optimize_s -> pipeline_s on codebook",
    "optimizer.port_update_self_s": "cmd.optimize_s -> pipeline_s on codebook",
    "optimizer.inf_configs": "cmd.optimize_s -> pipeline_s on codebook (failed work)",
    "optimizer.codebook_io_s": "cmd.optimize/crlb_map/montecarlo_s -> pipeline_s on codebook",
    "kernels.fim_sweep_calls": "cmd.optimize_s on codebook (many small batches); "
                               "cmd.crlb_map_s on upa (one large batch) -> pipeline_s",
    "kernels.fim_sweep_points": "cmd.optimize_s on codebook; cmd.crlb_map_s on upa",
    "kernels.fim_sweep_s": "cmd.optimize_s on codebook; cmd.crlb_map_s on upa",
    "kernels.fim_sweep_mb": "cmd.optimize_s on codebook; cmd.crlb_map_s on upa (computed)",
    "kernels.ml_scores_calls": "cmd.montecarlo_s -> pipeline_s on upa (heavily), "
                               "codebook (slightly)",
    "kernels.ml_candidates": "cmd.montecarlo_s -> pipeline_s on upa (heavily), "
                             "codebook (slightly)",
    "kernels.ml_scores_s": "cmd.montecarlo_s -> pipeline_s on upa (heavily), "
                           "codebook (slightly)",
    "kernels.ml_scores_mb": "cmd.montecarlo_s -> pipeline_s on upa (computed)",
    "simulate.snapshot_s": "cmd.montecarlo_s -> pipeline_s on upa",
    "simulate.ml_estimate_self_s": "cmd.montecarlo_s -> pipeline_s on upa",
    "simulate.candidate_build_s": "cmd.montecarlo_s -> pipeline_s on upa",
    "simulate.ml_search_ms_per_snapshot": "cmd.montecarlo_s -> pipeline_s on upa",
    "crlb.crlb_map_calls": "cmd.crlb_map_s -> pipeline_s on upa and codebook",
    "crlb.crlb_map_self_s": "cmd.crlb_map_s -> pipeline_s on upa and codebook",
    "crlb.crlb_matrix_calls": "cmd.montecarlo_s -> pipeline_s on upa and codebook",
    "crlb.singular_points": "cmd.crlb_map_s on upa (exact count)",
    "cli.self_s": "cmd.crlb_map_s -> pipeline_s on upa (closed-form loop, CSV, "
                  "manifest SHA-256)",
}
