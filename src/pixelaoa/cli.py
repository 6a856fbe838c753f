"""Command-line interface.

Subcommands: gen-dataset, validate, optimize, crlb-map, compare, montecarlo,
export-plots; only gen-dataset, optimize and montecarlo take --seed, and a
flag only another path of a command reads (PATH_FLAGS) exits 2.  Each command
returns the files it read and wrote; main times it and, when it wrote any,
writes one JSON manifest beside the first with the resolved parameters (null
for other paths' flags) and digests, so the manifest alone reproduces it.

A codebook records the SNR, source impedance and FD step it was scored under
and is the one source of the latter two: only optimize takes --z0-ohm, and
--fd-step-deg only optimize and the --upa paths of crlb-map and montecarlo
(compare's UPA takes the HRPA codebook's step).  _load_codebook_for rescores
every leaf under those settings and rejects a stale codebook (exit 3).

_geometry_groups owns which geometry serves an angle and builds its
patterns, a codebook geometry's projected (network.project) or the --upa
baseline's (_upa), on one window rule for every source: crlb.fd_window of
the area (or Monte-Carlo search box) on the source's grid; no command
projects onto the whole dataset grid.  crlb-map --upa builds its window one
theta band (crlb.theta_bands) at a time; compare reduces two crlb-map
tables per leaf.

Exit codes: 0 success, 2 flag/parameter validation, 3 file I/O or format,
4 dataset validation, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .crlb import (
    MAP_HEADER,
    SensingArea,
    crlb_map,
    crlb_points,
    fd_stencil,
    fd_window,
    theta_bands,
    upa_crlb_closed_form_map,
    write_csv,
    write_csv_blocks,
)
from .emdata import (
    DipoleModelParams,
    PatternSet,
    PortLayout,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    upa_patterns,
    validate_dataset,
)
from .errors import (
    ConfigError,
    CoverageError,
    DatasetFormatError,
    DatasetValidationError,
    EstimationError,
    GridError,
    NumericalError,
    PixelAoAError,
    ScheduleError,
)
from .grid import AngleGrid, line_index
from .network import FeedNetworkConfig, project, solve_network
from .optimizer import (
    Codebook,
    ConfigEvaluator,
    GAParams,
    OptimizationTrace,
    SubdivisionSchedule,
    build_codebook,
    codebook_leaves,
    export_trace,
    load_codebook,
    save_codebook,
)
from .simulate import MonteCarloReport, export_report, monte_carlo_rmse

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5


# ---------------------------------------------------------------------------
# small parsers
# ---------------------------------------------------------------------------

def _parse_pixels(text: str, flag: str) -> tuple[int, int]:
    try:
        r, c = (int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"{flag} expects RxC, got {text!r}") from exc
    if min(r, c) < 1:
        raise ConfigError(f"{flag} expects at least 1x1, got {text!r}")
    return r, c


def _parse_area(text: str) -> SensingArea:
    try:
        t0, t1, p0, p1 = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--area expects tmin:tmax:pmin:pmax, got {text!r}") from exc
    return SensingArea(t0, t1, p0, p1)


def _parse_angles(text: str) -> list[tuple[float, float]]:
    out = []
    for chunk in text.split(";"):
        try:
            th, ph = (float(x) for x in chunk.split(","))
        except ValueError as exc:
            raise ConfigError(f"--angles expects theta,phi pairs separated by ';', "
                              f"got {chunk!r}") from exc
        out.append((th, ph))
    return out


def _parse_list(text: str, flag: str, kind) -> list:
    """Comma-separated values of one type, as --snr-db-list and --schedule take them."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated {kind.__name__} values, "
                          f"got {text!r}") from exc


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args: argparse.Namespace, inputs, outputs, started: float) -> None:
    outputs = [Path(p) for p in outputs]
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).exists()},
        "outputs": {str(p): _sha256(p) for p in outputs if p.exists()},
        "seed": getattr(args, "seed", None),
        "duration_s": round(time.time() - started, 3),
    }
    path = outputs[0].with_suffix(outputs[0].suffix + ".manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)
        fh.write("\n")


def _upa(args):
    """The --upa baseline: a function from a window to the UPA's patterns on it."""
    ny, nz = _parse_pixels(args.upa, "--upa")
    return lambda window: upa_patterns(ny, nz, args.spacing, window, element=args.element)


def _load_codebook_for(path, ds) -> Codebook:
    """load_codebook, rejecting a codebook built for another port count than the
    dataset's, and a stale one: each leaf is scored on the dataset under the
    codebook's own SNR, feed network and FD step, and must give its
    objective_rad (rel 1e-9), on a window of the dataset's grid lines."""
    cb = load_codebook(path)
    if (cb.n_feed, cb.n_loaded) != (ds.n_feed, ds.n_loaded):
        raise DatasetFormatError(
            f"{path}: codebook is for {cb.n_feed} feed + {cb.n_loaded} loaded ports, "
            f"the dataset has {ds.n_feed} + {ds.n_loaded}")
    ev = ConfigEvaluator(ds, cb.snr_linear, cb.feednet, cb.fd_step_deg)
    for cw in cb.codewords:
        try:
            got = ev.objective(cw.config, cw.area)
        except GridError as exc:
            raise DatasetFormatError(
                f"{path}: leaf {cw.area.label()} does not fit the dataset grid ({exc})") from exc
        if not math.isclose(got, cw.objective, rel_tol=1e-9):    # inf is close to inf
            raise DatasetFormatError(
                f"{path}: leaf {cw.area.label()} scores {got:.6g} rad on this dataset, not "
                f"its objective_rad {cw.objective:.6g}: the codebook is stale; re-run "
                f"`pixelaoa optimize`")
    return cb


def _geometry_groups(source, theta_deg, phi_deg, window: AngleGrid):
    """Yield (patterns on window, indices of the points they serve) per
    geometry, in the order of each geometry's first point: a UPA source (_upa)
    serves every point, a (dataset, codebook) source each with its leaf's
    geometry, solved under the codebook's feed network; a group's patterns
    are built on window when it is reached."""
    if callable(source):
        yield source(window), np.arange(len(theta_deg))
        return
    ds, cb = source
    e = ds.window(window)
    configs = [cw.config for cw in cb.codewords]
    geom = np.array([configs.index(c) for c in configs])[codebook_leaves(cb, theta_deg, phi_deg)]
    for g in geom[np.sort(np.unique(geom, return_index=True)[1])]:
        V = solve_network(ds, [configs[g]], cb.feednet).V
        yield PatternSet(window, project(e, V)[0]), np.flatnonzero(geom == g)


def _area_table(source, area: SensingArea, grid: AngleGrid, snr: float, fd_step_deg):
    """(theta, phi, table) over the area's points on grid, each point under
    the geometry that serves it, whose patterns are built on the area's FD
    window.  Table rows are c_tt, c_tp, c_pp and objective; a codebook
    source's fd_step_deg is the codebook's own."""
    window = fd_window(area, grid, fd_step_deg)
    it, ip = area.points(window)
    th, ph = window.theta_deg[it], window.phi_deg[ip]
    table = np.empty((4, th.size))
    for pats, ks in _geometry_groups(source, th, ph, window):
        table[:, ks] = crlb_points(pats.data, window, it[ks], ip[ks], snr, fd_step_deg)[:4]
        del pats                        # one geometry's patterns alive at a time
    return th, ph, table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_dataset(args) -> tuple[list, list]:
    _resolve_out(args, "dataset.json")
    rows, cols = _parse_pixels(args.pixels, "--pixels")
    layout = PortLayout(pixel_rows=rows, pixel_cols=cols, substrate_side_mm=args.substrate_mm,
                        height_mm=args.height_mm, frequency_hz=args.freq_hz)
    grid = AngleGrid(step_deg=args.step_deg)
    params = DipoleModelParams(
        self_reactance_jitter_ohm=args.jitter_ohm,
        feed_resistance_target_ohm=args.target_r_ohm,
        include_sin_theta=not args.literal_measure,
    )
    ds = generate_synthetic_dataset(layout, grid, params, seed=args.seed)
    _make_out_dir(args)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_ports} ports "
          f"({ds.n_feed} feed + {ds.n_loaded} loaded), {grid.n_points} grid points")
    return [], [args.out]


def cmd_validate(args) -> tuple[list, list]:
    ds = load_dataset(args.dataset, strict=False)
    report = validate_dataset(ds)
    print(report)
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        raise DatasetValidationError(f"{args.dataset}: failed {'; '.join(failed)}")
    return [], []


def cmd_optimize(args) -> tuple[list, list]:
    _resolve_out(args, "codebook.json")
    if args.trace:
        args.trace = _in_out_dir(args, args.trace)
    ds = load_dataset(args.dataset)
    space = _parse_area(args.space)
    factors = tuple(_parse_list(args.schedule, "--schedule", int))
    axes = tuple(args.axes.split(",")) if args.axes else ("both",) * len(factors)
    schedule = SubdivisionSchedule(space=space, factors=factors, axes=axes)
    ga = GAParams(population=args.population, generations=args.generations,
                  crossover_prob=args.crossover_prob, mutation_prob=args.mutation_prob,
                  tournament_size=args.tournament, elite_count=args.elite, seed=args.seed)
    feednet = FeedNetworkConfig(source_impedance_ohm=args.z0_ohm)
    cb = build_codebook(
        ds, schedule, ga, snr_linear=_db_to_linear(args.snr_db),
        n_active=args.n_active, max_outer=args.max_outer, feednet=feednet,
        fd_step_deg=args.fd_step_deg)
    _make_out_dir(args)
    save_codebook(cb, args.out)
    outputs = [args.out]
    if args.trace:                      # areas in optimization order
        export_trace(OptimizationTrace([r for tr in cb.traces.values() for r in tr.records]),
                     args.trace)
        outputs.append(args.trace)
    for cw in cb.codewords:
        print(f"{cw.area.label()}: objective {cw.objective:.4g} rad, "
              f"ports {[i + 1 for i in cw.config.feed_ports]}, "
              f"iterations {cw.iterations_used}")
    return [args.dataset], outputs


def cmd_crlb_map(args) -> tuple[list, list]:
    """Write the per-angle CRLB table over --area and print its worst objective.

    --upa sweeps the area in bands of whole theta rows (crlb.theta_bands): per
    band it builds the UPA patterns on the band's FD window, runs crlb_map,
    adds the closed-form columns and appends the rows to the CSV, so its
    memory is bounded by a band, not by the area.  --codebook scores every
    point under the geometry of the leaf that serves it.
    """
    _resolve_out(args, "crlb_map.csv")
    area = _parse_area(args.area)
    snr = _db_to_linear(args.snr_db)
    inputs = []
    header = MAP_HEADER

    if args.upa:
        ny, nz = _parse_pixels(args.upa, "--upa")
        if args.mode != "numeric" and args.element != "iso-theta":
            raise ConfigError(f"--mode {args.mode} writes the iso-theta closed form; "
                              f"use --mode numeric with --element {args.element}")
        if args.mode == "closed-form" and args.fd_step_deg is not None:
            raise ConfigError("--fd-step-deg has no effect with --mode closed-form")
        if args.mode == "both":
            header += ",c_tt_cf,c_tp_cf,c_pp_cf,objective_cf"
        sphere = AngleGrid(step_deg=args.step_deg)
        upa = _upa(args)
        worsts = []

        def band_columns(band: SensingArea):
            it, ip = band.points(sphere)
            th, ph = sphere.theta_deg[it], sphere.phi_deg[ip]
            numeric = ()
            if args.mode != "closed-form":
                m = crlb_map(upa(fd_window(band, sphere, args.fd_step_deg)), band, snr,
                             fd_step_deg=args.fd_step_deg)
                numeric = (m.c_tt, m.c_tp, m.c_pp, m.objective)
            closed = (() if args.mode == "numeric" else
                      upa_crlb_closed_form_map(ny, nz, args.spacing, th, ph, snr)[:4])
            worsts.append((numeric or closed)[3].max())
            return th, ph, *numeric, *closed

        # every band's stencils are the sphere's, so one that does not fit the
        # sphere is rejected here, before a row is written
        fd_stencil(sphere, area.indices(sphere)[0], 0, args.fd_step_deg)
        ports = ny * nz * (2 if args.element == "iso-dual" else 1)
        row_bytes = 2 * ports * 16 * fd_window(area, sphere, args.fd_step_deg).n_phi
        blocks = map(band_columns, theta_bands(area, sphere, row_bytes))
        blocks = itertools.chain([next(blocks)], blocks)    # bad flags fail before any write
    else:
        ds = load_dataset(args.dataset)
        cb = _load_codebook_for(args.codebook, ds)
        inputs = [args.dataset, args.codebook]
        th, ph, table = _area_table((ds, cb), area, ds.grid, snr, cb.fd_step_deg)
        blocks = [(th, ph, *table)]
        worsts = [table[3].max()]
    _make_out_dir(args)
    write_csv_blocks(args.out, header, blocks)
    worst = float(np.max(worsts))
    print(f"worst objective over {area.label()}: {worst:.6g} rad")
    return inputs, [args.out]


def cmd_compare(args) -> tuple[list, list]:
    _resolve_out(args, "compare.csv")
    ds = load_dataset(args.dataset)
    cb = _load_codebook_for(args.codebook, ds)
    inputs = [args.dataset, args.codebook]

    # each side with its FD step: a baseline codebook's own, the UPA the HRPA's
    if args.baseline_codebook:
        base = _load_codebook_for(args.baseline_codebook, ds)
        baseline = ((ds, base), base.fd_step_deg)
        inputs.append(args.baseline_codebook)
    else:
        baseline = (_upa(args), cb.fd_step_deg)

    # each side's table over the codebook space, reduced over every leaf's closed area
    tables = [_area_table(s, cb.space, ds.grid, _db_to_linear(args.snr_db), fd)
              for s, fd in (((ds, cb), cb.fd_step_deg), baseline)]
    rows = []
    for cw in cb.codewords:
        t0, t1, p0, p1 = bounds = cw.area.bounds()
        hrpa, base = (float(table[3][(t0 <= th) & (th <= t1) & (p0 <= ph) & (ph <= p1)].max())
                      for th, ph, table in tables)
        # no improvement is measured against a singular (+inf) side
        singular = " and ".join(s for s, v in (("hrpa", hrpa), ("baseline", base)) if math.isinf(v))
        improvement = math.nan if singular else 0.0 if base == 0.0 else 1.0 - hrpa / base
        rows.append((*bounds, hrpa, base, improvement))
        print(f"{cw.area.label()}: hrpa {hrpa:.4g}, baseline {base:.4g}, improvement "
              + (f"undefined ({singular} singular)" if singular else f"{improvement:.1%}"))
    _make_out_dir(args)
    write_csv(args.out, "theta_min_deg,theta_max_deg,phi_min_deg,phi_max_deg,"
                        "hrpa_worst,baseline_worst,improvement", zip(*rows))
    return inputs, [args.out]


def _search_box(angles, halfwidth_deg: float, grid: AngleGrid) -> SensingArea:
    """The grid angles' bounding box widened by the search half-width and
    clipped to grid, by line index: every edge is a line of grid."""
    h = line_index(halfwidth_deg, grid.step_deg)
    if h is None or h < 1:
        raise ConfigError(f"--search-halfwidth-deg {halfwidth_deg} must be a positive "
                          f"multiple of the grid step {grid.step_deg}")
    it, ip = zip(*((grid.theta_index(th), grid.phi_index(ph)) for th, ph in angles))
    th, ph = grid.theta_deg.tolist(), grid.phi_deg.tolist()
    return SensingArea(th[max(0, min(it) - h)], th[min(grid.n_theta - 1, max(it) + h)],
                       ph[max(0, min(ip) - h)], ph[min(grid.n_phi - 1, max(ip) + h)])


def cmd_montecarlo(args) -> tuple[list, list]:
    _resolve_out(args, "montecarlo.csv")
    angles = _parse_angles(args.angles)
    snr_list = [_db_to_linear(x) for x in _parse_list(args.snr_db_list, "--snr-db-list", float)]
    inputs = []
    hw = args.search_halfwidth_deg

    # one search per geometry: the UPA's angles, or one codebook geometry's, together
    if args.upa:
        grid, source, fd = AngleGrid(step_deg=args.step_deg), _upa(args), args.fd_step_deg
    else:
        ds = load_dataset(args.dataset)
        cb = _load_codebook_for(args.codebook, ds)
        grid, source, fd = ds.grid, (ds, cb), cb.fd_step_deg
        inputs = [args.dataset, args.codebook]
    window = fd_window(_search_box(angles, hw, grid), grid, fd)

    per_angle = [()] * len(angles)
    for pats, ks in _geometry_groups(source, *zip(*angles), window):
        group = [angles[k] for k in ks]
        report = monte_carlo_rmse(pats, group, snr_list, trials=args.trials, seed=args.seed,
                                  search_area=_search_box(group, hw, pats.grid),
                                  refine=not args.no_refine, fd_step_deg=fd)
        del pats                        # one geometry's patterns held at a time
        for j, k in enumerate(ks):
            per_angle[k] = report.records[j * len(snr_list):(j + 1) * len(snr_list)]
    report = MonteCarloReport(tuple(r for recs in per_angle for r in recs))

    _make_out_dir(args)
    export_report(report, args.out)
    for r in report.records:
        print(f"({r.theta_deg:g},{r.phi_deg:g}) snr {10 * math.log10(r.snr_linear):.0f} dB: "
              f"rmse_theta {r.rmse_theta_rad:.4g} rad (crlb {r.crlb_theta_rad:.4g}), "
              f"rmse_phi {r.rmse_phi_rad:.4g} rad (crlb {r.crlb_phi_rad:.4g})")
    return inputs, [args.out]


def cmd_export_plots(args) -> tuple[list, list]:
    if not args.out_dir:
        raise ConfigError("export-plots needs --out-dir")
    outdir = Path(args.out_dir)
    ds = load_dataset(args.dataset)
    inputs = [args.dataset]
    if args.fig == "area-size":
        area = _parse_area(args.eval_area)
        snr = _db_to_linear(args.snr_db)
        rows = []
        for p in args.codebooks.split(","):
            cb = _load_codebook_for(p, ds)
            inputs.append(p)
            size = cb.space.theta_max_deg - cb.space.theta_min_deg
            table = _area_table((ds, cb), area, ds.grid, snr, cb.fd_step_deg)[2]
            rows.append((size, float(table[3].max())))
        path, header = outdir / "area_size_sweep.csv", "area_size_deg,worst_objective"

    else:                                   # port-count
        rows = []
        for p in args.codebooks.split(","):
            cb = _load_codebook_for(p, ds)
            inputs.append(p)
            rows.append((len(cb.codewords[0].config.feed_ports),
                         max(cw.objective for cw in cb.codewords)))
        path, header = outdir / "port_count_tradeoff.csv", "n_active,worst_objective"

    _make_out_dir(args)
    write_csv(path, header, zip(*sorted(rows)))       # rows by their first column
    print(f"wrote {path}")
    return inputs, [path]


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _in_out_dir(args, path) -> str:
    """path, under --out-dir when it is relative."""
    path = Path(path)
    if args.out_dir and not path.is_absolute():
        path = Path(args.out_dir) / path
    return str(path)


def _resolve_out(args, default_name: str) -> None:
    """Combine --out and --out-dir; --out defaults to a per-command name."""
    args.out = _in_out_dir(args, default_name if args.out is None else args.out)


def _make_out_dir(args) -> None:
    """Create --out-dir.  Commands call this just before their first write, so a
    run that fails on a flag or an input file leaves no directory behind."""
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)


NEEDED = object()                   # PATH_FLAGS mark: the path cannot run without the flag
_UPA = {"upa": NEEDED, "spacing": 0.5, "element": "iso-theta"}
_BOOK = {"dataset": NEEDED, "codebook": NEEDED}

# Per command and path, the flags only some of the command's paths read, with the
# default the path fills in; they all parse to None.  A path is named by the flag
# that selects it (by --fig's value on export-plots); the first one given is taken.
PATH_FLAGS = {
    "crlb-map": {"upa": {**_UPA, "step_deg": 1.0, "mode": "both", "fd_step_deg": None},
                 "codebook": _BOOK},
    "montecarlo": {"upa": {**_UPA, "step_deg": 1.0, "fd_step_deg": None}, "codebook": _BOOK},
    "compare": {"baseline_codebook": {"baseline_codebook": NEEDED}, "upa": _UPA},
    "export-plots": {"area-size": {"codebooks": NEEDED, "eval_area": NEEDED, "snr_db": 0.0},
                     "port-count": {"codebooks": NEEDED}},
}


def apply_path_flags(args) -> None:
    """Fill in the taken path's defaults; reject other paths' flags and missing needed ones."""
    paths = PATH_FLAGS[args.command]
    flag = {d: "--" + d.replace("_", "-") for own in paths.values() for d in own}
    taken = getattr(args, "fig", None) or next((p for p in paths if getattr(args, p)), None)
    if taken is None:
        ways = (" with ".join(flag[d] for d, v in own.items() if v is NEEDED)
                for own in paths.values())
        raise ConfigError(f"{args.command} needs {', or '.join(ways)}")
    own = paths[taken]
    label = f"{args.command} " + (f"--fig {taken}" if "fig" in args else flag[taken])
    foreign = [flag[d] for d in flag if d not in own and getattr(args, d) is not None]
    if foreign:
        raise ConfigError(f"{label} does not take {', '.join(foreign)}")
    missing = [flag[d] for d, v in own.items() if v is NEEDED and not getattr(args, d)]
    if missing:
        raise ConfigError(f"{label} needs {', '.join(missing)}")
    vars(args).update({d: v for d, v in own.items() if getattr(args, d) is None})


def _add_snr_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snr-db", type=float, default=0.0, help="SNR in dB (default 0)")


def _add_fd_step_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fd-step-deg", type=float,
                   help="finite-difference step (default: grid step)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--out-dir", default=None, help="directory for outputs")


def _add_upa_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--upa", default=None, help="baseline array as NYxNZ, e.g. 2x2")
    p.add_argument("--spacing", type=float, help="element spacing over lambda (default 0.5)")
    p.add_argument("--element", choices=["iso-theta", "iso-dual"], help="default iso-theta")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pixelaoa",
                                 description="pixel-antenna AoA sensing toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a synthetic coupled-dipole dataset")
    p.add_argument("--pixels", default="5x5", help="pixel grid RxC (default 5x5)")
    p.add_argument("--substrate-mm", type=float, default=62.5)
    p.add_argument("--height-mm", type=float, default=12.5)
    p.add_argument("--freq-hz", type=float, default=2.4e9)
    p.add_argument("--step-deg", type=float, default=1.0)
    p.add_argument("--jitter-ohm", type=float, default=0.0,
                   help="self-reactance jitter amplitude (seed-dependent when > 0)")
    p.add_argument("--target-r-ohm", type=float, default=50.0)
    p.add_argument("--literal-measure", action="store_true",
                   help="use the literal dtheta*dphi quadrature (no sin theta)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None, help="directory for outputs")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("validate", help="physical consistency report for a dataset file")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("optimize", help="build a geometry codebook over an angular space")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n-active", type=int, default=8, help="active feed ports (default 8)")
    p.add_argument("--space", required=True, help="tmin:tmax:pmin:pmax in degrees")
    p.add_argument("--schedule", default="1", help="subdivision factors, e.g. 1,4,4")
    p.add_argument("--axes", default=None, help="per-stage split axes, e.g. both,both")
    p.add_argument("--population", type=int, default=500)
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--crossover-prob", type=float, default=0.9)
    p.add_argument("--mutation-prob", type=float, default=None)
    p.add_argument("--tournament", type=int, default=3)
    p.add_argument("--elite", type=int, default=2)
    p.add_argument("--max-outer", type=int, default=20)
    p.add_argument("--trace", default=None,
                   help="optional trace CSV path, under --out-dir when relative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--z0-ohm", type=complex, default=50.0 + 0.0j,
                   help="source impedance of each active RF chain (default 50)")
    _add_fd_step_flag(p)
    _add_snr_flag(p)
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("crlb-map", help="per-angle CRLB table over an area")
    p.add_argument("--dataset", default=None)
    p.add_argument("--codebook", default=None)
    _add_upa_flags(p)
    p.add_argument("--mode", choices=["numeric", "closed-form", "both"],
                   help="for --upa: which bound(s) to emit (default both)")
    p.add_argument("--area", required=True)
    p.add_argument("--step-deg", type=float, help="grid step for --upa (default 1)")
    _add_fd_step_flag(p)
    p.add_argument("--out", default=None)
    _add_snr_flag(p)
    _add_common(p)
    p.set_defaults(func=cmd_crlb_map)

    p = sub.add_parser("compare", help="worst objective per codebook area vs a baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--baseline-codebook", default=None)
    _add_upa_flags(p)
    p.add_argument("--out", default=None)
    _add_snr_flag(p)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    # no abbreviations, so --snr-db is rejected instead of read as --snr-db-list
    p = sub.add_parser("montecarlo", help="empirical RMSE of the ML estimator vs CRLB",
                       allow_abbrev=False)
    p.add_argument("--dataset", default=None)
    p.add_argument("--codebook", default=None)
    _add_upa_flags(p)
    p.add_argument("--angles", default="90,0", help="semicolon-separated theta,phi pairs")
    p.add_argument("--snr-db-list", default="0,10,20")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--search-halfwidth-deg", type=float, default=10.0)
    p.add_argument("--step-deg", type=float, help="grid step for --upa (default 1)")
    _add_fd_step_flag(p)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_montecarlo)

    # no abbreviations, so --codebook is rejected instead of read as --codebooks
    p = sub.add_parser("export-plots", help="plot-ready CSV bundles", allow_abbrev=False)
    p.add_argument("--fig", required=True, choices=["area-size", "port-count"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--codebooks", default=None, help="comma-separated codebook files")
    p.add_argument("--eval-area", default=None)
    _add_snr_flag(p)
    _add_common(p)
    p.set_defaults(func=cmd_export_plots)

    for command, paths in PATH_FLAGS.items():       # a path fills in its own defaults
        sub.choices[command].set_defaults(**{d: None for own in paths.values() for d in own})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        if args.command in PATH_FLAGS:
            apply_path_flags(args)
        inputs, outputs = args.func(args)
        if outputs:
            _write_manifest(args, inputs, outputs, started)
        return EXIT_OK
    except (ConfigError, GridError, ScheduleError, CoverageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (DatasetFormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DatasetValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, EstimationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PixelAoAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
