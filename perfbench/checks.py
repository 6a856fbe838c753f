"""Output checks run on every benchmark run.

Each check returns a list of (command name, message) failures plus the
workload's ``worst_crlb_rad``.  The oracles recompute the outputs through a
per-point CRLB built here with explicit matrices and its own finite
differences (apart from ``kernels.fim_sweep``), a brute-force least-squares
ML search over the Monte-Carlo trials, and the workload's own generation
parameters; none of them reads the CLI's intermediate state.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from pixelaoa import (
    AngleGrid,
    DipoleModelParams,
    PortLayout,
    SensingArea,
    crlb_map,
    crlb_matrix,
    generate_synthetic_dataset,
    load_dataset,
    overall_patterns,
    upa_crlb_closed_form,
    upa_patterns,
)
from pixelaoa.network import FeedNetworkConfig
from pixelaoa.optimizer import (
    ConfigEvaluator,
    GAParams,
    alternating_optimize,
    codebook_lookup,
    default_initial_config,
    load_codebook,
)
from pixelaoa.simulate import ml_estimate

import workloads

REL_TOL = 1e-9          # oracle vs CLI, different summation order (2e-11 seen on upa)
ML_SAMPLE = 8           # Monte-Carlo trials re-drawn per (angle, SNR) cell
RANK_TOL = 1e-12        # Re{F} is singular when det <= RANK_TOL * max|F_ij|^2
SNR_0DB = 1.0           # --snr-db default of optimize and crlb-map
SPACE = SensingArea(*(float(x) for x in workloads.SPACE.split(":")))


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# -- CRLB reference -----------------------------------------------------------------

def _neighbours(i: int, n: int, wraps: bool) -> tuple[int, int, float]:
    """Plus and minus neighbour of grid index i, and 1 / (their distance in steps).

    Central differences inside the grid, one-sided at its edges, modular on a
    full phi circle.
    """
    if wraps:
        return (i + 1) % n, (i - 1) % n, 0.5
    if i == 0:
        return 1, 0, 1.0
    if i == n - 1:
        return i, i - 1, 1.0
    return i + 1, i - 1, 0.5


class _ReferenceCRLB:
    """CRLB at one grid point at a time, with explicit matrices.

    F = Re{J^H (I - f^H f / |f|^2) J}, where f is the stacked steering row
    [e_theta, e_phi] and J its finite-difference Jacobian in 1/rad, and
    C = F^-1 / (2 snr).  A singular F gives C = +inf.
    """

    def __init__(self, patterns):
        self.grid = patterns.grid
        self.e = np.concatenate([patterns.data[0], patterns.data[1]])  # (2N, n_theta, n_phi)
        self.h = math.radians(self.grid.step_deg)

    def matrix(self, theta_deg: float, phi_deg: float, snr: float) -> np.ndarray:
        g, e = self.grid, self.e
        ti, pi = g.theta_index(theta_deg), g.phi_index(phi_deg)
        tp, tm, wt = _neighbours(ti, g.n_theta, False)
        pp, pm, wp = _neighbours(pi, g.n_phi, g.phi_wraps)
        f = e[:, ti, pi]
        J = np.column_stack([(e[:, tp, pi] - e[:, tm, pi]) * (wt / self.h),
                             (e[:, ti, pp] - e[:, ti, pm]) * (wp / self.h)])
        D = np.eye(f.size) - np.outer(f.conj(), f) / np.vdot(f, f).real
        F = (J.conj().T @ D @ J).real
        if np.linalg.det(F) <= RANK_TOL * np.abs(F).max() ** 2:
            return np.full((2, 2), math.inf)
        return np.linalg.inv(F) / (2.0 * snr)

    def objective(self, theta_deg: float, phi_deg: float, snr: float) -> float:
        C = self.matrix(theta_deg, phi_deg, snr)
        return math.sqrt(C[0, 0] + C[1, 1])

    def worst(self, area: SensingArea, snr: float) -> float:
        t_ids, p_ids = area.indices(self.grid)
        return max(self.objective(th, ph, snr)
                   for th in self.grid.theta_deg[t_ids] for ph in self.grid.phi_deg[p_ids])


def _matches_reference(row: dict, C: np.ndarray) -> bool:
    """A CSV row's c_tt, c_tp, c_pp and objective against a reference matrix."""
    if math.isinf(C[0, 0]):
        return all(math.isinf(row[c]) for c in ("c_tt", "c_tp", "c_pp", "objective"))
    scale = max(abs(C[0, 0]), abs(C[1, 1]))
    return (all(abs(row[c] - w) <= REL_TOL * scale
                for c, w in (("c_tt", C[0, 0]), ("c_tp", C[0, 1]), ("c_pp", C[1, 1])))
            and _close(row["objective"], math.sqrt(C[0, 0] + C[1, 1]), REL_TOL))


# -- Monte Carlo ------------------------------------------------------------------

class _BruteForceML:
    """Least-squares projection search: score = ||A pinv(A) y||^2 per candidate."""

    def __init__(self, patterns, area: SensingArea):
        grid = patterns.grid
        t_ids, p_ids = area.indices(grid)
        self.theta = grid.theta_start_deg + grid.step_deg * t_ids
        self.phi = grid.phi_start_deg + grid.step_deg * p_ids
        self.step = grid.step_deg
        A = patterns.data[:, :, t_ids][:, :, :, p_ids]             # (2, N, T, P)
        self.A = np.transpose(A, (2, 3, 1, 0)).reshape(-1, A.shape[1], 2)
        self.pinv = np.linalg.pinv(self.A, rcond=1e-12)

    def scores(self, y):
        proj = self.A @ (self.pinv @ y)[:, :, None]
        return np.sum(np.abs(proj[:, :, 0]) ** 2, axis=1)

    def estimate(self, y):
        sc = self.scores(y)
        best = int(np.argmax(sc))
        ti, pi = divmod(best, self.phi.size)
        th, ph = float(self.theta[ti]), float(self.phi[pi])
        grid_est = (th, ph)
        s = sc.reshape(self.theta.size, self.phi.size)
        if 0 < ti < self.theta.size - 1:
            th += self.step * _vertex(s[ti - 1, pi], s[ti, pi], s[ti + 1, pi])
        if 0 < pi < self.phi.size - 1:
            ph += self.step * _vertex(s[ti, pi - 1], s[ti, pi], s[ti, pi + 1])
        return grid_est, (th, ph), sc

    def score_at(self, sc, est):
        ti = int(np.argmin(np.abs(self.theta - est[0])))
        pi = int(np.argmin(np.abs(self.phi - est[1])))
        return sc[ti * self.phi.size + pi]


def _vertex(sm: float, s0: float, sp: float) -> float:
    """Offset of the parabola through three equally spaced scores, in steps."""
    den = sm - 2.0 * s0 + sp
    if den >= 0.0:
        return 0.0
    return min(0.5, max(-0.5, 0.5 * (sm - sp) / den))


def _redraw(patterns, angle, snr, seed, key):
    """The trial's snapshot, drawn from the same SeedSequence as the CLI."""
    E = patterns.at(*angle)
    mu = E.T @ np.array([1.0, 0.0], dtype=np.complex128)
    sig2 = float(np.vdot(mu, mu).real) / (mu.size * snr)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    noise = math.sqrt(sig2 / 2.0) * (rng.standard_normal(mu.size)
                                     + 1j * rng.standard_normal(mu.size))
    return mu + noise


def _brute_rmse(brute, patterns, angle, snr, seed, cell, trials) -> tuple[float, float]:
    """RMSE (theta, phi) in rad of the refined brute-force search over every trial."""
    se_th = se_ph = 0.0
    for t in range(trials):
        _, est, _ = brute.estimate(_redraw(patterns, angle, snr, seed, (*cell, t)))
        se_th += math.radians(est[0] - angle[0]) ** 2
        se_ph += math.radians(est[1] - angle[1]) ** 2
    return math.sqrt(se_th / trials), math.sqrt(se_ph / trials)


def montecarlo_checks(cmd, path, patterns, angles, snr_db, trials, seed, area):
    """Check every (angle, SNR) row of a Monte-Carlo CSV.

    The CRLB columns must equal crlb_matrix and the reference.  In the cell
    picked by the seed, every trial is re-drawn and the RMSE columns must equal
    the brute-force search's.  In the other cells, ML_SAMPLE trials are re-drawn
    and ml_estimate must agree with the brute-force search.
    """
    fails = []
    rows = _read_csv(path)
    cells = [(a, s) for a in range(len(angles)) for s in range(len(snr_db))]
    if len(rows) != len(cells):
        return [(cmd, f"{path.name}: {len(rows)} rows, expected {len(cells)}")]
    brute = _BruteForceML(patterns, area)
    ref = _ReferenceCRLB(patterns)
    full_cell = cells[seed % len(cells)]
    pick = np.random.default_rng(seed)
    for row, (ai, si) in zip(rows, cells):
        angle, snr = angles[ai], _db(snr_db[si])
        where = f"{path.name} {angle} snr {snr_db[si]}"
        if row["trials"] != trials:
            fails.append((cmd, f"{where}: {row['trials']:g} trials, expected {trials}"))
        bound = crlb_matrix(patterns, angle, snr)
        C = ref.matrix(*angle, snr)
        for col, var, ref_var in (("crlb_theta_rad", bound.c_theta_theta, C[0, 0]),
                                  ("crlb_phi_rad", bound.c_phi_phi, C[1, 1])):
            if not _close(row[col], math.sqrt(var), 1e-12):
                fails.append((cmd, f"{where}: {col} {row[col]!r} != crlb_matrix "
                                   f"{math.sqrt(var)!r}"))
            if not _close(row[col], math.sqrt(ref_var), REL_TOL):
                fails.append((cmd, f"{where}: {col} {row[col]!r} != reference "
                                   f"{math.sqrt(ref_var)!r}"))
        if (ai, si) == full_cell:
            want = _brute_rmse(brute, patterns, angle, snr, seed, (ai, si), trials)
            got = (row["rmse_theta_rad"], row["rmse_phi_rad"])
            if not all(_close(g, w, REL_TOL) for g, w in zip(got, want)):
                fails.append((cmd, f"{where}: rmse {got} != brute force over all "
                                   f"{trials} trials {want}"))
            continue
        for t in sorted(pick.choice(trials, size=min(ML_SAMPLE, trials), replace=False)):
            y = _redraw(patterns, angle, snr, seed, (ai, si, int(t)))
            got_grid = ml_estimate(y, patterns, area)
            got = ml_estimate(y, patterns, area, refine=True)
            want_grid, want, sc = brute.estimate(y)
            if got_grid != want_grid:
                best, other = sc.max(), brute.score_at(sc, got_grid)
                if not _close(best, other, 1e-9):
                    fails.append((cmd, f"trial {(ai, si, int(t))}: ml_estimate {got_grid} "
                                       f"!= brute force {want_grid}"))
            elif max(abs(got[0] - want[0]), abs(got[1] - want[1])) > 1e-6:
                fails.append((cmd, f"trial {(ai, si, int(t))}: refined ml_estimate {got} "
                                   f"!= brute force {want}"))
    return fails


# -- codebook workload -------------------------------------------------------------

def _trace_final(path: Path) -> tuple[dict, list[str]]:
    """Last objective per area label, and the labels whose trace ever rises."""
    last: dict = {}
    rising = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            obj = float(row["objective"])
            prev = last.get(row["area"])
            if prev is not None and obj > prev * (1 + 1e-12) and row["area"] not in rising:
                rising.append(row["area"])
            last[row["area"]] = obj
    return last, rising


def codebook_checks(work: Path, seed: int, stdout: dict) -> tuple[list, float]:
    fails = []
    ref = generate_synthetic_dataset(
        PortLayout(pixel_rows=5, pixel_cols=5), AngleGrid(step_deg=2.0),
        DipoleModelParams(self_reactance_jitter_ohm=workloads.JITTER_OHM), seed=seed)
    ds = load_dataset(work / "ds.json")
    for name in ("Z", "e_oc"):
        a, b = getattr(ref, name), getattr(ds, name)
        if a.shape != b.shape or a.dtype != b.dtype:
            fails.append(("gen_dataset", f"ds.json {name} loads back as {b.dtype}{b.shape}"))
            continue
        # The v1 reader rebuilds re + 1j*im, which turns an imaginary -0.0 into
        # +0.0.  Those flips are counted and reported; any other bit differs.
        bits_a, bits_b = a.view(np.uint64), b.view(np.uint64)
        differ = bits_a != bits_b
        flips = np.count_nonzero(differ & (a.view(np.float64) == 0.0)
                                 & (b.view(np.float64) == 0.0))
        if np.count_nonzero(differ) != flips:
            fails.append(("gen_dataset", f"ds.json {name} does not load back bit-identical"))
        elif flips:
            print(f"  ds.json {name}: {flips} zeros load back with the other sign")
    if ds.grid != ref.grid or ds.layout != ref.layout:
        fails.append(("gen_dataset", "ds.json grid or layout differs from the request"))
    del ref

    if "FAIL" in stdout.get("validate", "FAIL"):
        fails.append(("validate", "validation report has a failing check"))

    patterns: dict = {}

    def pats(cfg):
        key = (cfg.feed_ports, cfg.connections)
        if key not in patterns:
            patterns[key] = overall_patterns(ds, cfg).patterns
        return patterns[key]

    refs: dict = {}

    def reference(cfg):
        key = (cfg.feed_ports, cfg.connections)
        if key not in refs:
            refs[key] = _ReferenceCRLB(pats(cfg))
        return refs[key]

    cb = load_codebook(work / "cb.json")
    for cw in cb.codewords:
        oracle = reference(cw.config).worst(cw.area, SNR_0DB)
        if not _close(oracle, cw.objective, REL_TOL):
            fails.append(("optimize", f"{cw.area.label()}: objective {cw.objective!r} "
                                      f"!= full-grid reference {oracle!r}"))

    # Stage 1 is replayed in-process to learn the parent geometry, which the
    # codebook file does not store; its objective must match the CLI's trace.
    feednet = FeedNetworkConfig(source_impedance_ohm=50.0)
    parent, _ = alternating_optimize(
        ds, default_initial_config(ds.layout, 4), SPACE,
        GAParams(population=60, generations=15, seed=seed), SNR_0DB, 20, feednet,
        evaluator=ConfigEvaluator(ds, SNR_0DB, feednet))
    last, rising = _trace_final(work / "trace.csv")
    for label in rising:
        fails.append(("optimize", f"trace of {label} increases"))
    stage1 = [v for k, v in last.items() if k.startswith("stage1_")]
    if len(stage1) != 1 or not _close(stage1[0], parent.objective, 1e-12):
        fails.append(("optimize", f"stage-1 replay objective {parent.objective!r} "
                                  f"!= trace {stage1}"))
    for cw in cb.codewords:
        on_child = reference(parent.config).worst(cw.area, SNR_0DB)
        if cw.objective > on_child * (1 + REL_TOL):
            fails.append(("optimize", f"{cw.area.label()}: child {cw.objective!r} worse than "
                                      f"parent {on_child!r} on its area"))

    rows = _read_csv(work / "map.csv")
    for row in rows:
        angle = (row["theta_deg"], row["phi_deg"])
        C = reference(codebook_lookup(cb, angle).config).matrix(*angle, SNR_0DB)
        if not _matches_reference(row, C):
            fails.append(("crlb_map", f"map.csv row {angle} differs from the reference "
                                      f"CRLB of its codeword"))
            break
    if len(rows) != 121:
        fails.append(("crlb_map", f"map.csv has {len(rows)} rows, expected 121"))

    # the CLI searches +-10 degrees (its default) around (90, 0): the space
    fails += montecarlo_checks("montecarlo", work / "mc.csv",
                               pats(codebook_lookup(cb, (90.0, 0.0)).config),
                               [(90.0, 0.0)], [10.0], 100, seed, SPACE)
    return fails, max(c.objective for c in cb.codewords)


# -- upa workload ------------------------------------------------------------------

def upa_checks(work: Path, seed: int) -> tuple[list, float, int]:
    """Also returns the number of singular points in the CRLB map."""
    fails = []
    area = SensingArea(0.0, 180.0, -90.0, 90.0)
    pats = upa_patterns(4, 4, 0.5, AngleGrid(0.0, 180.0, -90.5, 90.5, 0.5))
    m = crlb_map(pats, area, SNR_0DB)
    table = np.loadtxt(work / "upa_map.csv", delimiter=",", skiprows=1)
    if table.shape != (m.n_points, 10):
        return [("crlb_map", f"upa_map.csv shape {table.shape}")], math.inf, -1
    for j, col in enumerate(("theta_deg", "phi_deg", "c_tt", "c_tp", "c_pp", "objective")):
        if not np.array_equal(table[:, j], getattr(m, col)):
            fails.append(("crlb_map", f"upa_map.csv column {col} differs from crlb_map"))
    ref = _ReferenceCRLB(pats)
    pick = np.random.default_rng(seed).choice(m.n_points, size=500, replace=False)
    for i in pick:
        row = dict(zip(("theta_deg", "phi_deg", "c_tt", "c_tp", "c_pp", "objective"), table[i]))
        if not _matches_reference(row, ref.matrix(table[i, 0], table[i, 1], SNR_0DB)):
            fails.append(("crlb_map", f"upa_map.csv row {i} differs from the reference CRLB"))
            break
    for i in pick:
        cf = upa_crlb_closed_form(4, 4, 0.5, (table[i, 0], table[i, 1]), SNR_0DB)
        want = (cf.matrix[0, 0], cf.matrix[0, 1], cf.matrix[1, 1], cf.objective)
        if not all(_close(float(g), float(w), 1e-12) for g, w in zip(table[i, 6:], want)):
            fails.append(("crlb_map", f"upa_map.csv closed-form row {i} differs"))
            break
    inside = ((table[:, 0] >= 80) & (table[:, 0] <= 100)
              & (table[:, 1] >= -10) & (table[:, 1] <= 10))
    worst = float(table[inside, 5].max())
    ref_worst = ref.worst(SPACE, SNR_0DB)
    if not _close(worst, ref_worst, REL_TOL):
        fails.append(("crlb_map", f"upa_map.csv worst over {SPACE.label()} {worst!r} "
                                  f"!= reference {ref_worst!r}"))
    singular = int(np.count_nonzero(np.isinf(table[:, 5])))

    mc_grid = AngleGrid(44.0, 106.0, -16.0, 56.0, 0.5)
    fails += montecarlo_checks("montecarlo", work / "upa_mc.csv",
                               upa_patterns(4, 4, 0.5, mc_grid),
                               [(90.0, 0.0), (60.0, 40.0)], [0.0, 10.0, 20.0], 400, seed,
                               SensingArea(45.0, 105.0, -15.0, 55.0))
    return fails, worst, singular
