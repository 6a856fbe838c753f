"""Monte-Carlo validation of the CRLB: snapshot model + ML grid estimator.

One snapshot is y = E(angle)^T s + n with a 2-vector source s (theta/phi
polarization amplitudes) and circular complex Gaussian noise calibrated so
that the average received signal power per port over the per-port noise
power equals the requested SNR.  The estimator projects y onto the column
space of the candidate pattern matrix at every grid angle of a search area
and takes the argmax, optionally refined by a local quadratic fit.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .crlb import SensingArea, crlb_matrix
from .emdata import PatternSet
from .errors import EstimationError

log = logging.getLogger(__name__)

RANK_TOL_REL = 1e-12


# ---------------------------------------------------------------------------
# snapshot model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    y: np.ndarray                       # (N,) received samples
    truth_deg: tuple[float, float]
    source: np.ndarray                  # (2,) polarization amplitudes
    noise_var: float


def simulate_snapshot(patterns: PatternSet, angle_deg: tuple[float, float],
                      source, snr_linear: float, seed) -> Snapshot:
    """One received snapshot at a grid angle, deterministic per seed.

    Noise variance: sigma^2 = ||E^T s||^2 / (N * snr); snr may be math.inf
    for the noiseless limit.
    """
    s = np.asarray(source, dtype=np.complex128).reshape(2)
    if not np.linalg.norm(s) > 0:
        raise ValueError("source amplitude vector must be nonzero")
    if not snr_linear > 0:
        raise ValueError("snr must be positive")
    E = patterns.at(*angle_deg)                      # (2, N)
    mu = E.T @ s
    N = mu.size
    sig2 = float(np.vdot(mu, mu).real) / (N * snr_linear) if math.isfinite(snr_linear) else 0.0
    rng = np.random.default_rng(seed)
    noise = math.sqrt(sig2 / 2.0) * (rng.standard_normal(N) + 1j * rng.standard_normal(N)) \
        if sig2 > 0 else np.zeros(N, dtype=np.complex128)
    return Snapshot(y=mu + noise, truth_deg=(float(angle_deg[0]), float(angle_deg[1])),
                    source=s, noise_var=sig2)


# ---------------------------------------------------------------------------
# ML grid search
# ---------------------------------------------------------------------------

def _orthobasis(A: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space of an (N, 2) matrix."""
    basis = np.zeros_like(A)
    scale = max(np.linalg.norm(A[:, 0]), np.linalg.norm(A[:, 1]))
    if scale <= 0.0:
        return basis, 0
    tol = RANK_TOL_REL * scale
    rank = 0
    for col in range(A.shape[1]):
        v = A[:, col].astype(np.complex128)
        for r in range(rank):
            v = v - basis[:, r] * np.vdot(basis[:, r], v)
        nv = np.linalg.norm(v)
        if nv > tol:
            basis[:, rank] = v / nv
            rank += 1
    return basis, rank


class _CandidateGrid:
    """Per-(patterns, area) precomputation for the ML search."""

    def __init__(self, patterns: PatternSet, area: SensingArea):
        grid = patterns.grid
        t_ids, p_ids = area.indices(grid)
        self.theta_deg = grid.theta_start_deg + grid.step_deg * t_ids
        self.phi_deg = grid.phi_start_deg + grid.step_deg * p_ids
        self.shape = (t_ids.size, p_ids.size)
        self.step_deg = grid.step_deg

        it = np.repeat(t_ids, p_ids.size)
        ip = np.tile(p_ids, t_ids.size)
        E = patterns.data[:, :, it, ip]                  # (2, N, G)
        A = np.transpose(E, (2, 1, 0))                   # (G, N, 2)
        G = A.shape[0]
        self.basis = np.zeros_like(A)
        self.rank = np.zeros(G, dtype=np.int64)
        for gidx in range(G):
            self.basis[gidx], self.rank[gidx] = _orthobasis(A[gidx])
        skipped = int(np.count_nonzero(self.rank == 0))
        if skipped:
            log.debug("ML search: %d of %d candidate angles rank-deficient, skipped",
                      skipped, G)


# {area bounds: _CandidateGrid} per pattern set; an entry lives as long as
# its pattern set does.
_GRID_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _candidate_grid(patterns: PatternSet, area: SensingArea) -> _CandidateGrid:
    grids = _GRID_CACHE.setdefault(patterns, {})
    got = grids.get(area.bounds())
    if got is None:
        got = grids[area.bounds()] = _CandidateGrid(patterns, area)
    return got


def _quadratic_offset(sm: float, s0: float, sp: float) -> float:
    den = sm - 2.0 * s0 + sp
    if den >= 0.0:
        return 0.0
    off = 0.5 * (sm - sp) / den
    return float(np.clip(off, -0.5, 0.5))


def ml_estimate(y: np.ndarray, patterns: PatternSet, search_area: SensingArea,
                refine: bool = False) -> tuple[float, float]:
    """Maximum-likelihood angle estimate over the grid points of an area.

    Score = squared norm of the projection of y onto the column space of
    the (N, 2) candidate pattern matrix; ties break toward the lowest grid
    index; rank-deficient candidates are skipped.  With refine, a local
    per-axis quadratic fit interpolates between grid points.
    """
    cand = _candidate_grid(patterns, search_area)
    scores = kernels.ml_scores(cand.basis, cand.rank, np.asarray(y, dtype=np.complex128))
    best = int(np.argmax(scores))
    if scores[best] < 0.0:
        raise EstimationError("all candidate angles are rank-deficient")

    nt, npph = cand.shape
    ti, pi = divmod(best, npph)
    th = float(cand.theta_deg[ti])
    ph = float(cand.phi_deg[pi])
    if refine:
        smat = scores.reshape(nt, npph)
        if 0 < ti < nt - 1:
            th += cand.step_deg * _quadratic_offset(
                smat[ti - 1, pi], smat[ti, pi], smat[ti + 1, pi])
        if 0 < pi < npph - 1:
            ph += cand.step_deg * _quadratic_offset(
                smat[ti, pi - 1], smat[ti, pi], smat[ti, pi + 1])
    return th, ph


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloRecord:
    theta_deg: float
    phi_deg: float
    snr_linear: float
    trials: int
    rmse_theta_rad: float
    rmse_phi_rad: float
    crlb_theta_rad: float               # sqrt(c_tt)
    crlb_phi_rad: float                 # sqrt(c_pp)
    mse_theta_rad2: float
    mse_phi_rad2: float


@dataclass(frozen=True)
class MonteCarloReport:
    records: tuple[MonteCarloRecord, ...]
    trials: int
    seed: int
    refine: bool
    source: tuple[complex, complex] | str


def monte_carlo_rmse(
    patterns: PatternSet,
    angles_deg,
    snr_list_linear,
    trials: int,
    seed: int,
    search_area: SensingArea | None = None,
    source=(1.0, 0.0),
    refine: bool = True,
    fd_step_deg: float | None = None,
) -> MonteCarloReport:
    """Empirical RMSE of the ML estimator vs the CRLB prediction.

    Per-trial seeds derive from the master seed by (angle, snr, trial)
    spawn keys, so the report is reproducible and independent of execution
    order.  trials must be at least 100.  source is a fixed 2-vector by
    default; pass "random-unit" to draw an independent unit polarization
    vector per trial.
    """
    if trials < 100:
        raise ValueError(f"at least 100 trials required, got {trials}")
    grid = patterns.grid
    if search_area is None:
        search_area = SensingArea(grid.theta_deg[0], grid.theta_deg[-1],
                                  grid.phi_deg[0], grid.phi_deg[-1])
    random_source = isinstance(source, str)
    if random_source and source != "random-unit":
        raise ValueError(f"unknown source mode {source!r}")
    records = []
    for ai, angle in enumerate(angles_deg):
        angle = (float(angle[0]), float(angle[1]))
        for si, snr in enumerate(snr_list_linear):
            se_th = 0.0
            se_ph = 0.0
            for t in range(trials):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(ai, si, t))
                if random_source:
                    srng = np.random.default_rng(
                        np.random.SeedSequence(entropy=seed, spawn_key=(ai, si, t, 1)))
                    v = srng.standard_normal(2) + 1j * srng.standard_normal(2)
                    trial_source = v / np.linalg.norm(v)
                else:
                    trial_source = source
                snap = simulate_snapshot(patterns, angle, trial_source, snr, ss)
                est = ml_estimate(snap.y, patterns, search_area, refine=refine)
                se_th += math.radians(est[0] - angle[0]) ** 2
                se_ph += math.radians(est[1] - angle[1]) ** 2
            mse_th = se_th / trials
            mse_ph = se_ph / trials
            bound = crlb_matrix(patterns, angle, snr, fd_step_deg=fd_step_deg)
            records.append(MonteCarloRecord(
                theta_deg=angle[0], phi_deg=angle[1], snr_linear=float(snr),
                trials=trials,
                rmse_theta_rad=math.sqrt(mse_th), rmse_phi_rad=math.sqrt(mse_ph),
                crlb_theta_rad=math.sqrt(bound.c_theta_theta)
                if math.isfinite(bound.c_theta_theta) else math.inf,
                crlb_phi_rad=math.sqrt(bound.c_phi_phi)
                if math.isfinite(bound.c_phi_phi) else math.inf,
                mse_theta_rad2=mse_th, mse_phi_rad2=mse_ph,
            ))
    if random_source:
        src_tag = "random-unit"
    else:
        src = np.asarray(source, dtype=np.complex128).reshape(2)
        src_tag = (complex(src[0]), complex(src[1]))
    return MonteCarloReport(records=tuple(records), trials=trials, seed=seed,
                            refine=refine, source=src_tag)


def export_report(report: MonteCarloReport, path) -> None:
    """Tabular text dump; SNR is written in dB."""
    with open(path, "w") as fh:
        fh.write("theta_deg,phi_deg,snr_db,trials,rmse_theta_rad,rmse_phi_rad,"
                 "crlb_theta_rad,crlb_phi_rad\n")
        for r in report.records:
            snr_db = 10.0 * math.log10(r.snr_linear) if math.isfinite(r.snr_linear) else math.inf
            vals = [r.theta_deg, r.phi_deg, snr_db, r.trials,
                    r.rmse_theta_rad, r.rmse_phi_rad, r.crlb_theta_rad, r.crlb_phi_rad]
            out = []
            for v in vals:
                if isinstance(v, float) and math.isinf(v):
                    out.append("inf")
                elif isinstance(v, int):
                    out.append(str(v))
                else:
                    out.append(repr(float(v)))
            fh.write(",".join(out) + "\n")
