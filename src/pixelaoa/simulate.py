"""Monte-Carlo validation of the CRLB: snapshot model + ML grid estimator.

One snapshot is y = E(angle)^T s + n with one fixed 2-vector source s
(theta/phi polarization amplitudes) and circular complex Gaussian noise
calibrated so that the average received signal power per port over the
per-port noise power equals the requested SNR.  The estimator projects y
onto the column space of the candidate pattern matrix at every grid angle of
a search area the caller gives and takes the argmax, optionally refined by a
local quadratic fit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .crlb import SensingArea, crlb_matrix, write_csv
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
    noise_var: float


def _signal(patterns: PatternSet, angle_deg: tuple[float, float], source,
            snr_linear: float) -> tuple[np.ndarray, float]:
    """Noiseless snapshot E^T s and noise variance at a grid angle."""
    s = np.asarray(source, dtype=np.complex128).reshape(2)
    if not np.linalg.norm(s) > 0:
        raise ValueError("source amplitude vector must be nonzero")
    if not snr_linear > 0:
        raise ValueError("snr must be positive")
    E = patterns.at(*angle_deg)                      # (2, N)
    mu = E.T @ s
    return mu, float(np.vdot(mu, mu).real) / (mu.size * snr_linear)


def _noise(n: int, sig2: float, seed) -> np.ndarray:
    """n samples of circular complex Gaussian noise of variance sig2, deterministic per seed."""
    rng = np.random.default_rng(seed)
    if not sig2 > 0:
        return np.zeros(n, dtype=np.complex128)
    return math.sqrt(sig2 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def simulate_snapshot(patterns: PatternSet, angle_deg: tuple[float, float],
                      source, snr_linear: float, seed) -> Snapshot:
    """One received snapshot at a grid angle, deterministic per seed.

    Noise variance: sigma^2 = ||E^T s||^2 / (N * snr); snr may be math.inf
    for the noiseless limit.
    """
    mu, sig2 = _signal(patterns, angle_deg, source, snr_linear)
    return Snapshot(y=mu + _noise(mu.size, sig2, seed), noise_var=sig2)


# ---------------------------------------------------------------------------
# ML grid search
# ---------------------------------------------------------------------------

def _orthobases(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column spaces of a (G, N, 2) stack, and their ranks.

    Two-column Gram-Schmidt on every candidate at once.  A column whose
    residual norm is at most RANK_TOL_REL times the larger column norm of
    its candidate is dropped; kept columns fill the basis from the left and
    unused columns are zero.  The basis is a transposed (G, 2, N) array, the
    layout kernels.ml_scores reads without a copy.
    """
    a0, a1 = A[..., 0], A[..., 1]
    n0 = np.linalg.norm(a0, axis=1)
    tol = RANK_TOL_REL * np.maximum(n0, np.linalg.norm(a1, axis=1))
    keep0 = n0 > tol
    q0 = np.where(keep0[:, None], a0 / np.where(keep0, n0, 1.0)[:, None], 0.0)
    v = a1 - q0 * np.sum(q0.conj() * a1, axis=1, keepdims=True)
    n1 = np.linalg.norm(v, axis=1)
    keep1 = n1 > tol
    q1 = np.where(keep1[:, None], v / np.where(keep1, n1, 1.0)[:, None], 0.0)
    cols = np.empty((A.shape[0], 2, A.shape[1]), dtype=np.complex128)
    cols[:, 0] = np.where(keep0[:, None], q0, q1)
    cols[:, 1] = np.where(keep0[:, None], q1, 0.0)
    return cols.transpose(0, 2, 1), keep0.astype(np.int64) + keep1


class _CandidateGrid:
    """Per-(patterns, area) precomputation for the ML search."""

    def __init__(self, patterns: PatternSet, area: SensingArea):
        grid = patterns.grid
        t_ids, p_ids = area.indices(grid)
        self.theta_deg = grid.theta_start_deg + grid.step_deg * t_ids
        self.phi_deg = grid.phi_start_deg + grid.step_deg * p_ids
        self.shape = (t_ids.size, p_ids.size)
        self.step_deg = grid.step_deg

        it, ip = area.points(grid)
        E = patterns.data[:, :, it, ip]                  # (2, N, G)
        self.basis, self.rank = _orthobases(np.transpose(E, (2, 1, 0)))
        skipped = int(np.count_nonzero(self.rank == 0))
        if skipped:
            log.debug("ML search: %d of %d candidate angles rank-deficient, skipped",
                      skipped, self.rank.size)

    def estimate(self, scores: np.ndarray, refine: bool) -> tuple[float, float]:
        """Angle of the best of one snapshot's (G,) candidate scores.

        Ties break toward the lowest grid index; with refine, a local
        per-axis quadratic fit interpolates between grid points.
        """
        best = int(np.argmax(scores))
        if scores[best] < 0.0:
            raise EstimationError("all candidate angles are rank-deficient")
        nt, npph = self.shape
        ti, pi = divmod(best, npph)
        th = float(self.theta_deg[ti])
        ph = float(self.phi_deg[pi])
        if refine:
            smat = scores.reshape(nt, npph)
            if 0 < ti < nt - 1:
                th += self.step_deg * _quadratic_offset(
                    smat[ti - 1, pi], smat[ti, pi], smat[ti + 1, pi])
            if 0 < pi < npph - 1:
                ph += self.step_deg * _quadratic_offset(
                    smat[ti, pi - 1], smat[ti, pi], smat[ti, pi + 1])
        return th, ph


def _quadratic_offset(sm: float, s0: float, sp: float) -> float:
    den = sm - 2.0 * s0 + sp
    if den >= 0.0:
        return 0.0
    off = 0.5 * (sm - sp) / den
    return float(min(max(off, -0.5), 0.5))


def ml_estimate(y: np.ndarray, patterns: PatternSet, search_area: SensingArea,
                refine: bool = False) -> tuple[float, float]:
    """Maximum-likelihood angle estimate over the grid points of an area.

    Score = squared norm of the projection of y onto the column space of
    the (N, 2) candidate pattern matrix; ties break toward the lowest grid
    index; rank-deficient candidates are skipped.  With refine, a local
    per-axis quadratic fit interpolates between grid points.  Each call
    builds the candidate bases anew; monte_carlo_rmse builds them once.
    """
    cand = _CandidateGrid(patterns, search_area)
    return cand.estimate(kernels.ml_scores(cand.basis, cand.rank, y), refine)


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


def monte_carlo_rmse(
    patterns: PatternSet,
    angles_deg,
    snr_list_linear,
    trials: int,
    seed: int,
    search_area: SensingArea,
    source=(1.0, 0.0),
    refine: bool = True,
    fd_step_deg: float | None = None,
) -> MonteCarloReport:
    """Empirical RMSE of the ML estimator vs the CRLB prediction.

    Every trial draws y = E^T s + n with the one fixed source vector s; only
    its noise is random, seeded from the master seed by its (angle, snr,
    trial) spawn key, so the report is reproducible and independent of
    execution order.  The ML search runs over search_area.  trials must be
    at least 100.  The candidate bases are built once per call, and the
    trials of each (angle, snr) cell are scored and estimated
    kernels.ml_chunk(G) at a time, so no (trials, G) score block is held.
    """
    if trials < 100:
        raise ValueError(f"at least 100 trials required, got {trials}")
    cand = _CandidateGrid(patterns, search_area)
    Y = np.empty((trials, cand.basis.shape[1]), dtype=np.complex128)
    step = kernels.ml_chunk(cand.rank.size)
    records = []
    for ai, angle in enumerate(angles_deg):
        angle = (float(angle[0]), float(angle[1]))
        for si, snr in enumerate(snr_list_linear):
            mu, sig2 = _signal(patterns, angle, source, snr)
            for t in range(trials):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(ai, si, t))
                Y[t] = mu + _noise(mu.size, sig2, ss)
            se_th = 0.0
            se_ph = 0.0
            for t0 in range(0, trials, step):
                for row in kernels.ml_scores(cand.basis, cand.rank, Y[t0:t0 + step]):
                    th, ph = cand.estimate(row, refine)
                    se_th += math.radians(th - angle[0]) ** 2
                    se_ph += math.radians(ph - angle[1]) ** 2
            mse_th = se_th / trials
            mse_ph = se_ph / trials
            bound = crlb_matrix(patterns, angle, snr, fd_step_deg=fd_step_deg)
            records.append(MonteCarloRecord(
                theta_deg=angle[0], phi_deg=angle[1], snr_linear=float(snr),
                trials=trials,
                rmse_theta_rad=math.sqrt(mse_th), rmse_phi_rad=math.sqrt(mse_ph),
                crlb_theta_rad=math.sqrt(bound.c_theta_theta),
                crlb_phi_rad=math.sqrt(bound.c_phi_phi),
                mse_theta_rad2=mse_th, mse_phi_rad2=mse_ph,
            ))
    return MonteCarloReport(tuple(records))


def export_report(report: MonteCarloReport, path) -> None:
    """Tabular text dump; SNR is written in dB."""
    rows = [(r.theta_deg, r.phi_deg, 10.0 * math.log10(r.snr_linear), r.trials,
             r.rmse_theta_rad, r.rmse_phi_rad, r.crlb_theta_rad, r.crlb_phi_rad)
            for r in report.records]
    write_csv(path, "theta_deg,phi_deg,snr_db,trials,rmse_theta_rad,rmse_phi_rad,"
                    "crlb_theta_rad,crlb_phi_rad", zip(*rows))
