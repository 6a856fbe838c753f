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
import warnings
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


# Most bytes of one block of candidates' (N, 2) pattern matrices that
# _CandidateGrid gathers and orthonormalizes at a time, so its working memory
# beside the (G, 2, N) bases is one block's, not G candidates'.
_BASIS_BLOCK_BYTES = 1 << 20

# Most bytes of the complex projections, both columns, of one
# kernels.ml_scores call in monte_carlo_rmse.
_SCORE_BLOCK_BYTES = 1 << 24


class _CandidateGrid:
    """Per-(patterns, area) precomputation for the ML search."""

    def __init__(self, patterns: PatternSet, area: SensingArea):
        grid = patterns.grid
        t_ids, p_ids = area.indices(grid)
        self.theta_deg, self.phi_deg = grid.theta_deg[t_ids], grid.phi_deg[p_ids]
        self.shape = (t_ids.size, p_ids.size)
        self.step_deg = grid.step_deg

        it, ip = area.points(grid)
        G, N = it.size, patterns.data.shape[1]
        # the (G, N, 2) view of a (G, 2, N) array, the layout _orthobases returns
        self.basis = np.empty((G, 2, N), dtype=np.complex128).transpose(0, 2, 1)
        self.rank = np.empty(G, dtype=np.int64)
        step = max(1, _BASIS_BLOCK_BYTES // (2 * N * 16))
        for g0 in range(0, G, step):
            b = slice(g0, g0 + step)
            E = patterns.data[:, :, it[b], ip[b]]        # (2, N, g)
            self.basis[b], self.rank[b] = _orthobases(np.transpose(E, (2, 1, 0)))
        skipped = int(np.count_nonzero(self.rank == 0))
        if skipped:
            log.debug("ML search: %d of %d candidate angles rank-deficient, skipped",
                      skipped, self.rank.size)
        # a basis of rank N spans every snapshot, which then scores ||y||^2 there
        spanning = int(np.count_nonzero(self.rank == N))
        if spanning:
            warnings.warn(f"ML search: {spanning} of {G} candidate angles span all {N} "
                          "ports, so the search cannot tell them apart",
                          RuntimeWarning, stacklevel=3)

    def estimate(self, scores: np.ndarray, refine: bool) -> tuple[np.ndarray, np.ndarray]:
        """Angles (theta, phi), as (T,) arrays, of the best candidate of each
        row of a (T, G) score block.

        Ties break toward the lowest grid index; with refine, a local
        per-axis quadratic fit interpolates between grid points.
        """
        nt, npph = self.shape
        rows = np.arange(scores.shape[0])
        best = np.argmax(scores, axis=1)
        if np.any(scores[rows, best] < 0.0):
            raise EstimationError("all candidate angles are rank-deficient")
        ti, pi = np.divmod(best, npph)
        th = self.theta_deg[ti]
        ph = self.phi_deg[pi]
        if refine:
            smat = scores.reshape(-1, nt, npph)
            r = (0 < ti) & (ti < nt - 1)
            t, p = ti[r], pi[r]
            th[r] += self.step_deg * _quadratic_offset(
                smat[r, t - 1, p], smat[r, t, p], smat[r, t + 1, p])
            r = (0 < pi) & (pi < npph - 1)
            t, p = ti[r], pi[r]
            ph[r] += self.step_deg * _quadratic_offset(
                smat[r, t, p - 1], smat[r, t, p], smat[r, t, p + 1])
        return th, ph


def _quadratic_offset(sm: np.ndarray, s0: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Vertex offset, in steps and clipped to half a step, of the parabola
    through each triple of equally spaced scores; 0 where it opens upward."""
    with np.errstate(divide="ignore", invalid="ignore"):
        den = sm - 2.0 * s0 + sp
        off = 0.5 * (sm - sp) / den
    return np.where(den >= 0.0, 0.0, np.clip(off, -0.5, 0.5))


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
    scores = kernels.ml_scores(cand.basis, cand.rank, y)
    th, ph = cand.estimate(scores.reshape(1, -1), refine)
    return float(th[0]), float(ph[0])


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
    at least 100.  The candidate bases are built once per call.  The
    trials of each (angle, snr) cell are scored and estimated in blocks of
    as many trials as fit _SCORE_BLOCK_BYTES of projections, so no
    (trials, G) score block is held.  A last block of one trial joins the
    block before it: with OpenBLAS a snapshot's scores take the same bits in
    any GEMM of two or more rows, but a one-row call takes the GEMV path, so
    the report does not depend on the block size.
    """
    if trials < 100:
        raise ValueError(f"at least 100 trials required, got {trials}")
    cand = _CandidateGrid(patterns, search_area)
    G = cand.rank.size
    Y = np.empty((trials, cand.basis.shape[1]), dtype=np.complex128)
    step = max(2, _SCORE_BLOCK_BYTES // (2 * G * 16))
    bounds = [*range(0, trials - 1, step), trials]
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
            for a, b in zip(bounds, bounds[1:]):
                th, ph = cand.estimate(kernels.ml_scores(cand.basis, cand.rank, Y[a:b]), refine)
                for t, p in zip(th.tolist(), ph.tolist()):
                    se_th += math.radians(t - angle[0]) ** 2
                    se_ph += math.radians(p - angle[1]) ** 2
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
