"""Hot numeric kernels, vectorised over batches in numpy.

The two inner loops that dominate runtime are (a) the per-grid-point Fisher
information sweep behind every CRLB map and (b) the per-candidate subspace
projection scores of the ML angle search.
"""

from __future__ import annotations

import numpy as np

# Re{F} is declared rank deficient when det <= RANK_TOL * scale^2.
RANK_TOL = 1e-12


# ---------------------------------------------------------------------------
# Fisher information sweep
#
# Inputs are the stacked-polarization pattern tensor e (2N, n_theta, n_phi)
# and, per evaluation point, the centre indices plus the neighbour indices
# and inverse step denominators that encode central / one-sided / wrapped
# finite differences.  Output: CRLB entries (rad^2), the objective
# sqrt(c_tt + c_pp), and a singularity flag per point.
# ---------------------------------------------------------------------------

def fim_sweep(e, it, ip, itp, itm, inv_dt, ipp, ipm, inv_dp, snr):
    """CRLB entries at a batch of grid points.

    e: (2N, n_theta, n_phi) complex128 stacked [theta-pol ports; phi-pol
    ports].  it/ip: centre indices; itp/itm/ipp/ipm: differencing neighbour
    indices; inv_dt/inv_dp: per-point 1/denominator in 1/rad.
    """
    e = np.ascontiguousarray(e, dtype=np.complex128)
    f = e[:, it, ip]                                  # (2N, S)
    dth = (e[:, itp, ip] - e[:, itm, ip]) * inv_dt    # (2N, S)
    dph = (e[:, it, ipp] - e[:, it, ipm]) * inv_dp

    nf2 = np.sum(np.abs(f) ** 2, axis=0)
    a = np.sum(f * dth, axis=0)                       # f row-vector times J, no conjugation
    b = np.sum(f * dph, axis=0)

    g00 = np.sum(dth.conj() * dth, axis=0).real
    g11 = np.sum(dph.conj() * dph, axis=0).real
    g01 = np.sum(dth.conj() * dph, axis=0)

    with np.errstate(invalid="ignore", divide="ignore"):
        inv_nf2 = np.where(nf2 > 0, 1.0 / np.where(nf2 > 0, nf2, 1.0), 0.0)
    r00 = g00 - (a.conj() * a).real * inv_nf2
    r11 = g11 - (b.conj() * b).real * inv_nf2
    r01 = (g01 - a.conj() * b * inv_nf2).real

    det = r00 * r11 - r01 * r01
    scale = np.maximum(np.maximum(np.abs(r00), np.abs(r11)), np.abs(r01))
    singular = (nf2 <= 0.0) | (det <= RANK_TOL * scale * scale) | (scale <= 0.0)

    denom = np.where(singular, 1.0, det) * (2.0 * snr)
    c_tt = np.where(singular, np.inf, r11 / denom)
    c_tp = np.where(singular, np.inf, -r01 / denom)
    c_pp = np.where(singular, np.inf, r00 / denom)
    obj = np.where(singular, np.inf, np.sqrt(np.maximum(c_tt + c_pp, 0.0)))
    return c_tt, c_tp, c_pp, obj, singular


# ---------------------------------------------------------------------------
# ML projection scores
# ---------------------------------------------------------------------------

def ml_scores(basis, rank, y):
    """Squared norm of the projection of y onto each candidate subspace.

    basis: (G, N, 2) orthonormal columns (unused columns zero), rank: (G,)
    in {0, 1, 2}.  Rank-0 candidates score -1 so they are never selected.
    """
    proj = np.einsum("gnr,n->gr", basis.conj(), y)
    scores = np.abs(proj[:, 0]) ** 2
    scores += np.where(rank > 1, np.abs(proj[:, 1]) ** 2, 0.0)
    return np.where(rank > 0, scores, -1.0)
