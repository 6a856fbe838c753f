"""Hot numeric kernels, vectorised over batches in numpy.

The two inner loops that dominate runtime are (a) the per-grid-point Fisher
information sweep behind every CRLB map and (b) the per-candidate subspace
projection scores of the ML angle search.  The sweep streams its points
in blocks under a fixed byte budget, so its working memory does not grow
with the batch; the scores take one block of snapshots per call and run one
GEMM per basis column that some candidate uses.
"""

from __future__ import annotations

import numpy as np

# Re{F} is declared rank deficient when det <= RANK_TOL * scale^2.
RANK_TOL = 1e-12

# Most bytes of one complex (2N x points) stencil gather in fim_sweep;
# larger point batches are swept in blocks of that many points.  The budget
# is small so that a block's temporaries, beside one theta band's patterns
# (crlb.theta_bands), reuse freed heap pages instead of faulting in fresh
# ones.  On crlb-map --upa 4x4 over the 0.5 deg front hemisphere (17 bands)
# the child took 90k minor faults with 2 MB blocks, 16-17k with 512 KB and
# 12-13k with 256 KB, against 16-17k for the one-window map; 512 KB and
# 256 KB blocks sweep in the same time.
_FIM_CHUNK_BYTES = 1 << 18


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
    indices; inv_dt/inv_dp: per-point 1/denominator in 1/rad.  Points are
    swept in blocks of _FIM_CHUNK_BYTES; each point's sums run over the 2N
    axis alone, so the results do not depend on the block size.
    """
    e = np.ascontiguousarray(e, dtype=np.complex128)
    S = len(it)
    c_tt, c_tp, c_pp, obj = (np.empty(S) for _ in range(4))
    singular = np.empty(S, dtype=bool)
    step = max(1, _FIM_CHUNK_BYTES // (e.shape[0] * e.itemsize))     # points per block
    for s0 in range(0, S, step):
        b = slice(s0, s0 + step)
        (c_tt[b], c_tp[b], c_pp[b], obj[b], singular[b]) = _fim_block(
            e, it[b], ip[b], itp[b], itm[b], inv_dt[b], ipp[b], ipm[b], inv_dp[b], snr)
    return c_tt, c_tp, c_pp, obj, singular


def _fim_block(e, it, ip, itp, itm, inv_dt, ipp, ipm, inv_dp, snr):
    """fim_sweep on one block of points, all gathered at once."""
    f = e[:, it, ip]                                  # (2N, S), each point's 2N contiguous
    dth = (e[:, itp, ip] - e[:, itm, ip]) * inv_dt    # (2N, S)
    dph = (e[:, it, ipp] - e[:, it, ipm]) * inv_dp

    # |x|^2 and Re(conj(x) y) sums as real dot products over each point's
    # (re, im) pairs: the (S, 4N) views x.T.view(float64) are contiguous
    fr, tr, pr = (x.T.view(np.float64) for x in (f, dth, dph))
    nf2 = np.einsum("jk,jk->j", fr, fr)
    a = np.sum(f * dth, axis=0)                       # f row-vector times J, no conjugation
    b = np.sum(f * dph, axis=0)

    g00 = np.einsum("jk,jk->j", tr, tr)
    g11 = np.einsum("jk,jk->j", pr, pr)
    g01 = np.einsum("jk,jk->j", tr, pr)               # Re sum conj(dth) dph

    with np.errstate(invalid="ignore", divide="ignore"):
        inv_nf2 = np.where(nf2 > 0, 1.0 / np.where(nf2 > 0, nf2, 1.0), 0.0)
    r00 = g00 - (a.conj() * a).real * inv_nf2
    r11 = g11 - (b.conj() * b).real * inv_nf2
    r01 = g01 - (a.conj() * b * inv_nf2).real

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

    basis: (G, N, 2) orthonormal columns, rank: (G,) in {0, 1, 2}; kept
    columns fill the basis from the left.  y: one snapshot (N,) or a block
    of snapshots (T, N); the scores are (G,) or (T, G).  Rank-0 candidates
    score -1 so they are never selected.  Column 0 is scored by one GEMM;
    column 1 only when some candidate has rank 2, and then it is read for
    every candidate, so the unused columns of a mixed set must be zero.  A
    call holds its (T x G) projections per column, so callers bound T.
    |conj(y) b| = |y conj(b)|, so the snapshots are conjugated instead of
    the candidates: a basis laid out as a transposed (G, 2, N) array, as
    simulate._orthobases returns it, is read by BLAS in place, never
    copied.
    """
    y = np.asarray(y, dtype=np.complex128)
    yc = y.reshape(-1, basis.shape[1]).conj()
    sq = (yc @ basis[:, :, 0].T).view(np.float64)             # (T, 2G): re, im per candidate
    sq *= sq
    if np.any(rank == 2):
        sq1 = (yc @ basis[:, :, 1].T).view(np.float64)
        sq1 *= sq1
        sq += sq1
    # (re0² + re1²) + (im0² + im1²), in this fixed order: Monte-Carlo reports
    # depend on the score bits
    scores = sq[:, 0::2] + sq[:, 1::2]
    scores[:, rank == 0] = -1.0
    return scores if y.ndim == 2 else scores[0]
