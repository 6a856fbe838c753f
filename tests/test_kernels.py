"""The batched numpy kernels against slow per-point oracles."""

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    GeometryConfig,
    SensingArea,
    crlb_map,
    kernels,
    simulate,
    upa_patterns,
)
from pixelaoa.crlb import fd_stencil, projection_matrix
from pixelaoa.emdata import PatternSet
from pixelaoa.optimizer import ConfigEvaluator

from oracles import ml_scores_stacked, stacked, steering_jacobian, steering_row


def _random_patterns(rng, n_ports, grid):
    shape = (2, n_ports, grid.n_theta, grid.n_phi)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _crlb_oracle(pats, angle, snr, fd_step_deg):
    """C = Re{J^H D J}^-1 / (2 snr) at one angle, with an explicit 2x2 inverse."""
    f = steering_row(pats, angle)
    J = steering_jacobian(pats, angle, fd_step_deg)
    R = (J.conj().T @ projection_matrix(f) @ J).real
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    return np.array([[R[1, 1], -R[0, 1]], [-R[1, 0], R[0, 0]]]) / (det * 2.0 * snr)


@pytest.mark.parametrize("step_mult", [1, 2])
def test_fim_sweep_matches_per_point_oracle(step_mult):
    rng = np.random.default_rng(42)
    # the full sphere wraps in phi; the partial window has one-sided phi edges
    grids = (AngleGrid(step_deg=5.0), AngleGrid(30.0, 150.0, -60.0, 60.0, 5.0))
    assert [grid.phi_wraps for grid in grids] == [True, False]
    for grid in grids:
        _check_fim_sweep_against_oracle(rng, grid, step_mult)


def _check_fim_sweep_against_oracle(rng, grid, step_mult):
    data = _random_patterns(rng, 3, grid)
    zero = (7, 11)                                  # one point where every port is silent
    data[:, :, zero[0], zero[1]] = 0.0
    pats = PatternSet(grid, data)

    # theta ends, both phi ends (the seam on the full sphere), the zero point and a
    # random interior spread
    t_ids = np.array([0, step_mult - 1, 7, grid.n_theta // 2, grid.n_theta - 1])
    p_ids = np.array([0, 1, 11, grid.n_phi // 3, grid.n_phi - 1])
    it = np.repeat(t_ids, p_ids.size)
    ip = np.tile(p_ids, t_ids.size)
    snr = 3.5
    c_tt, c_tp, c_pp, obj, sing = kernels.fim_sweep(
        stacked(pats), it, ip, *fd_stencil(grid, it, ip, step_mult * grid.step_deg), snr)

    fd_step = step_mult * grid.step_deg
    for k in range(it.size):
        angle = (float(grid.theta_deg[it[k]]), float(grid.phi_deg[ip[k]]))
        if (it[k], ip[k]) == zero:
            assert sing[k]
            assert np.isinf([c_tt[k], c_tp[k], c_pp[k], obj[k]]).all()
            with pytest.raises(ValueError):
                projection_matrix(steering_row(pats, angle))
            continue
        C = _crlb_oracle(pats, angle, snr, fd_step)
        assert not sing[k]
        assert c_tt[k] == pytest.approx(C[0, 0], rel=1e-10)
        assert c_tp[k] == pytest.approx(C[0, 1], rel=1e-10, abs=1e-12 * abs(C[0, 0]))
        assert c_pp[k] == pytest.approx(C[1, 1], rel=1e-10)
        assert obj[k] == pytest.approx(np.sqrt(C[0, 0] + C[1, 1]), rel=1e-10)


def _map_fields(m):
    return (m.theta_deg, m.phi_deg, m.c_tt, m.c_tp, m.c_pp, m.objective, m.singular,
            m.worst, m.worst_angle)


# one point per block, and 7 points of 2N = 6 per block on 2664 points (2664 = 7 * 380 + 4)
@pytest.mark.parametrize("budget", [1, 7 * 6 * 16])
def test_fim_sweep_blocks_leave_crlb_map_bit_identical(monkeypatch, budget):
    rng = np.random.default_rng(5)
    grid = AngleGrid(step_deg=5.0)
    data = _random_patterns(rng, 3, grid)
    data[:, :, 7, 11] = 0.0                         # one singular point
    pats = PatternSet(grid, data)
    area = SensingArea(0, 180, -180, 175)           # every point of the wrapping grid
    want = crlb_map(pats, area, 2.0, fd_step_deg=10.0)
    assert want.n_points == 2664 and want.singular.any()
    monkeypatch.setattr(kernels, "_FIM_CHUNK_BYTES", budget)
    got = crlb_map(pats, area, 2.0, fd_step_deg=10.0)
    for a, b in zip(_map_fields(got), _map_fields(want)):
        np.testing.assert_array_equal(a, b, strict=True)


# one point per block, and 7 points of 2N = 4 per block
@pytest.mark.parametrize("budget", [1, 7 * 4 * 16])
def test_fim_sweep_blocks_leave_objective_many_bit_identical(monkeypatch, tiny_dataset, budget):
    area = SensingArea(80, 100, -10, 10)
    cfgs = [GeometryConfig((0, 1), tuple(int(b) for b in f"{i:04b}")) for i in range(16)]
    want = ConfigEvaluator(tiny_dataset, 1.0).objective_many(cfgs, area)
    monkeypatch.setattr(kernels, "_FIM_CHUNK_BYTES", budget)
    assert ConfigEvaluator(tiny_dataset, 1.0).objective_many(cfgs, area) == want


def _random_bases(rng, G, N, ranks=(0, 1, 2)):
    """Orthonormal (G, N, 2) bases whose ranks cycle through ranks; unused columns zero.

    Laid out as simulate._orthobases lays out its bases: a transposed
    (G, 2, N) array, whose columns BLAS reads in place.
    """
    cols = np.zeros((G, 2, N), dtype=np.complex128)
    rank = np.resize(ranks, G)
    for g in range(G):
        q, _ = np.linalg.qr(rng.normal(size=(N, 2)) + 1j * rng.normal(size=(N, 2)))
        cols[g, : rank[g]] = q[:, : rank[g]].T
    return cols.transpose(0, 2, 1), rank


def test_ml_scores_matches_projection_norm():
    rng = np.random.default_rng(3)
    G, N = 60, 6
    basis, rank = _random_bases(rng, G, N)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)

    scores = kernels.ml_scores(basis, rank, y)
    for g in range(G):
        if rank[g] == 0:
            assert scores[g] == -1.0
            continue
        B = basis[g, :, : rank[g]]
        P = B @ B.conj().T
        assert scores[g] == pytest.approx(np.linalg.norm(P @ y) ** 2, rel=1e-12)


@pytest.mark.parametrize("T", [1, 7])
def test_ml_scores_block_matches_per_row_calls(T):
    rng = np.random.default_rng(4)
    G, N = 60, 6
    basis, rank = _random_bases(rng, G, N)
    Y = rng.normal(size=(T, N)) + 1j * rng.normal(size=(T, N))

    block = kernels.ml_scores(basis, rank, Y)
    assert block.shape == (T, G)
    for t in range(T):
        row = kernels.ml_scores(basis, rank, Y[t])
        assert row.shape == (G,)
        np.testing.assert_allclose(block[t], row, rtol=1e-12, atol=0.0)
        assert np.argmax(block[t]) == np.argmax(row)
        assert np.all(block[t, rank == 0] == -1.0)


def _random_snapshots(rng, T, N):
    return rng.normal(size=(T, N)) + 1j * rng.normal(size=(T, N))


def _assert_ml_scores_match_stacked_oracle(rng, basis, rank, blocks=1):
    # one snapshot, and blocks of 7 snapshots
    N = basis.shape[1]
    ys = [_random_snapshots(rng, 1, N)[0]]
    ys += [_random_snapshots(rng, 7, N) for _ in range(blocks)]
    for y in ys:
        np.testing.assert_array_equal(kernels.ml_scores(basis, rank, y),
                                      ml_scores_stacked(basis, rank, y), strict=True)


@pytest.mark.parametrize("ranks", [(0, 1, 2), (0, 1), (1,), (2,)])
def test_ml_scores_bit_equal_to_stacked_oracle_on_random_bases(ranks):
    rng = np.random.default_rng(6)
    basis, rank = _random_bases(rng, 300, 6, ranks)
    _assert_ml_scores_match_stacked_oracle(rng, basis, rank)


# the upa workload's Monte-Carlo search box: angles 90,0 and 60,40 widened by 15 deg
UPA_SEARCH = SensingArea(45, 105, -15, 55)


@pytest.mark.parametrize("element, ranks", [("iso-theta", {1}), ("iso-dual", {2})])
def test_ml_scores_bit_equal_to_stacked_oracle_on_upa_search_sets(element, ranks):
    pats = upa_patterns(4, 4, 0.5, AngleGrid(*UPA_SEARCH.bounds(), 0.5), element=element)
    cand = simulate._CandidateGrid(pats, UPA_SEARCH)
    assert cand.rank.size == 121 * 141 and set(cand.rank.tolist()) == ranks
    _assert_ml_scores_match_stacked_oracle(np.random.default_rng(8), cand.basis, cand.rank,
                                           blocks=3)


def test_ml_scores_reads_no_second_column_when_every_rank_is_at_most_one():
    rng = np.random.default_rng(9)
    basis, rank = _random_bases(rng, 60, 6, (0, 1))
    Y = _random_snapshots(rng, 7, 6)
    want = ml_scores_stacked(basis, rank, Y)
    basis[:, :, 1] = np.nan
    got = kernels.ml_scores(basis, rank, Y)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got, want, strict=True)
