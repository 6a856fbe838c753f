import gc
import math
import weakref

import numpy as np
import pytest

from pixelaoa import AngleGrid, PatternSet, SensingArea, crlb_matrix, upa_patterns
from pixelaoa.errors import EstimationError
from pixelaoa.simulate import (
    ml_estimate,
    monte_carlo_rmse,
    simulate_snapshot,
    export_report,
)

WINDOW = AngleGrid(theta_start_deg=80, theta_stop_deg=100, phi_start_deg=-10,
                   phi_stop_deg=10, step_deg=1.0)
SEARCH = SensingArea(80, 100, -10, 10)


@pytest.fixture(scope="module")
def upa():
    return upa_patterns(2, 2, 0.5, WINDOW)


# ---------------------------------------------------------------------------
# snapshot model
# ---------------------------------------------------------------------------

def test_noiseless_snapshot_equals_model_term(upa):
    snap = simulate_snapshot(upa, (90.0, 0.0), (1.0, 0.0), math.inf, 0)
    E = upa.at(90.0, 0.0)
    assert np.array_equal(snap.y, E.T @ np.array([1.0, 0.0]))
    assert snap.noise_var == 0.0


def test_snapshot_direct_substitution():
    # single theta-pol port with pattern value 2: noiseless y = [2]
    data = np.zeros((2, 1, WINDOW.n_theta, WINDOW.n_phi), dtype=complex)
    data[0, 0] = 2.0
    pats = PatternSet(WINDOW, data)
    snap = simulate_snapshot(pats, (90.0, 0.0), (1.0, 0.0), math.inf, 0)
    assert np.allclose(snap.y, [2.0])


def test_snapshot_seed_deterministic(upa):
    a = simulate_snapshot(upa, (90.0, 0.0), (1.0, 0.0), 10.0, 42)
    b = simulate_snapshot(upa, (90.0, 0.0), (1.0, 0.0), 10.0, 42)
    c = simulate_snapshot(upa, (90.0, 0.0), (1.0, 0.0), 10.0, 43)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_snapshot_snr_calibration(upa):
    # average over many draws approaches the calibrated noise variance
    snrs = []
    truth = (90.0, 0.0)
    E = upa.at(*truth)
    mu = E.T @ np.array([1.0, 0.0])
    sig_pow = float(np.vdot(mu, mu).real)
    for seed in range(200):
        snap = simulate_snapshot(upa, truth, (1.0, 0.0), 4.0, seed)
        snrs.append(sig_pow / np.sum(np.abs(snap.y - mu) ** 2))
    assert np.median(snrs) == pytest.approx(4.0, rel=0.35)


def test_snapshot_zero_source_rejected(upa):
    with pytest.raises(ValueError):
        simulate_snapshot(upa, (90.0, 0.0), (0.0, 0.0), 10.0, 0)


# ---------------------------------------------------------------------------
# ML estimator
# ---------------------------------------------------------------------------

def test_noiseless_estimate_exact(upa):
    for truth in [(90.0, 0.0), (85.0, 5.0), (95.0, -7.0)]:
        snap = simulate_snapshot(upa, truth, (1.0, 0.0), math.inf, 0)
        assert ml_estimate(snap.y, upa, SEARCH) == truth
        # refinement interpolates through unequal neighbours; stays close
        fine = ml_estimate(snap.y, upa, SEARCH, refine=True)
        assert abs(fine[0] - truth[0]) <= 0.1 and abs(fine[1] - truth[1]) <= 0.1


def test_orthogonal_subspaces_pick_the_matching_angle():
    # hand-built patterns: each candidate angle's steering vector is a
    # distinct canonical basis vector, so y = e_k must return angle k
    grid = AngleGrid(theta_start_deg=89, theta_stop_deg=91, phi_start_deg=0,
                     phi_stop_deg=2, step_deg=1.0)
    data = np.zeros((2, 3, 3, 3), dtype=complex)
    for k in range(3):
        data[0, k, 1, k] = 1.0          # candidates live on the theta=90 row
    pats = PatternSet(grid, data)
    area = SensingArea(90, 90, 0, 2)
    y = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert ml_estimate(y, pats, area) == (90.0, 1.0)


def test_rank_deficient_candidates_skipped():
    grid = AngleGrid(theta_start_deg=89, theta_stop_deg=91, phi_start_deg=0,
                     phi_stop_deg=2, step_deg=1.0)
    data = np.zeros((2, 2, 3, 3), dtype=complex)
    data[0, :, 1, 1] = [1.0, 1.0]          # only (90, 1) has a usable subspace
    pats = PatternSet(grid, data)
    area = SensingArea(90, 90, 0, 2)
    est = ml_estimate(np.array([1.0, 1.0], dtype=complex), pats, area)
    assert est == (90.0, 1.0)
    # all-zero patterns: nothing to project on
    zero = PatternSet(grid, np.zeros((2, 2, 3, 3), dtype=complex))
    with pytest.raises(EstimationError):
        ml_estimate(np.array([1.0, 1.0], dtype=complex), zero, area)


def test_candidate_cache_leaves_patterns_collectable():
    pats = upa_patterns(2, 2, 0.5, WINDOW)
    y = simulate_snapshot(pats, (90.0, 0.0), (1.0, 0.0), math.inf, 0).y
    assert ml_estimate(y, pats, SEARCH) == (90.0, 0.0)
    ref = weakref.ref(pats)
    del pats
    gc.collect()
    assert ref() is None


def test_refinement_moves_somewhere_sensible(upa):
    # off-grid behaviour is exercised through monte-carlo; here refinement at
    # a noisy peak must stay within half a step of the grid argmax
    snap = simulate_snapshot(upa, (90.0, 0.0), (1.0, 0.0), 100.0, 3)
    coarse = ml_estimate(snap.y, upa, SEARCH, refine=False)
    fine = ml_estimate(snap.y, upa, SEARCH, refine=True)
    assert abs(fine[0] - coarse[0]) <= 0.5
    assert abs(fine[1] - coarse[1]) <= 0.5


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

def test_trials_precondition(upa):
    with pytest.raises(ValueError):
        monte_carlo_rmse(upa, [(90.0, 0.0)], [1.0], trials=99, seed=0)


def test_noiseless_rmse_zero(upa):
    rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [math.inf], trials=100, seed=0,
                           search_area=SEARCH)
    assert rep.records[0].rmse_theta_rad == 0.0
    assert rep.records[0].rmse_phi_rad == 0.0


def test_report_deterministic(upa):
    a = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0], trials=120, seed=5, search_area=SEARCH)
    b = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0], trials=120, seed=5, search_area=SEARCH)
    assert a.records == b.records


def test_high_snr_rmse_tracks_crlb(upa):
    rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0], trials=400, seed=11,
                           search_area=SEARCH)
    r = rep.records[0]
    assert r.crlb_theta_rad <= r.rmse_theta_rad <= 3.0 * r.crlb_theta_rad
    # one-sided bound with the chi-square standard error of the MSE estimate
    se = r.mse_theta_rad2 * math.sqrt(2.0 / r.trials)
    assert r.mse_theta_rad2 >= r.crlb_theta_rad**2 - 3.0 * se


def test_six_db_roughly_halves_rmse(upa):
    rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0, 100.0 * 10**0.6],
                           trials=600, seed=2, search_area=SEARCH)
    lo, hi = rep.records
    ratio = lo.rmse_theta_rad / hi.rmse_theta_rad
    assert 1.5 <= ratio <= 2.5


def test_estimator_consistency_with_snr(upa):
    # P(error > one grid step) decreases monotonically over 0/10/20/30 dB
    step_rad = math.radians(1.0)
    probs = []
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [10 ** (snr_db / 10)],
                               trials=300, seed=8, search_area=SEARCH, refine=False)
        r = rep.records[0]
        # use the per-angle RMSE as a proxy: chebyshev-style exceedance bound
        probs.append(r.rmse_theta_rad)
    assert probs[0] > probs[1] > probs[2] > probs[3] or probs[2] == probs[3] == 0.0


def test_export_columns(tmp_path, upa):
    rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [1.0, 100.0], trials=100, seed=0,
                           search_area=SEARCH)
    path = tmp_path / "mc.csv"
    export_report(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("theta_deg,phi_deg,snr_db,trials,rmse_theta_rad,rmse_phi_rad,"
                        "crlb_theta_rad,crlb_phi_rad")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.0)          # snr in dB
    assert int(first[3]) == 100


def test_random_unit_source_mode(upa):
    rep = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0], trials=100, seed=4,
                           search_area=SEARCH, source="random-unit")
    assert rep.source == "random-unit"
    assert rep.records[0].rmse_theta_rad > 0.0
    again = monte_carlo_rmse(upa, [(90.0, 0.0)], [100.0], trials=100, seed=4,
                             search_area=SEARCH, source="random-unit")
    assert again.records == rep.records
