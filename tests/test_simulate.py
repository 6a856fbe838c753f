import gc
import math
import weakref

import numpy as np
import pytest

from pixelaoa import AngleGrid, PatternSet, SensingArea, crlb_matrix, upa_patterns
from pixelaoa import kernels, simulate
from pixelaoa.errors import EstimationError
from pixelaoa.simulate import (
    RANK_TOL_REL,
    _orthobases,
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


def _orthobasis_oracle(A):
    """Reference Gram-Schmidt of one (N, 2) candidate, column by column."""
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


def _assert_orthobases_match_oracle(A, exact=None):
    """Ranks equal the oracle's; bases agree to 1e-14 where exact[g] (default: all)."""
    basis, rank = _orthobases(A)
    assert basis.shape == A.shape
    for g in range(A.shape[0]):
        want_basis, want_rank = _orthobasis_oracle(A[g])
        assert rank[g] == want_rank, g
        if exact is None or exact[g]:
            assert np.max(np.abs(basis[g] - want_basis)) <= 1e-14, g
    return rank


@pytest.mark.parametrize("N", [1, 2, 5, 16])
def test_orthobases_match_scalar_oracle_on_random_stacks(N):
    rng = np.random.default_rng(N)
    A = rng.normal(size=(300, N, 2)) + 1j * rng.normal(size=(300, N, 2))
    A[::7] *= 1e-150                      # the tolerance is relative to each candidate
    rank = _assert_orthobases_match_oracle(A)
    assert np.all(rank == min(N, 2))


def test_orthobases_edge_cases_match_scalar_oracle():
    rng = np.random.default_rng(21)
    u = rng.normal(size=4) + 1j * rng.normal(size=4)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    e = w - u * (np.vdot(u, w) / np.vdot(u, u))
    e /= np.linalg.norm(e)                # unit vector orthogonal to u
    tiny = RANK_TOL_REL * np.linalg.norm(u)
    zero = np.zeros(4, dtype=complex)
    cases = [                             # columns, rank
        ((zero, zero), 0),                # all-zero candidate
        ((zero, u), 1),                   # zero first column, nonzero second
        ((u, zero), 1),
        ((u, (2.0 - 3.0j) * u), 1),       # parallel columns
        ((u, u + 0.9 * tiny * e), 1),     # residual just under the tolerance
        ((0.9 * tiny * e, u), 1),         # first column just under the tolerance
        ((u, w), 2),
        # Just over the tolerance the second basis column is the direction of a
        # residual 1e-12 times smaller than its column, which rounding fixes only
        # to about 1e-4: ranks must match, bases cannot to 1e-14.
        ((u, u + 1.1 * tiny * e), 2),
    ]
    A = np.stack([np.stack(cols, axis=1) for cols, _ in cases])
    rank = _assert_orthobases_match_oracle(A, exact=[True] * (len(cases) - 1) + [False])
    assert rank.tolist() == [r for _, r in cases]


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


def test_quadratic_offset_matches_clip_oracle():
    rng = np.random.default_rng(12)
    triples = rng.normal(size=(2000, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(2000, 1))
    special = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0)
    triples = [tuple(map(np.float64, t)) for t in triples]
    triples += [tuple(map(np.float64, (a, b, c))) for a in special for b in special
                for c in special]
    with np.errstate(invalid="ignore"):
        for sm, s0, sp in triples:
            den = sm - 2.0 * s0 + sp
            want = 0.0 if den >= 0.0 else float(np.clip(0.5 * (sm - sp) / den, -0.5, 0.5))
            got = simulate._quadratic_offset(sm, s0, sp)
            assert type(got) is float
            assert np.array_equal(got, want, equal_nan=True)
            assert np.signbit(got) == np.signbit(want)


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

def test_trials_precondition(upa):
    with pytest.raises(ValueError):
        monte_carlo_rmse(upa, [(90.0, 0.0)], [1.0], trials=99, seed=0, search_area=SEARCH)


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


@pytest.mark.parametrize("source", [(1.0, 0.5j)])
def test_monte_carlo_trials_match_ml_estimate(upa, monkeypatch, source):
    angles, snrs, trials, seed = [(90.0, 0.0), (86.0, 4.0)], [3.0, 100.0], 100, 9
    estimate = simulate._CandidateGrid.estimate
    got = {}
    for refine in (False, True):
        seen = got[refine] = []

        def spy(self, scores, refine):
            seen.append(estimate(self, scores, refine))
            return seen[-1]

        with monkeypatch.context() as m:
            m.setattr(simulate._CandidateGrid, "estimate", spy)
            monte_carlo_rmse(upa, angles, snrs, trials, seed, search_area=SEARCH,
                             source=source, refine=refine)
    assert len(got[False]) == len(got[True]) == len(angles) * len(snrs) * trials

    k = 0
    for ai, angle in enumerate(angles):
        for si, snr in enumerate(snrs):
            for t in range(trials):
                y = simulate_snapshot(upa, angle, source, snr, np.random.SeedSequence(
                    entropy=seed, spawn_key=(ai, si, t))).y
                assert got[False][k] == ml_estimate(y, upa, SEARCH)
                fine = ml_estimate(y, upa, SEARCH, refine=True)
                assert abs(got[True][k][0] - fine[0]) <= 1e-9
                assert abs(got[True][k][1] - fine[1]) <= 1e-9
                k += 1


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


def test_singular_cell_reports_an_infinite_bound(tmp_path):
    # a 2x2 iso-theta UPA at endfire: its Fisher information is singular, so the
    # record carries an infinite CRLB beside the finite RMSEs the trials measure
    window = AngleGrid(theta_start_deg=80, theta_stop_deg=100, phi_start_deg=80,
                       phi_stop_deg=100, step_deg=1.0)
    pats = upa_patterns(2, 2, 0.5, window)
    assert crlb_matrix(pats, (90.0, 90.0), 100.0).singular
    rep = monte_carlo_rmse(pats, [(90.0, 90.0)], [100.0], trials=100, seed=3,
                           search_area=SensingArea(85, 95, 85, 95))
    r, = rep.records
    assert r.crlb_theta_rad == r.crlb_phi_rad == math.inf
    assert math.isfinite(r.rmse_theta_rad) and math.isfinite(r.rmse_phi_rad)
    path = tmp_path / "mc.csv"
    export_report(rep, path)
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[6:] == ["inf", "inf"]


def test_monte_carlo_scores_one_chunk_of_trials_at_a_time(upa, monkeypatch):
    G = 21 * 21
    # 3 snapshots per chunk, so 100 trials end in a partial chunk
    monkeypatch.setattr(kernels, "_ML_CHUNK_BYTES", 3 * 2 * G * 16)
    calls = []
    real = kernels.ml_scores

    def spy(basis, rank, y):
        calls.append((basis.shape, len(y)))
        return real(basis, rank, y)

    monkeypatch.setattr(kernels, "ml_scores", spy)
    monte_carlo_rmse(upa, [(90.0, 0.0)], [10.0], trials=100, seed=0, search_area=SEARCH)
    assert [n for _, n in calls] == [3] * 33 + [1]
    # the traced benchmark reads the (G, N, 2) shape of the basis
    assert {shape for shape, _ in calls} == {(G, upa.n_ports, 2)}


@pytest.mark.parametrize("refine", [False, True])
def test_monte_carlo_tiny_score_chunks_match_default(upa, monkeypatch, refine):
    args = ([(90.0, 0.0), (86.0, 4.0)], [3.0, 100.0], 100, 9)
    want = monte_carlo_rmse(upa, *args, search_area=SEARCH, refine=refine)
    monkeypatch.setattr(kernels, "_ML_CHUNK_BYTES", 1)           # one snapshot per chunk
    got = monte_carlo_rmse(upa, *args, search_area=SEARCH, refine=refine)
    assert len(got.records) == len(want.records) == 4
    for a, b in zip(got.records, want.records):
        assert (a.theta_deg, a.phi_deg, a.snr_linear) == (b.theta_deg, b.phi_deg, b.snr_linear)
        assert a.mse_theta_rad2 == pytest.approx(b.mse_theta_rad2, rel=1e-9, abs=1e-18)
        assert a.mse_phi_rad2 == pytest.approx(b.mse_phi_rad2, rel=1e-9, abs=1e-18)
        assert (a.crlb_theta_rad, a.crlb_phi_rad) == (b.crlb_theta_rad, b.crlb_phi_rad)
