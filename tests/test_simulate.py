import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pixelaoa import AngleGrid, PatternSet, SensingArea, crlb_matrix, upa_patterns
from pixelaoa import GeometryConfig, kernels, simulate
from pixelaoa.errors import EstimationError
from pixelaoa.network import overall_patterns
from pixelaoa.simulate import (
    RANK_TOL_REL,
    _orthobases,
    ml_estimate,
    monte_carlo_rmse,
    simulate_snapshot,
    export_report,
)

from oracles import estimate_row

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
    triples = [tuple(map(float, t)) for t in triples]
    triples += [(a, b, c) for a in special for b in special for c in special]
    got = simulate._quadratic_offset(*np.array(triples).T)
    assert got.dtype == np.float64 and got.shape == (len(triples),)
    with np.errstate(invalid="ignore"):
        for (sm, s0, sp), g in zip(triples, got.tolist()):
            den = sm - 2.0 * s0 + sp
            want = 0.0 if den >= 0.0 else float(np.clip(0.5 * (sm - sp) / den, -0.5, 0.5))
            assert np.array_equal(g, want, equal_nan=True)
            assert np.signbit(g) == np.signbit(want)


def _assert_block_estimate_matches_rows(cand, scores, refine):
    th, ph = cand.estimate(scores, refine)
    assert th.shape == ph.shape == (scores.shape[0],)
    want = [estimate_row(cand, row, refine) for row in scores]
    got = list(zip(th.tolist(), ph.tolist()))
    assert got == want
    assert [tuple(map(np.signbit, g)) for g in got] == [tuple(map(np.signbit, w)) for w in want]


@pytest.mark.parametrize("refine", [False, True])
def test_block_estimate_equals_per_row_estimates(upa, refine):
    cand = simulate._CandidateGrid(upa, SEARCH)
    nt, npph = cand.shape
    rng = np.random.default_rng(5)
    rows = [rng.random(nt * npph) for _ in range(20)]
    for ti, pi in [(0, 0), (0, 7), (nt - 1, 3), (4, 0), (9, npph - 1), (nt - 1, npph - 1),
                   (1, 1), (nt - 2, npph - 2), (10, 10)]:
        for nbr in (0.5, 1.5, -1.0, 2.0):        # below, tied with, rank-0 and above the peak
            s = rng.random((nt, npph))
            s[ti, pi] = 1.5
            s[max(ti - 1, 0), pi] = s[ti, max(pi - 1, 0)] = nbr
            rows.append(s.ravel())
    rows.append(np.ones(nt * npph))                       # all tied: the first candidate
    tie = np.zeros((nt, npph))
    tie[3, 5] = tie[3, 6] = tie[12, 2] = 1.0              # equal maxima: the lowest index
    rows.append(tie.ravel())
    rank0 = np.full(nt * npph, -1.0)                      # one usable candidate
    rank0[7 * npph + 8] = 0.25
    rows.append(rank0)
    flat = np.zeros((nt, npph))                           # zero curvature and -0.0
    flat[6, 6:9] = [1.0, 1.0, 1.0]
    flat[5, 6] = -0.0
    rows.append(flat.ravel())
    steep = np.zeros((nt, npph))                          # vertex near half a step
    steep[8, 8], steep[8, 9], steep[9, 8] = 1.0, 0.999, 0.999
    rows.append(steep.ravel())
    scores = np.array(rows)
    _assert_block_estimate_matches_rows(cand, scores, refine)
    for i in (0, len(rows) - 1):                          # one-row blocks, as ml_estimate
        _assert_block_estimate_matches_rows(cand, scores[i:i + 1], refine)
    # a row whose candidates are all rank-deficient fails the whole block
    scores[4] = -1.0
    with pytest.raises(EstimationError):
        cand.estimate(scores, refine)
    with pytest.raises(EstimationError):
        estimate_row(cand, scores[4], refine)


@pytest.mark.parametrize("per", [1, 3, 7])
def test_candidate_bases_built_in_blocks_equal_one_orthobases_call(monkeypatch, per):
    # 19 x 19 = 361 candidates: blocks of 3 end in a lone candidate, blocks
    # of 7 in four
    rng = np.random.default_rng(per)
    N = 16
    shape = (2, N, WINDOW.n_theta, WINDOW.n_phi)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    data[:, :, ::5] *= 1e-150
    data[1, :, :, ::4] = (2.0 - 1.0j) * data[0, :, :, ::4]     # rank-1 candidates
    data[:, :, 3, 3] = 0.0                                     # a rank-0 candidate
    pats = PatternSet(WINDOW, data)
    area = SensingArea(81, 99, -9, 9)
    monkeypatch.setattr(simulate, "_BASIS_BLOCK_BYTES", per * 2 * N * 16)
    cand = simulate._CandidateGrid(pats, area)
    it, ip = area.points(WINDOW)
    basis, rank = _orthobases(np.transpose(data[:, :, it, ip], (2, 1, 0)))
    assert cand.rank.size == 361 and set(rank.tolist()) == {0, 1, 2}
    np.testing.assert_array_equal(cand.basis, basis, strict=True)
    np.testing.assert_array_equal(cand.rank, rank, strict=True)
    # the (G, N, 2) view of a (G, 2, N) array that ml_scores reads in place
    assert cand.basis.strides == basis.strides


def test_candidate_build_memory_is_bounded_by_a_block():
    # the upa workload's search set: 121 x 141 = 17061 candidates of a 4x4 UPA
    area = SensingArea(45, 105, -15, 55)
    pats = upa_patterns(4, 4, 0.5, AngleGrid(*area.bounds(), 0.5))
    tracemalloc.start()
    try:
        cand = simulate._CandidateGrid(pats, area)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cand.rank.size == 17061
    # beside the 8.7 MB of bases, a few 1 MB blocks' temporaries; the build of
    # all candidates at once held three times the bases more
    assert peak - cand.basis.nbytes < 8 << 20, (peak, cand.basis.nbytes)


def _pixel_patterns(dataset, feed_ports):
    config = GeometryConfig(feed_ports, (0,) * dataset.n_loaded)
    return overall_patterns(dataset, config).patterns


def test_a_search_of_candidates_spanning_every_port_warns(small_dataset):
    # two ports and two polarizations: every candidate basis spans C^2, so
    # every snapshot scores ||y||^2 at every candidate
    pats = _pixel_patterns(small_dataset, (0, 4))
    with pytest.warns(RuntimeWarning, match=r"25 of 25 candidate angles span all 2 ports"):
        ml_estimate(np.ones(2, dtype=complex), pats, SEARCH)
    with pytest.warns(RuntimeWarning, match=r"span all 2 ports"):
        simulate._CandidateGrid(upa_patterns(1, 1, 0.5, WINDOW, "iso-dual"), SEARCH)


@pytest.mark.parametrize("make", [
    lambda ds: upa_patterns(4, 4, 0.5, WINDOW),                # rank 1 of 16 ports
    lambda ds: _pixel_patterns(ds, (0, 2, 4, 8)),
], ids=["upa4x4", "pixel_4_ports"])
def test_a_search_that_can_tell_angles_apart_does_not_warn(small_dataset, make):
    pats = make(small_dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cand = simulate._CandidateGrid(pats, SEARCH)
    assert cand.rank.max() < pats.n_ports


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
            th, ph = estimate(self, scores, refine)
            seen.extend(zip(th.tolist(), ph.tolist()))
            return th, ph

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


def _spy_on_ml_scores(monkeypatch):
    """The (basis shape, rows) of each kernels.ml_scores call, as made."""
    calls = []
    real = kernels.ml_scores

    def spy(basis, rank, y):
        calls.append((basis.shape, len(y)))
        return real(basis, rank, y)

    monkeypatch.setattr(kernels, "ml_scores", spy)
    return calls


@pytest.mark.parametrize("step", [3, 30])
@pytest.mark.parametrize("trials", [100, 101, 102])
def test_monte_carlo_scores_blocks_of_two_to_step_plus_one_trials(upa, monkeypatch, step,
                                                                 trials):
    G = 21 * 21
    monkeypatch.setattr(simulate, "_SCORE_BLOCK_BYTES", step * 2 * G * 16)
    calls = _spy_on_ml_scores(monkeypatch)
    monte_carlo_rmse(upa, [(90.0, 0.0)], [10.0], trials=trials, seed=0, search_area=SEARCH)
    got = [n for _, n in calls]
    assert sum(got) == trials
    # no call scores one row: a last block of one trial joins the block before it
    assert all(n == step for n in got[:-1])
    assert 2 <= got[-1] <= step + 1
    # the traced benchmark reads the (G, N, 2) shape of the basis
    assert {shape for shape, _ in calls} == {(G, upa.n_ports, 2)}


def test_monte_carlo_default_blocks_at_the_upa_search_set(monkeypatch):
    area = SensingArea(45, 105, -15, 55)
    pats = upa_patterns(4, 4, 0.5, AngleGrid(*area.bounds(), 0.5))
    calls = _spy_on_ml_scores(monkeypatch)
    # G = 17061 candidates: 30 trials per 16 MB block
    for trials, sizes in [(401, [30] * 13 + [11]), (391, [30] * 12 + [31])]:
        calls.clear()
        monte_carlo_rmse(pats, [(90.0, 0.0)], [10.0], trials=trials, seed=0, search_area=area)
        assert [n for _, n in calls] == sizes


@pytest.mark.parametrize("refine", [False, True])
def test_monte_carlo_reports_do_not_depend_on_the_block_size(upa, monkeypatch, refine):
    G = 21 * 21
    # the default, 2-row blocks, 3-row blocks and one call per cell
    budgets = (simulate._SCORE_BLOCK_BYTES, 1, 3 * 2 * G * 16, 1 << 40)
    for trials in (100, 101):
        args = ([(90.0, 0.0), (86.0, 4.0)], [3.0, 100.0], trials, 9)
        reports = []
        for budget in budgets:
            monkeypatch.setattr(simulate, "_SCORE_BLOCK_BYTES", budget)
            reports.append(monte_carlo_rmse(upa, *args, search_area=SEARCH,
                                            refine=refine).records)
        assert len(reports[0]) == 4
        assert all(r == reports[0] for r in reports[1:])
