import tracemalloc
import warnings

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    DipoleModelParams,
    FeedNetworkConfig,
    GeometryConfig,
    PortLayout,
    generate_synthetic_dataset,
    overall_patterns,
)
from pixelaoa.crlb import SensingArea, fd_window
from pixelaoa.emdata import EMDataset, PatternSet
from pixelaoa.errors import ConfigError, NumericalError
from pixelaoa import network
from pixelaoa.network import load_correction, project, solve_network, source_currents

from conftest import random_symmetric_z
from oracles import (
    approx_loaded_currents_matrix,
    coupled_patterns,
    exact_port_currents_matrix,
    feed_impedance_matrix,
    open_circuit_feed_patterns,
    oracle_overall_patterns,
)


def _config(feed_ports, q, bits=None) -> GeometryConfig:
    if bits is None:
        bits = (0,) * q
    return GeometryConfig(feed_ports=tuple(feed_ports), connections=tuple(bits))


# ---------------------------------------------------------------------------
# feed impedance
# ---------------------------------------------------------------------------

def test_feed_impedance_no_loads_is_active_block():
    rng = np.random.default_rng(3)
    Z = random_symmetric_z(rng, 3)
    cfg = _config([2, 0], 0)
    ZF = feed_impedance_matrix(Z, 3, 0, cfg)
    assert np.allclose(ZF, Z[np.ix_([2, 0], [2, 0])])


def test_feed_impedance_two_port_schur_by_hand():
    # M=1, Q=1, switch on: Z_F = Z11 - Z12^2/Z22
    Z = np.array([[20 + 5j, 4 - 2j], [4 - 2j, 11 + 3j]])
    cfg = _config([0], 1, (0,))
    ZF = feed_impedance_matrix(Z, 1, 1, cfg)
    assert ZF[0, 0] == pytest.approx(Z[0, 0] - Z[0, 1] ** 2 / Z[1, 1], rel=1e-14)


def test_feed_impedance_open_switch_decouples():
    # an open link carries no current: Z_F is the feed's own impedance, exactly
    Z = np.array([[20 + 5j, 4 - 2j], [4 - 2j, 11 + 3j]])
    cfg = _config([0], 1, (1,))
    ZF = feed_impedance_matrix(Z, 1, 1, cfg)
    assert ZF[0, 0] == Z[0, 0]


def test_feed_impedance_symmetry_random_networks():
    rng = np.random.default_rng(11)
    for _ in range(25):
        M = int(rng.integers(1, 5))
        Q = int(rng.integers(0, 4))
        Z = random_symmetric_z(rng, M + Q)
        N = int(rng.integers(1, M + 1))
        F = tuple(int(i) for i in rng.choice(M, size=N, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=Q))
        ZF = feed_impedance_matrix(Z, M, Q, _config(F, Q, bits))
        scale = np.max(np.abs(ZF))
        assert np.max(np.abs(ZF - ZF.T)) <= 1e-10 * scale


def test_feed_impedance_monotone_open_limit():
    # a finite load z_oc on the open links tends to the exact open link
    # monotonically as z_oc grows: the Schur complement of Z_LL + diag(z_oc g)
    # approaches the exact Z_F of a mixed config
    rng = np.random.default_rng(5)
    Z = random_symmetric_z(rng, 6)
    a, g = [0, 2], np.array([1, 0, 1])
    exact = feed_impedance_matrix(Z, 3, 3, _config(a, 3, tuple(g)))
    diffs = []
    for z_oc in (1e6, 1e9, 1e12):
        ZF = Z[np.ix_(a, a)] - Z[a, 3:] @ np.linalg.solve(Z[3:, 3:] + np.diag(z_oc * g),
                                                          Z[3:, a])
        diffs.append(np.max(np.abs(ZF - exact)))
    assert diffs[0] > diffs[1] > diffs[2]


def test_feed_impedance_rejects_duplicate_and_out_of_range_ports():
    Z = random_symmetric_z(np.random.default_rng(2), 6)
    with pytest.raises(ConfigError):
        feed_impedance_matrix(Z, 4, 2, _config([0, 0], 2))
    with pytest.raises(ConfigError):
        feed_impedance_matrix(Z, 4, 2, _config([0, 7], 2))


def test_relabeling_equivariance(tiny_dataset):
    cfg_a = _config([0, 3], 4, (1, 0, 0, 1))
    cfg_b = _config([3, 0], 4, (1, 0, 0, 1))
    Za = feed_impedance_matrix(tiny_dataset.Z, tiny_dataset.n_feed, tiny_dataset.n_loaded,
                               cfg_a)
    Zb = feed_impedance_matrix(tiny_dataset.Z, tiny_dataset.n_feed, tiny_dataset.n_loaded,
                               cfg_b)
    assert np.allclose(Za, Zb[np.ix_([1, 0], [1, 0])])
    net_a = overall_patterns(tiny_dataset, cfg_a)
    net_b = overall_patterns(tiny_dataset, cfg_b)
    assert np.allclose(net_a.patterns.data[:, 0], net_b.patterns.data[:, 1])
    assert np.allclose(net_a.patterns.data[:, 1], net_b.patterns.data[:, 0])


# ---------------------------------------------------------------------------
# exact vs approximate currents (Eq. 13 oracle vs Eq. 14 limit)
# ---------------------------------------------------------------------------

def test_muted_currents_vanish_at_large_impedance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        M = int(rng.integers(2, 5))
        Q = int(rng.integers(0, 4))
        Z = random_symmetric_z(rng, M + Q)
        N = int(rng.integers(1, M))
        F = tuple(int(i) for i in rng.choice(M, size=N, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=Q))
        cfg = _config(F, Q, bits)
        i_A = rng.normal(size=N) + 1j * rng.normal(size=N)
        i_M, i_L = exact_port_currents_matrix(Z, M, Q, cfg, 1e9, i_A)
        assert np.linalg.norm(i_M) < 1e-6 * np.linalg.norm(i_A)
        i_L_approx = approx_loaded_currents_matrix(Z, M, Q, cfg, i_A)
        opened = np.array(bits, dtype=bool)
        assert np.all(i_L[opened] == 0) and np.all(i_L_approx[opened] == 0)
        if Q:
            denom = max(np.linalg.norm(i_L), 1e-30)
            assert np.linalg.norm(i_L - i_L_approx) / denom < 1e-6


def test_exact_currents_satisfy_port_equations():
    # with i_M in ascending muted-port order, Z i + z i vanishes at every muted
    # (z = zeta) and shorted (z = 0) port, and the open links carry no current
    rng = np.random.default_rng(13)
    M, Q = 5, 3
    Z = random_symmetric_z(rng, M + Q)
    cfg = _config([3, 1], Q, (1, 0, 1))
    i_A = rng.normal(size=2) + 1j * rng.normal(size=2)
    zeta = 75.0
    i_M, i_L = exact_port_currents_matrix(Z, M, Q, cfg, zeta, i_A)
    assert i_L[0] == 0 and i_L[2] == 0
    i = np.zeros(M + Q, dtype=complex)
    i[[3, 1]] = i_A
    i[[0, 2, 4]] = i_M
    i[M:] = i_L
    z = np.array([zeta, 0, zeta, 0, zeta, 0, 0, 0])
    passive = [0, 2, 4, 6]
    residual = (Z @ i + z * i)[passive]
    assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(Z)) * np.max(np.abs(i_A))


def test_no_muted_or_loaded_ports_returns_empty():
    rng = np.random.default_rng(1)
    Z = random_symmetric_z(rng, 3)
    cfg = _config([0, 1, 2], 0)
    i_M, i_L = exact_port_currents_matrix(Z, 3, 0, cfg, 1e9, np.ones(3))
    assert i_M.size == 0 and i_L.size == 0


# ---------------------------------------------------------------------------
# loaded open-circuit patterns
# ---------------------------------------------------------------------------

def test_oc_feed_patterns_no_loads_selects_columns(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=2), coarse_grid)
    assert ds.n_loaded == 1
    # with the single switch open there is no correction
    cfg = _config([1, 0], 1, (1,))
    pats = open_circuit_feed_patterns(ds, cfg)
    assert np.array_equal(pats.data, ds.e_oc[:, [1, 0]])


def test_oc_feed_patterns_hand_correction(coarse_grid):
    # M=1, Q=1, switch on: e = e1 - e2 * Z21/Z22 at every angle
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=1), coarse_grid)
    M = 1
    Z = ds.Z
    # treat port 1 as the only feed and port 2 as loaded: reuse layout 2x1 (M=2, Q=1)
    cfg = _config([0], 1, (0,))
    pats = open_circuit_feed_patterns(ds, cfg)
    W = Z[2, 0] / Z[2, 2]
    expected = ds.e_oc[:, 0] - ds.e_oc[:, 2] * W
    assert np.allclose(pats.data[:, 0], expected, atol=1e-12)


def test_coupled_patterns_single_port_scalar_division(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid)
    cfg = _config([0], 0)
    fn = FeedNetworkConfig()
    zf = feed_impedance_matrix(ds.Z, ds.n_feed, ds.n_loaded, cfg)
    oc = open_circuit_feed_patterns(ds, cfg)
    cp = coupled_patterns(oc, zf, fn)
    assert np.allclose(cp.data, oc.data / (50.0 + zf[0, 0]))


def test_coupled_patterns_diagonal_scaling(coarse_grid):
    grid = coarse_grid
    data = np.stack([
        np.stack([np.full((grid.n_theta, grid.n_phi), 1 + 1j),
                  np.full((grid.n_theta, grid.n_phi), 2 - 1j)], axis=0),
        np.zeros((2, grid.n_theta, grid.n_phi), dtype=complex),
    ])
    pats = PatternSet(grid, data)
    zf = np.diag([10 + 1j, 20 - 2j])
    fn = FeedNetworkConfig()
    cp = coupled_patterns(pats, zf, fn)
    assert np.allclose(cp.data[:, 0], data[:, 0] / (50 + 10 + 1j))
    assert np.allclose(cp.data[:, 1], data[:, 1] / (50 + 20 - 2j))


def test_coupled_patterns_linear_solve_oracle(coarse_grid):
    rng = np.random.default_rng(17)
    zf = random_symmetric_z(rng, 2)
    data = rng.normal(size=(2, 2, coarse_grid.n_theta, coarse_grid.n_phi)) \
        + 1j * rng.normal(size=(2, 2, coarse_grid.n_theta, coarse_grid.n_phi))
    pats = PatternSet(coarse_grid, data)
    fn = FeedNetworkConfig()
    cp = coupled_patterns(pats, zf, fn)
    A = fn.source_matrix(2) + zf
    flat = data.reshape(2, 2, -1)
    expected = np.einsum("pnk,nm->pmk", flat, np.linalg.inv(A)).reshape(data.shape)
    assert np.allclose(cp.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# radiation efficiency
# ---------------------------------------------------------------------------

def test_efficiency_lossless_single_port_is_one(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid)
    net = overall_patterns(ds, _config([0], 0))
    assert net.efficiencies[0] == pytest.approx(1.0, abs=1e-6)


def test_efficiency_resistive_divider(coarse_grid):
    # series loss equal to the radiation resistance halves the efficiency
    base = generate_synthetic_dataset(
        PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid,
        DipoleModelParams(feed_resistance_target_ohm=10.0))
    Z = np.array(base.Z)
    Z[0, 0] += 10.0
    lossy = EMDataset(layout=base.layout, grid=base.grid, Z=Z, e_oc=np.array(base.e_oc),
                      metadata=dict(base.metadata))
    net = overall_patterns(lossy, _config([0], 0))
    assert net.efficiencies[0] == pytest.approx(0.5, abs=1e-6)


def test_efficiency_independent_of_source_impedance(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid)
    for z0 in (50.0, 20.0 + 5j, 100.0):
        net = overall_patterns(ds, _config([0], 0), FeedNetworkConfig(source_impedance_ohm=z0))
        assert net.efficiencies[0] == pytest.approx(1.0, abs=1e-6)


def test_efficiency_bounds_random_configs(tiny_dataset):
    rng = np.random.default_rng(29)
    M, Q = tiny_dataset.n_feed, tiny_dataset.n_loaded
    for _ in range(20):
        N = int(rng.integers(1, M + 1))
        F = tuple(int(i) for i in rng.choice(M, size=N, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=Q))
        net = overall_patterns(tiny_dataset, _config(F, Q, bits))
        assert np.all(net.efficiencies >= 0.0)
        assert np.all(net.efficiencies <= 1.0 + 1e-6)


# ---------------------------------------------------------------------------
# overall composition
# ---------------------------------------------------------------------------

def test_overall_patterns_sqrt_efficiency_scaling(tiny_dataset):
    cfg = _config([0, 1], 4, (0, 1, 1, 0))
    net = overall_patterns(tiny_dataset, cfg)
    z_feed = feed_impedance_matrix(tiny_dataset.Z, tiny_dataset.n_feed, tiny_dataset.n_loaded, cfg)
    coupled = coupled_patterns(open_circuit_feed_patterns(tiny_dataset, cfg), z_feed)
    expected = coupled.data * np.sqrt(net.efficiencies)[None, :, None, None]
    assert np.allclose(net.patterns.data, expected)


def test_overall_patterns_unit_efficiency_passthrough(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid)
    cfg = _config([0], 0)
    net = overall_patterns(ds, cfg)
    z_feed = feed_impedance_matrix(ds.Z, ds.n_feed, ds.n_loaded, cfg)
    coupled = coupled_patterns(open_circuit_feed_patterns(ds, cfg), z_feed)
    assert np.allclose(net.patterns.data, coupled.data, rtol=1e-6)


def test_overall_patterns_match_full_grid_oracle(small_dataset):
    rng = np.random.default_rng(31)
    M, Q = small_dataset.n_feed, small_dataset.n_loaded
    for _ in range(10):
        N = int(rng.integers(1, M + 1))
        F = tuple(int(i) for i in rng.choice(M, size=N, replace=False))
        cfg = _config(F, Q, tuple(int(b) for b in rng.integers(0, 2, size=Q)))
        fn = FeedNetworkConfig(source_impedance_ohm=complex(rng.uniform(20, 80),
                                                            rng.uniform(-10, 10)))
        net = overall_patterns(small_dataset, cfg, fn)
        oracle, lam = oracle_overall_patterns(small_dataset, cfg, fn)
        assert net.efficiencies == pytest.approx(lam, rel=1e-10)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(net.patterns.data - oracle)) <= 1e-10 * scale


def test_overall_patterns_copies_no_part_of_the_dataset():
    # 3x3 pixels at 2 deg: e_oc is 11 MB, the two-port pattern tensor 1.05 MB
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=3, pixel_cols=3), AngleGrid(step_deg=2.0))
    cfg = _config((0, 4), ds.n_loaded, (1, 0) * 6)
    ds.gram                                         # the dataset's own cached state
    tracemalloc.start()
    try:
        pats = overall_patterns(ds, cfg).patterns
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = pats.data.nbytes
    assert peak <= 1.5 * size, (peak, size)


# FD windows of the 5-degree sphere: inside it, clipped at the theta = 0 pole,
# and the whole phi circle because the margin crosses +-180
@pytest.mark.parametrize("area, fd_step, bounds", [
    (SensingArea(80, 100, -10, 10), None, (75, 105, -15, 15)),
    (SensingArea(0, 20, -30, 0), 10.0, (0, 30, -40, 10)),
    (SensingArea(150, 175, 170, 175), None, (145, 180, -180, 180)),
], ids=["interior", "pole", "phi_wrap"])
def test_project_on_a_window_matches_the_full_grid(small_dataset, area, fd_step, bounds):
    ds = small_dataset
    window = fd_window(area, ds.grid, fd_step)
    assert window == AngleGrid(*bounds, 5.0)
    cfgs = _random_batch(np.random.default_rng(8), ds.n_feed, ds.n_loaded, 3, 4)
    got = project(ds.window(window), solve_network(ds, cfgs).V)
    assert got.shape == (4, 2, 3, window.n_theta, window.n_phi)
    t = [ds.grid.theta_index(x) for x in window.theta_deg]
    p = [ds.grid.phi_index(x) for x in window.phi_deg]
    for b, cfg in enumerate(cfgs):
        # not bitwise: BLAS may block the two matmuls differently by column count
        want = overall_patterns(ds, cfg).patterns.data[:, :, t][:, :, :, p]
        np.testing.assert_allclose(got[b], want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n_active", [1, 2, 4])
def test_project_is_batch_pure(small_dataset, n_active):
    # one GEMM per polarization over the whole batch, never a one-row one,
    # gives each config its one-config patterns bit for bit
    ds = small_dataset
    e = ds.window(fd_window(SensingArea(80, 100, -10, 10), ds.grid, None))
    rng = np.random.default_rng(n_active)
    V = rng.normal(size=(33, ds.n_ports, n_active, 2)) @ np.array([1.0, 1j])
    for B in (1, 2, 7, 33):
        got = project(e, V[:B])
        assert got.shape == (B, 2, n_active, *e.shape[2:])
        for b in range(B):
            assert np.array_equal(got[b], project(e, V[b:b + 1])[0])


def test_overall_paper_scale_shapes(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(), coarse_grid)
    cfg = _config([0, 4, 12, 20, 24, 2, 10, 14], 40)
    net = overall_patterns(ds, cfg)
    assert net.patterns.n_ports == 8
    assert net.z_feed.shape == (8, 8)
    sym = np.max(np.abs(net.z_feed - net.z_feed.T))
    assert sym <= 1e-10 * np.max(np.abs(net.z_feed))
    assert np.all(net.efficiencies <= 1 + 1e-6)


def test_solve_network_batch_equals_single_solves(small_dataset):
    # the stacked solve must give each config exactly its one-config result
    ds = small_dataset
    rng = np.random.default_rng(5)
    M, Q = ds.n_feed, ds.n_loaded
    cfgs = [_config(tuple(int(i) for i in rng.choice(M, size=3, replace=False)), Q,
                    tuple(int(b) for b in rng.integers(0, 2, size=Q))) for _ in range(7)]
    batch = solve_network(ds, cfgs)
    assert batch.V.shape == (7, ds.n_ports, 3)
    for b, cfg in enumerate(cfgs):
        one = solve_network(ds, [cfg])
        for got, want in zip(batch, one):
            assert np.array_equal(got[b], want[0])
        assert np.array_equal(batch.z_feed[b], feed_impedance_matrix(ds.Z, M, Q, cfg))


def test_solve_network_batch_needs_one_port_count(tiny_dataset):
    cfgs = [_config((0,), 4), _config((0, 1), 4)]
    with pytest.raises(ConfigError):
        solve_network(tiny_dataset, cfgs)


# ---------------------------------------------------------------------------
# loaded-port solve and its conditioning guard
# ---------------------------------------------------------------------------

def _random_batch(rng, M, Q, n_active, size):
    return [_config(tuple(int(i) for i in rng.choice(M, size=n_active, replace=False)), Q,
                    tuple(int(b) for b in rng.integers(0, 2, size=Q))) for _ in range(size)]


def _config_with_shorted(rng, feed_ports, Q, n_shorted):
    bits = np.ones(Q, dtype=int)
    bits[rng.choice(Q, size=n_shorted, replace=False)] = 0
    return _config(feed_ports, Q, tuple(int(b) for b in bits))


def _padded_links(cfg):
    """The links a config is solved on: its shorted links, then its first
    open links, up to its shorted count rounded up to a multiple of
    network._PAD and at most Q."""
    bits = np.array(cfg.connections)
    shorted, opened = np.flatnonzero(bits == 0), np.flatnonzero(bits == 1)
    K = min(-(-shorted.size // network._PAD) * network._PAD, bits.size)
    return np.concatenate([shorted, opened[:K - shorted.size]])


def _padded_plain_solve(Z, M, cfg):
    """W of one config from its own padded system, built the plain way: Z_LL
    on its padded links with each open link's row and column replaced by
    those of the identity, Z_LA with its open rows zeroed, and every other
    row of W 0."""
    q = _padded_links(cfg)
    shut = np.flatnonzero(np.array(cfg.connections)[q])
    S = Z[M:, M:][np.ix_(q, q)]
    S[shut, :] = 0.0
    S[:, shut] = 0.0
    S[shut, shut] = 1.0
    rhs = Z[M + q][:, list(cfg.feed_ports)]
    rhs[shut] = 0.0
    W = np.zeros((Z.shape[0] - M, cfg.n_active), dtype=np.complex128)
    W[q] = np.linalg.solve(S, rhs)
    return W


def test_load_correction_equals_plain_solve(small_dataset):
    # W from the solve with the probe columns appended is bitwise the solve
    # of each config's own padded system on Z_LA alone, its open rows zeroed
    ds = small_dataset
    M, Q = ds.n_feed, ds.n_loaded
    rng = np.random.default_rng(17)
    cfgs = _random_batch(rng, M, Q, 3, 43)
    cfgs[:3] = [_config((0, 4, 8), Q), _config((0, 4, 8), Q, (1,) * Q),
                _config((8, 0, 4), Q, (1, 0) * (Q // 2))]        # all shorted, all open, mixed
    W = load_correction(ds.Z, M, Q, cfgs)
    assert W.shape == (43, Q, 3)
    assert {len(_padded_links(cfg)) for cfg in cfgs} == {0, 8, Q}
    for b, cfg in enumerate(cfgs):
        assert np.array_equal(W[b], _padded_plain_solve(ds.Z, M, cfg))


def test_load_correction_drops_open_links_exactly(small_dataset):
    # open rows of W are 0, shorted rows are the solve over the shorted links
    # alone, and with every link open Z_F is Z_AA bit for bit
    ds = small_dataset
    M, Q = ds.n_feed, ds.n_loaded
    bits = (1, 0, 0) * (Q // 3)                          # Q = 12: 4 open, 8 shorted
    W = load_correction(ds.Z, M, Q, [_config((5, 0, 8), Q, bits)])[0]
    opened = np.array(bits, dtype=bool)
    assert np.all(W[opened] == 0)
    s = np.flatnonzero(~opened)
    ref = np.linalg.solve(ds.Z[M:, M:][np.ix_(s, s)], ds.Z[M + s][:, [5, 0, 8]])
    assert np.max(np.abs(W[s] - ref)) <= 1e-12 * np.max(np.abs(ref))
    z_feed = solve_network(ds, [_config((5, 0, 8), Q, (1,) * Q)]).z_feed[0]
    assert np.array_equal(z_feed, ds.Z[np.ix_([5, 0, 8], [5, 0, 8])])


def test_load_correction_warns_on_nearly_equal_shorted_links(tiny_dataset):
    # links 0 and 1 get equal rows and columns up to 1e-14 relative on the
    # diagonal: shorted together, their 2x2 block is singular to rounding
    M, Q = tiny_dataset.n_feed, tiny_dataset.n_loaded
    Z = tiny_dataset.Z.copy()
    i, j = M, M + 1
    Z[j, :] = Z[i, :]
    Z[:, j] = Z[:, i]
    Z[j, j] = Z[i, i] * (1 + 1e-14)
    healthy, shorted = _config((1,), Q, (1, 0, 1, 0)), _config((0,), Q, (0, 0, 1, 1))
    with pytest.warns(RuntimeWarning, match=r"condition number .* for config \(0,\)/0011"):
        load_correction(Z, M, Q, [healthy, shorted])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_correction(Z, M, Q, [healthy])                # link 0 open: healthy


def test_load_correction_singular_system_raises(tiny_dataset):
    M, Q = tiny_dataset.n_feed, tiny_dataset.n_loaded
    Z = tiny_dataset.Z.copy()
    Z[M:, M:] = 0.0                                # shorted links of zero self-impedance
    with pytest.raises(NumericalError):
        load_correction(Z, M, Q, [_config((0,), Q)])


def _plain_S(Z, M, cfgs):
    """S per config, built the plain way: Z_LL with each open link's row and
    column replaced by those of the identity."""
    out = np.stack([Z[M:, M:]] * len(cfgs))
    for S, cfg in zip(out, cfgs):
        q = np.flatnonzero(cfg.connections)
        S[q, :] = 0.0
        S[:, q] = 0.0
        S[q, q] = 1.0
    return out


def _norm_1(A):
    return np.abs(A).sum(axis=-2).max(axis=-1)


def test_load_correction_is_one_solve_per_padded_size_with_two_probe_columns(
        small_dataset, monkeypatch):
    ds = small_dataset
    M, Q = ds.n_feed, ds.n_loaded
    calls = []
    solve = np.linalg.solve

    def spy(a, b):
        calls.append((a.shape, b.shape))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    cfgs = _random_batch(np.random.default_rng(3), M, Q, 3, 43)
    sizes = sorted({len(_padded_links(cfg)) for cfg in cfgs})
    assert len(sizes) > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_correction(ds.Z, M, Q, cfgs)
    assert sorted(a[-1] for a, _ in calls) == sizes
    assert sum(a[0] for a, _ in calls) == len(cfgs)
    assert all(b[-1] == 3 + 2 for _, b in calls)         # N + 2 right-hand columns


def test_load_correction_is_batch_pure(jittered_5x5):
    # a config's padded size is its own, so its W and V are its one-config
    # solve bit for bit, whatever shorted counts share its batch
    ds = jittered_5x5
    M, Q = ds.n_feed, ds.n_loaded
    rng = np.random.default_rng(23)
    cfgs = [_config_with_shorted(rng, tuple(int(i) for i in rng.choice(M, size=4, replace=False)),
                                 Q, n_shorted) for n_shorted in (0, 3, 9, 17, 31, 40) * 2]
    rng.shuffle(cfgs)
    W = load_correction(ds.Z, M, Q, cfgs)
    V = solve_network(ds, cfgs).V
    for b, cfg in enumerate(cfgs):
        assert np.array_equal(W[b], load_correction(ds.Z, M, Q, [cfg])[0])
        assert np.array_equal(V[b], solve_network(ds, [cfg]).V[0])


@pytest.mark.parametrize("fixture, n_active", [
    ("tiny_dataset", 1), ("tiny_dataset", 2), ("small_dataset", 3),
    ("small_dataset", 4), ("jittered_5x5", 4), ("jittered_5x5", 8),
])
def test_load_correction_estimate_is_a_lower_bound(request, monkeypatch, fixture, n_active):
    # the probe estimate never reads above the exact ||S^-1||_1
    ds = request.getfixturevalue(fixture)
    M, Q = ds.n_feed, ds.n_loaded
    seen = []
    inverse_norm = network._inverse_norm

    def spy(Y, weight):
        out = inverse_norm(Y, weight)
        seen.append((weight, out))
        return out

    monkeypatch.setattr(network, "_inverse_norm", spy)
    cfgs = _random_batch(np.random.default_rng(11), M, Q, n_active, 43)
    load_correction(ds.Z, M, Q, cfgs)
    assert [w for w, _ in seen] == [Q]                  # no config needed the exact path
    exact = _norm_1(np.linalg.inv(_plain_S(ds.Z, M, cfgs)))
    estimate = seen[0][1]
    assert np.all(estimate <= exact * (1 + 1e-9))
    assert np.all(estimate >= exact / 1e3)              # the screen's 1e4 margin holds


@pytest.fixture(scope="module")
def jittered_5x5(coarse_grid):
    return generate_synthetic_dataset(PortLayout(), coarse_grid,
                                      DipoleModelParams(self_reactance_jitter_ohm=1.0), seed=7)


def test_load_correction_warning_names_the_exact_condition_number(tiny_dataset):
    # the shorted-pair fixture of the warning test: the estimate under-reads,
    # but the warning is decided and printed on the exact kappa_1
    M, Q = tiny_dataset.n_feed, tiny_dataset.n_loaded
    Z = tiny_dataset.Z.copy()
    i, j = M, M + 1
    Z[j, :] = Z[i, :]
    Z[:, j] = Z[:, i]
    Z[j, j] = Z[i, i] * (1 + 1e-14)
    shorted = _config((0,), Q, (0, 0, 1, 1))
    S = _plain_S(Z, M, [shorted])[0]
    kappa = _norm_1(S) * _norm_1(np.linalg.inv(S))
    with pytest.warns(RuntimeWarning, match=r"condition number \S+ exceeds") as record:
        load_correction(Z, M, Q, [shorted])
    printed = float(str(record[0].message).split()[4])
    assert printed == pytest.approx(kappa, rel=0.05), (printed, kappa)


def test_load_correction_exact_condition_number_is_the_q_link_systems(small_dataset,
                                                                    monkeypatch):
    # every config sent down the exact path: kappa_1 of its padded system,
    # the inverse norm floored at 1 for the identity block, is that of its
    # Q-link system, also where open links lie outside the padding
    ds = small_dataset
    M, Q = ds.n_feed, ds.n_loaded
    monkeypatch.setattr(network, "CONDITION_WARN_THRESHOLD", 1.0)
    monkeypatch.setattr(network, "_SCREEN", 1.0)
    rng = np.random.default_rng(29)
    cfgs = [_config_with_shorted(rng, (0, 4), Q, n_shorted) for n_shorted in (3, 8, 10, Q)]
    assert [len(_padded_links(cfg)) for cfg in cfgs] == [8, 8, Q, Q]
    shorted = np.flatnonzero(np.array(cfgs[1].connections) == 0)
    assert _norm_1(np.linalg.inv(ds.Z[M:, M:][np.ix_(shorted, shorted)])) < 1   # floored
    S = _plain_S(ds.Z, M, cfgs)
    with pytest.warns(RuntimeWarning) as record:
        load_correction(ds.Z, M, Q, cfgs)
    printed = [float(str(r.message).split()[4]) for r in record]
    assert printed == pytest.approx(_norm_1(S) * _norm_1(np.linalg.inv(S)), rel=5e-3)


def test_source_currents_stacked_matches_single():
    rng = np.random.default_rng(8)
    z = np.stack([random_symmetric_z(rng, 3) for _ in range(4)])
    fn = FeedNetworkConfig()
    stacked = source_currents(z, fn)
    for b in range(4):
        assert np.array_equal(stacked[b], source_currents(z[b], fn))
        assert np.allclose((fn.source_matrix(3) + z[b]) @ stacked[b], np.eye(3))
