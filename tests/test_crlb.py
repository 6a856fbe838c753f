import math
import tracemalloc

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    PatternSet,
    SensingArea,
    crlb_map,
    crlb_matrix,
    projection_matrix,
    upa_crlb_closed_form,
    upa_crlb_closed_form_map,
    upa_patterns,
)
from pixelaoa import crlb
from pixelaoa.crlb import (
    MAP_HEADER,
    fd_stencil,
    fd_window,
    theta_bands,
    write_csv,
    write_csv_blocks,
)
from pixelaoa.errors import GridError

from oracles import steering_jacobian, steering_row, write_csv_one_pass


# ---------------------------------------------------------------------------
# independent first-principles oracle: analytic array-factor derivatives,
# explicit projector, plain numpy inversion.  Everything here is written
# against the formulas directly, not against the engine's code paths.
# ---------------------------------------------------------------------------

def _upa_port_grid(n_y, n_z):
    idx = []
    for n in range(1, n_y * n_z + 1):
        ny = n % n_y or n_y
        nz = int(np.ceil(n / n_y))
        idx.append((ny - 1, nz - 1))
    return idx


def analytic_upa_crlb(n_y, n_z, spacing, theta_deg, phi_deg, snr=1.0):
    """CRLB of the isotropic theta-pol UPA from analytic derivatives."""
    k = 2 * np.pi * spacing
    th, ph = np.deg2rad(theta_deg), np.deg2rad(phi_deg)
    ports = _upa_port_grid(n_y, n_z)
    a = np.array([np.exp(1j * k * (p * np.sin(th) * np.sin(ph) + q * np.cos(th)))
                  for p, q in ports])
    dth = np.array([1j * k * (p * np.cos(th) * np.sin(ph) - q * np.sin(th)) for p, q in ports]) * a
    dph = np.array([1j * k * p * np.sin(th) * np.cos(ph) for p, q in ports]) * a
    N = len(ports)
    f = np.concatenate([a, np.zeros(N)])
    J = np.stack([np.concatenate([dth, np.zeros(N)]),
                  np.concatenate([dph, np.zeros(N)])], axis=1)
    D = np.eye(2 * N, dtype=complex) - np.outer(f.conj(), f) / np.vdot(f, f).real
    F = J.conj().T @ D @ J
    return np.linalg.inv(F.real) / (2 * snr)


BROADSIDE_CTT_NUMERIC = 1 / (2 * np.pi**2)      # frozen from analytic_upa_crlb(2,2,0.5,90,0)
BROADSIDE_CTT_CLOSED = 1 / np.pi**4             # Eq-by-hand: 1/(2 k^4 B_Z), k=pi, B_Z=0.5


def test_frozen_broadside_value_matches_oracle():
    C = analytic_upa_crlb(2, 2, 0.5, 90.0, 0.0)
    assert C[0, 0] == pytest.approx(BROADSIDE_CTT_NUMERIC, rel=1e-12)
    assert C[1, 1] == pytest.approx(BROADSIDE_CTT_NUMERIC, rel=1e-12)


# ---------------------------------------------------------------------------
# projection matrix
# ---------------------------------------------------------------------------

def test_projection_axis_aligned():
    D = projection_matrix(np.array([1.0, 0.0]))
    assert np.allclose(D, np.diag([0.0, 1.0]))


def test_projection_properties_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        D = projection_matrix(f)
        assert np.max(np.abs(D - D.conj().T)) < 1e-12
        assert np.max(np.abs(D @ D - D)) < 1e-12
        assert np.max(np.abs(D @ f.conj())) < 1e-12 * np.linalg.norm(f)


def test_projection_zero_vector_rejected():
    with pytest.raises(ValueError):
        projection_matrix(np.zeros(4))


# ---------------------------------------------------------------------------
# steering jacobian
# ---------------------------------------------------------------------------

def test_jacobian_zero_for_constant_patterns(coarse_grid):
    data = np.ones((2, 3, coarse_grid.n_theta, coarse_grid.n_phi), dtype=complex)
    pats = PatternSet(coarse_grid, data)
    J = steering_jacobian(pats, (90.0, 0.0))
    assert np.allclose(J, 0.0)


def test_jacobian_analytic_phase_oracle():
    # single theta-pol port with e = exp(j pi cos(theta)):
    # |d/dtheta| = |-j pi sin(theta) e| = pi at theta = 90
    grid = AngleGrid(theta_start_deg=80, theta_stop_deg=100, phi_start_deg=-10,
                     phi_stop_deg=10, step_deg=0.25)
    th, _ = grid.meshgrid_rad()
    data = np.zeros((2, 1, grid.n_theta, grid.n_phi), dtype=complex)
    data[0, 0] = np.exp(1j * np.pi * np.cos(th))
    pats = PatternSet(grid, data)
    J = steering_jacobian(pats, (90.0, 0.0), fd_step_deg=0.25)
    assert abs(J[0, 0]) == pytest.approx(np.pi, rel=1e-4)
    assert abs(J[0, 1]) < 1e-12


def test_jacobian_matches_analytic_array_factor_gradient():
    grid = AngleGrid(theta_start_deg=80, theta_stop_deg=100, phi_start_deg=-10,
                     phi_stop_deg=10, step_deg=0.1)
    pats = upa_patterns(2, 2, 0.5, grid)
    J = steering_jacobian(pats, (90.0, 0.0), fd_step_deg=0.1)
    k = np.pi
    ports = _upa_port_grid(2, 2)
    dth_exact = np.array([-1j * k * q for p, q in ports])
    dph_exact = np.array([1j * k * p for p, q in ports])
    assert np.allclose(J[:4, 0], dth_exact, rtol=1e-4, atol=1e-6)
    assert np.allclose(J[:4, 1], dph_exact, rtol=1e-4, atol=1e-6)


def test_jacobian_off_grid_angle_rejected(coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    with pytest.raises(GridError):
        steering_jacobian(pats, (90.3, 0.0))


def test_fd_stencil_one_sided_at_partial_grid_edges():
    grid = AngleGrid(80, 100, -10, 10, 1.0)          # 21 x 21 points, no phi wrap
    h = 2 * grid.step_rad()
    idx = np.array([0, 1, 10, 19, 20])
    itp, itm, inv_dt, ipp, ipm, inv_dp = fd_stencil(grid, idx, idx, 2.0)
    for plus, minus, inv in ((itp, itm, inv_dt), (ipp, ipm, inv_dp)):
        assert plus.tolist() == [2, 3, 12, 19, 20]
        assert minus.tolist() == [0, 1, 8, 17, 18]
        assert inv.tolist() == [1 / h, 1 / h, 1 / (2 * h), 1 / h, 1 / h]


def test_fd_stencil_rejects_a_point_with_no_room_either_side():
    # 5 points and a 3-step stencil: the middle point fits neither one-sided rule
    grid = AngleGrid(88, 92, -2, 2, 1.0)
    with pytest.raises(GridError):
        fd_stencil(grid, np.array([2]), np.array([0]), 3.0)
    with pytest.raises(GridError):
        fd_stencil(grid, np.array([0]), np.array([2]), 3.0)


@pytest.mark.parametrize("grid, fd_step_deg", [
    (AngleGrid(step_deg=10.0), None),                   # full circle: the stencil wraps at the seam
    (AngleGrid(step_deg=10.0), 20.0),                   # two grid steps, wrapping too
    (AngleGrid(60, 120, -40, 40, 5.0), None),           # partial window: one-sided phi edges
    (AngleGrid(60, 120, -40, 40, 5.0), 10.0),
    (AngleGrid(0, 30, -20, 20, 5.0), 10.0),             # both pole rows' one-sided stencils
], ids=["circle", "circle_2steps", "window", "window_2steps", "pole_2steps"])
def test_crlb_points_batch_equals_each_set_alone(grid, fd_step_deg):
    rng = np.random.default_rng(17)
    shape = (5, 2, 3, grid.n_theta, grid.n_phi)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    data[2, :, :, 1, 2] = 0.0                           # one singular point in one set
    it, ip = (a.ravel() for a in np.meshgrid(np.arange(grid.n_theta), np.arange(grid.n_phi),
                                             indexing="ij"))
    batch = crlb.crlb_points(data, grid, it, ip, 2.5, fd_step_deg)
    assert [a.shape for a in batch] == [(5, it.size)] * 5
    assert batch[4][2].any() and batch[4].sum() == batch[4][2].sum()
    for b in range(5):
        alone = crlb.crlb_points(data[b], grid, it, ip, 2.5, fd_step_deg)
        for got, want in zip(batch, alone):
            assert got.dtype == want.dtype and got[b].tobytes() == want.tobytes()
    one = crlb.crlb_points(data[:1], grid, it, ip, 2.5, fd_step_deg)
    alone = crlb.crlb_points(data[0], grid, it, ip, 2.5, fd_step_deg)
    for got, want in zip(one, alone):
        assert got.shape == (1, it.size) and got[0].tobytes() == want.tobytes()


def _bounds(grid):
    return (grid.theta_start_deg, grid.theta_stop_deg, grid.phi_start_deg, grid.phi_stop_deg)


def test_fd_window_is_the_area_plus_its_margin_clipped_to_the_grid(coarse_grid):
    # 5-degree full sphere: a 10-degree FD step is a 10-degree margin
    assert _bounds(fd_window(SensingArea(60, 80, -30, 0), coarse_grid, 10.0)) == (50, 90, -40, 10)
    # theta clips at both poles
    assert _bounds(fd_window(SensingArea(0, 10, -20, 20), coarse_grid, None)) == (0, 15, -25, 25)
    assert _bounds(fd_window(SensingArea(170, 180, -20, 20), coarse_grid, None)) == (165, 180,
                                                                                     -25, 25)
    # a partial grid's edges clip, in theta and in phi
    part = AngleGrid(20, 160, -90, 90, 5.0)
    assert _bounds(fd_window(SensingArea(20, 30, -90, -80), part, 10.0)) == (20, 40, -90, -70)
    assert _bounds(fd_window(SensingArea(150, 160, 80, 90), part, None)) == (145, 160, 75, 90)


@pytest.mark.parametrize("area", [SensingArea(80, 100, 170, 175), SensingArea(80, 100, -180, -170)])
def test_fd_window_takes_the_whole_circle_when_the_margin_crosses_the_seam(coarse_grid, area):
    win = fd_window(area, coarse_grid, None)
    assert _bounds(win) == (75, 105, -180, 180)
    assert win.phi_wraps and win.n_phi == coarse_grid.n_phi


def test_fd_window_margin_inside_the_seam_does_not_wrap(coarse_grid):
    win = fd_window(SensingArea(80, 100, 165, 170), coarse_grid, None)
    assert _bounds(win) == (75, 105, 160, 175)
    assert not win.phi_wraps


def test_fd_window_rejects_a_step_that_is_not_a_grid_multiple(coarse_grid):
    with pytest.raises(GridError):
        fd_window(SensingArea(80, 100, -10, 10), coarse_grid, 7.0)


def test_fd_window_bounds_are_exact_at_a_decimal_step():
    # in floats, 0.3 - 0.1 is 0.19999999999999998, which is off the grid
    grid = AngleGrid(step_deg=0.1)
    assert _bounds(fd_window(SensingArea(0.3, 0.6, -10, 10), grid, None)) == (0.2, 0.7,
                                                                             -10.1, 10.1)
    assert _bounds(fd_window(SensingArea(83.9, 84.2, 0.7, 0.9), grid, 0.2)) == (83.7, 84.4,
                                                                               0.5, 1.1)


def test_fd_window_at_a_third_of_a_degree():
    # 79 2/3 deg is line 239 of the 1/3-degree lattice; no decimal sum reaches it
    grid = AngleGrid(step_deg=1 / 3)
    win = fd_window(SensingArea(80, 81, 0, 1), grid, None)
    assert _bounds(win) == (239 / 3, 244 / 3, -1 / 3, 4 / 3)
    assert win.theta_deg.tolist() == grid.theta_deg[239:245].tolist()


def test_fd_step_is_an_exact_multiple_of_the_grid_step():
    grid = AngleGrid(step_deg=0.1)
    assert crlb._step_multiple(grid, 0.3) == 3
    with pytest.raises(GridError, match="positive multiple"):
        crlb._step_multiple(grid, 0.1 + 0.2)           # 0.30000000000000004


@pytest.mark.parametrize("rows, want", [
    (1, [(83.9, 83.9), (84.0, 84.0), (84.1, 84.1), (84.2, 84.2)]),
    (3, [(83.9, 84.1), (84.2, 84.2)]),
    (4, [(83.9, 84.2)]),
    (10, [(83.9, 84.2)]),
])
def test_theta_bands_cut_whole_rows_on_exact_grid_lines(rows, want):
    grid = AngleGrid(step_deg=0.1)
    area = SensingArea(83.9, 84.2, -3, 3)
    bands = theta_bands(area, grid, crlb._BAND_BYTES // rows)
    assert [(b.theta_min_deg, b.theta_max_deg) for b in bands] == want
    assert all((b.phi_min_deg, b.phi_max_deg) == (-3, 3) for b in bands)
    # the bands' points are the area's, in its row-major order
    points = [np.concatenate(ix) for ix in zip(*(b.points(grid) for b in bands))]
    for got, full in zip(points, area.points(grid)):
        np.testing.assert_array_equal(got, full)


def test_theta_bands_reject_an_area_off_the_grid(coarse_grid):
    with pytest.raises(GridError):
        theta_bands(SensingArea(81, 100, -10, 10), coarse_grid, 1)


# ---------------------------------------------------------------------------
# crlb_matrix
# ---------------------------------------------------------------------------

def _fine_window():
    return AngleGrid(theta_start_deg=60, theta_stop_deg=120, phi_start_deg=-70,
                     phi_stop_deg=70, step_deg=0.1)


def test_numeric_broadside_matches_first_principles_oracle():
    grid = _fine_window()
    pats = upa_patterns(2, 2, 0.5, grid)
    r = crlb_matrix(pats, (90.0, 0.0), 1.0, fd_step_deg=0.1)
    assert r.c_theta_theta == pytest.approx(BROADSIDE_CTT_NUMERIC, rel=1e-4)
    assert r.c_phi_phi == pytest.approx(BROADSIDE_CTT_NUMERIC, rel=1e-4)
    assert not r.singular


def test_numeric_matches_oracle_off_broadside():
    grid = _fine_window()
    pats = upa_patterns(2, 2, 0.5, grid)
    for ang in [(75.0, 20.0), (100.0, -35.0), (90.0, 45.0)]:
        r = crlb_matrix(pats, ang, 1.0, fd_step_deg=0.1)
        C = analytic_upa_crlb(2, 2, 0.5, *ang)
        assert np.allclose(r.matrix, C, rtol=2e-4)


def test_snr_scaling_exact(coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    r1 = crlb_matrix(pats, (90.0, 0.0), 1.0)
    r2 = crlb_matrix(pats, (90.0, 0.0), 2.0)
    assert np.allclose(r2.matrix, r1.matrix / 2.0)


def test_endfire_singular_flag(coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    r = crlb_matrix(pats, (90.0, 90.0), 1.0)
    assert r.singular
    assert np.isinf(r.objective)


def test_fd_convergence_second_order():
    # halving the step from 1 deg down to 0.25 deg gains >= 3x per halving
    grid = AngleGrid(theta_start_deg=60, theta_stop_deg=90, phi_start_deg=0,
                     phi_stop_deg=40, step_deg=0.25)
    pats = upa_patterns(2, 2, 0.5, grid)
    ang = (75.0, 20.0)
    exact = analytic_upa_crlb(2, 2, 0.5, *ang)[0, 0]
    errs = []
    for step in (1.0, 0.5, 0.25):
        got = crlb_matrix(pats, ang, 1.0, fd_step_deg=step).c_theta_theta
        errs.append(abs(got - exact))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_pattern_scaling_argmax_invariance(coarse_grid):
    # window chosen without mirror symmetries, so the maximiser is unique
    pats = upa_patterns(3, 2, 0.5, coarse_grid)
    alpha = 2.0 * np.exp(1j * np.pi / 3)
    scaled = PatternSet(pats.grid, pats.data * alpha)
    area = SensingArea(60, 115, -60, 55)
    m1 = crlb_map(pats, area, 1.0)
    m2 = crlb_map(scaled, area, 1.0)
    assert m2.worst_angle == m1.worst_angle
    finite = np.isfinite(m1.objective)
    assert np.allclose(m2.objective[finite] * abs(alpha), m1.objective[finite], rtol=1e-10)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_broadside_hand_value():
    r = upa_crlb_closed_form(2, 2, 0.5, (90.0, 0.0), 1.0)
    assert r.c_theta_theta == pytest.approx(BROADSIDE_CTT_CLOSED, rel=1e-12)
    assert r.c_phi_phi == pytest.approx(BROADSIDE_CTT_CLOSED, rel=1e-12)


def test_closed_form_zero_cross_term_at_theta_90():
    for phi in (10.0, 30.0, 60.0):
        r = upa_crlb_closed_form(2, 2, 0.5, (90.0, phi), 1.0)
        assert r.matrix[0, 1] == pytest.approx(0.0, abs=1e-16)


def test_closed_form_degenerate_row_infinite():
    r = upa_crlb_closed_form(1, 4, 0.5, (90.0, 0.0), 1.0)
    assert r.singular
    assert np.all(np.isinf(r.matrix))


def test_closed_form_endfire_infinite():
    assert upa_crlb_closed_form(2, 2, 0.5, (90.0, 90.0), 1.0).singular
    assert upa_crlb_closed_form(2, 2, 0.5, (180.0, 10.0), 1.0).singular


@pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -0.5])
def test_upa_spacing_must_be_finite_and_positive(spacing):
    # unchecked, nan would give a nan bound and inf a bound of 0 rad
    with pytest.raises(ValueError, match="element spacing"):
        upa_crlb_closed_form_map(2, 2, spacing, [90.0], [0.0], 1.0)
    with pytest.raises(ValueError, match="element spacing"):
        upa_patterns(2, 2, spacing, AngleGrid(step_deg=10.0))


def test_closed_form_worst_at_corner_by_enumeration():
    # over area [85,95]x[-5,5] the closed form peaks at a corner farthest
    # from broadside (enumeration oracle)
    best = -1.0
    best_ang = None
    for th in range(85, 96):
        for ph in range(-5, 6):
            r = upa_crlb_closed_form(2, 2, 0.5, (float(th), float(ph)), 1.0)
            if r.objective > best:
                best, best_ang = r.objective, (th, ph)
    assert best_ang in [(85, -5), (85, 5), (95, -5), (95, 5)]


def _closed_form_oracle(n_y, n_z, spacing, theta_deg, phi_deg, snr):
    """Reference closed form at one point, in math-module scalar arithmetic.

    Returns (c_tt, c_tp, c_pp, objective), +inf at singular points.
    """
    B_Y = n_y * (n_y**2 - 1) / 12.0
    B_Z = n_z * (n_z**2 - 1) / 12.0
    k = 2.0 * math.pi * spacing
    if (theta_deg % 180.0 == 0.0 or abs(phi_deg) % 180.0 == 90.0
            or B_Y == 0.0 or B_Z == 0.0):
        return (math.inf,) * 4
    th, ph = math.radians(theta_deg), math.radians(phi_deg)
    s, c = math.sin(th), math.cos(th)
    sp, cp = math.sin(ph), math.cos(ph)
    den = 2.0 * k**4 * B_Y * B_Z * s * s * cp * cp * snr
    c_tt = B_Y * s * s * cp * cp / den
    c_tp = -B_Y * c * s * cp * sp / den
    c_pp = (B_Z * s * s + B_Y * c * c * sp * sp) / den
    return c_tt, c_tp, c_pp, float(np.sqrt(c_tt + c_pp))


def _full_grid_points(step_deg):
    grid = AngleGrid(step_deg=step_deg)          # poles, phi = +-90 endfire, phi seam
    return np.repeat(grid.theta_deg, grid.n_phi), np.tile(grid.phi_deg, grid.n_theta)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n_y,n_z", [(4, 4), (1, 4)])
def test_closed_form_map_bit_equal_to_scalar_oracle_on_full_grid(n_y, n_z):
    th, ph = _full_grid_points(0.5)
    got = upa_crlb_closed_form_map(n_y, n_z, 0.5, th, ph, 2.0)
    want = np.array([_closed_form_oracle(n_y, n_z, 0.5, a, b, 2.0)
                     for a, b in zip(th.tolist(), ph.tolist())]).T
    for g, w in zip(got[:4], want):
        assert np.array_equal(_bits(g), _bits(w))
    assert np.array_equal(got[4], np.isinf(want[3]))
    if n_y == 1:                                  # B_Y = 0: singular everywhere
        assert got[4].all()
    else:
        assert got[4].any() and not got[4].all()


@pytest.mark.parametrize("n_y,n_z", [(4, 4), (1, 4)])
def test_closed_form_point_bit_equal_to_map(n_y, n_z):
    th, ph = _full_grid_points(0.5)
    special = (np.isin(th, [0.0, 0.5, 90.0, 179.5, 180.0])
               | np.isin(ph, [-180.0, -90.0, -89.5, 0.0, 89.5, 90.0, 180.0]))
    pick = np.flatnonzero(special)
    pick = np.union1d(pick, np.random.default_rng(5).choice(th.size, 2000, replace=False))
    c_tt, c_tp, c_pp, obj, sing = upa_crlb_closed_form_map(n_y, n_z, 0.5, th, ph, 2.0)
    for i in pick:
        r = upa_crlb_closed_form(n_y, n_z, 0.5, (th[i], ph[i]), 2.0)
        assert np.array_equal(_bits(r.matrix), _bits([[c_tt[i], c_tp[i]], [c_tp[i], c_pp[i]]]))
        assert _bits(r.objective) == _bits(obj[i])
        assert r.singular == sing[i]
        assert r.angle_deg == (th[i], ph[i])


# ---------------------------------------------------------------------------
# crlb_map
# ---------------------------------------------------------------------------

def test_map_single_point(coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    area = SensingArea(90, 90, 0, 0)
    m = crlb_map(pats, area, 1.0)
    assert m.n_points == 1
    assert m.worst == pytest.approx(crlb_matrix(pats, (90.0, 0.0), 1.0).objective)


def test_map_point_count_ten_by_ten_degrees():
    grid = AngleGrid()
    pats = upa_patterns(2, 2, 0.5, grid)
    m = crlb_map(pats, SensingArea(85, 95, -5, 5), 1.0)
    assert m.n_points == 121


def test_map_worst_is_max_of_table():
    grid = AngleGrid()
    pats = upa_patterns(2, 2, 0.5, grid)
    m = crlb_map(pats, SensingArea(80, 100, -10, 10), 1.0)
    assert m.worst == np.max(m.objective)
    i = np.argmax(m.objective)
    assert m.worst_angle == (m.theta_deg[i], m.phi_deg[i])


def test_map_export_roundtrip(tmp_path, coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    m = crlb_map(pats, SensingArea(60, 120, -90, 90), 1.0)
    path = tmp_path / "map.csv"
    write_csv(path, MAP_HEADER, (m.theta_deg, m.phi_deg, m.c_tt, m.c_tp, m.c_pp, m.objective))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "theta_deg,phi_deg,c_tt,c_tp,c_pp,objective"
    assert len(rows) == 1 + m.n_points
    # inf rendered literally and every value parses back
    got = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert np.allclose(got[:, 0], m.theta_deg)
    finite = np.isfinite(m.objective)
    assert np.allclose(got[finite, 5], m.objective[finite])
    if (~finite).any():
        assert np.all(np.isinf(got[~finite, 5]))


def test_steering_row_layout(coarse_grid):
    pats = upa_patterns(2, 1, 0.5, coarse_grid)
    f = steering_row(pats, (90.0, 0.0))
    E = pats.at(90.0, 0.0)
    assert np.array_equal(f[:2], E[0])
    assert np.array_equal(f[2:], E[1])


def test_crlb_matrix_symmetric_nonnegative_diagonal(coarse_grid):
    rng = np.random.default_rng(31)
    shape = (2, 3, coarse_grid.n_theta, coarse_grid.n_phi)
    pats = PatternSet(coarse_grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for _ in range(20):
        th = float(rng.choice(coarse_grid.theta_deg[1:-1]))
        ph = float(rng.choice(coarse_grid.phi_deg))
        r = crlb_matrix(pats, (th, ph), 1.0)
        assert r.matrix[0, 1] == r.matrix[1, 0]
        if not r.singular:
            assert r.matrix[0, 0] >= 0.0
            assert r.matrix[1, 1] >= 0.0


def test_write_csv_cells_match_the_per_cell_formatter(tmp_path):
    def cell(v):
        # reference cell rule: +-inf spelled out, integers as digits, else repr(float)
        if isinstance(v, float) and math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    floats = np.array([0.1, -0.0, np.inf, -np.inf, 5e-324, 1.0 / 3.0, 1e22])
    columns = (floats, np.arange(7), [2, 1, 0, -1, 10**12, 3, 4],
               [float(v) for v in floats[::-1]], tuple(np.float64(v) for v in floats))
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c,d,e", columns)
    want = "a,b,c,d,e\n" + "".join(",".join(cell(v) for v in row) + "\n"
                                   for row in zip(*columns))
    assert path.read_text() == want
    write_csv(path, "a", [])
    assert path.read_text() == "a\n"


B = crlb._CSV_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1])
def test_write_csv_blocks_match_one_pass_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    floats[::5] = np.inf
    # float columns whose magnitudes repeat, which are formatted once per distinct magnitude
    nan2 = np.array([np.nan]).view(np.int64) + 1           # a NaN of another payload
    few = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, nan2.view(np.float64)[0],
                    -nan2.view(np.float64)[0], 1.0 / 3.0, 5e-324, -1e300, 0.1])
    low = few[rng.integers(0, few.size, n)]
    lines = np.tile(np.arange(-90.0, 90.5, 0.5), 12)[:n]    # a map's grid lines
    # signed, with distinct magnitudes at three quarters of the rows: the fold's boundary
    edge = (np.arange(n) % max(1, 3 * n // 4)).astype(float) * (-1.0) ** np.arange(n)
    strided = np.stack([low, floats], axis=1)[:, 0]         # a float64 view with a stride
    # +-x at +-phi: half as many magnitudes as rows, with +-0, +-inf and -nan folded in
    half = rng.standard_normal((n + 1) // 2) * 10.0 ** rng.integers(-300, 300, (n + 1) // 2)
    half[:8] = [0.0, np.inf, np.nan, -np.nan, 1e-310, 0.5, 2.0 / 3.0, -0.0][:half[:8].size]
    mirrored = np.stack([half, -half], axis=1).ravel()[:n]
    columns = (floats, np.arange(n), [f"s{i}" for i in range(n)], tuple(floats[::-1].tolist()),
               low, lines, edge, strided, low.tolist(), lines.astype(np.float32),
               low.astype(">f8"), low > 0, mirrored, mirrored[::-1])
    header = ",".join("abcdefghijklmn")
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns)
    write_csv_one_pass(want, header, columns)
    assert got.read_bytes() == want.read_bytes()
    text = got.read_text()
    assert text.count("\n") == 1 + n
    if n > 8:
        cells = set(text.replace("\n", ",").split(","))
        assert {"0.0", "-0.0", "inf", "-inf", "nan"} <= cells
        assert "-nan" not in cells
    # the same rows appended in three blocks, one of them empty
    cut = n // 3
    write_csv_blocks(got, header, [[c[:cut] for c in columns], [c[:0] for c in columns],
                                   [c[cut:] for c in columns]])
    assert got.read_bytes() == want.read_bytes()


def test_crlb_map_memory_does_not_grow_with_the_grid():
    # the upa workload's map: a 4x4 UPA over 0:180:-90:90 at 0.5 deg (130321 points)
    pats = upa_patterns(4, 4, 0.5, AngleGrid(0.0, 180.0, -90.5, 90.5, 0.5))
    area = SensingArea(0, 180, -90, 90)
    tracemalloc.start()
    try:
        m = crlb_map(pats, area, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = pats.data.nbytes
    assert m.n_points == 130321
    assert peak < 0.5 * size, (peak, size)
