from fractions import Fraction

import numpy as np
import pytest

from pixelaoa import AngleGrid
from pixelaoa.errors import GridError
from pixelaoa.grid import line_deg, line_index


def test_default_grid_is_full_sphere_at_one_degree():
    g = AngleGrid()
    assert g.n_theta == 181
    assert g.n_phi == 360          # phi stop excluded on the full circle
    assert g.phi_wraps
    assert g.theta_deg[0] == 0.0 and g.theta_deg[-1] == 180.0
    assert g.phi_deg[0] == -180.0 and g.phi_deg[-1] == 179.0


def test_partial_phi_grid_is_inclusive():
    g = AngleGrid(theta_start_deg=60, theta_stop_deg=120, phi_start_deg=-60,
                  phi_stop_deg=60, step_deg=0.5)
    assert not g.phi_wraps
    assert g.n_theta == 121
    assert g.n_phi == 241
    assert g.phi_deg[-1] == 60.0


@pytest.mark.parametrize("step", [1.0, 0.5, 0.25, 0.1, 2.0, 5.0])
def test_accepted_steps(step):
    AngleGrid(step_deg=step)


@pytest.mark.parametrize("step", [0.4, 2.5, 0.3, -1.0, 0.0])
def test_rejected_steps(step):
    with pytest.raises(GridError):
        AngleGrid(step_deg=step)


def test_step_must_divide_spans():
    with pytest.raises(GridError):
        AngleGrid(theta_start_deg=0, theta_stop_deg=7, phi_start_deg=0, phi_stop_deg=10,
                  step_deg=2.0)


def test_quadrature_weights_match_hand_quadrature():
    g = AngleGrid(step_deg=5.0)
    w = g.weights()
    assert w.shape == (g.n_theta, g.n_phi)
    assert np.all(w >= 0.0)
    step = np.deg2rad(5.0)
    expected = np.sin(np.deg2rad(40.0)) * step * step
    assert w[g.theta_index(40.0), g.phi_index(0.0)] == pytest.approx(expected, rel=1e-12)
    # sphere area ~ 4*pi under the midpoint rule
    assert w.sum() == pytest.approx(4 * np.pi, rel=5e-3)


def test_literal_weights_drop_sin_theta():
    g = AngleGrid(step_deg=5.0)
    w = g.weights(include_sin_theta=False)
    step = np.deg2rad(5.0)
    assert np.allclose(w, step * step)


def test_index_roundtrip_and_off_grid_rejection():
    g = AngleGrid(step_deg=1.0)
    assert g.theta_index(90.0) == 90
    assert g.phi_index(-180.0) == 0
    with pytest.raises(GridError):
        g.theta_index(90.5)
    with pytest.raises(GridError, match="not on the grid"):
        g.theta_index(90 + 1e-9)                 # no tolerance: a value is a line or not
    with pytest.raises(GridError):
        g.phi_index(1000.0)


@pytest.mark.parametrize("step, exact", [(0.1, Fraction(1, 10)), (0.05, Fraction(1, 20)),
                                         (1 / 3, Fraction(1, 3)), (2.0, Fraction(2))])
def test_lattice_lines_are_the_correctly_rounded_multiples_of_the_step(step, exact):
    k = np.arange(-3600, 3601)
    lines = line_deg(k, step)
    assert lines.tolist() == [float(i * exact) for i in k.tolist()]
    assert [line_index(x, step) for x in lines.tolist()] == k.tolist()


def test_grid_edges_must_be_lattice_lines():
    # the span 4 is two steps, but 1 and 5 are no lines of the 2-degree lattice
    with pytest.raises(GridError, match="not all lines of the 2.0 deg step"):
        AngleGrid(1, 5, 0, 10, 2.0)
    with pytest.raises(GridError):
        AngleGrid(0.30000000000000004, 1, 0, 1, 0.1)


@pytest.mark.parametrize("step", [0.1, 0.05, 1 / 3])
def test_windows_of_one_sphere_give_every_line_the_same_bits(step):
    sphere = AngleGrid(step_deg=step)
    th, ph = sphere.theta_deg, sphere.phi_deg
    rng = np.random.default_rng(0)
    for _ in range(20):
        t0, t1 = np.sort(rng.choice(sphere.n_theta, 2, replace=False))
        p0, p1 = np.sort(rng.choice(sphere.n_phi, 2, replace=False))
        win = AngleGrid(th[t0], th[t1], ph[p0], ph[p1], step)
        assert win.theta_deg.tobytes() == th[t0:t1 + 1].tobytes()
        assert win.phi_deg.tobytes() == ph[p0:p1 + 1].tobytes()
        t = rng.integers(t0, t1 + 1)
        assert win.theta_index(th[t]) == t - t0
