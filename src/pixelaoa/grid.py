"""Spherical angle grids and quadrature.

Convention: theta is the elevation angle from the +z axis in [0, 180] deg,
phi the azimuth in [-180, 180) deg.  Grid points enumerate row-major with
theta as the outer axis.  The quadrature weight of a point is
sin(theta) * dtheta * dphi in steradians (a flag switches to the literal
dtheta*dphi measure for power integrals that are defined without the
solid-angle Jacobian).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridError

THETA_MIN = 0.0
THETA_MAX = 180.0
PHI_MIN = -180.0
PHI_MAX = 180.0


def _step_fraction(step_deg: float) -> Fraction:
    """Exact rational value of a grid step.

    Steps must be whole degrees or unit fractions of a degree (1/2, 1/4,
    1/10, ...) so that integer-degree area boundaries always land on grid
    lines.  Anything else (0.4, 2.5, ...) is rejected.
    """
    if not np.isfinite(step_deg) or step_deg <= 0:
        raise GridError(f"grid step must be positive, got {step_deg}")
    frac = Fraction(str(float(step_deg))).limit_denominator(10**6)
    if frac.denominator != 1 and frac.numerator != 1:
        raise GridError(
            f"grid step {step_deg} deg must be an integer number of degrees "
            "or a unit fraction of a degree"
        )
    return frac


def exact_deg(value_deg: float) -> Fraction:
    """Exact decimal value of an angle as its shortest repr reads: sums of
    these carry none of the float noise of 0.3 - 0.1."""
    return Fraction(str(float(value_deg)))


def _exact_count(start_deg: float, stop_deg: float, step: Fraction, what: str) -> int:
    span = exact_deg(stop_deg) - exact_deg(start_deg)
    n = span / step
    if n.denominator != 1:
        raise GridError(
            f"step {float(step)} deg does not divide the {what} span "
            f"[{start_deg}, {stop_deg}] deg")
    return int(n)


@dataclass(frozen=True)
class AngleGrid:
    """Regular (theta, phi) grid over (a part of) the sphere.

    theta spans [theta_start, theta_stop] inclusive.  phi is inclusive of
    its stop unless the grid covers the full 360-deg circle, in which case
    the stop is excluded (it aliases the start) and finite differences wrap.
    """

    theta_start_deg: float = 0.0
    theta_stop_deg: float = 180.0
    phi_start_deg: float = -180.0
    phi_stop_deg: float = 180.0
    step_deg: float = 1.0

    def __post_init__(self):
        if not (THETA_MIN <= self.theta_start_deg < self.theta_stop_deg <= THETA_MAX):
            raise GridError(
                f"theta range [{self.theta_start_deg}, {self.theta_stop_deg}] "
                f"must be increasing and within [{THETA_MIN}, {THETA_MAX}]"
            )
        if not (PHI_MIN <= self.phi_start_deg < self.phi_stop_deg <= PHI_MAX):
            raise GridError(
                f"phi range [{self.phi_start_deg}, {self.phi_stop_deg}] "
                f"must be increasing and within [{PHI_MIN}, {PHI_MAX}]"
            )
        step = _step_fraction(self.step_deg)
        _exact_count(self.theta_start_deg, self.theta_stop_deg, step, "theta")
        _exact_count(self.phi_start_deg, self.phi_stop_deg, step, "phi")

    # -- sizes -----------------------------------------------------------

    @property
    def phi_wraps(self) -> bool:
        return (self.phi_stop_deg - self.phi_start_deg) == 360.0

    @property
    def n_theta(self) -> int:
        step = _step_fraction(self.step_deg)
        return _exact_count(self.theta_start_deg, self.theta_stop_deg, step, "theta") + 1

    @property
    def n_phi(self) -> int:
        step = _step_fraction(self.step_deg)
        n = _exact_count(self.phi_start_deg, self.phi_stop_deg, step, "phi")
        return n if self.phi_wraps else n + 1

    @property
    def n_points(self) -> int:
        return self.n_theta * self.n_phi

    # -- coordinates ------------------------------------------------------

    @property
    def theta_deg(self) -> np.ndarray:
        return self.theta_start_deg + self.step_deg * np.arange(self.n_theta)

    @property
    def phi_deg(self) -> np.ndarray:
        return self.phi_start_deg + self.step_deg * np.arange(self.n_phi)

    def meshgrid_rad(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) in radians on the (n_theta, n_phi) lattice."""
        th = np.deg2rad(self.theta_deg)
        ph = np.deg2rad(self.phi_deg)
        return np.meshgrid(th, ph, indexing="ij")

    # -- index helpers ----------------------------------------------------

    def _index(self, value_deg: float, start: float, count: int, axis: str) -> int:
        pos = (value_deg - start) / self.step_deg
        idx = int(round(pos))
        if abs(pos - idx) > 1e-6:
            raise GridError(f"{axis} = {value_deg} deg is not on the grid (step {self.step_deg})")
        if not (0 <= idx < count):
            raise GridError(f"{axis} = {value_deg} deg is outside the grid")
        return idx

    def theta_index(self, theta_deg: float) -> int:
        return self._index(theta_deg, self.theta_start_deg, self.n_theta, "theta")

    def phi_index(self, phi_deg: float) -> int:
        return self._index(phi_deg, self.phi_start_deg, self.n_phi, "phi")

    # -- quadrature --------------------------------------------------------

    def weights(self, include_sin_theta: bool = True) -> np.ndarray:
        """Per-point quadrature weights, shape (n_theta, n_phi), non-negative.

        With include_sin_theta the weight is sin(theta)*dtheta*dphi in
        steradians; without it the literal dtheta*dphi cell measure is used.
        """
        dstep = np.deg2rad(self.step_deg)
        cell = dstep * dstep
        if include_sin_theta:
            col = np.sin(np.deg2rad(self.theta_deg)) * cell
        else:
            col = np.full(self.n_theta, cell)
        # rounding can push sin(180 deg) a hair below zero
        col = np.maximum(col, 0.0)
        return np.repeat(col[:, None], self.n_phi, axis=1)

    def step_rad(self) -> float:
        return float(np.deg2rad(self.step_deg))
