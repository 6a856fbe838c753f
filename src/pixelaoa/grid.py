"""Spherical angle grids and quadrature.

Convention: theta is the elevation angle from the +z axis in [0, 180] deg,
phi the azimuth in [-180, 180) deg.  Grid points enumerate row-major with
theta as the outer axis.  The quadrature weight of a point is
sin(theta) * dtheta * dphi in steradians (a flag switches to the literal
dtheta*dphi measure for power integrals that are defined without the
solid-angle Jacobian).

Every grid line is a line of its step's lattice (line_deg), so an angle has
the same bits in every grid that holds it, and lookups need no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError

THETA_MIN = 0.0
THETA_MAX = 180.0
PHI_MIN = -180.0
PHI_MAX = 180.0


@lru_cache(maxsize=None)
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


def line_deg(k, step_deg: float):
    """Line k (an integer or an integer array) of the step's lattice: k * step
    as one correctly rounded division of exact integers."""
    step = _step_fraction(step_deg)
    return k * step.numerator / step.denominator


def line_index(value_deg: float, step_deg: float) -> int | None:
    """The k whose line_deg is value_deg bit for bit, or None (always for a
    non-finite value_deg)."""
    step = _step_fraction(step_deg)
    x = value_deg * step.denominator / step.numerator
    k = round(x) if np.isfinite(x) else 0
    return k if line_deg(k, step_deg) == value_deg else None


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
        self._lines                                 # raises unless the edges are lines

    @cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Lattice indices (line_deg) of the theta lines and of the phi lines."""
        edges = (self.theta_start_deg, self.theta_stop_deg, self.phi_start_deg, self.phi_stop_deg)
        k = [line_index(x, self.step_deg) for x in edges]
        if None in k:
            raise GridError(f"grid edges {edges} deg are not all lines of the "
                            f"{self.step_deg} deg step")
        return np.arange(k[0], k[1] + 1), np.arange(k[2], k[3] if self.phi_wraps else k[3] + 1)

    # -- sizes -----------------------------------------------------------

    @property
    def phi_wraps(self) -> bool:
        return (self.phi_stop_deg - self.phi_start_deg) == 360.0

    @property
    def n_theta(self) -> int:
        return self._lines[0].size

    @property
    def n_phi(self) -> int:
        return self._lines[1].size

    @property
    def n_points(self) -> int:
        return self.n_theta * self.n_phi

    # -- coordinates ------------------------------------------------------

    @property
    def theta_deg(self) -> np.ndarray:
        return line_deg(self._lines[0], self.step_deg)

    @property
    def phi_deg(self) -> np.ndarray:
        return line_deg(self._lines[1], self.step_deg)

    def meshgrid_rad(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) in radians on the (n_theta, n_phi) lattice."""
        th = np.deg2rad(self.theta_deg)
        ph = np.deg2rad(self.phi_deg)
        return np.meshgrid(th, ph, indexing="ij")

    # -- index helpers ----------------------------------------------------

    def _index(self, value_deg: float, lines: np.ndarray, axis: str) -> int:
        k = line_index(value_deg, self.step_deg)
        if k is None:
            raise GridError(f"{axis} = {value_deg} deg is not on the grid (step {self.step_deg})")
        if not lines[0] <= k <= lines[-1]:
            raise GridError(f"{axis} = {value_deg} deg is outside the grid")
        return k - int(lines[0])

    def theta_index(self, theta_deg: float) -> int:
        return self._index(theta_deg, self._lines[0], "theta")

    def phi_index(self, phi_deg: float) -> int:
        return self._index(phi_deg, self._lines[1], "phi")

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
