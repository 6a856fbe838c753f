"""Cramer-Rao lower bounds for 2-D angle-of-arrival estimation.

Given per-port far-field patterns, the Fisher information at an angle is
F = J^H D J where J stacks the theta/phi derivatives of the full
steering row f = [e_theta, e_phi] and D = I - f^H f / ||f||^2 projects
out the steering direction.  The CRLB matrix is C = Re{F}^-1 / (2 SNR).
Derivatives are central finite differences on the stored grid (one-sided
at the theta poles, wrapped in phi on full-circle grids).

crlb_points is the one entry to the Fisher sweep (kernels.fim_sweep), for
one pattern set or a batch of sets; crlb_matrix, crlb_map, the optimizer's
evaluator and the CLI's area table all go through it.

A closed-form expression for the ideal uniform planar array serves as a
cross-check oracle and exhibits the characteristic endfire blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .emdata import PatternSet
from .errors import GridError
from .grid import AngleGrid, line_index


# ---------------------------------------------------------------------------
# sensing areas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensingArea:
    """Closed rectangular angle window [theta_min, theta_max] x [phi_min, phi_max] in degrees."""

    theta_min_deg: float
    theta_max_deg: float
    phi_min_deg: float
    phi_max_deg: float

    def __post_init__(self):
        if not (self.theta_min_deg <= self.theta_max_deg and self.phi_min_deg <= self.phi_max_deg):
            raise GridError(f"empty sensing area {self}")

    def bounds(self) -> tuple[float, float, float, float]:
        return (self.theta_min_deg, self.theta_max_deg, self.phi_min_deg, self.phi_max_deg)

    def indices(self, grid: AngleGrid) -> tuple[np.ndarray, np.ndarray]:
        """Grid indices of the closed area (theta ids, phi ids); raises if misaligned."""
        t0 = grid.theta_index(self.theta_min_deg)
        t1 = grid.theta_index(self.theta_max_deg)
        p0 = grid.phi_index(self.phi_min_deg)
        p1 = grid.phi_index(self.phi_max_deg)
        return np.arange(t0, t1 + 1), np.arange(p0, p1 + 1)

    def points(self, grid: AngleGrid) -> tuple[np.ndarray, np.ndarray]:
        """Grid indices (it, ip) of every point of the area, row-major (theta outer)."""
        t_ids, p_ids = self.indices(grid)
        return np.repeat(t_ids, p_ids.size), np.tile(p_ids, t_ids.size)

    def contains(self, theta_deg: float, phi_deg: float) -> bool:
        return (self.theta_min_deg <= theta_deg <= self.theta_max_deg
                and self.phi_min_deg <= phi_deg <= self.phi_max_deg)

    def label(self) -> str:
        return (f"theta[{self.theta_min_deg:g}:{self.theta_max_deg:g}]"
                f"_phi[{self.phi_min_deg:g}:{self.phi_max_deg:g}]")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CRLBResult:
    """2x2 CRLB matrix (rad^2) at one angle plus the scalar objective sqrt(Tr C)."""

    matrix: np.ndarray
    objective: float
    angle_deg: tuple[float, float]
    snr_linear: float
    singular: bool = False

    @property
    def c_theta_theta(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def c_phi_phi(self) -> float:
        return float(self.matrix[1, 1])


@dataclass(frozen=True)
class CRLBMap:
    """Per-angle CRLB table over a sensing area with its worst-case objective."""

    area: SensingArea
    snr_linear: float
    theta_deg: np.ndarray
    phi_deg: np.ndarray
    c_tt: np.ndarray
    c_tp: np.ndarray
    c_pp: np.ndarray
    objective: np.ndarray
    singular: np.ndarray
    worst: float
    worst_angle: tuple[float, float]

    @property
    def n_points(self) -> int:
        return self.theta_deg.size


# ---------------------------------------------------------------------------
# finite-difference stencil
# ---------------------------------------------------------------------------

def _step_multiple(grid: AngleGrid, fd_step_deg: float | None) -> int:
    if fd_step_deg is None:
        return 1
    s = line_index(fd_step_deg, grid.step_deg)
    if s is None or s < 1:
        raise GridError(
            f"fd step {fd_step_deg} deg must be a positive multiple of the grid step {grid.step_deg}"
        )
    return s


def fd_window(area: SensingArea, grid: AngleGrid, fd_step_deg: float | None) -> AngleGrid:
    """The part of grid that area's finite differences read: the area plus its
    FD margin, with the whole phi circle when a wrapping grid's margin crosses
    +-180, so every stencil on the window is the grid's own.  Raises GridError
    when the area is off the grid."""
    m = _step_multiple(grid, fd_step_deg)
    t_ids, p_ids = area.indices(grid)
    t = np.clip([t_ids[0] - m, t_ids[-1] + m], 0, grid.n_theta - 1)
    p = [p_ids[0] - m, p_ids[-1] + m]
    if grid.phi_wraps and (p[0] < 0 or p[1] >= grid.n_phi):
        phi = [grid.phi_start_deg, grid.phi_stop_deg]
    else:
        phi = grid.phi_deg[np.clip(p, 0, grid.n_phi - 1)].tolist()
    return AngleGrid(*grid.theta_deg[t].tolist(), *phi, grid.step_deg)


# Most bytes of one theta band's patterns: crlb-map --upa sweeps its area in
# bands of this many bytes' worth of whole theta rows.
_BAND_BYTES = 1 << 22


def theta_bands(area: SensingArea, grid: AngleGrid, row_bytes: int) -> list[SensingArea]:
    """The area cut into bands of whole theta rows of grid, in row order.

    row_bytes is what one theta row of a band's patterns takes; a band holds
    max(1, _BAND_BYTES // row_bytes) rows, and its FD window adds the margin
    rows.  Band edges are the grid's own lines.  Raises GridError when the
    area is off the grid.
    """
    lines = grid.theta_deg[area.indices(grid)[0]].tolist()
    rows = max(1, _BAND_BYTES // max(1, row_bytes))
    return [SensingArea(band[0], band[-1], area.phi_min_deg, area.phi_max_deg)
            for band in (lines[i:i + rows] for i in range(0, len(lines), rows))]


def _axis_stencil(i: np.ndarray, s: int, n: int, h: float, axis: str):
    """Plus/minus neighbours of indices i on an axis of n points, with the
    inverse denominators: central inside, one-sided at the axis ends."""
    lo = i - s < 0
    hi = i + s > n - 1
    if np.any(lo & hi):
        raise GridError(f"grid too small in {axis} for the requested fd step")
    return (np.where(hi, i, i + s), np.where(lo, i, i - s),
            np.where(lo | hi, 1.0 / h, 1.0 / (2.0 * h)))


def fd_stencil(grid: AngleGrid, it: np.ndarray, ip: np.ndarray, fd_step_deg: float | None):
    """Neighbour indices and inverse denominators (1/rad) for FD derivatives
    with a step of fd_step_deg (None: the grid step).

    Central differences in the interior; one-sided at theta = 0/180 and at
    phi edges of partial grids; modular wrap on full-circle phi grids.
    """
    s = _step_multiple(grid, fd_step_deg)
    h = s * grid.step_rad()
    it = np.asarray(it, dtype=np.int64)
    ip = np.asarray(ip, dtype=np.int64)
    itp, itm, inv_dt = _axis_stencil(it, s, grid.n_theta, h, "theta")
    if grid.phi_wraps:
        ipp = (ip + s) % grid.n_phi
        ipm = (ip - s) % grid.n_phi
        inv_dp = np.full(ip.shape, 1.0 / (2.0 * h))
    else:
        ipp, ipm, inv_dp = _axis_stencil(ip, s, grid.n_phi, h, "phi")
    return itp, itm, inv_dt, ipp, ipm, inv_dp


def crlb_points(data: np.ndarray, grid: AngleGrid, it: np.ndarray, ip: np.ndarray,
                snr: float, fd_step_deg: float | None):
    """CRLB at grid points (it, ip) by one kernels.fim_sweep.

    data is one pattern set (2, N, Tn, Pn) on grid, or a batch of B sets
    (B, 2, N, Tn, Pn) on it.  A batch's sets are laid side by side along
    phi, set b's phi stencil shifted by b * Pn, so one sweep scores them all.
    Returns per-point arrays (c_tt, c_tp, c_pp, objective, singular): (S,)
    for one set, (B, S) for a batch.
    """
    if not (snr > 0):
        raise ValueError(f"snr must be positive, got {snr}")
    itp, itm, inv_dt, ipp, ipm, inv_dp = fd_stencil(grid, it, ip, fd_step_deg)
    batch = data.ndim == 5
    B, _, N, Tn, Pn = data.shape if batch else (1, *data.shape)
    if batch:
        shift = Pn * np.arange(B)[:, None]
        it, itp, itm, inv_dt, inv_dp = (np.tile(x, B) for x in (it, itp, itm, inv_dt, inv_dp))
        ip, ipp, ipm = ((x + shift).ravel() for x in (ip, ipp, ipm))
        data = data.transpose(1, 2, 3, 0, 4)
    out = kernels.fim_sweep(data.reshape(2 * N, Tn, B * Pn), it, ip, itp, itm, inv_dt,
                            ipp, ipm, inv_dp, snr)
    return tuple(x.reshape(B, -1) for x in out) if batch else out


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def projection_matrix(f: np.ndarray) -> np.ndarray:
    """D = I - f^H f / ||f||^2 for a steering row f; annihilates f^H."""
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    nf2 = float(np.vdot(f, f).real)
    if nf2 <= 0.0:
        raise ValueError("zero steering vector has no projection complement")
    return np.eye(f.size, dtype=np.complex128) - np.outer(f.conj(), f) / nf2


def crlb_matrix(patterns: PatternSet, angle_deg: tuple[float, float], snr_linear: float,
                fd_step_deg: float | None = None) -> CRLBResult:
    """CRLB matrix at one grid angle; singular Fisher information yields +inf entries."""
    grid = patterns.grid
    it = np.array([grid.theta_index(angle_deg[0])])
    ip = np.array([grid.phi_index(angle_deg[1])])
    c_tt, c_tp, c_pp, obj, sing = crlb_points(patterns.data, grid, it, ip, snr_linear, fd_step_deg)
    C = np.array([[c_tt[0], c_tp[0]], [c_tp[0], c_pp[0]]])
    return CRLBResult(matrix=C, objective=float(obj[0]),
                      angle_deg=(float(angle_deg[0]), float(angle_deg[1])),
                      snr_linear=float(snr_linear), singular=bool(sing[0]))


def crlb_map(patterns: PatternSet, area: SensingArea, snr_linear: float,
             fd_step_deg: float | None = None) -> CRLBMap:
    """Evaluate the CRLB at every grid point of the area; track the worst objective.

    Points run row-major (theta outer); ties on the maximum break toward the
    lowest grid index, so the reduction is order-fixed and deterministic.
    """
    grid = patterns.grid
    it, ip = area.points(grid)
    c_tt, c_tp, c_pp, obj, sing = crlb_points(patterns.data, grid, it, ip, snr_linear, fd_step_deg)

    worst_i = int(np.argmax(obj))          # first maximum wins on ties
    th, ph = grid.theta_deg[it], grid.phi_deg[ip]
    return CRLBMap(
        area=area, snr_linear=float(snr_linear),
        theta_deg=th, phi_deg=ph,
        c_tt=c_tt, c_tp=c_tp, c_pp=c_pp,
        objective=obj, singular=sing,
        worst=float(obj[worst_i]),
        worst_angle=(float(th[worst_i]), float(ph[worst_i])),
    )


# ---------------------------------------------------------------------------
# closed-form UPA bound
# ---------------------------------------------------------------------------

def upa_crlb_closed_form_map(n_y: int, n_z: int, spacing_over_lambda: float,
                             theta_deg, phi_deg, snr_linear: float):
    """Closed-form CRLB of the N_Y x N_Z uniform planar array at many angles.

    c = [[B_Y s^2 cp^2, -B_Y c s cp sp], [., B_Z s^2 + B_Y c^2 sp^2]]
        / (2 k^4 B_Y B_Z s^2 cp^2 SNR),
    with B_Y = N_Y(N_Y^2-1)/12, B_Z = N_Z(N_Z^2-1)/12 and k = 2 pi d/lambda.
    Diverges at endfire (sin(theta) cos(phi) = 0) and for single-row arrays.
    theta_deg, phi_deg: equal-shape angle arrays in degrees.  Returns
    (c_tt, c_tp, c_pp, objective, singular) arrays of that shape; singular
    points hold +inf.
    """
    if not (snr_linear > 0):
        raise ValueError(f"snr must be positive, got {snr_linear}")
    if not 0.0 < spacing_over_lambda < math.inf:          # nan fails too
        raise ValueError(f"element spacing must be finite and positive, got {spacing_over_lambda}")
    theta_deg = np.asarray(theta_deg, dtype=np.float64)
    phi_deg = np.asarray(phi_deg, dtype=np.float64)
    B_Y = n_y * (n_y**2 - 1) / 12.0
    B_Z = n_z * (n_z**2 - 1) / 12.0
    k = 2.0 * math.pi * spacing_over_lambda

    singular = ((theta_deg % 180.0 == 0.0) | (np.abs(phi_deg) % 180.0 == 90.0)
                | (B_Y == 0.0) | (B_Z == 0.0))
    th = np.radians(theta_deg)
    ph = np.radians(phi_deg)
    s, c = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 2.0 * k**4 * B_Y * B_Z * s * s * cp * cp * snr_linear
        c_tt = B_Y * s * s * cp * cp / den
        c_tp = -B_Y * c * s * cp * sp / den
        c_pp = (B_Z * s * s + B_Y * c * c * sp * sp) / den
        obj = np.sqrt(c_tt + c_pp)
    c_tt, c_tp, c_pp, obj = (np.where(singular, np.inf, x) for x in (c_tt, c_tp, c_pp, obj))
    return c_tt, c_tp, c_pp, obj, singular


def upa_crlb_closed_form(n_y: int, n_z: int, spacing_over_lambda: float,
                         angle_deg: tuple[float, float], snr_linear: float) -> CRLBResult:
    """Closed-form CRLB of the N_Y x N_Z uniform planar array at one angle.

    The formula and its singular points are those of upa_crlb_closed_form_map.
    """
    theta_deg, phi_deg = angle_deg
    c_tt, c_tp, c_pp, obj, sing = upa_crlb_closed_form_map(
        n_y, n_z, spacing_over_lambda, [theta_deg], [phi_deg], snr_linear)
    C = np.array([[c_tt[0], c_tp[0]], [c_tp[0], c_pp[0]]])
    return CRLBResult(matrix=C, objective=float(obj[0]),
                      angle_deg=(float(theta_deg), float(phi_deg)),
                      snr_linear=float(snr_linear), singular=bool(sing[0]))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

MAP_HEADER = "theta_deg,phi_deg,c_tt,c_tp,c_pp,objective"

# Rows that write_csv turns into Python values at a time.
_CSV_BLOCK_ROWS = 1 << 12


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under a header line.

    Every cell is the str of its Python value: integers as digits, floats
    in their shortest round-trip form, +inf as 'inf', strings unquoted.
    """
    write_csv_blocks(path, header, [columns])


def write_csv_blocks(path, header: str, blocks) -> None:
    """write_csv of an iterable of column blocks, one after another, so a
    table made block by block is never held whole.  Rows are formatted
    _CSV_BLOCK_ROWS at a time, each by one '%s,...,%s' string, and each
    block of rows is written as one string.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            cols = [np.asarray(c) for c in columns]
            n = min((len(c) for c in cols), default=0)
            fmt = ",".join(["%s"] * len(cols)) + "\n"
            for r0 in range(0, n, _CSV_BLOCK_ROWS):
                block = [_values(c[r0:r0 + _CSV_BLOCK_ROWS]) for c in cols]
                fh.write("".join([fmt % row for row in zip(*block)]))


def _values(column: np.ndarray) -> list:
    """The Python values of a column block, whose str are its cells.

    A float64 block with fewer than three quarters as many distinct
    magnitudes as rows comes back as its cells, each distinct magnitude
    formatted once and a negative value written as '-' and its magnitude's
    cell; -0.0 and -inf keep their sign, and a NaN's cell is 'nan' whatever
    its sign bit, as str writes it.  Shortest round-trip formatting is the
    writer's cost: a (theta, phi) map repeats its grid lines and any constant
    column in every row, and its closed-form columns mirror each other at
    +-phi.
    """
    if column.dtype == np.float64 and column.size:
        bits = np.abs(column).view(np.int64)
        srt = np.sort(bits)
        new = np.concatenate(([True], srt[1:] != srt[:-1]))
        if 4 * np.count_nonzero(new) < 3 * column.size:
            distinct = srt[new]
            cells = list(map(str, distinct.view(np.float64).tolist()))
            table = np.array(cells + ["-" + c for c in cells], dtype=object)
            neg = np.signbit(column) & ~np.isnan(column)
            return table[np.searchsorted(distinct, bits) + neg * distinct.size].tolist()
    return column.tolist()
