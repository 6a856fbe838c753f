"""Port impedance / radiation-pattern datasets.

The physics input to everything else is an EMDataset: the symmetric
impedance matrix Z of all M feed ports plus Q pixel-link ports, and the
open-circuit far-field patterns of every port on an angle grid.  Real
designs obtain both from a full-wave solver; here a coupled short-dipole
model over an infinite ground plane generates synthetic data whose
resistance matrix is a pattern-overlap Gram matrix, so passivity holds by
construction.

Also hosts the ideal uniform-planar-array pattern synthesiser used as the
fixed-geometry baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property

import numpy as np

from .errors import (
    DatasetFormatError,
    DatasetValidationError,
    DimensionMismatchError,
    FinitenessError,
    GridError,
    LayoutError,
    PassivityError,
    ReciprocityError,
)
from .grid import AngleGrid

C0 = 299_792_458.0          # speed of light, m/s
ETA0 = 120.0 * math.pi      # intrinsic impedance of free space, ohm


def json_int(value, name: str) -> int:
    """value, when it is a JSON integer; the readers of input files take their
    integer fields through this, so 25.5, true or "25" is an error, never a
    truncated or coerced count.  Raises TypeError naming the field, which the
    readers report as a DatasetFormatError."""
    if type(value) is not int:                      # bool is an int subclass
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """value as a float, when it is a JSON number (Infinity included, which
    save_codebook writes for an unbounded objective); the readers of input
    files take their float fields through this, so "80" or true is an error,
    never a coerced value.  Raises TypeError naming the field, which the
    readers report as a DatasetFormatError."""
    if type(value) not in (int, float):             # bool is an int subclass
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PortLayout:
    """Geometry of the pixel array.

    The array lives in the yz-plane, ground plane at x = 0, radiating
    toward +x (broadside is theta = 90 deg, phi = 0).  One feed port sits at
    each pixel centre (probe normal to the ground), one loaded port on each
    interior edge between adjacent pixels; the pixel pitch is the substrate
    side over the pixel count.  Lengths and the frequency are finite and
    positive.
    """

    pixel_rows: int = 5
    pixel_cols: int = 5
    substrate_side_mm: float = 62.5
    height_mm: float = 12.5
    frequency_hz: float = 2.4e9

    def __post_init__(self):
        if self.pixel_rows < 1 or self.pixel_cols < 1:
            raise LayoutError("pixel grid needs at least one row and one column")
        for name in ("substrate_side_mm", "height_mm", "frequency_hz"):
            if not 0.0 < getattr(self, name) < math.inf:       # nan fails too
                raise LayoutError(f"{name} must be finite and positive, got {getattr(self, name)}")

    @property
    def n_feed(self) -> int:
        return self.pixel_rows * self.pixel_cols

    @property
    def n_loaded(self) -> int:
        r, c = self.pixel_rows, self.pixel_cols
        return r * (c - 1) + c * (r - 1)

    @property
    def n_ports(self) -> int:
        return self.n_feed + self.n_loaded

    @property
    def wavelength_m(self) -> float:
        return C0 / self.frequency_hz

    def _pitches_mm(self) -> tuple[float, float]:
        return (self.substrate_side_mm / self.pixel_cols,
                self.substrate_side_mm / self.pixel_rows)

    def feed_port_positions(self) -> np.ndarray:
        """(M, 3) positions in metres, feed ports in row-major pixel order."""
        py, pz = self._pitches_mm()
        rows, cols = self.pixel_rows, self.pixel_cols
        pos = np.empty((self.n_feed, 3))
        for r in range(rows):
            for c in range(cols):
                y = (c - (cols - 1) / 2.0) * py
                z = (r - (rows - 1) / 2.0) * pz
                pos[r * cols + c] = (self.height_mm, y, z)
        return pos * 1e-3

    def loaded_port_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, 3) edge midpoints in metres and (Q, 3) unit edge directions.

        Ordering: all y-directed edges (between column-adjacent pixels) in
        row-major order, then all z-directed edges (row-adjacent pixels).
        """
        py, pz = self._pitches_mm()
        rows, cols = self.pixel_rows, self.pixel_cols
        pos, direc = [], []
        for r in range(rows):
            for c in range(cols - 1):
                y = (c + 0.5 - (cols - 1) / 2.0) * py
                z = (r - (rows - 1) / 2.0) * pz
                pos.append((self.height_mm, y, z))
                direc.append((0.0, 1.0, 0.0))
        for r in range(rows - 1):
            for c in range(cols):
                y = (c - (cols - 1) / 2.0) * py
                z = (r + 0.5 - (rows - 1) / 2.0) * pz
                pos.append((self.height_mm, y, z))
                direc.append((0.0, 0.0, 1.0))
        if not pos:
            return np.zeros((0, 3)), np.zeros((0, 3))
        return np.asarray(pos) * 1e-3, np.asarray(direc)

    def all_port_positions(self) -> np.ndarray:
        lp, _ = self.loaded_port_positions()
        return np.vstack([self.feed_port_positions(), lp])

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "PortLayout":
        return PortLayout(
            pixel_rows=json_int(d["pixel_rows"], "pixel_rows"),
            pixel_cols=json_int(d["pixel_cols"], "pixel_cols"),
            substrate_side_mm=json_float(d["substrate_side_mm"], "substrate_side_mm"),
            height_mm=json_float(d["height_mm"], "height_mm"),
            frequency_hz=json_float(d["frequency_hz"], "frequency_hz"),
        )


# ---------------------------------------------------------------------------
# pattern containers
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PatternSet:
    """Complex far-field patterns of N ports on a grid.

    data has shape (2, N, n_theta, n_phi); index 0 of the first axis is the
    theta polarization, index 1 the phi polarization.
    """

    grid: AngleGrid
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 4 or d.shape[0] != 2:
            raise DimensionMismatchError(f"pattern tensor must be (2, N, n_theta, n_phi), got {d.shape}")
        if d.shape[2] != self.grid.n_theta or d.shape[3] != self.grid.n_phi:
            raise DimensionMismatchError(
                f"pattern grid axes {d.shape[2:]} disagree with grid "
                f"({self.grid.n_theta}, {self.grid.n_phi})"
            )
        if d.shape[1] < 1:
            raise DimensionMismatchError("a pattern set needs at least one port")
        if not np.all(np.isfinite(d.view(np.float64))):
            raise FinitenessError("pattern set contains non-finite entries")
        object.__setattr__(self, "data", _readonly(d))

    @property
    def n_ports(self) -> int:
        return self.data.shape[1]

    def at(self, theta_deg: float, phi_deg: float) -> np.ndarray:
        """Pattern matrix (2, N) at one grid angle."""
        ti = self.grid.theta_index(theta_deg)
        pi = self.grid.phi_index(phi_deg)
        return np.array(self.data[:, :, ti, pi])


@dataclass(frozen=True, eq=False)
class EMDataset:
    """Impedance matrix + open-circuit patterns for all M+Q ports."""

    layout: PortLayout
    grid: AngleGrid
    Z: np.ndarray                     # (P, P) complex ohms, symmetric
    e_oc: np.ndarray                  # (2, P, n_theta, n_phi) complex
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        P = self.layout.n_ports
        Z = np.asarray(self.Z, dtype=np.complex128)
        e = np.asarray(self.e_oc, dtype=np.complex128)
        if Z.shape != (P, P):
            raise DimensionMismatchError(f"Z must be ({P}, {P}), got {Z.shape}")
        if e.shape != (2, P, self.grid.n_theta, self.grid.n_phi):
            raise DimensionMismatchError(
                f"e_oc must be (2, {P}, {self.grid.n_theta}, {self.grid.n_phi}), got {e.shape}"
            )
        object.__setattr__(self, "Z", _readonly(Z))
        object.__setattr__(self, "e_oc", _readonly(e))

    @property
    def n_feed(self) -> int:
        return self.layout.n_feed

    @property
    def n_loaded(self) -> int:
        return self.layout.n_loaded

    @property
    def n_ports(self) -> int:
        return self.layout.n_ports

    def quadrature(self) -> np.ndarray:
        return self.grid.weights(bool(self.metadata.get("include_sin_theta", True)))

    def window(self, grid: AngleGrid) -> np.ndarray:
        """Read-only (2, P, Tn, Pn) view of e_oc on grid, a rectangle of the
        dataset's grid at its step (crlb.fd_window gives one)."""
        t0 = self.grid.theta_index(grid.theta_start_deg)
        p0 = self.grid.phi_index(grid.phi_start_deg)
        e = self.e_oc[:, :, t0:t0 + grid.n_theta, p0:p0 + grid.n_phi]
        if grid.step_deg != self.grid.step_deg or e.shape[2:] != (grid.n_theta, grid.n_phi):
            raise GridError(f"{grid} is not a window of the dataset grid {self.grid}")
        return e

    @cached_property
    def gram(self) -> np.ndarray:
        """Read-only (P, P) pattern Gram matrix under the dataset quadrature."""
        return _readonly(pattern_gram(self.e_oc, self.quadrature()))


# ---------------------------------------------------------------------------
# synthetic coupled-dipole generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DipoleModelParams:
    """Knobs of the synthetic minimum-scattering dipole model: all finite,
    the jitter at least 0 and the feed-resistance target, when given, positive."""

    self_reactance_ohm: float = -20.0
    reactance_scale_ohm: float = 30.0
    feed_resistance_target_ohm: float | None = 50.0
    resistance_floor_ohm: float = 0.01
    self_reactance_jitter_ohm: float = 0.0
    include_sin_theta: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.self_reactance_jitter_ohm < 0.0:
            raise ValueError(f"self_reactance_jitter_ohm must be at least 0, "
                             f"got {self.self_reactance_jitter_ohm}")
        if self.feed_resistance_target_ohm is not None and self.feed_resistance_target_ohm <= 0.0:
            raise ValueError(f"feed_resistance_target_ohm must be positive, "
                             f"got {self.feed_resistance_target_ohm}")

    def to_dict(self) -> dict:
        return asdict(self)


def _dipole_patterns(layout: PortLayout, grid: AngleGrid) -> np.ndarray:
    """Raw open-circuit patterns (2, P, n_theta, n_phi) of unit dipoles.

    Feed probes are modelled as short dipoles normal to the ground plane
    (along +x), loaded ports as short dipoles along their pixel edge.  Image
    theory doubles the normal component (even image) and gives tangential
    components an odd image; fields vanish behind the ground plane.
    """
    th, ph = grid.meshgrid_rad()
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)

    kx = st * cp                     # propagation direction components
    front = kx >= 0.0                # fields are evaluated in front only
    st, ct, sp, cp, kx = (a[front] for a in (st, ct, sp, cp, kx))
    ky = st * sp
    kz = ct

    k = 2.0 * math.pi / layout.wavelength_m
    h = layout.height_mm * 1e-3

    # polarization unit vectors: theta_hat = (ct*cp, ct*sp, -st), phi_hat = (-sp, cp, 0)
    positions = layout.all_port_positions()
    _, orientations = layout.loaded_port_positions()

    P = layout.n_ports
    out = np.zeros((2, P, grid.n_theta, grid.n_phi), dtype=np.complex128)

    even = 2.0 * np.cos(k * h * kx)            # normal (x) dipole image factor
    odd = 2.0j * np.sin(k * h * kx)            # tangential dipole image factor

    for p in range(P):
        x, y, z = positions[p]
        lateral = np.exp(1j * k * (y * ky + z * kz))
        if p < layout.n_feed:
            d = np.array([1.0, 0.0, 0.0])
            img = even
        else:
            d = orientations[p - layout.n_feed]
            img = odd
        e_th = d[0] * ct * cp + d[1] * ct * sp - d[2] * st
        e_ph = -d[0] * sp + d[1] * cp
        out[0, p][front] = e_th * img * lateral
        out[1, p][front] = e_ph * img * lateral
    return out


def pattern_gram(patterns: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Hermitian Gram matrix A[m, n] = sum_pol sum_grid conj(e_m) e_n w.

    Holds one temporary the size of one polarization: conj(e) * w is built
    in place in a buffer reused for both polarizations."""
    P = patterns.shape[1]
    flat = patterns.reshape(2, P, -1)
    w = weights.reshape(-1)
    A = np.zeros((P, P), dtype=np.complex128)
    tmp = np.empty(flat.shape[1:], dtype=np.complex128)
    for pol in range(2):
        np.conjugate(flat[pol], out=tmp)
        tmp *= w
        A += tmp @ flat[pol].T
    return A


def generate_synthetic_dataset(
    layout: PortLayout,
    grid: AngleGrid,
    params: DipoleModelParams = DipoleModelParams(),
    seed: int = 0,
) -> EMDataset:
    """Build a synthetic EMDataset from the coupled-dipole model.

    The resistance matrix is 1/(2*eta0) times the weighted pattern-overlap
    Gram matrix (real part), which makes it positive semidefinite and makes
    radiated power exactly consistent with Re{Z}.  Reactances come from the
    -cos(kr)/(kr) small-dipole kernel plus a configurable self-reactance.
    Deterministic for fixed inputs; the seed only perturbs self-reactances
    and only when jitter is enabled.
    """
    positions = layout.all_port_positions()
    P = layout.n_ports
    if P < 1:
        raise LayoutError("layout has no ports")
    dists = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    off = ~np.eye(P, dtype=bool)
    if P > 1 and np.min(dists[off]) <= 0.0:
        raise LayoutError("coincident port positions in layout")

    e_oc = _dipole_patterns(layout, grid)
    w = grid.weights(params.include_sin_theta)

    gram = pattern_gram(e_oc, w)
    feed_diag = gram.real[0, 0]
    if params.feed_resistance_target_ohm is not None:
        if feed_diag <= 0:
            raise LayoutError("degenerate layout: feed port radiates no power on this grid")
        scale = math.sqrt(params.feed_resistance_target_ohm * 2.0 * ETA0 / feed_diag)
        e_oc *= scale
        gram = gram * (scale * scale)

    R = gram.real / (2.0 * ETA0)
    R = 0.5 * (R + R.T)                     # exact symmetry
    floor = params.resistance_floor_ohm
    diag = R.diagonal().copy()
    np.fill_diagonal(R, np.maximum(diag, floor))

    k = 2.0 * math.pi / layout.wavelength_m
    with np.errstate(divide="ignore", invalid="ignore"):
        kr = k * dists
        X = np.where(kr > 0, -np.cos(kr) / np.where(kr > 0, kr, 1.0), 0.0)
    X = params.reactance_scale_ohm * X
    self_x = np.full(P, params.self_reactance_ohm)
    if params.self_reactance_jitter_ohm > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self_x = self_x + params.self_reactance_jitter_ohm * rng.uniform(-1.0, 1.0, size=P)
    np.fill_diagonal(X, self_x)

    Z = R + 1j * X
    metadata = {
        "provenance": "synthetic",
        "model": params.to_dict(),
        "seed": int(seed),
        "include_sin_theta": params.include_sin_theta,
    }
    return EMDataset(layout=layout, grid=grid, Z=Z, e_oc=e_oc, metadata=metadata)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    value: float
    threshold: float
    passed: bool
    error: type[DatasetValidationError]     # what a strict load raises when it fails


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: {c.value:.6g} (threshold {c.threshold:.3g})")
        return "\n".join(lines)


# The thresholds of validate_dataset, so of `validate` and of every strict load:
# the largest |Z - Z^T| in ohm, and the most negative eigenvalue of Re{Z}
# allowed, relative to the largest.
SYMMETRY_TOL_OHM = 1e-9
PASSIVITY_TOL_REL = 1e-10


def validate_dataset(ds: EMDataset) -> ValidationReport:
    """Report-only physical consistency checks (never raises); each names the
    error a strict load raises when it fails: ReciprocityError for Z
    symmetry, PassivityError for Re{Z}, FinitenessError for Z and patterns."""
    Z = ds.Z
    sym = float(np.max(np.abs(Z - Z.T))) if Z.size else 0.0
    Rs = 0.5 * (Z.real + Z.real.T)
    # a non-finite Re{Z} has no spectrum, so its passivity check fails on nan
    eigs = np.linalg.eigvalsh(Rs) if np.all(np.isfinite(Rs)) else np.array([np.nan])
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1]) if eigs[-1] > 0 else 1.0
    finite = bool(np.all(np.isfinite(ds.e_oc.view(np.float64)))
                  and np.all(np.isfinite(Z.view(np.float64))))
    checks = (
        ValidationCheck("Z symmetry max|Z - Z^T| [ohm]", sym, SYMMETRY_TOL_OHM,
                        sym <= SYMMETRY_TOL_OHM, ReciprocityError),
        ValidationCheck("passivity min eig Re{Z} [ohm]", min_eig, -PASSIVITY_TOL_REL * max_eig,
                        min_eig >= -PASSIVITY_TOL_REL * max_eig, PassivityError),
        ValidationCheck("finiteness of Z and patterns", float(finite), 1.0, finite,
                        FinitenessError),
    )
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------
#
# Format v2, the only one read or written: the line b"PIXELAOA-DATASET 2\n",
# one line of JSON {"grid", "layout", "metadata"} with sorted keys, then Z and
# E_oc as two .npy arrays (complex128, no pickles) back to back.  The reader
# goes by that first line, not by the file name.  The retired format v1 (one
# JSON document of [re, im] pairs) is rejected with a hint to regenerate it.

_MAGIC = b"PIXELAOA-DATASET 2\n"


def save_dataset(ds: EMDataset, path) -> None:
    """Write a format-v2 dataset file; equal datasets give byte-identical files."""
    header = {"layout": ds.layout.to_dict(), "grid": asdict(ds.grid), "metadata": ds.metadata}
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        np.save(fh, ds.Z, allow_pickle=False)
        np.save(fh, ds.e_oc, allow_pickle=False)


def _read_array(fh, path, what: str, shape: tuple) -> np.ndarray:
    # The .npy reader behind np.load, without np.load's dispatch on the
    # leading bytes to a zip archive or a pickle.
    try:
        a = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DatasetFormatError(f"{path}: {what}: unreadable array ({exc})") from exc
    if a.dtype != np.complex128:
        raise DatasetFormatError(f"{path}: {what}: expected a complex128 array, got {a.dtype}")
    if a.shape != shape:
        raise DimensionMismatchError(f"{path}: {what}: expected shape {shape}, got {a.shape}")
    return a


def _read_v2(fh, path) -> EMDataset:
    """The dataset in the open format-v2 file fh, not yet judged by validate_dataset."""
    first = fh.readline(len(_MAGIC))
    if first.startswith(b"{"):
        raise DatasetFormatError(
            f"{path}: looks like a format-v1 JSON dataset, which is no longer read; "
            f"regenerate it with `pixelaoa gen-dataset`, or write format v2 with save_dataset")
    if first != _MAGIC:
        raise DatasetFormatError(f"{path}: unsupported dataset format line {first!r}")
    try:
        doc = json.loads(fh.readline())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"{path}: malformed header line ({exc})") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: header must be a JSON object")
    try:
        layout = PortLayout.from_dict(doc["layout"])
        g = doc["grid"]
        grid = AngleGrid(**{f.name: json_float(g[f.name], f.name) for f in fields(AngleGrid)})
    except (KeyError, TypeError, ValueError, LayoutError, GridError) as exc:
        raise DatasetFormatError(f"{path}: missing or malformed field ({exc})") from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DatasetFormatError(f"{path}: metadata must be a JSON object")
    P = layout.n_ports
    Z = _read_array(fh, path, "Z", (P, P))
    e_oc = _read_array(fh, path, "E_oc", (2, P, grid.n_theta, grid.n_phi))
    if fh.read(1):
        raise DatasetFormatError(f"{path}: trailing bytes after the E_oc array")
    metadata.setdefault("provenance", "imported")
    return EMDataset(layout=layout, grid=grid, Z=Z, e_oc=e_oc, metadata=metadata)


def load_dataset(path, strict: bool = True) -> EMDataset:
    """Load a format-v2 dataset file, the one save_dataset writes; any other
    file, a format-v1 one included, raises DatasetFormatError.  strict=True
    raises the error of a failing validate_dataset check, FinitenessError
    before the others; strict=False loads without judging the data."""
    with open(path, "rb") as fh:
        ds = _read_v2(fh, path)
    if strict:
        failed = [c for c in validate_dataset(ds).checks if not c.passed]
        if failed:
            c = min(failed, key=lambda c: c.error is not FinitenessError)
            raise c.error(f"{path}: failed {c.name}: {c.value:.3g} (threshold {c.threshold:.3g})")
    return ds


# ---------------------------------------------------------------------------
# UPA baseline patterns
# ---------------------------------------------------------------------------

def upa_patterns(
    n_y: int,
    n_z: int,
    spacing_over_lambda: float,
    grid: AngleGrid,
    element: str = "iso-theta",
) -> PatternSet:
    """Patterns of an N_Y x N_Z uniform planar array in the yz-plane.

    Port n (1-based) gets the array factor
    exp(j*k*((n_y_idx - 1) sin(theta) sin(phi) + (n_z_idx - 1) cos(theta)))
    with k = 2*pi*spacing/lambda, n_y_idx = n mod N_Y mapped to 1..N_Y and
    n_z_idx = ceil(n / N_Y), applied to the shared element pattern.

    element: "iso-theta" (constant [1, 0]) or "iso-dual" (returns 2N ports:
    N theta-polarized followed by N phi-polarized).
    """
    if n_y < 1 or n_z < 1:
        raise ValueError("n_y and n_z must be at least 1")
    if not 0.0 < spacing_over_lambda < math.inf:          # nan fails too
        raise ValueError(f"element spacing must be finite and positive, got {spacing_over_lambda}")

    # (theta, phi) polarization factors of each element kind
    elements = {"iso-theta": [(1 + 0j, 0j)],
                "iso-dual": [(1 + 0j, 0j), (0j, 1 + 0j)]}.get(element)
    if elements is None:
        raise ValueError(f"unknown element kind {element!r}")

    th, ph = grid.meshgrid_rad()
    k = 2.0 * math.pi * spacing_over_lambda
    uy = np.sin(th) * np.sin(ph)
    uz = np.cos(th)
    N = n_y * n_z
    # element block b holds ports b*N .. b*N + N-1; each array factor is
    # written straight into the output, one port at a time
    data = np.empty((2, N * len(elements), grid.n_theta, grid.n_phi), dtype=np.complex128)
    for n in range(1, N + 1):
        ny = n % n_y
        ny = n_y if ny == 0 else ny
        nz = math.ceil(n / n_y)
        af = np.exp(1j * k * ((ny - 1) * uy + (nz - 1) * uz))
        for b, el in enumerate(elements):
            for pol, f in enumerate(el):
                np.multiply(af, f, out=data[pol, b * N + n - 1])
    return PatternSet(grid, data)
