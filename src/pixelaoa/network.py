"""Multiport circuit algebra for reconfigurable pixel antennas.

A geometry is a pair (active feed-port set, binary pixel-connection
vector).  Muted feed ports are open-circuited and drop out of the network
in the infinite-impedance limit; switched pixel links are short (0 ohm,
bit 0) or quasi-open (z_oc, bit 1) loads that are eliminated through a
Schur complement.  solve_network is the one solver: it returns the
effective feed impedance matrix, the per-port map V with overall patterns
E = e_oc . V, and the per-port radiation efficiencies.  Two functions
project V onto e_oc: overall_patterns onto the whole grid, for one config,
and the optimizer's ConfigEvaluator onto its area's FD window, for a batch.
The full-grid quadrature pipeline solve_network is checked against, and the
single-config Z_F and port-current references, live in tests/oracles.py.

Conditioning guard: load_correction warns (RuntimeWarning) when the exact
1-norm condition number of the diagonally equilibrated loaded-port system
exceeds CONDITION_WARN_THRESHOLD.  It is read from the S^-1 that the one
stacked solve returns beside W, so it costs no factorization of its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .emdata import EMDataset, PatternSet, ETA0
from .errors import ConfigError, NonPhysicalConfigError, NumericalError

# kappa_1(D S D), D = diag(|S_qq|)^-1/2, above which load_correction warns
CONDITION_WARN_THRESHOLD = 1e12


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryConfig:
    """One antenna geometry: ordered active feed ports + connection bits.

    feed_ports holds 0-based indices into the M potential feed ports.
    connections[q] = 1 opens the q-th pixel link (switch off), 0 shorts it
    (switch on); entry q maps to network port M + q.
    """

    feed_ports: tuple[int, ...]
    connections: tuple[int, ...]

    def __post_init__(self):
        fp = tuple(int(i) for i in self.feed_ports)
        g = tuple(int(b) for b in self.connections)
        if len(fp) == 0:
            raise ConfigError("at least one active feed port is required")
        if len(set(fp)) != len(fp):
            raise ConfigError(f"duplicate feed-port indices in {fp}")
        if any(i < 0 for i in fp):
            raise ConfigError(f"negative feed-port index in {fp}")
        if any(b not in (0, 1) for b in g):
            raise ConfigError("connection vector must be binary")
        object.__setattr__(self, "feed_ports", fp)
        object.__setattr__(self, "connections", g)

    @property
    def n_active(self) -> int:
        return len(self.feed_ports)

    def validate_against(self, M: int, Q: int) -> None:
        if any(i >= M for i in self.feed_ports):
            raise ConfigError(f"feed-port index out of range 0..{M - 1}: {self.feed_ports}")
        if len(self.connections) != Q:
            raise ConfigError(f"connection vector has {len(self.connections)} bits, expected {Q}")

    def connection_bitstring(self) -> str:
        return "".join(str(b) for b in self.connections)


@dataclass(frozen=True)
class FeedNetworkConfig:
    """Source impedances of the active RF chains and the quasi-open load value."""

    source_impedance_ohm: complex = 50.0 + 0.0j
    z_open_ohm: float = 1e9

    def __post_init__(self):
        if not (complex(self.source_impedance_ohm).real > 0):
            raise ConfigError("source impedance must have positive real part")
        if not (self.z_open_ohm >= 1e6):
            raise ConfigError("quasi-open load impedance must be at least 1e6 ohm")

    def source_matrix(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.complex128) * complex(self.source_impedance_ohm)


@dataclass(frozen=True, eq=False)
class ActiveNetwork:
    """All derived quantities of one geometry on one dataset."""

    z_feed: np.ndarray                # (N, N) effective feed impedance
    efficiencies: np.ndarray          # (N,) radiation efficiencies
    patterns: PatternSet              # overall = coupled * sqrt(efficiency)


# ---------------------------------------------------------------------------
# loaded-port elimination
# ---------------------------------------------------------------------------

def load_correction(Z: np.ndarray, n_feed: int, n_loaded: int, configs,
                    feednet: FeedNetworkConfig) -> np.ndarray:
    """W = (Z_LL + Z_L)^-1 Z_LA per config, stacked as (B, Q, N); the configs
    share one active-port count N.

    One stacked solve S X = [Z_LA | I_Q] gives W and S^-1 from one LU per
    config; the guard reads S^-1.  Equilibration keeps the quasi-open loads'
    z_oc / |Z| scale out of the condition number it warns on.
    """
    for config in configs:
        config.validate_against(n_feed, n_loaded)
    if len({config.n_active for config in configs}) != 1:
        raise ConfigError("a batch of network solves needs one active-port count")
    fp = np.array([config.feed_ports for config in configs], dtype=np.int64)   # (B, N)
    B, N = fp.shape
    if n_loaded == 0:
        return np.zeros((B, 0, N), dtype=np.complex128)
    g = np.array([config.connections for config in configs], dtype=np.float64)
    S = Z[n_feed:, n_feed:] + feednet.z_open_ohm * g[:, None, :] * np.eye(n_loaded)
    rhs = np.empty((B, n_loaded, N + n_loaded), dtype=np.complex128)
    rhs[:, :, :N] = np.moveaxis(Z[n_feed:][:, fp], 1, 0)                      # Z_LA
    rhs[:, :, N:] = np.eye(n_loaded)
    try:
        X = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular loaded-port system in a batch of {len(configs)} from config "
            f"{configs[0].feed_ports}/{configs[0].connection_bitstring()}"
        ) from exc
    # kappa_1(D S D) = ||D |S| D||_1 * ||D^-1 |S^-1| D^-1||_1 (max column sums)
    root = np.sqrt(np.abs(np.diagonal(S, axis1=1, axis2=2)))                 # 1 / D, (B, Q)
    outer = root[:, :, None] * root[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = (np.max((np.abs(S) / outer).sum(axis=1), axis=1)
                * np.max((np.abs(X[..., N:]) * outer).sum(axis=1), axis=1))
    for b in np.flatnonzero(~(cond <= CONDITION_WARN_THRESHOLD)):         # inf, nan too
        warnings.warn(
            f"loaded-port system condition number {cond[b]:.3g} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e} for config {configs[b].feed_ports}/"
            f"{configs[b].connection_bitstring()}",
            RuntimeWarning, stacklevel=2,
        )
    return X[..., :N]


def source_currents(z_feed: np.ndarray, feednet: FeedNetworkConfig) -> np.ndarray:
    """Port currents for canonical unit excitations: columns of (Z_0 + Z_F)^-1,
    for z_feed of shape (..., N, N)."""
    z_feed = np.asarray(z_feed, dtype=np.complex128)
    A = feednet.source_matrix(z_feed.shape[-1]) + z_feed
    try:
        return np.linalg.solve(A, np.broadcast_to(np.eye(A.shape[-1], dtype=np.complex128),
                                                  A.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("source_currents: singular source+feed impedance matrix") from exc


class NetworkSolution(NamedTuple):
    z_feed: np.ndarray                # (B, N, N) effective feed impedance
    V: np.ndarray                     # (B, P, N) overall patterns E = e_oc . V
    efficiencies: np.ndarray          # (B, N) radiation efficiencies


def solve_network(Z: np.ndarray, gram: np.ndarray, n_feed: int, n_loaded: int,
                  configs, feednet: FeedNetworkConfig = FeedNetworkConfig()) -> NetworkSolution:
    """Loaded-port network solves of a batch of geometries, stacked along B.

    Folds the loaded ports in through the Schur complement, couples in the
    sources and scales by sqrt(efficiency).  Radiated power comes from the
    pattern Gram matrix (EMDataset.gram), which is algebraically the
    full-grid quadrature of the radiated power.  The configs share one
    active-port count; one non-physical config fails the whole batch.
    """
    W = load_correction(Z, n_feed, n_loaded, configs, feednet)                    # (B, Q, N)
    B, _, N = W.shape
    fp = np.array([config.feed_ports for config in configs], dtype=np.int64)      # (B, N)
    Z_AA = Z[fp[:, :, None], fp[:, None, :]]
    Z_AL = Z[fp[:, :, None], np.arange(n_feed, n_feed + n_loaded)]
    z_feed = Z_AA - Z_AL @ W

    I = source_currents(z_feed, feednet)
    accepted = np.real(np.conj(np.diagonal(I, axis1=1, axis2=2))
                       * np.diagonal(z_feed @ I, axis1=1, axis2=2))
    if np.any(accepted <= 0):
        raise NonPhysicalConfigError("non-positive accepted power")

    T = np.zeros((B, n_feed + n_loaded, N), dtype=np.complex128)
    T[np.arange(B)[:, None], fp, np.arange(N)] = 1.0
    T[:, n_feed:, :] = -W
    S = T @ I
    radiated = np.real(np.einsum("bpn,bpn->bn", S.conj(), gram @ S))
    lam = radiated / (2.0 * ETA0 * accepted)
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise NonPhysicalConfigError("invalid efficiency")
    return NetworkSolution(z_feed, S * np.sqrt(lam)[:, None, :], lam)


def overall_patterns(dataset: EMDataset, config: GeometryConfig,
                     feednet: FeedNetworkConfig = FeedNetworkConfig()) -> ActiveNetwork:
    """solve_network plus the full-grid projection E = e_oc . V: one matmul
    on a (2, P, n_theta * n_phi) view of e_oc, which copies no part of it."""
    sol = solve_network(dataset.Z, dataset.gram, dataset.n_feed, dataset.n_loaded,
                        [config], feednet)
    e = dataset.e_oc
    pats = (sol.V[0].T @ e.reshape(2, e.shape[1], -1)).reshape(2, -1, *e.shape[2:])
    return ActiveNetwork(z_feed=sol.z_feed[0], efficiencies=sol.efficiencies[0],
                         patterns=PatternSet(dataset.grid, pats))
