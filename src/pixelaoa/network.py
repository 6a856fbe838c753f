"""Multiport circuit algebra for reconfigurable pixel antennas.

A geometry is a pair (active feed-port set, binary pixel-connection
vector).  Muted feed ports and open pixel links (bit 1) carry no current
and drop out of the network exactly; shorted links (0 ohm, bit 0) are
eliminated through a Schur complement.  solve_network is the one solver:
it returns the effective feed impedance matrix, the per-port map V with
overall patterns E = e_oc . V, and the per-port radiation efficiencies.
load_correction solves each config's loaded-port system on its shorted
links, padded with its own open links to a size that depends on the config
alone, so a config's solution never depends on its batch.  project is the
one projection E = e_oc . V: a batch of V onto a window of e_oc
(EMDataset.window) by one GEMM per polarization, for the optimizer's
ConfigEvaluator and the CLI's maps and Monte Carlo alike; overall_patterns
is solve_network plus project on the whole grid.
The full-grid quadrature pipeline solve_network is checked against, and the
single-config Z_F and port-current references, live in tests/oracles.py.

Conditioning guard: load_correction warns (RuntimeWarning) when the exact
1-norm condition number of the loaded-port system exceeds
CONDITION_WARN_THRESHOLD.  Every config gets a lower-bound estimate from two
probe columns that ride in the stacked solves beside W (the first step of
Hager's 1-norm estimator: Hager 1984, Higham 1988); only a config whose
estimate comes within _SCREEN of the threshold pays a second solve for the
exact value, which the warning is decided and printed on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .emdata import EMDataset, PatternSet, ETA0
from .errors import ConfigError, NonPhysicalConfigError, NumericalError

# kappa_1(S) above which load_correction warns
CONDITION_WARN_THRESHOLD = 1e12
# the exact kappa_1 is computed where the probe estimate, a lower bound,
# exceeds CONDITION_WARN_THRESHOLD / _SCREEN; on 300 random 4-port configs
# (default_rng(7), uniform bits) of the 5x5 jittered 2-degree dataset (seed 7),
# kappa_1 is 441 in the median and 3.51e3 at most, and the estimate under-reads
# it by 1.9x in the median, 11.7x at worst
_SCREEN = 1e4
# a config's loaded-port system is solved at its shorted-link count rounded up
# to a multiple of _PAD (at most Q), one solve per size a batch holds.  Over
# the 153 batches of the seed-7 codebook optimize (5x5 pixels, 2 degrees; 18
# shorted links in the median, 15-23 at 5-95%), load_correction took, median
# of 9 runs on one CPU, 0.21 s at _PAD = 1 (8.9 sizes per batch), 0.17 s at 4
# (3.2), 0.18 s at 8 (2.2), 0.23 s at 16 and 0.34 s at Q = 40 (one), and the
# 227 seed-11 batches read alike: finer pads pay per call, coarser ones for LU
# work on padding.  4 and 8 are within noise; 8 makes fewer calls
_PAD = 8
_GOLDEN = (5 ** 0.5 - 1) / 2            # phase step of the second probe column
_BITS = frozenset((0, 1))


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
        fp = tuple(map(int, self.feed_ports))
        g = tuple(map(int, self.connections))
        if len(fp) == 0:
            raise ConfigError("at least one active feed port is required")
        if len(set(fp)) != len(fp):
            raise ConfigError(f"duplicate feed-port indices in {fp}")
        if min(fp) < 0:
            raise ConfigError(f"negative feed-port index in {fp}")
        if not _BITS.issuperset(g):
            raise ConfigError("connection vector must be binary")
        object.__setattr__(self, "feed_ports", fp)
        object.__setattr__(self, "connections", g)

    @property
    def n_active(self) -> int:
        return len(self.feed_ports)

    def validate_against(self, M: int, Q: int) -> None:
        if max(self.feed_ports) >= M:
            raise ConfigError(f"feed-port index out of range 0..{M - 1}: {self.feed_ports}")
        if len(self.connections) != Q:
            raise ConfigError(f"connection vector has {len(self.connections)} bits, expected {Q}")

    def connection_bitstring(self) -> str:
        return "".join(str(b) for b in self.connections)


@dataclass(frozen=True)
class FeedNetworkConfig:
    """Source impedance of the active RF chains."""

    source_impedance_ohm: complex = 50.0 + 0.0j

    def __post_init__(self):
        z0 = complex(self.source_impedance_ohm)
        if not (np.isfinite(z0) and z0.real > 0):
            raise ConfigError(f"source impedance must be finite with positive real part, "
                              f"got {z0}")

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

def _probes(Q: int) -> np.ndarray:
    """(Q, 2) unit-modulus probe columns of the conditioning guard: the ones
    vector, and golden-ratio phases, which are not orthogonal to the
    antisymmetric null vector of a shorted link pair as the ones vector is."""
    return np.stack([np.ones(Q, dtype=np.complex128),
                     np.exp(2j * np.pi * (np.arange(Q) * _GOLDEN % 1.0))], axis=1)


def _inverse_norm(Y: np.ndarray, weight: float) -> np.ndarray:
    """max_k ||Y_k||_1 / weight per config.  For Y = S^-1 and weight 1 it is
    ||S^-1||_1; for Y = S^-1 P, P the unit-modulus probes and weight
    ||p_k||_1 = Q, a lower bound of it."""
    return np.abs(Y).sum(axis=1).max(axis=1) / weight


def load_correction(Z: np.ndarray, n_feed: int, n_loaded: int, configs) -> np.ndarray:
    """W per config, stacked as (B, Q, N): Z_ss^-1 Z_sA in the rows of its
    shorted links s, and exactly 0 in those of its open links, which carry
    no current.  The configs share one active-port count N.

    Each config is solved on K links of its own: its shorted links, then its
    first open links, K its shorted count rounded up to a multiple of _PAD
    (at most Q).  K depends on the config alone, so W never depends on the
    batch mates.  S is Z_LL on those links with each open link's row and
    column those of the identity, and the right-hand side Z_LA is 0 in the
    open rows, so X is exactly 0 there.  The batch takes one stacked solve
    per K present, S X = [Z_LA | P]: W and, for the two probe columns P
    (_probes), S^-1 P from the same LU per config.  Both are scattered back
    to the Q rows, S^-1 P with the probes in the open rows outside K, as the
    identity rows of the Q-link system leave them; its largest column 1-norm
    over ||p||_1 = Q is a lower bound of ||S^-1||_1.  Configs whose
    estimated kappa_1 comes within _SCREEN of CONDITION_WARN_THRESHOLD, or
    is not finite, get the exact kappa_1 from a second solve, on the K
    columns of the identity, its inverse norm floored at 1 (the identity
    block) when the config has open links, and the warning is decided and
    printed on that.
    """
    for config in configs:
        config.validate_against(n_feed, n_loaded)
    if len({config.n_active for config in configs}) != 1:
        raise ConfigError("a batch of network solves needs one active-port count")
    fp = np.array([config.feed_ports for config in configs], dtype=np.int64)   # (B, N)
    B, N = fp.shape
    Q = n_loaded
    W = np.zeros((B, Q, N), dtype=np.complex128)
    if Q == 0:
        return W
    opened = np.array([config.connections for config in configs], dtype=bool)  # (B, Q)
    Z_LL = Z[n_feed:, n_feed:]
    probes = _probes(Q)
    Y = np.repeat(probes[None], B, axis=0)                 # S^-1 P, (B, Q, 2)
    links = np.argsort(opened, axis=1, kind="stable")       # shorted links first
    size = np.minimum(-(-np.count_nonzero(~opened, axis=1) // _PAD) * _PAD, Q)
    systems = []
    for K in np.unique(size):
        g = np.flatnonzero(size == K)
        q = links[g, :K]                                                   # (G, K)
        shut = opened[g[:, None], q]                        # the padding open links
        S = np.where(shut[:, :, None] | shut[:, None, :], 0.0, Z_LL[q[:, :, None], q[:, None, :]])
        np.einsum("bqq->bq", S)[shut] = 1.0             # through a view of the diagonals
        rhs = np.empty((len(g), K, N + 2), dtype=np.complex128)
        rhs[:, :, :N] = Z[n_feed + q[:, :, None], fp[g][:, None, :]]           # Z_LA
        rhs[shut, :N] = 0.0
        rhs[:, :, N:] = probes[q]
        try:
            X = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular loaded-port system in a batch of {len(configs)} from config "
                f"{configs[g[0]].feed_ports}/{configs[g[0]].connection_bitstring()}"
            ) from exc
        W[g[:, None], q] = X[..., :N]
        Y[g[:, None], q] = X[..., N:]
        systems.append((g, S))
    with np.errstate(invalid="ignore", over="ignore"):
        # ||S||_1: an open column holds only its 1, a shorted one |Z_LL| in the shorted rows
        norm = np.where(opened, 1.0, (~opened) @ np.abs(Z_LL)).max(axis=1)
        cond = norm * _inverse_norm(Y, Q)                                   # a lower bound
        near = ~(cond <= CONDITION_WARN_THRESHOLD / _SCREEN)                # inf, nan too
        for g, S in systems:
            hit = near[g]
            if hit.any():
                b, K = g[hit], S.shape[1]
                eye = np.broadcast_to(np.eye(K, dtype=np.complex128), (b.size, K, K))
                inverse = _inverse_norm(np.linalg.solve(S[hit], eye), 1)
                cond[b] = norm[b] * np.maximum(inverse, opened[b].any(axis=1))
    near = np.flatnonzero(near)
    for b in near[~(cond[near] <= CONDITION_WARN_THRESHOLD)]:
        warnings.warn(
            f"loaded-port system condition number {cond[b]:.3g} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e} for config {configs[b].feed_ports}/"
            f"{configs[b].connection_bitstring()}",
            RuntimeWarning, stacklevel=2,
        )
    return W


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


def solve_network(dataset: EMDataset, configs,
                  feednet: FeedNetworkConfig = FeedNetworkConfig()) -> NetworkSolution:
    """Loaded-port network solves of a batch of geometries, stacked along B.

    Folds the loaded ports in through the Schur complement, couples in the
    sources and scales by sqrt(efficiency).  Radiated power comes from the
    pattern Gram matrix (EMDataset.gram), which is algebraically the
    full-grid quadrature of the radiated power.  The configs share one
    active-port count; one non-physical config fails the whole batch.
    """
    # gram first: its first read computes it before the batch's temporaries exist
    Z, gram, n_feed, n_loaded = dataset.Z, dataset.gram, dataset.n_feed, dataset.n_loaded
    W = load_correction(Z, n_feed, n_loaded, configs)                             # (B, Q, N)
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


def project(e: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Patterns E = e_oc . V of a batch, (B, 2, N, Tn, Pn), for e a
    (2, P, Tn, Pn) window of e_oc and V (B, P, N): one GEMM per polarization,
    (B N, P) @ e[pol], reading e[pol] in place when e is contiguous.  A lone
    row is padded to two: a one-row matmul takes the GEMV path, which rounds
    otherwise, so a config's patterns do not depend on its batch."""
    B, P, N = V.shape
    rows = np.swapaxes(V, 1, 2).reshape(B * N, P)
    if B * N == 1:
        rows = np.concatenate([rows, np.zeros_like(rows)])
    E = np.empty((2, len(rows), e[0, 0].size), dtype=np.complex128)
    for pol in range(2):
        np.matmul(rows, e[pol].reshape(P, -1), out=E[pol])
    return E[:, :B * N].reshape(2, B, N, *e.shape[2:]).swapaxes(0, 1)


def overall_patterns(dataset: EMDataset, config: GeometryConfig,
                     feednet: FeedNetworkConfig = FeedNetworkConfig()) -> ActiveNetwork:
    """solve_network plus project through the whole-grid window, which
    copies no part of e_oc."""
    sol = solve_network(dataset, [config], feednet)
    e = dataset.window(dataset.grid)
    return ActiveNetwork(z_feed=sol.z_feed[0], efficiencies=sol.efficiencies[0],
                         patterns=PatternSet(dataset.grid, project(e, sol.V)[0]))
