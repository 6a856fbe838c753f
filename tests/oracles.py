"""Slow references that the batched code in src is checked against.

feed_impedance_matrix, exact_port_currents_matrix and
approx_loaded_currents_matrix solve one geometry's network by direct
index arrays; exact_port_currents_matrix keeps the muted ports at a finite
impedance and drops the open links by index, so it checks the open-circuit
elimination and load_correction's padded drop of the open links.  The
full-grid quadrature pipeline (open_circuit_feed_patterns ->
coupled_patterns -> radiation_efficiency) composes the network solve on
every grid point and integrates the radiated power over the grid
quadrature; network.solve_network must agree with it through the pattern
Gram matrix.  steering_row and steering_jacobian build the per-point
finite-difference steering row and Jacobian that the FIM sweep's stacked
gathers must reproduce; stacked is the (2N, Tn, Pn) pattern view that
kernels.fim_sweep reads.  upa_patterns_factor_list and write_csv_one_pass
are the earlier whole-array forms of emdata.upa_patterns and crlb.write_csv,
which now write into their output one port or one block of rows at a time.
ml_scores_stacked scores both basis columns of every candidate by one GEMM
and sums the squares by einsum; kernels.ml_scores must reproduce its bits
with one GEMM per column that some candidate uses.  estimate_row is the
per-snapshot, Python-float form of simulate._CandidateGrid.estimate, which
now estimates a whole block of score rows at once.  exhaustive_optimum
scores every geometry with a given active-port count, the exact optimum that
the GA and the alternating loop are measured against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pixelaoa.crlb import fd_stencil
from pixelaoa.emdata import ETA0, EMDataset, PatternSet
from pixelaoa.errors import (
    ConfigError,
    EstimationError,
    NonPhysicalConfigError,
    NumericalError,
)
from pixelaoa.network import (
    FeedNetworkConfig,
    GeometryConfig,
    load_correction,
    source_currents,
)
from pixelaoa.optimizer import ConfigEvaluator


# ---------------------------------------------------------------------------
# single-config network references
# ---------------------------------------------------------------------------

def feed_impedance_matrix(Z: np.ndarray, n_feed: int, n_loaded: int,
                          config: GeometryConfig) -> np.ndarray:
    """Z_F = Z_AA - Z_As Z_ss^-1 Z_sA among the N active feed ports.

    Muted feed ports and open links drop out entirely; the shorted links s
    fold in through the Schur complement.
    """
    W = load_correction(Z, n_feed, n_loaded, [config])[0]
    a = list(config.feed_ports)
    return Z[np.ix_(a, a)] - Z[a, n_feed:] @ W


def exact_port_currents_matrix(Z: np.ndarray, n_feed: int, n_loaded: int,
                               config: GeometryConfig, finite_muted_impedance: float,
                               i_active: np.ndarray):
    """Currents at muted and loaded ports for a *finite* muted-port impedance.

    Open links carry no current: i_L is 0 there.  Over the muted ports M and
    the shorted links s it solves the block system
        [Z_MM + zeta I, Z_Ms; Z_sM, Z_ss] [i_M; i_s] = -[Z_MA; Z_sA] i_A
    and is the oracle against which the infinite-impedance elimination is
    checked (for zeta -> inf, i_M -> 0 and i_s -> -Z_ss^-1 Z_sA i_A).
    """
    if not (finite_muted_impedance > 0):
        raise ConfigError("finite muted impedance must be positive")
    config.validate_against(n_feed, n_loaded)
    i_A = np.asarray(i_active, dtype=np.complex128).reshape(-1)
    if i_A.size != config.n_active:
        raise ConfigError("i_active length must equal the number of active ports")

    a = list(config.feed_ports)
    muted = np.setdiff1d(np.arange(n_feed), a)                   # ascending
    shorted = np.flatnonzero(np.array(config.connections, dtype=int) == 0)
    rest = np.concatenate([muted, n_feed + shorted])
    i_L = np.zeros(n_loaded, dtype=np.complex128)
    if rest.size == 0:
        return np.zeros(0, dtype=np.complex128), i_L
    loads = np.concatenate([np.full(muted.size, finite_muted_impedance), np.zeros(shorted.size)])
    try:
        sol = np.linalg.solve(Z[np.ix_(rest, rest)] + np.diag(loads), -(Z[np.ix_(rest, a)] @ i_A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("exact_port_currents: singular block system") from exc
    i_L[shorted] = sol[muted.size:]
    return sol[:muted.size], i_L


def approx_loaded_currents_matrix(Z: np.ndarray, n_feed: int, n_loaded: int,
                                  config: GeometryConfig, i_active: np.ndarray) -> np.ndarray:
    """i_L = -W i_A, the infinite-muted-impedance limit: -Z_ss^-1 Z_sA i_A on
    the shorted links s, 0 on the open ones."""
    i_A = np.asarray(i_active, dtype=np.complex128).reshape(-1)
    W = load_correction(Z, n_feed, n_loaded, [config])[0]
    return -(W @ i_A)


# ---------------------------------------------------------------------------
# full-grid network pipeline
# ---------------------------------------------------------------------------

def open_circuit_feed_patterns(dataset: EMDataset, config: GeometryConfig) -> PatternSet:
    """Open-circuit patterns of the active ports with the pixel links in place.

    E_ocF = E_oc (P_A - P_L W), W from load_correction: the selected feed
    columns minus the field re-radiated by the shorted links' currents.
    """
    config.validate_against(dataset.n_feed, dataset.n_loaded)
    e_active = dataset.e_oc[:, list(config.feed_ports), :, :]
    if dataset.n_loaded == 0:
        return PatternSet(dataset.grid, np.array(e_active))
    W = load_correction(dataset.Z, dataset.n_feed, dataset.n_loaded, [config])[0]
    e_loaded = dataset.e_oc[:, dataset.n_feed:, :, :]
    corr = np.tensordot(W.T, e_loaded, axes=([1], [1]))      # (N, 2, nt, np)
    corr = np.moveaxis(corr, 0, 1)
    return PatternSet(dataset.grid, e_active - corr)


def coupled_patterns(oc_feed: PatternSet, z_feed: np.ndarray,
                     feednet: FeedNetworkConfig = FeedNetworkConfig()) -> PatternSet:
    """Patterns per unit source EMF: E_F = E_ocF (Z_0 + Z_F)^-1."""
    N = oc_feed.n_ports
    A = feednet.source_matrix(N) + np.asarray(z_feed, dtype=np.complex128)
    d = oc_feed.data
    flat = d.reshape(2, N, -1)
    try:
        # right-multiplication by the inverse, done as a transposed solve
        out = np.linalg.solve(A.T, flat.transpose(1, 0, 2).reshape(N, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("coupled_patterns: singular source+feed impedance matrix") from exc
    out = out.reshape(N, 2, d.shape[2], d.shape[3]).transpose(1, 0, 2, 3)
    return PatternSet(oc_feed.grid, out)


def radiation_efficiency(coupled: PatternSet, z_feed: np.ndarray,
                         feednet: FeedNetworkConfig, quadrature: np.ndarray) -> np.ndarray:
    """Per-port radiation efficiency: radiated power over accepted power.

    Port n is driven by a unit source EMF (the canonical excitation) while
    the other sources are passive.  The numerator integrates the coupled
    pattern of port n over the grid quadrature; the denominator is the real
    power accepted by the antenna network at port n,
    Re{conj(i_n) [Z_F i]_n} with i the n-th column of (Z_0 + Z_F)^-1.  The
    2*eta0 normalisation matches the dataset convention R = Gram/(2*eta0),
    which makes a lossless single port come out at exactly 1.
    """
    N = coupled.n_ports
    z_feed = np.asarray(z_feed, dtype=np.complex128)
    I = source_currents(z_feed, feednet)
    V_port = z_feed @ I
    accepted = np.real(np.conj(np.diagonal(I)) * np.diagonal(V_port))
    radiated = pattern_power(coupled, quadrature)
    lam = np.empty(N)
    for n in range(N):
        if accepted[n] <= 0.0:
            raise NonPhysicalConfigError(
                f"non-positive accepted power {accepted[n]:.3g} at active port {n}"
            )
        lam[n] = radiated[n] / (2.0 * ETA0 * accepted[n])
    return lam


def pattern_power(patterns: PatternSet, quadrature: np.ndarray) -> np.ndarray:
    """Per-port quadrature integral of |e|^2 over both polarizations."""
    d = patterns.data
    w = np.asarray(quadrature)
    return np.einsum("pnij,ij->n", (d.conj() * d).real, w)


def oracle_overall_patterns(dataset, config, feednet=FeedNetworkConfig()):
    """Full-grid quadrature composition of the network solve.

    Returns (patterns, efficiencies): the coupled patterns scaled by
    sqrt(efficiency) as a (2, N, n_theta, n_phi) tensor, and the efficiencies.
    """
    z_feed = feed_impedance_matrix(dataset.Z, dataset.n_feed, dataset.n_loaded, config)
    coupled = coupled_patterns(open_circuit_feed_patterns(dataset, config), z_feed, feednet)
    lam = radiation_efficiency(coupled, z_feed, feednet, dataset.quadrature())
    return coupled.data * np.sqrt(lam)[None, :, None, None], lam


# ---------------------------------------------------------------------------
# per-point steering row and Jacobian
# ---------------------------------------------------------------------------

def stacked(patterns: PatternSet) -> np.ndarray:
    """(2N, n_theta, n_phi) view: theta-pol ports then phi-pol ports."""
    d = patterns.data
    return d.reshape(2 * d.shape[1], d.shape[2], d.shape[3])


def steering_jacobian(patterns: PatternSet, angle_deg: tuple[float, float],
                      fd_step_deg: float | None = None) -> np.ndarray:
    """Finite-difference Jacobian J (2N x 2): columns are d f/d theta, d f/d phi.

    f stacks the theta-pol steering row followed by the phi-pol row;
    derivatives are per radian.
    """
    grid = patterns.grid
    it = np.array([grid.theta_index(angle_deg[0])])
    ip = np.array([grid.phi_index(angle_deg[1])])
    itp, itm, inv_dt, ipp, ipm, inv_dp = fd_stencil(grid, it, ip, fd_step_deg)
    e = stacked(patterns)
    dth = (e[:, itp[0], ip[0]] - e[:, itm[0], ip[0]]) * inv_dt[0]
    dph = (e[:, it[0], ipp[0]] - e[:, it[0], ipm[0]]) * inv_dp[0]
    return np.stack([dth, dph], axis=1)


def steering_row(patterns: PatternSet, angle_deg: tuple[float, float]) -> np.ndarray:
    """The 2N steering row f = [e_theta, e_phi] at a grid angle."""
    E = patterns.at(*angle_deg)
    return np.concatenate([E[0], E[1]])


# ---------------------------------------------------------------------------
# whole-array forms of the streamed writers
# ---------------------------------------------------------------------------

def upa_patterns_factor_list(n_y, n_z, spacing_over_lambda, grid, element="iso-theta"):
    """UPA patterns from a list of all N array factors, one (2, N, ...) block
    per element kind and one concatenate; returns the data tensor."""
    th, ph = grid.meshgrid_rad()
    k = 2.0 * math.pi * spacing_over_lambda
    uy = np.sin(th) * np.sin(ph)
    uz = np.cos(th)
    one = np.ones_like(th, dtype=np.complex128)
    zero = np.zeros_like(th, dtype=np.complex128)
    elements = {"iso-theta": [np.stack([one, zero])],
                "iso-dual": [np.stack([one, zero]), np.stack([zero, one])]}[element]
    N = n_y * n_z
    factors = []
    for n in range(1, N + 1):
        ny = n % n_y
        ny = n_y if ny == 0 else ny
        nz = math.ceil(n / n_y)
        factors.append(np.exp(1j * k * ((ny - 1) * uy + (nz - 1) * uz)))
    blocks = []
    for el in elements:
        data = np.empty((2, N, grid.n_theta, grid.n_phi), dtype=np.complex128)
        for n, af in enumerate(factors):
            data[0, n] = af * el[0]
            data[1, n] = af * el[1]
        blocks.append(data)
    return np.concatenate(blocks, axis=1)


def write_csv_one_pass(path, header, columns):
    """crlb.write_csv with every column turned into Python values at once."""
    cols = [np.asarray(c).tolist() for c in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*cols))


# ---------------------------------------------------------------------------
# ML projection scores
# ---------------------------------------------------------------------------

def ml_scores_stacked(basis, rank, y):
    """kernels.ml_scores with both columns of every candidate stacked into
    one (2G, N) GEMM and the squared parts summed by einsum."""
    y = np.asarray(y, dtype=np.complex128)
    G, N, _ = basis.shape
    rows = basis.transpose(0, 2, 1).reshape(2 * G, N)          # row 2g + r: basis[g, :, r]
    proj = y.reshape(-1, N).conj() @ rows.T                     # (T, 2G)
    parts = proj.view(np.float64).reshape(-1, G, 4)             # re, im of both columns
    scores = np.einsum("tgk,tgk->tg", parts, parts)
    scores[:, rank == 0] = -1.0
    return scores if y.ndim == 2 else scores[0]


def estimate_row(cand, scores, refine):
    """simulate._CandidateGrid.estimate of one (G,) score row: the first
    argmax, then a per-axis parabola vertex clipped to half a step."""
    def offset(sm, s0, sp):
        den = sm - 2.0 * s0 + sp
        if den >= 0.0:
            return 0.0
        return float(min(max(0.5 * (sm - sp) / den, -0.5), 0.5))

    best = int(np.argmax(scores))
    if scores[best] < 0.0:
        raise EstimationError("all candidate angles are rank-deficient")
    nt, npph = cand.shape
    ti, pi = divmod(best, npph)
    th = float(cand.theta_deg[ti])
    ph = float(cand.phi_deg[pi])
    if refine:
        s = scores.reshape(nt, npph)
        if 0 < ti < nt - 1:
            th += cand.step_deg * offset(s[ti - 1, pi], s[ti, pi], s[ti + 1, pi])
        if 0 < pi < npph - 1:
            ph += cand.step_deg * offset(s[ti, pi - 1], s[ti, pi], s[ti, pi + 1])
    return th, ph


# ---------------------------------------------------------------------------
# exact optimum of the geometry search
# ---------------------------------------------------------------------------

def exhaustive_optimum(dataset: EMDataset, area, n_active: int, snr_linear: float = 1.0):
    """(objective, config) of the best geometry over every n_active feed-port
    set and every connection vector, scored on area one port set at a time;
    ties go to the smallest (feed ports, connections)."""
    ev = ConfigEvaluator(dataset, snr_linear)
    links = list(itertools.product((0, 1), repeat=dataset.n_loaded))
    best = min(min(zip(ev.objective_many([GeometryConfig(ports, g) for g in links], area),
                       itertools.repeat(ports), links))
               for ports in itertools.combinations(range(dataset.n_feed), n_active))
    return best[0], GeometryConfig(best[1], best[2])
