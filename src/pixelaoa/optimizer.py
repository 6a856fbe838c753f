"""Min-max CRLB geometry optimization and codebook construction.

The geometry search alternates a genetic algorithm over the binary pixel
connections (feed ports fixed) with sequential best-replacement updates of
the feed-port set (connections fixed) until neither changes.  A codebook
covering an angular space is built by recursive subdivision: each child
area's optimization warm-starts from the codeword of the parent area that
contains it, so child objectives never exceed the parent's on their area.
Every search scores with the ConfigEvaluator it is given, the one holder of
the dataset, SNR, feed network and FD step it scores under.

The GA holds its population as one (population, Q) uint8 array and draws
each generation's tournaments, crossovers and mutations from one generator
keyed by (seed, generation).  Fitness evaluation is pure, so results do not
depend on how a batch of candidates is split up for scoring or on what the
evaluator's cache already holds.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .crlb import SensingArea, crlb_points, fd_window, write_csv
from .emdata import EMDataset, PortLayout, json_float, json_int
from .errors import (
    ConfigError,
    CoverageError,
    DatasetFormatError,
    GridError,
    NonPhysicalConfigError,
    NumericalError,
    ScheduleError,
)
from .grid import line_deg, line_index
from .network import FeedNetworkConfig, GeometryConfig, project, solve_network

CODEBOOK_FILE_VERSION = 2

# Most pattern values (2N x Tn x Pn per config) one stacked evaluation pass
# holds; larger batches are scored in chunks.
_CHUNK_VALUES = 1 << 21
# Most objectives ConfigEvaluator keeps per area: 4.4 MB at Q = 40 (541 B each, tracemalloc)
_CACHE_ENTRIES = 1 << 13


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm knobs: tournament selection, uniform crossover,
    per-bit flip mutation, elitism."""

    population: int = 500
    generations: int = 200
    crossover_prob: float = 0.9
    mutation_prob: float | None = None      # None: 1/Q per bit
    tournament_size: int = 3
    elite_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ConfigError("GA population must be at least 2")
        if self.generations < 1:
            raise ConfigError("GA needs at least one generation")
        if not (0.0 <= self.crossover_prob <= 1.0):
            raise ConfigError("crossover probability outside [0, 1]")
        if self.mutation_prob is not None and not (0.0 <= self.mutation_prob <= 1.0):
            raise ConfigError("mutation probability outside [0, 1]")
        if self.tournament_size < 1:
            raise ConfigError("tournament size must be positive")
        if not (0 <= self.elite_count < self.population):
            raise ConfigError("elite count must be smaller than the population")


@dataclass(frozen=True)
class Codeword:
    """Optimized geometry for one sensing area."""

    area: SensingArea
    config: GeometryConfig
    objective: float
    iterations_used: int


@dataclass(frozen=True)
class SubdivisionSchedule:
    """Recursive equal-split schedule over a root space.

    factors[t] is the number of children each stage-t area splits into
    (factors[0] must be 1: the first stage optimizes the whole space).
    axes[t] controls the split: 'both' (square factor, split each axis by
    sqrt(K)), 'theta' or 'phi' (split one axis by K).
    """

    space: SensingArea
    factors: tuple[int, ...] = (1,)
    axes: tuple[str, ...] = ("both",)

    def __post_init__(self):
        if len(self.factors) < 1 or self.factors[0] != 1:
            raise ScheduleError("the first subdivision factor must be 1 (whole space)")
        if len(self.axes) != len(self.factors):
            raise ScheduleError("need one split axis per stage")
        for k, ax in zip(self.factors, self.axes):
            if k < 1:
                raise ScheduleError("subdivision factors must be positive")
            if ax not in ("both", "theta", "phi"):
                raise ScheduleError(f"unknown split axis {ax!r}")
            if ax == "both" and int(round(math.sqrt(k))) ** 2 != k:
                raise ScheduleError(f"axis 'both' needs a square factor, got {k}")

    def stage_splits(self) -> list[tuple[int, int]]:
        out = []
        for k, ax in zip(self.factors, self.axes):
            if ax == "both":
                r = int(round(math.sqrt(k)))
                out.append((r, r))
            elif ax == "theta":
                out.append((k, 1))
            else:
                out.append((1, k))
        return out


@dataclass(frozen=True)
class TraceRecord:
    area_label: str
    iteration: int
    phase: str                     # 'connections' | 'ports' | 'outer'
    objective: float


@dataclass
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def add(self, area_label, iteration, phase, objective):
        self.records.append(TraceRecord(area_label, iteration, phase, float(objective)))

    def objectives(self, phase: str | None = None, area_label: str | None = None) -> np.ndarray:
        vals = [r.objective for r in self.records
                if (phase is None or r.phase == phase)
                and (area_label is None or r.area_label == area_label)]
        return np.array(vals)


def export_trace(trace: OptimizationTrace, path) -> None:
    """Tabular text dump: iteration, phase, objective (plus the area label)."""
    recs = trace.records
    write_csv(path, "area,iteration,phase,objective",
              ([r.area_label for r in recs], [r.iteration for r in recs],
               [r.phase for r in recs], [r.objective for r in recs]))


@dataclass(frozen=True, eq=False)
class Codebook:
    """Per-area optimized geometries (leaves of the subdivision), with the
    SNR, feed network and FD step their objectives were scored under."""

    schedule: SubdivisionSchedule
    snr_linear: float
    feednet: FeedNetworkConfig
    fd_step_deg: float | None
    n_feed: int
    n_loaded: int
    codewords: tuple[Codeword, ...]
    stages: tuple[tuple[Codeword, ...], ...] = ()
    traces: dict = field(default_factory=dict)

    @property
    def space(self) -> SensingArea:
        return self.schedule.space


# ---------------------------------------------------------------------------
# objective evaluation with caching
# ---------------------------------------------------------------------------

class ConfigEvaluator:
    """Worst-case CRLB objective of geometries over sensing areas.

    The evaluator holds one area at a time: the area's FD window
    (crlb.fd_window: the area plus its finite-difference margin) as a
    contiguous copy of EMDataset.window, the area's points on that window,
    and an objective cache keyed by (feed_ports, connections).  They serve
    the area of the latest call, and a call on another area replaces them.
    The cache keeps the newest _CACHE_ENTRIES objectives; evaluation is pure,
    so the bound moves only the hits, misses and inf_* counters, no objective.
    Uncached configs are scored in batches that share one active-port count:
    solve_network, then network.project on the window, then one
    crlb.crlb_points over the whole batch, then the max over the area's
    points.  Radiated power comes from the dataset-level pattern Gram
    matrix, which is algebraically the full-sphere quadrature.
    Beside the cache's hits and misses it counts the evaluated configs it
    scored +inf, by cause: inf_nonphysical and inf_numerical (the network
    solve rejected the config) and inf_singular_fim (the FIM is singular at
    some point of the area).
    """

    def __init__(self, dataset: EMDataset, snr_linear: float,
                 feednet: FeedNetworkConfig = FeedNetworkConfig(),
                 fd_step_deg: float | None = None):
        if not (math.isfinite(snr_linear) and snr_linear > 0):
            raise ConfigError(f"snr must be finite and positive, got {snr_linear}")
        self.dataset = dataset
        self.snr = float(snr_linear)
        self.feednet = feednet
        self.fd_step_deg = fd_step_deg
        self.hits = 0
        self.misses = 0
        self.inf_nonphysical = 0
        self.inf_numerical = 0
        self.inf_singular_fim = 0
        self._area = self._window = None
        self._cache: dict = {}

    def _score(self, configs) -> list[float]:
        """Objectives of configs that share one active-port count."""
        V = solve_network(self.dataset, configs, self.feednet).V          # (B, P, N)
        grid, e, it, ip = self._window
        obj = crlb_points(project(e, V), grid, it, ip, self.snr, self.fd_step_deg)[3]
        worst = obj.max(axis=1)
        self.inf_singular_fim += int(np.count_nonzero(np.isinf(worst)))
        return worst.tolist()

    def _score_chunk(self, configs) -> list[float]:
        """_score, falling back to one config at a time when the batch solve
        fails, so only the offending configs score +inf."""
        try:
            return self._score(configs)
        except (NonPhysicalConfigError, NumericalError) as exc:
            if len(configs) > 1:
                return [v for c in configs for v in self._score_chunk([c])]
            if isinstance(exc, NonPhysicalConfigError):
                self.inf_nonphysical += 1
            else:
                self.inf_numerical += 1
            return [math.inf]

    def efficiencies(self, config: GeometryConfig) -> np.ndarray:
        """Per-port radiation efficiencies via the dataset Gram matrix."""
        return solve_network(self.dataset, [config], self.feednet).efficiencies[0]

    # -- public api -----------------------------------------------------------

    def objective(self, config: GeometryConfig, area: SensingArea) -> float:
        return self.objective_many([config], area)[0]

    def objective_many(self, configs, area: SensingArea) -> list[float]:
        """Score a batch; duplicates and cache hits are computed once.

        The result order matches the input order; the chunking does not
        change any value.
        """
        if area.bounds() != self._area:
            self._area = self._window = None         # drop the old area before building the new
            win = fd_window(area, self.dataset.grid, self.fd_step_deg)
            self._window = (win, np.ascontiguousarray(self.dataset.window(win)),
                            *area.points(win))
            self._cache, self._area = {}, area.bounds()
        keys = [(c.feed_ports, c.connections) for c in configs]
        missing: dict = {}
        for cfg, key in zip(configs, keys):
            if key not in self._cache and key not in missing:
                missing[key] = cfg
        for n in sorted({c.n_active for c in missing.values()}):
            todo = [(k, c) for k, c in missing.items() if c.n_active == n]
            step = max(1, _CHUNK_VALUES // (n * 2 * self._window[0].n_points))
            for i in range(0, len(todo), step):
                chunk = todo[i:i + step]
                vals = self._score_chunk([c for _, c in chunk])
                self._cache.update(zip((k for k, _ in chunk), vals))
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        objectives = [self._cache[k] for k in keys]
        for k in list(islice(self._cache, max(0, len(self._cache) - _CACHE_ENTRIES))):
            del self._cache[k]                               # oldest first
        return objectives


# ---------------------------------------------------------------------------
# genetic algorithm over pixel connections
# ---------------------------------------------------------------------------

def _initial_population(params: GAParams, Q: int, init_g: tuple[int, ...]) -> np.ndarray:
    """(population, Q) uint8 genomes: the start vector, then every vector
    when 2^Q fits in the population, duplicates removed, then random rows."""
    pop = np.array([init_g], dtype=np.uint8)
    if Q <= 20 and (1 << Q) <= params.population:
        codes = np.arange(1 << Q)[:, None] >> np.arange(Q - 1, -1, -1)
        pop = np.concatenate([pop, (codes & 1).astype(np.uint8)])
    _, first = np.unique(pop, axis=0, return_index=True)
    pop = pop[np.sort(first)]
    rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(0, 0, 3)))
    fill = rng.integers(0, 2, size=(params.population - len(pop), Q)).astype(np.uint8)
    return np.concatenate([pop, fill])


def ga_optimize_connections(
    evaluator: ConfigEvaluator,
    fixed_feed_ports: tuple[int, ...],
    area: SensingArea,
    params: GAParams,
    init_g: tuple[int, ...],
) -> tuple[tuple[int, ...], list[tuple[float, tuple[int, ...]]]]:
    """Best connection vector found for fixed feed ports, as the evaluator
    scores them, plus the best-so-far (objective, vector) per generation
    (non-increasing by construction).

    The start vector is injected into the initial population; when 2^Q fits
    in the population the initial population enumerates every vector, which
    makes the result exhaustively optimal.  Each generation ranks its
    genomes by (objective, genome), ties going to the lexicographically
    smaller genome; the elites are the top ranks, and each tournament
    draws ranks with replacement and keeps the smallest.  If every genome
    of every generation scores +inf, the start vector is returned with a
    +inf history.
    """
    Q = evaluator.dataset.n_loaded
    if Q == 0:
        cfg = GeometryConfig(fixed_feed_ports, ())
        return (), [(evaluator.objective(cfg, area), ())]

    mut = params.mutation_prob if params.mutation_prob is not None else 1.0 / Q
    F = tuple(fixed_feed_ports)
    n_children = params.population - params.elite_count

    pop = _initial_population(params, Q, tuple(init_g))
    best_g = tuple(int(b) for b in init_g)
    best_obj = math.inf
    history: list[tuple[float, tuple[int, ...]]] = []

    for gen in range(params.generations):
        fitness = np.asarray(evaluator.objective_many(
            [GeometryConfig(F, g) for g in pop.tolist()], area))
        order = np.lexsort((*pop.T[::-1], fitness))
        if fitness[order[0]] < best_obj:
            best_obj = float(fitness[order[0]])
            best_g = tuple(pop[order[0]].tolist())
        history.append((best_obj, best_g))

        if gen == params.generations - 1:
            break

        rng = np.random.default_rng((params.seed, gen))
        ranks = rng.integers(0, params.population,
                             size=(2, n_children, params.tournament_size)).min(axis=2)
        g1, g2 = pop[order[ranks]]
        crossed = rng.random(n_children) < params.crossover_prob
        swap = crossed[:, None] & rng.integers(0, 2, size=(n_children, Q), dtype=bool)
        flips = rng.random((n_children, Q)) < mut
        pop = np.concatenate([pop[order[: params.elite_count]],
                              np.where(swap, g2, g1) ^ flips])

    return best_g, history


# ---------------------------------------------------------------------------
# sequential feed-port update
# ---------------------------------------------------------------------------

def sequential_port_update(
    evaluator: ConfigEvaluator,
    fixed_g: tuple[int, ...],
    init_feed_ports: tuple[int, ...],
    area: SensingArea,
) -> tuple[tuple[int, ...], list[tuple[float, tuple[int, ...]]]]:
    """Best-replacement sweep over feed-port slots until a full pass is
    quiet, scored by the evaluator.

    Slot n is re-selected from the unused ports plus its incumbent; the
    incumbent is always a candidate, so the objective never increases.
    Ties break toward the smallest port index.  Returns the port set and the
    (objective, ports) after each pass.
    """
    M = evaluator.dataset.n_feed
    F = list(init_feed_ports)
    g = tuple(fixed_g)
    passes: list[tuple[float, tuple[int, ...]]] = []

    while True:
        changed = False
        for slot in range(len(F)):
            in_use = set(F) - {F[slot]}
            candidates = sorted(set(range(M)) - in_use)
            trials = [GeometryConfig(tuple(F[:slot] + [c] + F[slot + 1:]), g)
                      for c in candidates]
            objs = evaluator.objective_many(trials, area)
            best = int(np.argmin(objs))          # first minimum: smallest port index
            if candidates[best] != F[slot]:
                F[slot] = candidates[best]
                changed = True
        passes.append((evaluator.objective(GeometryConfig(tuple(F), g), area), tuple(F)))
        if not changed:
            break
    return tuple(F), passes


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def alternating_optimize(
    dataset: EMDataset,
    init_config: GeometryConfig,
    area: SensingArea,
    ga_params: GAParams = GAParams(),
    snr_linear: float = 1.0,
    max_outer: int = 20,
    feednet: FeedNetworkConfig = FeedNetworkConfig(),
    *,
    evaluator: ConfigEvaluator,
    area_label: str | None = None,
) -> tuple[Codeword, OptimizationTrace]:
    """Alternate connection GA and port updates until the geometry is stable.

    Every phase starts from the incumbent, so the objective sequence is
    non-increasing; non-convergence at max_outer returns the best-so-far.
    The evaluator scores every phase.  The dataset, SNR and feed network
    stay among the seven positional parameters because perfbench's checks
    pass all seven by position; they are only checked against the
    evaluator, which must score this very dataset at this SNR through this
    feed network.
    """
    if max_outer < 1:
        raise ConfigError("max_outer must be at least 1")
    ev = evaluator
    if ev.dataset is not dataset or ev.snr != snr_linear or ev.feednet != feednet:
        raise ConfigError(
            f"the evaluator scores another dataset, SNR or feed network than asked for "
            f"(snr {ev.snr} against {snr_linear}, {ev.feednet} against {feednet})")
    trace = OptimizationTrace()
    label = area_label or area.label()

    F = tuple(init_config.feed_ports)
    g = tuple(init_config.connections)
    init_config.validate_against(dataset.n_feed, dataset.n_loaded)

    step = 0
    outer = 0
    for outer in range(1, max_outer + 1):
        F_before, g_before = F, g

        g, ga_hist = ga_optimize_connections(ev, F, area, ga_params, g)
        for obj, _ in ga_hist:
            trace.add(label, step, "connections", obj)
            step += 1

        F, pass_hist = sequential_port_update(ev, g, F, area)
        for obj, _ in pass_hist:
            trace.add(label, step, "ports", obj)
            step += 1

        current = ev.objective(GeometryConfig(F, g), area)
        trace.add(label, step, "outer", current)
        step += 1

        if F == F_before and g == g_before:
            break

    config = GeometryConfig(F, g)
    cw = Codeword(area=area, config=config,
                  objective=ev.objective(config, area), iterations_used=outer)
    return cw, trace


# ---------------------------------------------------------------------------
# initial configuration
# ---------------------------------------------------------------------------

def default_initial_config(layout: PortLayout, n_active: int) -> GeometryConfig:
    """Greedy farthest-point feed spread with all pixel links shorted."""
    if not (1 <= n_active <= layout.n_feed):
        raise ConfigError(f"n_active must be within 1..{layout.n_feed}")
    pos = layout.feed_port_positions()
    centroid = pos.mean(axis=0)
    d0 = np.linalg.norm(pos - centroid, axis=1)
    chosen = [int(np.argmax(d0))]
    while len(chosen) < n_active:
        dmin = np.min(np.linalg.norm(pos[:, None, :] - pos[chosen][None, :, :], axis=2), axis=1)
        dmin[chosen] = -1.0
        chosen.append(int(np.argmax(dmin)))
    return GeometryConfig(tuple(chosen), (0,) * layout.n_loaded)


# ---------------------------------------------------------------------------
# subdivision codebook
# ---------------------------------------------------------------------------

def _split_span(lo: float, hi: float, k: int, step_deg: float, what: str) -> list[tuple[float, float]]:
    """[lo, hi] cut into k equal runs of lattice lines of the step."""
    if k == 1:
        return [(lo, hi)]
    i0, i1 = line_index(lo, step_deg), line_index(hi, step_deg)
    if i0 is None or i1 is None or (i1 - i0) % k:
        raise ScheduleError(
            f"cannot split {what} span [{lo}, {hi}] into {k} grid-aligned parts "
            f"at step {step_deg}")
    edges = [line_deg(i0 + i * (i1 - i0) // k, step_deg) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def stage_areas(schedule: SubdivisionSchedule, step_deg: float) -> list[list[SensingArea]]:
    """Areas per stage; each stage tiles its parent exactly on the grid.

    A stage lists each parent's children together, in parent order, so with
    K children per parent the children of parent k are entries k*K .. (k+1)*K-1.
    """
    stages = [[schedule.space]]
    for (kt, kp) in schedule.stage_splits()[1:]:
        children: list[SensingArea] = []
        for parent in stages[-1]:
            th = _split_span(parent.theta_min_deg, parent.theta_max_deg, kt, step_deg, "theta")
            ph = _split_span(parent.phi_min_deg, parent.phi_max_deg, kp, step_deg, "phi")
            for t0, t1 in th:
                for p0, p1 in ph:
                    children.append(SensingArea(t0, t1, p0, p1))
        stages.append(children)
    return stages


def build_codebook(
    evaluator: ConfigEvaluator,
    schedule: SubdivisionSchedule,
    ga_params: GAParams = GAParams(),
    *,
    n_active: int,
    max_outer: int = 20,
) -> Codebook:
    """Optimize one codeword per area, subdividing stage by stage.

    Every area is optimized by the one evaluator, and the codebook records
    its SNR, feed network and FD step as the settings it was scored under.
    Children warm-start from the codeword of their parent area (stage_areas
    orders them by parent), so the parent geometry is always a candidate
    and the child's objective on its own area can only improve on it.
    One RuntimeWarning names the configs the evaluator has scored +inf, by
    cause, when there are any; its counters run from its construction, so a
    fresh evaluator counts this build alone.
    """
    ev, dataset = evaluator, evaluator.dataset
    starts = [default_initial_config(dataset.layout, n_active)]

    schedule.space.indices(dataset.grid)    # on the grid, and with it every child area
    areas_per_stage = stage_areas(schedule, dataset.grid.step_deg)

    traces: dict[str, OptimizationTrace] = {}
    stages: list[tuple[Codeword, ...]] = []

    for t, areas in enumerate(areas_per_stage):
        per_parent = len(areas) // len(starts)      # child k starts from parent k // per_parent
        stage_cws: list[Codeword] = []
        for k, area in enumerate(areas):
            label = f"stage{t + 1}_area{k + 1}_{area.label()}"
            cw, traces[label] = alternating_optimize(
                dataset, starts[k // per_parent], area, ga_params, ev.snr, max_outer,
                ev.feednet, evaluator=ev, area_label=label)
            stage_cws.append(cw)
        stages.append(tuple(stage_cws))
        starts = [cw.config for cw in stage_cws]

    lost = (ev.inf_nonphysical, ev.inf_numerical, ev.inf_singular_fim)
    if any(lost):
        warnings.warn(
            f"{sum(lost)} evaluated configs scored +inf: {lost[0]} non-physical, "
            f"{lost[1]} numerical breakdown, {lost[2]} singular FIM on the area",
            RuntimeWarning, stacklevel=2)

    return Codebook(
        schedule=schedule, snr_linear=ev.snr, feednet=ev.feednet,
        fd_step_deg=ev.fd_step_deg, n_feed=dataset.n_feed, n_loaded=dataset.n_loaded,
        codewords=stages[-1], stages=tuple(stages), traces=traces,
    )


def codebook_leaves(codebook: Codebook, theta_deg, phi_deg) -> np.ndarray:
    """Index of the leaf whose area contains each angle (equal-length arrays).

    Boundaries are lower-inclusive and upper-exclusive, except on the global
    upper edges of the covered space, which belong to the last tile.  The
    CoverageError for angles no leaf covers names the first of them.
    """
    th, ph = np.asarray(theta_deg, dtype=float), np.asarray(phi_deg, dtype=float)
    space = codebook.space
    t0, t1, p0, p1 = np.array([cw.area.bounds() for cw in codebook.codewords]).T[..., None]
    inside = ((t0 <= th) & ((th < t1) | (th == t1) & (t1 == space.theta_max_deg))
              & (p0 <= ph) & ((ph < p1) | (ph == p1) & (p1 == space.phi_max_deg)))
    if not inside.any(axis=0).all():
        k = int(np.argmin(inside.any(axis=0)))
        raise CoverageError(f"angle ({float(th[k])}, {float(ph[k])}) not covered by any "
                            f"leaf area of the codebook space {space.label()}")
    return np.argmax(inside, axis=0)


def codebook_lookup(codebook: Codebook, angle_deg: tuple[float, float]) -> Codeword:
    """Codeword whose leaf area contains the angle (codebook_leaves' rule)."""
    return codebook.codewords[int(codebook_leaves(codebook, [angle_deg[0]], [angle_deg[1]])[0])]


# ---------------------------------------------------------------------------
# codebook file I/O
# ---------------------------------------------------------------------------

def _area_dict(a: SensingArea) -> dict:
    return {"theta_min_deg": a.theta_min_deg, "theta_max_deg": a.theta_max_deg,
            "phi_min_deg": a.phi_min_deg, "phi_max_deg": a.phi_max_deg}


def _area_from(d: dict) -> SensingArea:
    return SensingArea(*(json_float(d[k], k) for k in
                         ("theta_min_deg", "theta_max_deg", "phi_min_deg", "phi_max_deg")))


def save_codebook(cb: Codebook, path) -> None:
    """Versioned structured-text codebook: 1-based port indices, connection
    bitstring with the first loaded port leftmost, and the scoring settings:
    the source impedance as [re, im] and the FD step (null: the grid step)."""
    z0 = complex(cb.feednet.source_impedance_ohm)
    doc = {
        "version": CODEBOOK_FILE_VERSION,
        "space": _area_dict(cb.space),
        "schedule": {"factors": list(cb.schedule.factors), "axes": list(cb.schedule.axes)},
        "snr_linear": cb.snr_linear,
        "source_impedance_ohm": [z0.real, z0.imag],
        "fd_step_deg": cb.fd_step_deg,
        "n_feed": cb.n_feed,
        "n_loaded": cb.n_loaded,
        "codewords": [
            {
                "area": _area_dict(cw.area),
                "feed_ports": [i + 1 for i in cw.config.feed_ports],
                "connections": cw.config.connection_bitstring(),
                "objective_rad": cw.objective,
                "iterations_used": cw.iterations_used,
            }
            for cw in cb.codewords
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_codebook(path) -> Codebook:
    """The format-v2 codebook save_codebook writes; a format-v1 file, which
    records no feed network or FD step, or any malformed one raises
    DatasetFormatError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetFormatError(f"{path}: not a valid codebook file ({exc})") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path}: a codebook file must hold a JSON object")
    version = doc.get("version")
    if type(version) is int and version == 1:
        raise DatasetFormatError(
            f"{path}: codebook format v1 does not record the feed network and FD step its "
            f"objectives were scored under, and is no longer read; re-run `pixelaoa optimize`")
    if type(version) is not int or version != CODEBOOK_FILE_VERSION:
        raise DatasetFormatError(f"{path}: unsupported codebook version {version!r}")
    try:
        snr = json_float(doc["snr_linear"], "snr_linear")
        if not (math.isfinite(snr) and snr > 0):
            raise ValueError(f"snr_linear must be finite and positive, got {snr}")
        z_re, z_im = (json_float(x, "source_impedance_ohm") for x in doc["source_impedance_ohm"])
        feednet = FeedNetworkConfig(complex(z_re, z_im))
        fd = doc["fd_step_deg"]
        fd_step_deg = None if fd is None else json_float(fd, "fd_step_deg")
        schedule = SubdivisionSchedule(
            space=_area_from(doc["space"]),
            factors=tuple(json_int(k, "schedule factors") for k in doc["schedule"]["factors"]),
            axes=tuple(str(a) for a in doc["schedule"]["axes"]),
        )
        n_feed, n_loaded = json_int(doc["n_feed"], "n_feed"), json_int(doc["n_loaded"], "n_loaded")
        cws = []
        for rec in doc["codewords"]:
            if type(rec["connections"]) is not str:
                raise TypeError(f"connections must be a bitstring, got {rec['connections']!r}")
            cfg = GeometryConfig(
                feed_ports=tuple(json_int(i, "feed_ports") - 1 for i in rec["feed_ports"]),
                connections=tuple(int(ch) for ch in rec["connections"]),
            )
            cfg.validate_against(n_feed, n_loaded)
            cws.append(Codeword(area=_area_from(rec["area"]), config=cfg,
                                objective=json_float(rec["objective_rad"], "objective_rad"),
                                iterations_used=json_int(rec["iterations_used"],
                                                         "iterations_used")))
        if not cws:
            raise DatasetFormatError(f"{path}: codebook has no codewords")
        # the leaves must tile the space: inside it, disjoint interiors, areas summing to its
        b, s = np.array([cw.area.bounds() for cw in cws]), np.array(schedule.space.bounds())
        lo, hi = b[:, ::2], b[:, 1::2]                  # (leaves, axis) theta then phi
        overlap = np.all((lo[:, None] < hi) & (lo < hi[:, None]), axis=2)
        if not (np.all(lo >= s[::2]) and np.all(hi <= s[1::2])
                and not overlap[~np.eye(len(cws), dtype=bool)].any()
                and math.isclose(np.prod(hi - lo, axis=1).sum(), np.prod(s[1::2] - s[::2]),
                                 rel_tol=1e-9)):
            raise DatasetFormatError(f"{path}: the leaf areas do not tile the space "
                                     f"{schedule.space.label()}")
        return Codebook(
            schedule=schedule, snr_linear=snr, feednet=feednet, fd_step_deg=fd_step_deg,
            n_feed=n_feed, n_loaded=n_loaded, codewords=tuple(cws),
        )
    except (KeyError, TypeError, ValueError, ConfigError, ScheduleError, GridError) as exc:
        raise DatasetFormatError(f"{path}: missing or malformed field ({exc})") from exc
