import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    GeometryConfig,
    PortLayout,
    SensingArea,
    crlb_map,
    generate_synthetic_dataset,
)
from pixelaoa.emdata import EMDataset, PatternSet
from pixelaoa import optimizer
from pixelaoa.errors import (
    ConfigError,
    CoverageError,
    DatasetFormatError,
    NonPhysicalConfigError,
    ScheduleError,
)
from pixelaoa.network import FeedNetworkConfig, solve_network
from pixelaoa.optimizer import (
    Codebook,
    ConfigEvaluator,
    GAParams,
    SubdivisionSchedule,
    alternating_optimize,
    build_codebook,
    codebook_leaves,
    codebook_lookup,
    default_initial_config,
    export_trace,
    ga_optimize_connections,
    load_codebook,
    save_codebook,
    sequential_port_update,
    stage_areas,
)

from conftest import with_arrays
from oracles import exhaustive_optimum, oracle_overall_patterns

AREA = SensingArea(85, 95, -5, 5)


@pytest.fixture(scope="module")
def grid():
    return AngleGrid()           # 1 deg full sphere


@pytest.fixture(scope="module")
def ds2(grid):
    return generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=2), grid)


@pytest.fixture(scope="module")
def ds13(grid):
    # 1x3 pixels: M=3, Q=2 -> only 4 connection vectors
    return generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=3), grid)


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ds2_rolled(ds2):
    """ds2 turned half a circle in phi, so that fields exist at +-180."""
    return EMDataset(ds2.layout, ds2.grid, ds2.Z,
                     np.roll(ds2.e_oc, ds2.grid.n_phi // 2, axis=3), ds2.metadata)


@pytest.fixture(scope="module")
def ds2_partial():
    return generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=2),
                                      AngleGrid(20, 160, -90, 90, 1.0))


@pytest.mark.parametrize("dataset, area, fd_step_deg", [
    ("ds2", AREA, None),
    ("ds2", SensingArea(0, 10, -20, 20), None),                 # theta pole
    ("ds2", SensingArea(170, 180, -20, 20), 4.0),               # other pole, wider step
    ("ds2", SensingArea(88, 92, -2, 2), 8.0),                   # step wider than the area
    ("ds2_rolled", SensingArea(80, 100, 170, 178), None),       # margin stops short of 180
    ("ds2_rolled", SensingArea(80, 100, 170, 179), None),       # margin reaches 180
    ("ds2_rolled", SensingArea(80, 100, -180, -170), None),     # margin crosses -180
    ("ds2_partial", SensingArea(20, 30, -90, -80), None),       # lower grid edges
    ("ds2_partial", SensingArea(150, 160, 80, 90), None),       # upper grid edges
], ids=["interior", "pole0", "pole180_step4", "step8", "seam178", "seam179", "seam-180",
        "partial_low", "partial_high"])
def test_evaluator_matches_public_pipeline(request, dataset, area, fd_step_deg):
    ds = request.getfixturevalue(dataset)
    cfg = GeometryConfig((0, 3), (0, 1, 1, 0))
    ev = ConfigEvaluator(ds, 1.0, fd_step_deg=fd_step_deg)
    fast = ev.objective(cfg, area)
    oracle, _ = oracle_overall_patterns(ds, cfg)
    ref = crlb_map(PatternSet(ds.grid, oracle), area, 1.0, fd_step_deg=fd_step_deg).worst
    assert math.isfinite(ref)
    assert fast == pytest.approx(ref, rel=1e-10)


def test_evaluator_cache_hit_counter(ds2):
    ev = ConfigEvaluator(ds2, 1.0)
    cfg = GeometryConfig((0, 1), (0, 0, 0, 0))
    ev.objective(cfg, AREA)
    misses = ev.misses
    before = ev.hits
    ev.objective(cfg, AREA)
    assert ev.hits == before + 1
    assert ev.misses == misses


def test_evaluator_holds_one_area(ds2):
    # A, then B, then A again: a call on another area replaces the cached
    # objectives, so the return to A rescores every distinct config
    area_b = SensingArea(60, 70, 20, 30)
    cfgs = [GeometryConfig((0, 1), tuple(int(b) for b in f"{i:04b}")) for i in (1, 5, 9, 5)]
    ev = ConfigEvaluator(ds2, 1.0)
    for area in (AREA, area_b, AREA):
        misses = ev.misses
        assert ev.objective_many(cfgs, area) == ConfigEvaluator(ds2, 1.0).objective_many(cfgs, area)
        assert ev.misses - misses == 3
    assert ev.hits == 3


def test_evaluate_config_leaves_dataset_collectable(grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=2), grid)
    ConfigEvaluator(ds, 1.0).objective(GeometryConfig((0,), (0,)), AREA)
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None


def _sick_dataset(ds2, grid):
    Z = np.array(ds2.Z)
    Z[0, 0] = -60.0 + Z[0, 0].imag * 1j          # active negative resistance
    return EMDataset(layout=ds2.layout, grid=grid, Z=Z, e_oc=np.array(ds2.e_oc),
                     metadata=dict(ds2.metadata))


def test_evaluator_scores_nonphysical_as_inf(ds2, grid):
    ev = ConfigEvaluator(_sick_dataset(ds2, grid), 1.0)
    assert math.isinf(ev.objective(GeometryConfig((0,), (0, 0, 0, 0)), AREA))


def test_evaluator_counts_configs_scored_inf_by_cause(ds2, grid):
    # port 0 of the sick dataset is non-physical; a shorted link of zero
    # self-impedance makes the loaded-port system singular (all links open
    # leaves a single port whose FIM is singular); on the healthy dataset
    # the single port 3 has a singular FIM on AREA for 10 of the 16 vectors.
    # Each config counts once, however often it is asked for.
    Z = np.array(ds2.Z)
    Z[4:, 4:] = 0.0
    shorted = EMDataset(layout=ds2.layout, grid=grid, Z=Z, e_oc=np.array(ds2.e_oc),
                        metadata=dict(ds2.metadata))
    vectors = list(itertools.product((0, 1), repeat=4))
    for ds, ports, want in [(_sick_dataset(ds2, grid), (0,), (16, 0, 0)),
                            (shorted, (1,), (0, 15, 1)),
                            (ds2, (3,), (0, 0, 10))]:
        ev = ConfigEvaluator(ds, 1.0)
        vals = ev.objective_many([GeometryConfig(ports, g) for g in vectors] * 2, AREA)
        assert sum(map(math.isinf, vals)) == 2 * sum(want)
        assert (ev.inf_nonphysical, ev.inf_numerical, ev.inf_singular_fim) == want


def test_build_codebook_warns_on_configs_scored_inf(ds2):
    # the port update tries the single port 3, whose FIM is singular on AREA
    sched = SubdivisionSchedule(AREA, (1,), ("both",))
    with pytest.warns(RuntimeWarning, match=r"\d+ evaluated configs scored \+inf: "
                      r"0 non-physical, 0 numerical breakdown, [1-9]\d* singular FIM"):
        build_codebook(ds2, sched, GAParams(population=8, generations=2, seed=0),
                       n_active=1)


@pytest.mark.parametrize("chunk_values", [None, 1])
def test_evaluator_batch_isolates_rejected_configs(ds2, grid, monkeypatch, chunk_values):
    # one call mixes healthy and rejected configs with 1 and 2 active ports;
    # a rejected config must not spoil the others in its stacked solve.
    # Z[0, 0] enters only configs that drive port 0, so the healthy ones
    # score exactly as on the unmodified dataset.
    if chunk_values is not None:
        monkeypatch.setattr(optimizer, "_CHUNK_VALUES", chunk_values)
    sick = _sick_dataset(ds2, grid)
    cfgs = [GeometryConfig(fp, g)
            for fp in [(0,), (1,), (2,), (0, 1), (1, 3), (3, 0)]
            for g in [(0, 0, 0, 0), (0, 1, 0, 1)]]
    rejected = []
    for c in cfgs:
        try:
            solve_network(sick, [c])
            rejected.append(False)
        except NonPhysicalConfigError:
            rejected.append(True)
    assert any(rejected) and not all(rejected)
    assert {c.n_active for c, r in zip(cfgs, rejected) if r} == {1, 2}
    got = ConfigEvaluator(sick, 1.0).objective_many(cfgs, AREA)
    singles = [ConfigEvaluator(sick, 1.0).objective(c, AREA) for c in cfgs]
    assert got == singles
    healthy = ConfigEvaluator(ds2, 1.0)
    for c, val, r in zip(cfgs, got, rejected):
        assert val == (math.inf if r else healthy.objective(c, AREA))
    assert all(math.isfinite(v) for v, r in zip(got, rejected) if not r)


def test_evaluator_batch_matches_single(ds2):
    ev = ConfigEvaluator(ds2, 1.0)
    cfgs = [GeometryConfig((0, 1), tuple(int(b) for b in f"{i:04b}")) for i in range(8)]
    batch = ev.objective_many(cfgs, AREA)
    singles = [ConfigEvaluator(ds2, 1.0).objective(c, AREA) for c in cfgs]
    assert batch == singles


class _RecordingEvaluator(ConfigEvaluator):
    """Keeps each objective_many call's objectives and the cache size after it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def objective_many(self, configs, area):
        objectives = super().objective_many(configs, area)
        self.calls.append((objectives, len(self._cache)))
        return objectives


def test_evaluator_cache_is_bounded_without_moving_an_objective(small_dataset, monkeypatch):
    # Q = 12: the GA requests far more distinct genomes than 64 entries hold,
    # and its first call alone (the initial population) more than that
    area = SensingArea(80, 100, -10, 10)
    params = GAParams(population=100, generations=8, seed=4)

    def ga(ev):
        return ga_optimize_connections(small_dataset, (0, 4), area, params, (0,) * 12,
                                       evaluator=ev)

    uncapped = _RecordingEvaluator(small_dataset, 1.0)
    want = ga(uncapped)
    monkeypatch.setattr(optimizer, "_CACHE_ENTRIES", 64)
    capped = _RecordingEvaluator(small_dataset, 1.0)
    assert ga(capped) == want
    assert [v for v, _ in capped.calls] == [v for v, _ in uncapped.calls]
    assert sum(len(v) for v, _ in capped.calls) >= 10 * 64
    assert max(n for _, n in capped.calls) == 64 < max(n for _, n in uncapped.calls)
    assert capped.misses > uncapped.misses            # evicted genomes were scored again


# ---------------------------------------------------------------------------
# GA over connections
# ---------------------------------------------------------------------------

def test_ga_exhaustive_optimum_small_space(ds13):
    # Q = 2: population >= 4 enumerates every vector, so the GA result must
    # equal the brute-force optimum
    ev = ConfigEvaluator(ds13, 1.0)
    F = (0, 2)
    params = GAParams(population=6, generations=3, seed=5)
    best_g, hist = ga_optimize_connections(ds13, F, AREA, params, (0, 0), evaluator=ev)
    brute = min(
        (ev.objective(GeometryConfig(F, g), AREA), g)
        for g in itertools.product((0, 1), repeat=2)
    )
    assert ev.objective(GeometryConfig(F, best_g), AREA) == brute[0]


def test_ga_population_of_2_to_the_q_finds_the_exhaustive_optimum(small_dataset):
    # Q = 12 on 3x3 pixels: 4096 genomes enumerate every vector, so on the
    # optimum's ports the GA must return the optimum over ports and links
    ds, area = small_dataset, SensingArea(80, 100, -10, 10)
    assert ds.n_loaded == 12
    objective, best = exhaustive_optimum(ds, area, n_active=2)
    assert math.isfinite(objective)
    g, hist = ga_optimize_connections(ds, best.feed_ports, area,
                                      GAParams(population=1 << 12, generations=2, seed=3),
                                      (0,) * 12)
    assert (hist[-1][0], g) == (objective, best.connections)


def test_ga_degenerate_returns_best_of_initial_population(ds2):
    ev = ConfigEvaluator(ds2, 1.0)
    F = (0, 3)
    params = GAParams(population=8, generations=4, crossover_prob=0.0,
                      mutation_prob=0.0, seed=9)
    best_g, _ = ga_optimize_connections(ds2, F, AREA, params, (1, 1, 1, 1), evaluator=ev)
    from pixelaoa.optimizer import _initial_population
    init = _initial_population(params, 4, (1, 1, 1, 1))
    init_best = min((ev.objective(GeometryConfig(F, g), AREA), g) for g in map(tuple, init.tolist()))
    assert ev.objective(GeometryConfig(F, best_g), AREA) == init_best[0]


def test_ga_all_inf_returns_start_vector(ds2, grid):
    # every connection vector that drives port 0 is rejected on the sick dataset
    sick = _sick_dataset(ds2, grid)
    ev = ConfigEvaluator(sick, 1.0)
    assert all(math.isinf(ev.objective(GeometryConfig((0,), g), AREA))
               for g in itertools.product((0, 1), repeat=4))
    params = GAParams(population=4, generations=2)
    best_g, hist = ga_optimize_connections(sick, (0,), AREA, params, (0, 1, 0, 1), evaluator=ev)
    assert best_g == (0, 1, 0, 1)
    assert hist == [(math.inf, (0, 1, 0, 1))] * 2


def test_ga_independent_of_cache_and_chunking(ds2, monkeypatch):
    params = GAParams(population=10, generations=5, seed=3)

    def ga(ev):
        return ga_optimize_connections(ds2, (0, 1), AREA, params, (0, 0, 0, 0), evaluator=ev)

    fresh = ga(ConfigEvaluator(ds2, 1.0))
    warm = ConfigEvaluator(ds2, 1.0)
    warm.objective_many([GeometryConfig((0, 1), tuple(int(b) for b in f"{i:04b}"))
                         for i in range(0, 16, 3)], AREA)
    assert ga(warm) == fresh
    monkeypatch.setattr(optimizer, "_CHUNK_VALUES", 1)
    assert ga(ConfigEvaluator(ds2, 1.0)) == fresh


def test_ga_best_so_far_monotone(ds2):
    params = GAParams(population=10, generations=8, seed=2)
    _, hist = ga_optimize_connections(ds2, (0, 1), AREA, params, (0, 0, 0, 0))
    objs = [h[0] for h in hist]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))


def test_ga_seed_reproducible(ds2):
    params = GAParams(population=10, generations=5, seed=123)
    a = ga_optimize_connections(ds2, (0, 1), AREA, params, (0, 0, 0, 0))
    b = ga_optimize_connections(ds2, (0, 1), AREA, params, (0, 0, 0, 0))
    assert a[0] == b[0]
    assert [x[0] for x in a[1]] == [x[0] for x in b[1]]


def test_ga_params_validation():
    with pytest.raises(ConfigError):
        GAParams(population=1)
    with pytest.raises(ConfigError):
        GAParams(elite_count=500, population=500)
    with pytest.raises(ConfigError):
        GAParams(crossover_prob=1.5)


# ---------------------------------------------------------------------------
# sequential port update
# ---------------------------------------------------------------------------

def test_port_update_all_ports_active_is_identity(ds2):
    F, passes = sequential_port_update(ds2, (0,) * 4, (0, 1, 2, 3), AREA)
    assert F == (0, 1, 2, 3)
    assert len(passes) == 1


def test_port_update_never_worse_and_matches_exhaustive(ds2):
    ev = ConfigEvaluator(ds2, 1.0)
    g = (0, 0, 0, 0)
    init = (0, 1)
    F, passes = sequential_port_update(ds2, g, init, AREA, evaluator=ev)
    init_obj = ev.objective(GeometryConfig(init, g), AREA)
    final_obj = ev.objective(GeometryConfig(F, g), AREA)
    assert final_obj <= init_obj + 1e-15
    objs = [p[0] for p in passes]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))
    # exhaustive oracle bounds the result from below (1e-12 slack: the same
    # port set evaluated in a different order differs in the last bits)
    best = min(ev.objective(GeometryConfig(pair, g), AREA)
               for pair in itertools.combinations(range(4), 2))
    assert best <= final_obj + 1e-12


# ---------------------------------------------------------------------------
# alternating optimization
# ---------------------------------------------------------------------------

def test_alternating_monotone_and_exhaustive_bound(ds2):
    # desk-scale oracle: 6 port pairs x 16 connection vectors = 96 configs
    ev = ConfigEvaluator(ds2, 1.0)
    opt = min(
        ev.objective(GeometryConfig(pair, g), AREA)
        for pair in itertools.combinations(range(4), 2)
        for g in itertools.product((0, 1), repeat=4)
    )
    params = GAParams(population=20, generations=10, seed=0)
    cw, trace = alternating_optimize(ds2, default_initial_config(ds2.layout, 2), AREA,
                                     params, snr_linear=1.0, evaluator=ev)
    objs = trace.objectives()
    assert np.all(np.diff(objs) <= 1e-12)
    assert opt <= cw.objective <= 1.2 * opt


def test_alternating_fixed_point_converges_immediately(ds2):
    params = GAParams(population=20, generations=6, seed=0)
    ev = ConfigEvaluator(ds2, 1.0)
    cw, _ = alternating_optimize(ds2, default_initial_config(ds2.layout, 2), AREA,
                                 params, snr_linear=1.0, evaluator=ev)
    cw2, _ = alternating_optimize(ds2, cw.config, AREA, params, snr_linear=1.0, evaluator=ev)
    assert cw2.config == cw.config
    assert cw2.iterations_used == 1


def test_a_passed_evaluator_must_score_the_arguments_beside_it(tiny_dataset):
    ds, area = tiny_dataset, SensingArea(80, 100, -10, 10)
    init = default_initial_config(ds.layout, 2)
    params = GAParams(population=8, generations=2)
    calls = [
        lambda ev: alternating_optimize(ds, init, area, params, 100.0, evaluator=ev),
        lambda ev: ga_optimize_connections(ds, init.feed_ports, area, params,
                                           init.connections, 100.0, evaluator=ev),
        lambda ev: sequential_port_update(ds, init.connections, init.feed_ports, area, 100.0,
                                          evaluator=ev),
    ]
    for ev in (ConfigEvaluator(ds, 1.0),
               ConfigEvaluator(ds, 100.0, FeedNetworkConfig(source_impedance_ohm=25.0)),
               ConfigEvaluator(with_arrays(ds), 100.0)):        # equal arrays, other dataset
        for call in calls:
            with pytest.raises(ConfigError, match="evaluator"):
                call(ev)
    # the matching evaluator scores what a fresh one scores
    assert ([c(ConfigEvaluator(ds, 100.0)) for c in calls[1:]]
            == [c(None) for c in calls[1:]])
    assert (calls[0](ConfigEvaluator(ds, 100.0))[0].objective
            == calls[0](None)[0].objective)


def test_codeword_objective_recomputes_exactly(ds2):
    params = GAParams(population=12, generations=4, seed=1)
    cw, _ = alternating_optimize(ds2, default_initial_config(ds2.layout, 2), AREA,
                                 params, snr_linear=1.0)
    fresh = ConfigEvaluator(ds2, 1.0)
    assert fresh.objective(cw.config, cw.area) == pytest.approx(cw.objective, abs=1e-12)


def test_trace_export(tmp_path, ds2):
    params = GAParams(population=8, generations=3, seed=4)
    _, trace = alternating_optimize(ds2, default_initial_config(ds2.layout, 2), AREA,
                                    params, snr_linear=1.0)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "area,iteration,phase,objective"
    assert len(lines) == 1 + len(trace.records)
    phases = {l.split(",")[2] for l in lines[1:]}
    assert phases <= {"connections", "ports", "outer"}


# ---------------------------------------------------------------------------
# initial configuration
# ---------------------------------------------------------------------------

def test_default_initial_config_spreads_ports():
    lay = PortLayout(pixel_rows=3, pixel_cols=3)
    cfg = default_initial_config(lay, 4)
    assert len(set(cfg.feed_ports)) == 4
    assert set(cfg.feed_ports) == {0, 2, 6, 8}      # the four corners
    assert cfg.connections == (0,) * lay.n_loaded
    assert default_initial_config(lay, 4) == cfg


def test_default_initial_config_bounds():
    lay = PortLayout(pixel_rows=2, pixel_cols=2)
    with pytest.raises(ConfigError):
        default_initial_config(lay, 5)


# ---------------------------------------------------------------------------
# subdivision schedule and codebook
# ---------------------------------------------------------------------------

def test_schedule_validation():
    space = SensingArea(80, 100, -10, 10)
    with pytest.raises(ScheduleError):
        SubdivisionSchedule(space, (4,), ("both",))            # K1 != 1
    with pytest.raises(ScheduleError):
        SubdivisionSchedule(space, (1, 3), ("both", "both"))   # non-square 'both'
    with pytest.raises(ScheduleError):
        SubdivisionSchedule(space, (1, 2), ("both", "bogus"))


def test_stage_areas_tile_parent():
    space = SensingArea(80, 100, -10, 10)
    sched = SubdivisionSchedule(space, (1, 4, 4), ("both", "both", "both"))
    stages = stage_areas(sched, 1.0)
    assert [len(s) for s in stages] == [1, 4, 16]
    for areas in stages[1:]:
        th_span = sum((a.theta_max_deg - a.theta_min_deg) * (a.phi_max_deg - a.phi_min_deg)
                      for a in areas)
        assert th_span == pytest.approx(20.0 * 20.0)
    leaf = stages[2][0]
    assert leaf.theta_max_deg - leaf.theta_min_deg == pytest.approx(5.0)
    # the children of parent k are entries k*K .. (k+1)*K-1
    for parents, children in zip(stages, stages[1:]):
        K = len(children) // len(parents)
        for i, child in enumerate(children):
            parent = parents[i // K]
            assert parent.contains(child.theta_min_deg, child.phi_min_deg)
            assert parent.contains(child.theta_max_deg, child.phi_max_deg)


def test_stage_areas_misaligned_split_rejected():
    sched = SubdivisionSchedule(SensingArea(80, 100, -10, 10), (1, 9), ("both", "both"))
    with pytest.raises(ScheduleError):
        stage_areas(sched, 1.0)          # 20/3 deg children are off-grid


def test_build_codebook_single_stage(ds2):
    sched = SubdivisionSchedule(AREA, (1,), ("both",))
    cb = build_codebook(ds2, sched, GAParams(population=8, generations=3, seed=0),
                        snr_linear=1.0, n_active=2)
    assert len(cb.codewords) == 1
    assert cb.codewords[0].area == AREA


def test_build_codebook_warm_start_dominance(ds2):
    space = SensingArea(80, 100, -10, 10)
    sched = SubdivisionSchedule(space, (1, 4), ("both", "both"))
    cb = build_codebook(ds2, sched, GAParams(population=10, generations=3, seed=0),
                        snr_linear=1.0, n_active=2)
    assert len(cb.codewords) == 4
    parent = cb.stages[0][0]
    ev = ConfigEvaluator(ds2, 1.0)
    for cw in cb.codewords:
        parent_on_child = ev.objective(parent.config, cw.area)
        assert cw.objective <= parent_on_child + 1e-12


def test_codebook_lookup_conventions(ds2):
    space = SensingArea(80, 100, -10, 10)
    sched = SubdivisionSchedule(space, (1, 4), ("both", "both"))
    cb = build_codebook(ds2, sched, GAParams(population=8, generations=2, seed=0),
                        snr_linear=1.0, n_active=2)
    inner = codebook_lookup(cb, (85.0, -5.0))
    assert inner.area.contains(85.0, -5.0)
    # shared boundary theta=90 belongs to the upper tile (lower-inclusive)
    cw = codebook_lookup(cb, (90.0, 0.0))
    assert cw.area.theta_min_deg == 90.0 and cw.area.phi_min_deg == 0.0
    # global maxima belong to the last tile
    cw = codebook_lookup(cb, (100.0, 10.0))
    assert cw.area.theta_max_deg == 100.0 and cw.area.phi_max_deg == 10.0
    with pytest.raises(CoverageError):
        codebook_lookup(cb, (70.0, 0.0))

    def reference(th, ph):              # the rule leaf by leaf, one angle at a time
        for k, cw in enumerate(cb.codewords):
            t0, t1, p0, p1 = cw.area.bounds()
            if (t0 <= th and (th < t1 or t1 == space.theta_max_deg)
                    and p0 <= ph and (ph < p1 or p1 == space.phi_max_deg)):
                return k

    # every 5-degree point: the shared edges theta=90, phi=0 and the global maxima too
    th, ph = (a.ravel() for a in np.meshgrid(np.arange(80.0, 101.0, 5.0),
                                             np.arange(-10.0, 11.0, 5.0)))
    leaves = codebook_leaves(cb, th, ph)
    assert leaves.tolist() == [reference(t, p) for t, p in zip(th, ph)]
    assert [cb.codewords[k] for k in leaves] == [codebook_lookup(cb, a) for a in zip(th, ph)]
    assert sorted(set(leaves.tolist())) == [0, 1, 2, 3]
    with pytest.raises(CoverageError, match=r"angle \(100\.0, 15\.0\)"):
        codebook_leaves(cb, [90.0, 100.0], [0.0, 15.0])


def test_codebook_roundtrip(tmp_path, ds2):
    # the file records the feed network and FD step the objectives were scored under
    sched = SubdivisionSchedule(AREA, (1,), ("both",))
    feednet = FeedNetworkConfig(75.0 - 5.0j)
    cb = build_codebook(ds2, sched, GAParams(population=8, generations=2, seed=0),
                        snr_linear=1.0, n_active=2, feednet=feednet, fd_step_deg=2.0)
    assert (cb.feednet, cb.fd_step_deg) == (feednet, 2.0)
    path = tmp_path / "cb.json"
    save_codebook(cb, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert (doc["source_impedance_ohm"], doc["fd_step_deg"]) == ([75.0, -5.0], 2.0)
    back = load_codebook(path)
    assert back.codewords == cb.codewords
    assert back.space == cb.space
    assert back.snr_linear == cb.snr_linear
    assert (back.feednet, back.fd_step_deg) == (cb.feednet, cb.fd_step_deg)


def test_codebook_malformed_file(tmp_path):
    p = tmp_path / "cb.json"
    p.write_text("{}")
    with pytest.raises(DatasetFormatError):
        load_codebook(p)
