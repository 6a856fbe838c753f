"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1's ratio-constancy clause is implemented exactly as
stated and is expected to fail: the closed-form UPA bound and the generic
projection pipeline differ by an angle-dependent factor proportional to
1/sin^2(theta), which no tolerance of 1% over a 60-degree elevation window
can absorb.  The test failure message carries the measured numbers.
"""

import itertools
import json
import math

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    GeometryConfig,
    PortLayout,
    SensingArea,
    crlb_map,
    crlb_matrix,
    generate_synthetic_dataset,
    projection_matrix,
    upa_crlb_closed_form,
    upa_patterns,
    validate_dataset,
)
from pixelaoa.cli import main as cli_main
from pixelaoa.network import FeedNetworkConfig
from pixelaoa.optimizer import (
    ConfigEvaluator,
    GAParams,
    SubdivisionSchedule,
    alternating_optimize,
    build_codebook,
    default_initial_config,
    ga_optimize_connections,
)
from pixelaoa.simulate import monte_carlo_rmse

from conftest import random_symmetric_z
from oracles import (
    approx_loaded_currents_matrix,
    exact_port_currents_matrix,
    feed_impedance_matrix,
)


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'} {detail}")


# the four evaluation areas of the benchmark experiment
AREA_1 = SensingArea(85, 95, -5, 5)          # broadside
AREA_2 = SensingArea(15, 25, 65, 75)         # endfire
AREA_3 = SensingArea(35, 45, 35, 45)
AREA_4 = SensingArea(75, 85, 75, 85)         # endfire


@pytest.fixture(scope="module")
def paper_dataset():
    """5x5 pixels (M=25, Q=40) on the full sphere at 1 degree."""
    return generate_synthetic_dataset(PortLayout(), AngleGrid())


@pytest.fixture(scope="module")
def mid_dataset():
    """3x3 pixels (M=9, Q=12) on the full sphere at 1 degree."""
    return generate_synthetic_dataset(PortLayout(pixel_rows=3, pixel_cols=3), AngleGrid())


@pytest.fixture(scope="module")
def desk_dataset():
    """2x2 pixels (M=4, Q=4): exhaustive enumeration is feasible."""
    return generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=2), AngleGrid())


# ---------------------------------------------------------------------------
# criterion 1: UPA closed-form oracle
# ---------------------------------------------------------------------------

def _pointwise_numeric_upa(theta_deg: float, phi_deg: float, fd: float = 0.1):
    """Numeric engine on a minimal local grid around one angle."""
    grid = AngleGrid(theta_deg - 2 * fd, theta_deg + 2 * fd,
                     phi_deg - 2 * fd, phi_deg + 2 * fd, fd)
    pats = upa_patterns(2, 2, 0.5, grid)
    return crlb_matrix(pats, (theta_deg, phi_deg), 1.0, fd_step_deg=fd)


def test_criterion_1_broadside_closed_form_value():
    r = upa_crlb_closed_form(2, 2, 0.5, (90.0, 0.0), 1.0)
    expected = 1.0 / np.pi**4
    ok = abs(r.c_theta_theta - expected) <= 0.005 * expected
    _report(1, ok, f"(broadside clause) closed-form c_tt = {r.c_theta_theta:.6e}, "
                   f"hand-derived 1/pi^4 = {expected:.6e}")
    assert ok


def test_criterion_1_ratio_constancy():
    ratios = []
    ratios_sin2 = []
    for th in range(60, 121, 5):
        for ph in range(-60, 61, 5):
            num = _pointwise_numeric_upa(float(th), float(ph))
            cf = upa_crlb_closed_form(2, 2, 0.5, (float(th), float(ph)), 1.0)
            if num.singular or cf.singular:
                continue
            r = num.c_theta_theta / cf.c_theta_theta
            ratios.append(r)
            ratios_sin2.append(r * math.sin(math.radians(th)) ** 2)
    ratios = np.array(ratios)
    spread = float(ratios.max() / ratios.min() - 1.0)
    sin2 = np.array(ratios_sin2)
    sin2_spread = float(sin2.max() / sin2.min() - 1.0)
    ok = spread <= 0.01
    _report(1, ok, f"(constancy clause) c_tt ratio numeric/closed-form over "
                   f"theta[60,120] x phi[-60,60]: min {ratios.min():.4f}, "
                   f"max {ratios.max():.4f}, spread {spread:.1%} (tolerance 1%); "
                   f"ratio*sin^2(theta) spread {sin2_spread:.2%}")
    assert ok, (
        "the closed-form UPA bound is not a constant multiple of the "
        f"projection-pipeline CRLB: measured ratio spread {spread:.1%} over the "
        f"window (ratio ranges {ratios.min():.4f}..{ratios.max():.4f}, tolerance "
        "1%). A first-principles derivative analysis shows the closed form "
        "absorbs element-count and 1/sin^2(theta) factors relative to the "
        "Fisher-projection pipeline (under the f-annihilating projector reading "
        "the ratio is exactly k^2/(N_Y sin^2 theta); the conjugate projector "
        "implemented here adds further angle dependence, measured ratio*sin^2(theta) "
        f"spread {sin2_spread:.2%}), so no constant-ratio window of this size "
        "exists at any tolerance near 1%."
    )


# ---------------------------------------------------------------------------
# criterion 2: projection algebra
# ---------------------------------------------------------------------------

def test_criterion_2_projection_algebra():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9)) * 2
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        D = projection_matrix(f)
        worst = max(worst, float(np.max(np.abs(D - D.conj().T))))
        worst = max(worst, float(np.max(np.abs(D @ D - D))))
        worst = max(worst, float(np.max(np.abs(D @ f.conj())) / np.linalg.norm(f)))
    ok = worst < 1e-12
    _report(2, ok, f"1000 draws, worst residual {worst:.2e} (tolerance 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: network algebra oracle
# ---------------------------------------------------------------------------

def test_criterion_3_current_elimination_oracle():
    rng = np.random.default_rng(99)
    worst_current = 0.0
    worst_sym = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 6))
        Q = int(rng.integers(0, 9 - M))
        Z = random_symmetric_z(rng, M + Q)
        N = int(rng.integers(1, M))
        F = tuple(int(i) for i in rng.choice(M, size=N, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=Q))
        cfg = GeometryConfig(F, bits)
        i_A = rng.normal(size=N) + 1j * rng.normal(size=N)

        i_M, i_L = exact_port_currents_matrix(Z, M, Q, cfg, 1e9, i_A)
        scale = np.linalg.norm(np.concatenate([i_A, i_L])) or 1.0
        worst_current = max(worst_current, float(np.linalg.norm(i_M)) / scale)
        if Q:
            i_L_approx = approx_loaded_currents_matrix(Z, M, Q, cfg, i_A)
            worst_current = max(
                worst_current,
                float(np.linalg.norm(i_L - i_L_approx) / max(np.linalg.norm(i_L), 1e-30)))

        ZF = feed_impedance_matrix(Z, M, Q, cfg)
        worst_sym = max(worst_sym,
                        float(np.max(np.abs(ZF - ZF.T)) / max(np.max(np.abs(ZF)), 1e-30)))
    ok = worst_current < 1e-6 and worst_sym <= 1e-10
    _report(3, ok, f"100 networks: worst current error {worst_current:.2e} "
                   f"(tol 1e-6), worst Z_F asymmetry {worst_sym:.2e} (tol 1e-10)")
    assert worst_current < 1e-6
    assert worst_sym <= 1e-10


# ---------------------------------------------------------------------------
# criterion 4: physicality of the full-scale synthetic dataset
# ---------------------------------------------------------------------------

def test_criterion_4_passivity_and_efficiencies(paper_dataset):
    ds = paper_dataset
    eigs = np.linalg.eigvalsh(ds.Z.real)
    passivity_ok = eigs[0] >= -1e-10 * eigs[-1]

    ev = ConfigEvaluator(ds, 1.0)
    rng = np.random.default_rng(2024)
    lam_min, lam_max = np.inf, -np.inf
    for _ in range(200):
        N = int(rng.integers(1, ds.n_feed + 1))
        F = tuple(int(i) for i in rng.choice(ds.n_feed, size=N, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=ds.n_loaded))
        lam = ev.efficiencies(GeometryConfig(F, bits))
        lam_min = min(lam_min, float(lam.min()))
        lam_max = max(lam_max, float(lam.max()))
    eff_ok = lam_min >= 0.0 and lam_max <= 1.0 + 1e-6
    ok = passivity_ok and eff_ok
    _report(4, ok, f"min eig Re(Z) = {eigs[0]:.3e} (>= {-1e-10 * eigs[-1]:.3e}); "
                   f"200 configs: efficiencies in [{lam_min:.3g}, {lam_max:.6g}]")
    assert passivity_ok
    assert eff_ok
    assert validate_dataset(ds).passed


# ---------------------------------------------------------------------------
# criterion 5: endfire behaviour
# ---------------------------------------------------------------------------

def test_criterion_5_endfire_blowup():
    pats = upa_patterns(2, 2, 0.5, AngleGrid())
    broadside = crlb_matrix(pats, (90.0, 0.0), 1.0)
    near = crlb_matrix(pats, (90.0, 89.0), 1.0)
    at90 = crlb_matrix(pats, (90.0, 90.0), 1.0)
    ratio = near.objective / broadside.objective
    ok = ratio > 10.0 and at90.singular
    _report(5, ok, f"objective(90,89)/objective(90,0) = {ratio:.1f} (> 10); "
                   f"singular flag at phi=90: {at90.singular}")
    assert ratio > 10.0
    assert at90.singular


# ---------------------------------------------------------------------------
# criterion 6: desk-scale global optimality
# ---------------------------------------------------------------------------

def test_criterion_6_desk_scale_optimality(desk_dataset):
    ds = desk_dataset
    ev = ConfigEvaluator(ds, 1.0)
    area = AREA_1                                   # 11 x 11 grid points

    objective, argbest = min(
        ((ev.objective(GeometryConfig(pair, g), area), (pair, g))
         for pair in itertools.combinations(range(4), 2)
         for g in itertools.product((0, 1), repeat=4)),
        key=lambda t: t[0])

    params = GAParams(population=20, generations=12, seed=0)
    cw, _ = alternating_optimize(ds, default_initial_config(ds.layout, 2), area,
                                 params, snr_linear=1.0, evaluator=ev)
    ratio = cw.objective / objective
    alt_ok = cw.objective <= 1.2 * objective + 1e-15

    # exact connection optimum for the fixed optimal port pair
    F = argbest[0]
    best_g, _ = ga_optimize_connections(ev, F, area, GAParams(population=16, generations=4,
                                                              seed=1), (0, 0, 0, 0))
    brute_g = min(itertools.product((0, 1), repeat=4),
                  key=lambda g: (ev.objective(GeometryConfig(F, g), area), g))
    ga_ok = ev.objective(GeometryConfig(F, best_g), area) == \
        ev.objective(GeometryConfig(F, brute_g), area)

    ok = alt_ok and ga_ok
    _report(6, ok, f"96-config oracle {objective:.6g}; alternating {cw.objective:.6g} "
                   f"({ratio:.3f}x, needs <= 1.2x); enumerating GA exact: {ga_ok}")
    assert alt_ok
    assert ga_ok


# ---------------------------------------------------------------------------
# criterion 7: monotonicity suite
# ---------------------------------------------------------------------------

def test_criterion_7_monotone_traces(mid_dataset):
    ds = mid_dataset
    space = SensingArea(80, 100, -10, 10)
    sched = SubdivisionSchedule(space, (1, 4), ("both", "both"))
    params = GAParams(population=50, generations=30, seed=0)
    cb = build_codebook(ConfigEvaluator(ds, 1.0), sched, params, n_active=3)

    violations = []
    for label, trace in cb.traces.items():
        objs = trace.objectives()
        if not np.all(np.diff(objs) <= 1e-12):
            violations.append(f"{label}: non-monotone full trace")
        for phase in ("connections", "ports", "outer"):
            seq = trace.objectives(phase=phase)
            if seq.size and not np.all(np.diff(seq) <= 1e-12):
                violations.append(f"{label}/{phase}: non-monotone")

    ev = ConfigEvaluator(ds, 1.0)
    parent = cb.stages[0][0]
    for cw in cb.codewords:
        bound = ev.objective(parent.config, cw.area)
        if cw.objective > bound + 1e-12:
            violations.append(f"{cw.area.label()}: child {cw.objective:.6g} "
                              f"exceeds parent-on-child {bound:.6g}")

    ok = not violations
    _report(7, ok, f"{len(cb.traces)} traces, 4 warm starts checked"
                   + ("" if ok else f"; violations: {violations}"))
    assert ok, violations


# ---------------------------------------------------------------------------
# criterion 8: benchmark-analogue improvement
# ---------------------------------------------------------------------------

def test_criterion_8_improvement_over_init_and_upa(paper_dataset):
    ds = paper_dataset
    ev = ConfigEvaluator(ds, 1.0)
    init = default_initial_config(ds.layout, 4)
    params = GAParams(population=40, generations=20, seed=0)
    areas = [AREA_1, AREA_2, AREA_3, AREA_4]

    upa_pats = upa_patterns(2, 2, 0.5, ds.grid)
    strict_improvements = 0
    endfire_ok = True
    details = []
    for i, area in enumerate(areas, 1):
        init_obj = ev.objective(init, area)
        cw, _ = alternating_optimize(ds, init, area, params, snr_linear=1.0,
                                     evaluator=ev, max_outer=8)
        if cw.objective < init_obj:
            strict_improvements += 1
        upa_worst = crlb_map(upa_pats, area, 1.0).worst
        details.append(f"area{i}: init {init_obj:.3g} -> {cw.objective:.3g}, "
                       f"upa {upa_worst:.3g}")
        if i in (2, 4) and not (cw.objective < upa_worst):
            endfire_ok = False

    ok = strict_improvements >= 3 and endfire_ok
    _report(8, ok, f"strict improvement in {strict_improvements}/4 areas; "
                   f"endfire dominance over the 2x2 UPA: {endfire_ok}; " + "; ".join(details))
    assert strict_improvements >= 3
    assert endfire_ok


# ---------------------------------------------------------------------------
# criterion 9: area-size tradeoff
# ---------------------------------------------------------------------------

def test_criterion_9_nested_area_sizes(paper_dataset):
    ds = paper_dataset
    space = SensingArea(80, 100, -10, 10)
    sched = SubdivisionSchedule(space, (1, 4, 4), ("both", "both", "both"))
    params = GAParams(population=30, generations=15, seed=0)
    cb = build_codebook(ConfigEvaluator(ds, 1.0), sched, params, n_active=4, max_outer=8)

    # innermost 5-degree leaf (contains the broadside point)
    leaf = next(cw for cw in cb.codewords if cw.area.contains(90.0, 0.0)
                and cw.area.theta_min_deg >= 85.0)
    parent10 = next(cw for cw in cb.stages[1]
                    if cw.area.contains(0.5 * (leaf.area.theta_min_deg + leaf.area.theta_max_deg),
                                        0.5 * (leaf.area.phi_min_deg + leaf.area.phi_max_deg)))
    root20 = cb.stages[0][0]

    ev = ConfigEvaluator(ds, 1.0)
    obj5 = ev.objective(leaf.config, leaf.area)
    obj10 = ev.objective(parent10.config, leaf.area)
    obj20 = ev.objective(root20.config, leaf.area)
    ok = obj5 <= obj10 + 1e-12 and obj10 <= obj20 + 1e-12
    _report(9, ok, f"on the innermost 5-deg area: 5deg {obj5:.6g} <= "
                   f"10deg {obj10:.6g} <= 20deg {obj20:.6g}")
    assert obj5 <= obj10 + 1e-12
    assert obj10 <= obj20 + 1e-12


# ---------------------------------------------------------------------------
# criterion 10: CRLB as a bound for the ML estimator
# ---------------------------------------------------------------------------

def test_criterion_10_mc_bound(paper_dataset):
    grid = AngleGrid(theta_start_deg=80, theta_stop_deg=100, phi_start_deg=-10,
                     phi_stop_deg=10, step_deg=1.0)
    pats = upa_patterns(2, 2, 0.5, grid)
    rep = monte_carlo_rmse(pats, [(90.0, 0.0)], [100.0], trials=2000, seed=7,
                           search_area=SensingArea(80, 100, -10, 10))
    r = rep.records[0]
    ratio = r.rmse_theta_rad / r.crlb_theta_rad
    in_range = 1.0 <= ratio <= 3.0
    se = r.mse_theta_rad2 * math.sqrt(2.0 / r.trials)
    bound_ok = r.mse_theta_rad2 >= r.crlb_theta_rad**2 - 3.0 * se
    ok = in_range and bound_ok
    _report(10, ok, f"rmse/sqrt(crlb) = {ratio:.3f} (needs [1, 3]); "
                    f"MSE {r.mse_theta_rad2:.3e} >= CRLB - 3SE "
                    f"{r.crlb_theta_rad**2 - 3 * se:.3e}: {bound_ok}")
    assert in_range
    assert bound_ok


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism across thread counts
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    ds_path = tmp_path / "ds.json"
    assert cli_main(["gen-dataset", "--pixels", "2x2", "--step-deg", "5",
                     "--out", str(ds_path)]) == 0
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"cb_t{threads}.json"
        assert cli_main(["optimize", "--dataset", str(ds_path), "--n-active", "2",
                         "--space", "80:100:-10:10", "--schedule", "1,4",
                         "--population", "16", "--generations", "4", "--seed", "5",
                         "--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _report(11, ok, f"codebook files byte-identical at --threads 1 vs 8: {ok}")
    assert ok
    json.loads(outs[0])          # still a valid document
