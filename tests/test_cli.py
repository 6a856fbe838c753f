import hashlib
import itertools
import json
import math
import re
import shlex
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pixelaoa import (
    AngleGrid,
    FeedNetworkConfig,
    GeometryConfig,
    SensingArea,
    crlb_map,
    crlb_matrix,
    emdata,
    kernels,
    load_dataset,
    overall_patterns,
    save_dataset,
    upa_patterns,
)
from pixelaoa import cli, crlb
from pixelaoa.cli import main
from pixelaoa.optimizer import (
    Codebook,
    Codeword,
    ConfigEvaluator,
    SubdivisionSchedule,
    codebook_lookup,
    load_codebook,
    save_codebook,
    stage_areas,
)

from conftest import with_arrays


def run(argv):
    return main([str(a) for a in argv])


def exit_code(argv):
    """run, with argparse's own exit turned into its status code."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def ds_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.json"
    assert run(["gen-dataset", "--pixels", "2x2", "--step-deg", "5", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def cb_file(tmp_path_factory, ds_file):
    path = tmp_path_factory.mktemp("cli") / "cb.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--schedule", "1",
                "--population", "12", "--generations", "3", "--seed", "1",
                "--out", path]) == 0
    return path


def test_gen_dataset_counts_and_manifest(ds_file):
    ds = load_dataset(ds_file)
    assert ds.n_feed == 4 and ds.n_loaded == 4
    manifest = json.loads((ds_file.parent / (ds_file.name + ".manifest.json")).read_text())
    assert manifest["command"] == "gen-dataset"
    assert str(ds_file) in manifest["outputs"]
    assert manifest["parameters"]["pixels"] == "2x2"


def test_gen_dataset_bad_step_rejected(tmp_path):
    assert run(["gen-dataset", "--pixels", "2x2", "--step-deg", "0.4",
                "--out", tmp_path / "x.json"]) == 2


# lengths and the frequency are finite and positive, the jitter finite and at least
# 0, the feed-resistance target finite and positive: any other value exits 2 before
# a dataset is written that validate rejects or whose patterns are all zero
@pytest.mark.parametrize("flag, value, field", [
    ("--freq-hz", "inf", "frequency_hz"), ("--freq-hz", "nan", "frequency_hz"),
    ("--height-mm", "nan", "height_mm"), ("--substrate-mm", "nan", "substrate_side_mm"),
    ("--jitter-ohm", "inf", "self_reactance_jitter_ohm"),
    ("--jitter-ohm", "-3", "self_reactance_jitter_ohm"),
    ("--target-r-ohm", "inf", "feed_resistance_target_ohm"),
    ("--target-r-ohm", "0", "feed_resistance_target_ohm")])
def test_gen_dataset_rejects_non_finite_or_non_positive_inputs(tmp_path, capsys, flag, value,
                                                               field):
    out = tmp_path / "x.json"
    assert run(["gen-dataset", "--pixels", "2x2", "--step-deg", "10", flag, value,
                "--out", out]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["export-plots", "--fig", "area-bars", "--dataset", "{ds}", "--codebook", "{cb}",
      "--upa", "2x2"], "invalid choice: 'area-bars'"),
    (["gen-dataset", "--pixels", "2x2", "--step-deg", "10", "--pixel-mm", "12"],
     "unrecognized arguments: --pixel-mm 12"),
], ids=["fig_area_bars", "pixel_mm"])
def test_unknown_figure_and_pixel_size_flag_exit_2(tmp_path, monkeypatch, capsys, ds_file,
                                                   cb_file, argv, named):
    # compare --upa writes the per-leaf HRPA/UPA table; no computation reads a pixel size
    monkeypatch.chdir(tmp_path)
    argv = [a.format(ds=ds_file, cb=cb_file) for a in argv + ["--out-dir", "out"]]
    assert exit_code(argv) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _asymmetric(ds_file):
    """The dataset in ds_file with one off-diagonal Z entry shifted by 1 ohm."""
    ds = load_dataset(ds_file)
    Z = np.array(ds.Z)
    Z[0, 1] += 1.0
    return with_arrays(ds, Z=Z)


def test_validate_ok_and_tampered(tmp_path, ds_file):
    assert run(["validate", "--dataset", ds_file]) == 0
    bad = tmp_path / "bad.json"
    save_dataset(_asymmetric(ds_file), bad)
    assert run(["validate", "--dataset", bad]) == 4
    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    assert run(["validate", "--dataset", junk]) == 3


def test_failing_validate_prints_report_and_writes_no_manifest(tmp_path, monkeypatch, capsys,
                                                              ds_file):
    monkeypatch.chdir(tmp_path)
    assert run(["validate", "--dataset", ds_file]) == 0
    assert list(tmp_path.iterdir()) == []
    bad = tmp_path / "bad.json"
    save_dataset(_asymmetric(ds_file), bad)
    capsys.readouterr()
    assert run(["validate", "--dataset", bad]) == 4
    captured = capsys.readouterr()
    assert "FAIL  Z symmetry" in captured.out and "PASS  passivity" in captured.out
    assert "Z symmetry" in captured.err
    assert list(tmp_path.iterdir()) == [bad]


def test_validate_reports_a_non_finite_dataset(tmp_path, capsys, ds_file):
    ds = load_dataset(ds_file)
    e = np.array(ds.e_oc)
    e[0, 0, 0, 3] = complex(np.nan, e[0, 0, 0, 3].imag)
    sick = tmp_path / "nan.json"
    save_dataset(with_arrays(ds, e_oc=e), sick)
    capsys.readouterr()
    assert run(["validate", "--dataset", sick]) == 4
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[2].startswith("FAIL  finiteness of Z and patterns")


def test_validate_judges_by_the_strict_load_thresholds(tmp_path, capsys, ds_file, cb_file):
    # |Z - Z^T| = 1e-3 ohm: validate fails it as every command's strict load
    # does, and no flag loosens its threshold
    ds = load_dataset(ds_file)
    Z = np.array(ds.Z)
    Z[0, 1] += 1e-3
    bad = tmp_path / "bad.json"
    save_dataset(with_arrays(ds, Z=Z), bad)
    capsys.readouterr()
    assert run(["validate", "--dataset", bad]) == 4
    assert "FAIL  Z symmetry" in capsys.readouterr().out
    assert exit_code(["validate", "--dataset", bad, "--symmetry-tol", "1"]) == 2
    assert "unrecognized arguments: --symmetry-tol 1" in capsys.readouterr().err
    assert run(["crlb-map", "--dataset", bad, "--codebook", cb_file, "--area", "85:95:-5:5",
                "--out", tmp_path / "map.csv"]) == 4


# flags that no longer exist: a codebook records its feed network and FD step,
# and validate judges by the thresholds of the strict load
REMOVED_FLAGS = {
    "validate_passivity_tol": (["validate", "--dataset", "{ds}"], ["--passivity-tol", "1"]),
    "crlb_map_codebook_z0": (["crlb-map", "--dataset", "{ds}", "--codebook", "{cb}",
                              "--area", "85:95:-5:5"], ["--z0-ohm", "75"]),
    "crlb_map_upa_z0": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"],
                        ["--z0-ohm", "75"]),
    "montecarlo_codebook_z0": (["montecarlo", "--dataset", "{ds}", "--codebook", "{cb}",
                                "--angles", "90,0", "--snr-db-list", "10", "--trials", "100"],
                               ["--z0-ohm", "75"]),
    "compare_z0": (["compare", "--dataset", "{ds}", "--codebook", "{cb}", "--upa", "2x2"],
                   ["--z0-ohm", "75"]),
    "compare_fd_step": (["compare", "--dataset", "{ds}", "--codebook", "{cb}", "--upa", "2x2"],
                        ["--fd-step-deg", "10"]),
    **{f"{name}_{flag[2:].replace('-', '_')}": (base, [flag, value])
       for name, base in (("area_size", ["export-plots", "--fig", "area-size", "--dataset", "{ds}",
                                          "--codebooks", "{cb}", "--eval-area", "85:95:-5:5"]),
                          ("port_count", ["export-plots", "--fig", "port-count",
                                          "--dataset", "{ds}", "--codebooks", "{cb}"]))
       for flag, value in (("--z0-ohm", "75"), ("--fd-step-deg", "10"))},
}


@pytest.mark.parametrize("base, removed", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS.keys())
def test_removed_scoring_flags_exit_2(tmp_path, monkeypatch, capsys, ds_file, cb_file, base,
                                      removed):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(ds=ds_file, cb=cb_file) for a in base + removed + ["--out-dir", "out"]]
    assert exit_code(argv) == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_each_command_writes_one_manifest(tmp_path, monkeypatch, ds_file, cb_file):
    runs = [
        ("gen-dataset", ["--pixels", "2x2", "--step-deg", "10", "--out", "ds.json"],
         ["ds.json"]),
        ("optimize", ["--dataset", ds_file, "--n-active", "2", "--space", "85:95:-5:5",
                      "--population", "4", "--generations", "1", "--max-outer", "1",
                      "--out", "cb.json", "--trace", "trace.csv"], ["cb.json", "trace.csv"]),
        ("crlb-map", ["--dataset", ds_file, "--codebook", cb_file, "--area", "85:95:-5:5",
                      "--out", "map.csv"], ["map.csv"]),
        ("compare", ["--dataset", ds_file, "--codebook", cb_file, "--upa", "2x2",
                     "--out", "cmp.csv"], ["cmp.csv"]),
        ("montecarlo", ["--dataset", ds_file, "--codebook", cb_file, "--angles", "90,0",
                        "--snr-db-list", "20", "--trials", "100", "--out", "mc.csv"],
         ["mc.csv"]),
        ("export-plots", ["--fig", "port-count", "--dataset", ds_file, "--codebooks", cb_file,
                          "--out-dir", "."], ["port_count_tradeoff.csv"]),
    ]
    for command, argv, written in runs:
        work = tmp_path / command
        work.mkdir()
        monkeypatch.chdir(work)
        assert run([command, *argv]) == 0
        manifest = written[0] + ".manifest.json"
        assert sorted(p.name for p in work.iterdir()) == sorted(written + [manifest])
        doc = json.loads((work / manifest).read_text())
        assert doc["command"] == command
        assert doc["outputs"] == {w: hashlib.sha256((work / w).read_bytes()).hexdigest()
                                  for w in written}


def test_missing_dataset_is_io_error(tmp_path):
    assert run(["validate", "--dataset", tmp_path / "absent.json"]) == 3


def test_optimize_reproducible(tmp_path, ds_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["optimize", "--dataset", ds_file, "--n-active", "2",
            "--space", "85:95:-5:5", "--schedule", "1", "--population", "10",
            "--generations", "2", "--seed", "7"]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b, "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_trace_in_optimization_order(tmp_path, ds_file):
    # 16 leaves: a sorted label order would put stage2_area10..16 before area1
    trace = tmp_path / "trace.csv"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--schedule", "1,16", "--population", "4",
                "--generations", "1", "--max-outer", "1", "--out", tmp_path / "cb.json",
                "--trace", trace]) == 0
    labels = [r.split(",")[0] for r in trace.read_text().splitlines()[1:]]
    areas = [label.split("_theta")[0] for label, _ in itertools.groupby(labels)]
    assert areas == ["stage1_area1"] + [f"stage2_area{k}" for k in range(1, 17)]


def test_optimize_trace_goes_under_out_dir(tmp_path, monkeypatch, ds_file):
    # a relative --trace is placed under --out-dir, as --out is
    monkeypatch.chdir(tmp_path)
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2", "--space", "85:95:-5:5",
                "--population", "4", "--generations", "1", "--max-outer", "1",
                "--out-dir", "d", "--trace", "trace.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
        "codebook.json", "codebook.json.manifest.json", "trace.csv"]
    manifest = json.loads((tmp_path / "d" / "codebook.json.manifest.json").read_text())
    assert manifest["parameters"]["trace"] == str(Path("d") / "trace.csv")
    assert str(Path("d") / "trace.csv") in manifest["outputs"]


@pytest.mark.parametrize("axis, split", [("theta", (2, 1)), ("phi", (1, 2))])
def test_optimize_axes_split_one_axis(tmp_path, ds_file, axis, split):
    out = tmp_path / "cb.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2", "--space", "80:100:-10:10",
                "--schedule", "1,2", "--axes", f"both,{axis}", "--population", "8",
                "--generations", "1", "--max-outer", "1", "--out", out]) == 0
    areas = [cw.area for cw in load_codebook(out).codewords]
    # the two leaves halve the split axis only and tile the space
    thetas = sorted({(a.theta_min_deg, a.theta_max_deg) for a in areas})
    phis = sorted({(a.phi_min_deg, a.phi_max_deg) for a in areas})
    want = {(2, 1): ([(80.0, 90.0), (90.0, 100.0)], [(-10.0, 10.0)]),
            (1, 2): ([(80.0, 100.0)], [(-10.0, 0.0), (0.0, 10.0)])}[split]
    assert len(areas) == 2 and (thetas, phis) == want


def test_optimize_all_ports_active(tmp_path, ds_file):
    out = tmp_path / "cb_all.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "4",
                "--space", "85:95:-5:5", "--schedule", "1", "--population", "8",
                "--generations", "2", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["codewords"][0]["feed_ports"]) == [1, 2, 3, 4]


def test_crlb_map_upa_closed_form_broadside(tmp_path):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "2x2", "--mode", "closed-form",
                "--area", "85:95:-5:5", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    table = {(r.split(",")[0], r.split(",")[1]): r.split(",") for r in rows[1:]}
    c_tt = float(table[("90.0", "0.0")][2])
    assert c_tt == pytest.approx(1 / np.pi**4, rel=1e-9)


def test_crlb_map_upa_both_side_by_side(tmp_path):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "2x2", "--mode", "both",
                "--area", "88:92:-2:2", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].count(",") == 9
    assert "c_tt_cf" in rows[0]
    assert len(rows) == 1 + 25


def test_crlb_map_upa_single_modes_match_both(tmp_path):
    argv = ["crlb-map", "--upa", "3x2", "--area", "60:120:-30:30", "--step-deg", "5"]
    rows = {}
    for mode in ("numeric", "closed-form", "both"):
        out = tmp_path / f"{mode}.csv"
        assert run(argv + ["--mode", mode, "--out", out]) == 0
        rows[mode] = [r.split(",") for r in out.read_text().splitlines()]
    assert len(rows["both"]) == 1 + 13 * 13
    assert rows["numeric"] == [r[:6] for r in rows["both"]]
    cf = [r[:2] + r[6:] for r in rows["both"][1:]]
    assert rows["closed-form"][1:] == cf
    assert rows["closed-form"][0] == rows["numeric"][0]


@pytest.mark.parametrize("mode, code", [("closed-form", 2), ("both", 2), ("numeric", 0)])
def test_crlb_map_closed_form_is_iso_theta_only(tmp_path, capsys, mode, code):
    assert run(["crlb-map", "--upa", "2x2", "--element", "iso-dual", "--mode", mode,
                "--area", "85:95:-5:5", "--step-deg", "5", "--out", tmp_path / "map.csv"]) == code
    if code:
        err = capsys.readouterr().err
        assert "--element" in err and "--mode" in err


@pytest.mark.parametrize("mode, code", [("closed-form", 2), ("both", 0), ("numeric", 0)])
def test_crlb_map_closed_form_rejects_fd_step(tmp_path, capsys, mode, code):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "4x4", "--area", "60:120:-30:30", "--step-deg", "5",
                "--mode", mode, "--fd-step-deg", "10", "--out", out]) == code
    assert out.exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "--fd-step-deg" in err and "--mode" in err


def test_crlb_map_upa_closed_form_runs_no_patterns_or_sweep(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("closed-form mode must not build patterns or sweep the FIM")

    monkeypatch.setattr(emdata, "upa_patterns", forbidden)
    monkeypatch.setattr(cli, "upa_patterns", forbidden)
    monkeypatch.setattr(kernels, "fim_sweep", forbidden)
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "3x2", "--mode", "closed-form",
                "--area", "60:120:-30:30", "--step-deg", "5", "--out", out]) == 0
    objective = [float(r.split(",")[5]) for r in out.read_text().splitlines()[1:]]
    printed = re.search(r"worst objective over \S+: (\S+) rad", capsys.readouterr().out)
    assert printed.group(1) == f"{max(objective):.6g}"


def _upa_map(tmp_path, area, *flags):
    """Rows of crlb-map --upa 2x2 --mode numeric over area, keyed by (theta, phi)."""
    out = tmp_path / f"map_{area}.csv"
    assert run(["crlb-map", "--upa", "2x2", "--mode", "numeric", "--area", area, *flags,
                "--out", out]) == 0
    return {tuple(r.split(",")[:2]): r for r in out.read_text().splitlines()[1:]}


def test_upa_window_keeps_the_spheres_stencils_across_180(tmp_path):
    # the margin of -180 crosses the seam in both areas, so both windows take
    # the whole circle and (60, -180) is differenced centrally, as on the sphere
    short = _upa_map(tmp_path, "60:62:-180:-178")
    whole = _upa_map(tmp_path, "60:62:-180:179")
    assert short[("60.0", "-180.0")] == whole[("60.0", "-180.0")]
    pats = upa_patterns(2, 2, 0.5, AngleGrid())
    want = crlb_map(pats, SensingArea(60, 60, -180, -180), 1.0).objective[0]
    assert float(short[("60.0", "-180.0")].split(",")[5]) == want


def test_upa_window_uses_the_fd_step_of_the_sphere(tmp_path):
    # an fd step of 2 reaches past both ends of the area; inside, every row is
    # the one the whole sphere gives
    rows = _upa_map(tmp_path, "60:64:170:179", "--fd-step-deg", "2")
    pats = upa_patterns(2, 2, 0.5, AngleGrid())
    m = crlb_map(pats, SensingArea(60, 64, 170, 179), 1.0, fd_step_deg=2)
    assert [float(r.split(",")[5]) for r in rows.values()] == m.objective.tolist()


@pytest.mark.parametrize("mode", ["numeric", "closed-form"])
def test_upa_area_holding_phi_180_exits_2(tmp_path, capsys, mode):
    # phi = 180 aliases -180 on the sphere, as on every dataset grid
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "2x2", "--mode", mode, "--area", "60:62:170:180",
                "--out", out]) == 2
    assert "phi = 180.0 deg is outside the grid" in capsys.readouterr().err
    assert not out.exists()


# crlb-map --upa runs, each swept in one-row bands and in one band
UPA_BAND_RUNS = {
    "sphere_both": ["--upa", "2x2", "--area", "0:180:-180:179"],   # phi wraps; both poles
    "fd_step_2_dual": ["--upa", "3x2", "--element", "iso-dual", "--mode", "numeric",
                       "--area", "40:70:-100:-60", "--fd-step-deg", "2"],
    "single_row": ["--upa", "2x2", "--area", "90:90:-30:30"],
    "closed_form": ["--upa", "4x4", "--mode", "closed-form", "--area", "0:180:-90:90"],
}


@pytest.mark.parametrize("argv", UPA_BAND_RUNS.values(), ids=UPA_BAND_RUNS.keys())
def test_upa_map_bands_leave_the_output_bit_identical(tmp_path, monkeypatch, capsys, argv):
    bands = []

    def theta_bands(*a):                        # crlb.theta_bands, keeping its bands
        bands[:] = crlb.theta_bands(*a)
        return bands

    monkeypatch.setattr(cli, "theta_bands", theta_bands)
    runs = []
    for budget in (1, 1 << 40):                 # one row per band; the whole area in one
        monkeypatch.setattr(crlb, "_BAND_BYTES", budget)
        out = tmp_path / f"map_{budget}.csv"
        assert run(["crlb-map", *argv, "--out", out]) == 0
        runs.append((out.read_bytes(), capsys.readouterr().out, len(bands)))
    (banded, banded_out, n_banded), (whole, whole_out, n_whole) = runs
    rows = {b.split(b",")[0] for b in whole.splitlines()[1:]}
    assert (n_banded, n_whole) == (len(rows), 1)
    assert banded == whole and banded_out == whole_out


@pytest.mark.parametrize("budget", [1, crlb._BAND_BYTES])
def test_upa_map_at_a_decimal_step(tmp_path, monkeypatch, budget):
    # window and band edges are lattice lines: in floats, 0.3 - 0.1 is off the 0.1 grid
    monkeypatch.setattr(crlb, "_BAND_BYTES", budget)
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "4x4", "--mode", "numeric", "--area", "0.3:0.6:-10:10",
                "--step-deg", "0.1", "--out", out]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    # the sphere's points and stencils, on its first degree of theta
    pats = upa_patterns(4, 4, 0.5, AngleGrid(0, 1, -180, 180, 0.1))
    m = crlb_map(pats, SensingArea(0.3, 0.6, -10, 10), 1.0)
    # every coordinate is the float its decimal reads: phi = 0 is 0.0, theta 0.3 is 0.3
    np.testing.assert_array_equal(table[:, :2], np.column_stack([m.theta_deg, m.phi_deg]))
    assert sorted(set(table[:, 0])) == [0.3, 0.4, 0.5, 0.6]
    assert b"\n0.3,0.0," in out.read_bytes()
    np.testing.assert_allclose(table[:, 5], m.objective, rtol=1e-9)


# steps whose lines are not binary fractions: 1/3 deg is one no decimal sum reaches
@pytest.mark.parametrize("step, rows", [("0.1", 11 * 21), ("0.3333333333333333", 4 * 7)])
def test_upa_map_bands_are_bit_identical_off_binary_steps(tmp_path, monkeypatch, step, rows):
    runs = []
    for budget in (1, 1 << 40):                 # one row per band; the whole area in one
        monkeypatch.setattr(crlb, "_BAND_BYTES", budget)
        out = tmp_path / f"map_{budget}.csv"
        assert run(["crlb-map", "--upa", "4x4", "--area", "80:81:-1:1", "--step-deg", step,
                    "--out", out]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    assert len(runs[0].splitlines()) == 1 + rows


@pytest.mark.parametrize("mode", ["closed-form", "both"])
def test_upa_map_at_a_third_of_a_degree(tmp_path, mode):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "2x2", "--mode", mode, "--step-deg", "0.3333333333333333",
                "--area", "80:81:0:1", "--out", out]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    lines = [80.0, 241 / 3, 242 / 3, 81.0]      # lines 240-243 of the 1/3-degree lattice
    np.testing.assert_array_equal(table[:, 0], np.repeat(lines, 4))
    np.testing.assert_array_equal(table[:, 1], np.tile([0.0, 1 / 3, 2 / 3, 1.0], 4))


@pytest.mark.parametrize("mode, code", [("numeric", 2), ("closed-form", 2)])
def test_upa_map_of_an_array_without_elements(tmp_path, mode, code):
    # a 0x4 UPA has no elements: its size is a flag error, whatever the mode
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--upa", "0x4", "--mode", mode, "--area", "85:95:-5:5",
                "--out", out]) == code
    assert out.exists() == (code == 0)


# below 1x1 a UPA has no elements: every --upa path rejects the size as a flag error
@pytest.mark.parametrize("size", ["0x4", "-1x4"])
@pytest.mark.parametrize("command", ["crlb-map", "compare", "montecarlo"])
def test_upa_size_below_1x1_exits_2(tmp_path, capsys, ds_file, cb_file, command, size):
    argv = {"crlb-map": ["--mode", "closed-form", "--area", "85:95:-5:5"],
            "compare": ["--dataset", ds_file, "--codebook", cb_file],
            "montecarlo": ["--angles", "90,0", "--trials", "100"]}[command]
    out = tmp_path / "out.csv"
    assert run([command, f"--upa={size}", *argv, "--out", out]) == 2
    assert f"--upa expects at least 1x1, got '{size}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["nan", "inf"])
@pytest.mark.parametrize("command", ["closed-form", "numeric", "compare", "montecarlo"])
def test_upa_non_finite_spacing_exits_2(tmp_path, capsys, ds_file, cb_file, command, spacing):
    argv = {"closed-form": ["crlb-map", "--mode", "closed-form", "--area", "85:95:-5:5"],
            "numeric": ["crlb-map", "--mode", "numeric", "--area", "85:95:-5:5"],
            "compare": ["compare", "--dataset", ds_file, "--codebook", cb_file],
            "montecarlo": ["montecarlo", "--angles", "90,0", "--trials", "100"]}[command]
    out = tmp_path / "out.csv"
    assert run([*argv, "--upa", "2x2", "--spacing", spacing, "--out", out]) == 2
    assert f"element spacing must be finite and positive, got {spacing}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_upa_map_memory_is_bounded_by_a_band(tmp_path):
    # the 4x4 UPA at 0.5 deg: a quarter sphere, then the front hemisphere
    peaks = []
    for area in ("0:90:-90:90", "0:180:-90:90"):
        tracemalloc.start()
        try:
            assert run(["crlb-map", "--upa", "4x4", "--mode", "numeric", "--step-deg", "0.5",
                        "--area", area, "--out", tmp_path / "map.csv"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    window = (2 * 16 * 361 * 363) * 16          # the hemisphere's one-window patterns
    assert max(peaks) < window / 4, (peaks, window)
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_crlb_map_codebook_mode(tmp_path, ds_file, cb_file):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", cb_file,
                "--area", "85:95:-5:5", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + 9  # 5-deg grid: 3x3 points in a 10x10 area
    vals = [float(x) for x in rows[1].split(",")]
    assert math.isfinite(vals[5])


UPA_ONLY_FLAGS = [["--mode", "closed-form"], ["--element", "iso-dual"], ["--step-deg", "0.5"],
                  ["--spacing", "3"]]


@pytest.mark.parametrize("flags", UPA_ONLY_FLAGS + [sum(UPA_ONLY_FLAGS, [])],
                         ids=["mode", "element", "step_deg", "spacing", "all"])
def test_crlb_map_codebook_rejects_upa_only_flags(tmp_path, capsys, ds_file, cb_file, flags):
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", cb_file,
                "--area", "85:95:-5:5", "--out", out, *flags]) == 2
    err = capsys.readouterr().err
    assert all(f in err for f in flags[::2])
    assert not out.exists()


def test_crlb_map_manifests_record_the_upa_only_flags(tmp_path, ds_file, cb_file):
    def parameters(argv):
        out = tmp_path / "map.csv"
        assert run(["crlb-map", "--area", "85:95:-5:5", "--out", out, *argv]) == 0
        return json.loads((tmp_path / "map.csv.manifest.json").read_text())["parameters"]

    names = ("mode", "element", "step_deg", "spacing")
    book = parameters(["--dataset", ds_file, "--codebook", cb_file])
    assert [book[n] for n in names] == [None] * 4
    upa = parameters(["--upa", "2x2"])
    assert [upa[n] for n in names] == ["both", "iso-theta", 1.0, 0.5]


def _set_first_codeword(key, value):
    def edit(doc):
        doc["codewords"][0][key] = value
        return doc
    return edit


# each edit returns the document to write: the edited one, or a replacement
@pytest.mark.parametrize("edit", [
    _set_first_codeword("connections", "2000"),
    _set_first_codeword("feed_ports", [0, 2]),
    _set_first_codeword("connections", "000"),
    lambda doc: {**doc, "n_loaded": 3},
    _set_first_codeword("area", {"theta_min_deg": 100, "theta_max_deg": 80,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
    lambda doc: {**doc, "schedule": {**doc["schedule"], "factors": [2]}},
    lambda doc: {**doc, "codewords": []},
    _set_first_codeword("area", {"theta_min_deg": 80, "theta_max_deg": 90,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
    lambda doc: {**doc, "codewords": doc["codewords"] + doc["codewords"][:1]},
    _set_first_codeword("area", {"theta_min_deg": 70, "theta_max_deg": 90,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
    lambda doc: [],
    lambda doc: None,
    lambda doc: "x",
    lambda doc: {**doc, "snr_linear": 0.0},
    lambda doc: {**doc, "source_impedance_ohm": [0.0, 0.0]},
    lambda doc: {**doc, "source_impedance_ohm": [50.0]},
    lambda doc: {k: v for k, v in doc.items() if k != "fd_step_deg"},
    lambda doc: {**doc, "version": 3},
], ids=["bit_2", "port_0", "short_bits", "header_n_loaded", "empty_area", "bad_schedule",
        "no_codewords", "leaf_cut", "leaf_twice", "leaf_outside", "top_list", "top_null",
        "top_string", "snr_0", "z0_0", "z0_one_number", "no_fd_step", "version_3"])
def test_crlb_map_bad_codebook_is_format_error(tmp_path, ds_file, cb_file, edit):
    doc = edit(json.loads(cb_file.read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", bad,
                "--area", "85:95:-5:5", "--out", tmp_path / "map.csv"]) == 3


def _edit_first_codeword(key, edit):
    """_set_first_codeword to edit of the key's value."""
    return lambda doc: _set_first_codeword(key, edit(doc["codewords"][0][key]))(doc)


# each edit is one a truncating or coercing reader would take for a valid codebook
@pytest.mark.parametrize("field, edit", [
    ("feed_ports", _edit_first_codeword("feed_ports", lambda ports: [p + 0.9 for p in ports])),
    ("feed_ports", _edit_first_codeword("feed_ports", lambda ports: [float(p) for p in ports])),
    ("feed_ports", _edit_first_codeword("feed_ports", lambda ports: [str(p) for p in ports])),
    ("feed_ports", _edit_first_codeword("feed_ports",
                                        lambda ports: [True] + [p for p in ports if p != 1][:1])),
    ("n_feed", lambda doc: {**doc, "n_feed": doc["n_feed"] + 0.5}),
    ("n_loaded", lambda doc: {**doc, "n_loaded": str(doc["n_loaded"])}),
    ("factors", lambda doc: {**doc, "schedule": {**doc["schedule"], "factors": [1.0]}}),
    ("iterations_used", _set_first_codeword("iterations_used", 1.5)),
    ("version", lambda doc: {**doc, "version": True}),
    ("connections", _edit_first_codeword("connections",
                                         lambda bits: [int(b) + 0.9 for b in bits])),
], ids=["port_fraction", "port_float", "port_string", "port_bool", "n_feed_fraction",
        "n_loaded_string", "factor_float", "iterations_fraction", "version_bool",
        "connections_list"])
def test_non_integer_codebook_field_is_format_error(tmp_path, ds_file, cb_file, capsys, field,
                                                    edit):
    doc = edit(json.loads(cb_file.read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", bad,
                "--area", "85:95:-5:5", "--out", tmp_path / "map.csv"]) == 3
    assert field in capsys.readouterr().err


def _edit_first_area(key, edit):
    """_edit_first_codeword of one bound of the first leaf's area."""
    return _edit_first_codeword("area", lambda area: {**area, key: edit(area[key])})


# each edit is one a coercing reader would take for a valid codebook
@pytest.mark.parametrize("field, edit", [
    ("snr_linear", lambda doc: {**doc, "snr_linear": str(doc["snr_linear"])}),
    ("objective_rad", _set_first_codeword("objective_rad", True)),
    ("objective_rad", _edit_first_codeword("objective_rad", str)),
    ("theta_min_deg", _edit_first_area("theta_min_deg", str)),
    ("phi_max_deg", lambda doc: {**doc, "space": {**doc["space"],
                                                  "phi_max_deg": [doc["space"]["phi_max_deg"]]}}),
    ("source_impedance_ohm", lambda doc: {**doc, "source_impedance_ohm": ["50", "0"]}),
    ("fd_step_deg", lambda doc: {**doc, "fd_step_deg": "10"}),
], ids=["snr_string", "objective_bool", "objective_string", "leaf_bound_string",
        "space_bound_list", "z0_strings", "fd_step_string"])
def test_non_number_codebook_field_is_format_error(tmp_path, ds_file, cb_file, capsys, field,
                                                   edit):
    doc = edit(json.loads(cb_file.read_text()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", bad,
                "--area", "85:95:-5:5", "--out", tmp_path / "map.csv"]) == 3
    assert field in capsys.readouterr().err


def test_codebook_v1_exits_3_with_a_hint(tmp_path, capsys, ds_file, cb_file):
    # format v1 recorded no feed network or FD step, so its objectives cannot be checked
    doc = json.loads(cb_file.read_text())
    del doc["source_impedance_ohm"], doc["fd_step_deg"]
    old = tmp_path / "v1.json"
    old.write_text(json.dumps({**doc, "version": 1}))
    out = tmp_path / "map.csv"
    capsys.readouterr()
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", old, "--area", "85:95:-5:5",
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert "codebook format v1" in err and "re-run `pixelaoa optimize`" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def jitter_files(tmp_path_factory):
    """Two jittered 2x2-pixel datasets (seeds 7 and 8) and a codebook of the first."""
    work = tmp_path_factory.mktemp("jitter")
    for seed in (7, 8):
        assert run(["gen-dataset", "--pixels", "2x2", "--step-deg", "5", "--jitter-ohm", "1",
                    "--seed", seed, "--out", work / f"ds{seed}.json"]) == 0
    assert run(["optimize", "--dataset", work / "ds7.json", "--n-active", "2",
                "--space", "80:100:-10:10", "--population", "8", "--generations", "2",
                "--out", work / "cb7.json"]) == 0
    return work


def _edited_codebook(edit):
    """A case of test_stale_codebook_exits_3: the seed-7 codebook with edit
    applied to its document, on the seed-7 dataset."""
    def case(tmp_path, work):
        doc = edit(json.loads((work / "cb7.json").read_text()))
        (tmp_path / "cb.json").write_text(json.dumps(doc))
        return work / "ds7.json", tmp_path / "cb.json"
    return case


STALE = "the codebook is stale"
# (dataset and codebook of the case, what the error says)
STALE_CODEBOOKS = {
    "another_jitter_seed": (lambda tmp_path, work: (work / "ds8.json", work / "cb7.json"), STALE),
    "objective_rad": (_edited_codebook(
        _edit_first_codeword("objective_rad", lambda v: v * (1 + 1e-6))), STALE),
    "snr_linear": (_edited_codebook(lambda doc: {**doc, "snr_linear": 10.0}), STALE),
    "fd_step_off_the_grid": (_edited_codebook(lambda doc: {**doc, "fd_step_deg": 3.0}),
                             "must be a positive multiple of the grid step 5.0"),
}


@pytest.mark.parametrize("argv", [
    ["crlb-map", "--area", "85:95:-5:5"],
    ["compare", "--upa", "2x2"],
    ["montecarlo", "--angles", "90,0", "--snr-db-list", "10", "--trials", "100"],
    ["export-plots", "--fig", "port-count"],
], ids=["crlb_map", "compare", "montecarlo", "port_count"])
@pytest.mark.parametrize("case, named", STALE_CODEBOOKS.values(), ids=STALE_CODEBOOKS.keys())
def test_stale_codebook_exits_3(tmp_path, monkeypatch, capsys, jitter_files, argv, case, named):
    # every leaf is scored under the codebook's own settings when it is loaded,
    # before any trial, row or output directory
    def forbidden(*args, **kwargs):
        raise AssertionError("no trial is scored with a stale codebook")

    monkeypatch.setattr(kernels, "ml_scores", forbidden)
    ds, cb = case(tmp_path, jitter_files)
    book = "--codebooks" if argv[0] == "export-plots" else "--codebook"
    capsys.readouterr()
    assert run(argv + ["--dataset", ds, book, cb, "--out-dir", tmp_path / "out"]) == 3
    captured = capsys.readouterr()
    assert "leaf theta[80:100]_phi[-10:10]" in captured.err and named in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_export_plots_port_count_empty_codebook_is_format_error(tmp_path, ds_file, cb_file):
    doc = json.loads(cb_file.read_text())
    doc["codewords"] = []
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(doc))
    assert run(["export-plots", "--fig", "port-count", "--dataset", ds_file,
                "--codebooks", bad, "--out-dir", tmp_path]) == 3


@pytest.fixture(scope="module")
def ds33_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds33.json"
    assert run(["gen-dataset", "--pixels", "3x3", "--step-deg", "5", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def cb33_file(tmp_path_factory, ds33_file):
    path = tmp_path_factory.mktemp("cli") / "cb33.json"
    assert run(["optimize", "--dataset", ds33_file, "--n-active", "1",
                "--space", "80:100:-10:10", "--schedule", "1", "--population", "4",
                "--generations", "1", "--max-outer", "1", "--out", path]) == 0
    return path


@pytest.mark.parametrize("argv", [
    ["crlb-map", "--codebook", "cb22", "--area", "85:95:-5:5"],
    ["compare", "--codebook", "cb22", "--upa", "2x2"],
    ["compare", "--codebook", "cb33", "--baseline-codebook", "cb22"],
    ["montecarlo", "--codebook", "cb22", "--angles", "90,0", "--snr-db-list", "20",
     "--trials", "100"],
    ["export-plots", "--fig", "area-size", "--codebooks", "cb22", "--eval-area", "85:95:-5:5"],
    ["export-plots", "--fig", "port-count", "--codebooks", "cb22"],
], ids=["crlb_map", "compare", "compare_baseline", "montecarlo", "area_size", "port_count"])
def test_codebook_for_another_dataset_is_format_error(tmp_path, ds33_file, cb33_file, cb_file,
                                                      argv):
    # a 2x2-pixel codebook (4 feed + 4 loaded ports) on a 3x3-pixel dataset (9 + 12)
    books = {"cb22": cb_file, "cb33": cb33_file}
    argv = [books.get(a, a) for a in argv]
    assert run(argv + ["--dataset", ds33_file, "--out-dir", tmp_path]) == 3


@pytest.mark.parametrize("argv", [
    ["compare", "--upa", "2x2"],
    ["crlb-map", "--area", "85:95:-5:5"],
    ["montecarlo", "--angles", "90,0", "--snr-db-list", "20", "--trials", "100"],
], ids=["compare", "crlb_map", "montecarlo"])
def test_codebook_leaf_off_the_dataset_grid_is_format_error(tmp_path, capsys, ds_file, cb_file,
                                                            argv):
    # leaves that tile 80:100 but cut it at 81 and 84, off the dataset's 5-degree grid
    doc = json.loads(cb_file.read_text())
    cw = doc["codewords"][0]
    doc["codewords"] = [dict(cw, area=dict(cw["area"], theta_min_deg=t0, theta_max_deg=t1))
                        for t0, t1 in ((80, 81), (81, 84), (84, 100))]
    bad = tmp_path / "off_grid.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(argv + ["--dataset", ds_file, "--codebook", bad, "--out-dir", tmp_path]) == 3
    captured = capsys.readouterr()
    assert "theta[80:81]_phi[-10:10]" in captured.err
    assert captured.out == ""


def test_crlb_map_codebook_sweeps_equal_per_point_maps(tmp_path, ds_file):
    # four leaves, so area points on the shared edges go to the upper tiles
    cb = tmp_path / "cb4.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--schedule", "1,4",
                "--population", "12", "--generations", "3", "--seed", "2",
                "--out", cb]) == 0
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", cb,
                "--area", "80:100:-10:10", "--out", out]) == 0
    ds, book = load_dataset(ds_file), load_codebook(cb)
    assert len(book.codewords) == 4
    # reference: one single-point map per grid point, with its leaf's patterns
    want = ["theta_deg,phi_deg,c_tt,c_tp,c_pp,objective"]
    t_ids, p_ids = SensingArea(80, 100, -10, 10).indices(ds.grid)
    for th in ds.grid.theta_deg[t_ids].tolist():
        for ph in ds.grid.phi_deg[p_ids].tolist():
            pats = overall_patterns(ds, codebook_lookup(book, (th, ph)).config,
                                    FeedNetworkConfig()).patterns
            r = crlb_map(pats, SensingArea(th, th, ph, ph), 1.0)
            want.append(",".join(repr(float(v)) for v in (
                th, ph, r.c_tt[0], r.c_tp[0], r.c_pp[0], r.objective[0])))
    assert out.read_text() == "\n".join(want) + "\n"


# two geometries for the 2x2-pixel dataset (4 feed + 4 loaded ports)
GEOMS = (GeometryConfig((0, 1), (0, 1, 0, 1)), GeometryConfig((2, 3), (1, 0, 0, 1)))


def _leaf_codebook(path, ds_file, leaf_geoms):
    """Save a codebook over 80:100:-10:10 with one leaf, or four by the 1,4
    schedule, holding leaf_geoms in leaf order, each with the objective it
    scores on its leaf; return its path."""
    ds = load_dataset(ds_file)
    factors = (1,) if len(leaf_geoms) == 1 else (1, 4)
    schedule = SubdivisionSchedule(SensingArea(80, 100, -10, 10), factors,
                                   ("both",) * len(factors))
    areas = stage_areas(schedule, ds.grid.step_deg)[-1]
    ev = ConfigEvaluator(ds, 1.0)
    save_codebook(Codebook(schedule, 1.0, FeedNetworkConfig(), None, ds.n_feed, ds.n_loaded,
                           tuple(Codeword(a, g, ev.objective(g, a), 1)
                                 for a, g in zip(areas, leaf_geoms))),
                  path)
    return path


# the window is the FD window of the area, or of the Monte-Carlo search box:
# the angles' 85:95:-5:5 widened by the default 10-degree half-width
@pytest.mark.parametrize("argv, n_solves, box", [
    (["crlb-map", "--codebook", "BOOK", "--area", "80:100:-10:10"], 2, "80:100:-10:10"),
    (["export-plots", "--fig", "area-size", "--codebooks", "BOOK",
      "--eval-area", "80:100:-10:10"], 2, "80:100:-10:10"),
    (["montecarlo", "--codebook", "BOOK", "--angles", "85,-5;85,5;95,-5;95,5",
      "--snr-db-list", "20", "--trials", "100"], 2, "75:105:-15:15"),
    (["compare", "--codebook", "ONE", "--baseline-codebook", "BOOK"], 3, "80:100:-10:10"),
], ids=["crlb_map", "area_size", "montecarlo", "compare_baseline"])
def test_codebook_map_holds_one_geometry_at_a_time(tmp_path, monkeypatch, ds_file, argv,
                                                   n_solves, box):
    # four leaves over two geometries, alternating, so each geometry's points
    # span two leaves; compare also solves its one HRPA leaf
    books = {"BOOK": _leaf_codebook(tmp_path / "alt.json", ds_file, GEOMS * 2),
             "ONE": _leaf_codebook(tmp_path / "one.json", ds_file, GEOMS[:1])}
    calls, returned = [], []
    solve, groups = cli.solve_network, cli._geometry_groups

    def solve_spy(*args, **kwargs):
        assert all(ref() is None for ref, _ in returned)   # no earlier pattern set alive
        calls.extend(args[1])
        return solve(*args, **kwargs)

    def groups_spy(*args):
        for pats, ks in groups(*args):
            returned.append((weakref.ref(pats), pats.grid))
            yield pats, ks
            del pats

    monkeypatch.setattr(cli, "solve_network", solve_spy)
    monkeypatch.setattr(cli, "_geometry_groups", groups_spy)
    argv = [books.get(a, a) for a in argv]
    assert run(argv + ["--dataset", ds_file, "--out-dir", tmp_path]) == 0
    assert len(calls) == n_solves and set(calls) == set(GEOMS)
    grid = load_dataset(ds_file).grid
    assert {g for _, g in returned} == {crlb.fd_window(cli._parse_area(box), grid, None)}


def test_compare_self_is_zero_improvement(tmp_path, ds_file, cb_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file,
                "--baseline-codebook", cb_file, "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    improvement = float(rows[1].split(",")[-1])
    assert improvement == 0.0


def _one_leaf_over(tmp_path, ds_file, cb_file, bounds):
    """cb_file's one-leaf codebook moved to the area tmin:tmax:pmin:pmax, with
    the objective its geometry scores there."""
    cb, area = load_codebook(cb_file), cli._parse_area(bounds)
    cw = cb.codewords[0]
    ev = ConfigEvaluator(load_dataset(ds_file), cb.snr_linear, cb.feednet, cb.fd_step_deg)
    moved = replace(cw, area=area, objective=ev.objective(cw.config, area))
    path = tmp_path / f"cb_{bounds}.json"
    save_codebook(replace(cb, schedule=replace(cb.schedule, space=area), codewords=(moved,)),
                  path)
    return path


def test_compare_singular_side_gives_no_improvement(tmp_path, capsys, ds_file, cb_file):
    # the 2x2 UPA is singular at endfire, phi = 90
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook",
                _one_leaf_over(tmp_path, ds_file, cb_file, "80:100:70:90"), "--upa", "2x2",
                "--out", out]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert math.isfinite(float(row[4])) and row[5:] == ["inf", "nan"]
    assert "improvement undefined (baseline singular)" in capsys.readouterr().out


def test_compare_baseline_must_cover_each_leaf(tmp_path, capsys, ds_file, cb_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file, "--baseline-codebook",
                _one_leaf_over(tmp_path, ds_file, cb_file, "85:95:-5:5"), "--out", out]) == 2
    assert "angle (80.0, -10.0) not covered" in capsys.readouterr().err
    assert not out.exists()


def test_compare_baseline_worst_is_its_per_point_worst(tmp_path, ds_file):
    # the baseline's leaves split the HRPA leaf; its worst is the map's worst
    a, b = GEOMS
    base = _leaf_codebook(tmp_path / "base.json", ds_file, [b, b, b, a])
    cmp_out, map_out = tmp_path / "cmp.csv", tmp_path / "map.csv"
    assert run(["compare", "--dataset", ds_file, "--baseline-codebook", base, "--codebook",
                _leaf_codebook(tmp_path / "one.json", ds_file, [a]), "--out", cmp_out]) == 0
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", base,
                "--area", "80:100:-10:10", "--out", map_out]) == 0
    worst = max(float(r.split(",")[5]) for r in map_out.read_text().splitlines()[1:])
    assert float(cmp_out.read_text().splitlines()[1].split(",")[5]) == worst


def test_compare_self_is_zero_on_every_leaf_of_four(tmp_path, ds_file):
    # alternating geometries: each leaf's shared edges go to another geometry
    book = _leaf_codebook(tmp_path / "alt.json", ds_file, GEOMS * 2)
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", book,
                "--baseline-codebook", book, "--out", out]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 4 and [float(r[6]) for r in rows] == [0.0] * 4


def _leaf_map_worst(tmp_path, argv, row):
    """The largest objective the crlb-map argv writes over a compare row's leaf."""
    out = tmp_path / "leaf.csv"
    assert run(argv + ["--area", ":".join(row[:4]), "--out", out]) == 0
    return max(float(r.split(",")[5]) for r in out.read_text().splitlines()[1:])


@pytest.mark.parametrize("book", ["alt", "ga"])
def test_compare_sides_are_crlb_map_worsts_per_leaf(tmp_path, ds_file, cb4_file, book):
    # compare --upa 2x2 on a 5-degree dataset: its HRPA side is crlb-map
    # --codebook, its baseline crlb-map --upa --step-deg 5, bit for bit on each leaf
    books = {"alt": _leaf_codebook(tmp_path / "alt.json", ds_file, GEOMS * 2), "ga": cb4_file}
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", books[book], "--upa", "2x2",
                "--out", out]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        hrpa = ["crlb-map", "--dataset", ds_file, "--codebook", books[book]]
        upa = ["crlb-map", "--upa", "2x2", "--mode", "numeric", "--step-deg", "5"]
        assert float(row[4]) == _leaf_map_worst(tmp_path, hrpa, row)
        assert float(row[5]) == _leaf_map_worst(tmp_path, upa, row)


def test_compare_dual_pol_upa_not_worse(tmp_path, ds_file, cb_file):
    # doubling the UPA ports (dual polarization) cannot worsen the bound
    single = tmp_path / "s.csv"
    dual = tmp_path / "d.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file,
                "--upa", "2x2", "--element", "iso-theta", "--out", single]) == 0
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file,
                "--upa", "2x2", "--element", "iso-dual", "--out", dual]) == 0
    w_single = float(single.read_text().strip().splitlines()[1].split(",")[5])
    w_dual = float(dual.read_text().strip().splitlines()[1].split(",")[5])
    assert w_dual <= w_single + 1e-12


@pytest.fixture(scope="module")
def scored_cb_file(tmp_path_factory, ds_file):
    """A one-leaf codebook over 80:100:-10:10 scored under a 75-ohm source and
    a 10-degree FD step (two steps of the dataset's grid)."""
    path = tmp_path_factory.mktemp("cli") / "cb_scored.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--population", "12", "--generations", "3",
                "--seed", "1", "--z0-ohm", "75", "--fd-step-deg", "10", "--out", path]) == 0
    return path


def test_codebook_consumers_score_under_the_codebooks_settings(tmp_path, capsys, ds_file,
                                                                scored_cb_file):
    # no consumer takes a scoring flag, and each reproduces objective_rad
    ds, cw = load_dataset(ds_file), load_codebook(scored_cb_file).codewords[0]
    # the default settings score the leaf otherwise, so a dropped setting shows
    assert ConfigEvaluator(ds, 1.0).objective(cw.config, cw.area) \
        != pytest.approx(cw.objective, rel=1e-6)
    out = tmp_path / "map.csv"
    capsys.readouterr()
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", scored_cb_file,
                "--area", "80:100:-10:10", "--out", out]) == 0
    printed = re.search(r"worst objective over \S+: (\S+) rad", capsys.readouterr().out)
    assert printed.group(1) == f"{cw.objective:.6g}"
    worst = max(float(r.split(",")[5]) for r in out.read_text().splitlines()[1:])
    assert worst == pytest.approx(cw.objective, rel=1e-12)

    # compare's HRPA side is that map; its UPA is differenced at the codebook's step
    cmp_out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", scored_cb_file, "--upa", "2x2",
                "--out", cmp_out]) == 0
    row = cmp_out.read_text().splitlines()[1].split(",")
    assert float(row[4]) == worst
    upa = ["crlb-map", "--upa", "2x2", "--mode", "numeric", "--step-deg", "5"]
    assert float(row[5]) == _leaf_map_worst(tmp_path, upa + ["--fd-step-deg", "10"], row)

    # montecarlo's bound columns are crlb_matrix's under the same settings
    mc_out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--dataset", ds_file, "--codebook", scored_cb_file,
                "--angles", "85,-5", "--snr-db-list", "10", "--trials", "100",
                "--out", mc_out]) == 0
    crlbs = [float(v) for v in mc_out.read_text().splitlines()[1].split(",")[6:8]]
    pats = overall_patterns(ds, cw.config, FeedNetworkConfig(75.0)).patterns
    bound = crlb_matrix(pats, (85.0, -5.0), 10.0, fd_step_deg=10)
    assert crlbs == pytest.approx([math.sqrt(bound.c_theta_theta),
                                   math.sqrt(bound.c_phi_phi)], rel=1e-12)


def test_montecarlo_rows_and_reproducibility(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["montecarlo", "--upa", "2x2", "--angles", "90,0;88,2",
            "--snr-db-list", "10,20", "--trials", "100", "--seed", "3"]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert len(rows) == 1 + 4          # one row per (angle, snr)


def test_montecarlo_trials_precondition(tmp_path):
    assert run(["montecarlo", "--upa", "2x2", "--trials", "10",
                "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("angles", ["90", ""])
def test_montecarlo_bad_angles_is_flag_error(tmp_path, capsys, angles):
    assert run(["montecarlo", "--upa", "2x2", "--angles", angles,
                "--out", tmp_path / "x.csv"]) == 2
    assert "--angles" in capsys.readouterr().err


def test_montecarlo_upa_rejects_a_bad_fd_step_before_any_trial(tmp_path, monkeypatch, capsys):
    # a codebook's FD step is checked when it is loaded (test_stale_codebook_exits_3)
    def forbidden(*args, **kwargs):
        raise AssertionError("no trial is scored before the fd step is checked")

    monkeypatch.setattr(kernels, "ml_scores", forbidden)
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--upa", "4x4", "--step-deg", "0.5", "--fd-step-deg", "0.75",
                "--out", out]) == 2
    assert "must be a positive multiple of the grid step" in capsys.readouterr().err
    assert not out.exists()


# a zero half-width searches one candidate, the true angle, so every trial
# would estimate it exactly and report an RMSE of 0 below the CRLB
@pytest.mark.parametrize("path", ["upa", "codebook"])
def test_montecarlo_zero_search_halfwidth_is_flag_error(tmp_path, monkeypatch, capsys, ds_file,
                                                        path):
    def forbidden(*args, **kwargs):
        raise AssertionError("no trial is scored with a zero search half-width")

    source = (["--upa", "2x2", "--step-deg", "5"] if path == "upa" else
              ["--dataset", ds_file, "--codebook", _leaf_codebook(tmp_path / "cb.json",
                                                                  ds_file, GEOMS[:1])])
    monkeypatch.setattr(kernels, "ml_scores", forbidden)
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", *source, "--angles", "90,0", "--snr-db-list", "10",
                "--trials", "101", "--search-halfwidth-deg", "0", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--search-halfwidth-deg" in err
    assert "must be a positive multiple of the grid step" in err
    assert not out.exists()


# a 1-degree half-width puts the fd step of 4 beyond the search box
@pytest.mark.parametrize("angles, halfwidth, fd_step", [("60,40", 10, 3),
                                                        ("60,40;70,46", 1, 4)])
def test_montecarlo_crlb_uses_fd_step(tmp_path, angles, halfwidth, fd_step):
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--upa", "2x2", "--angles", angles, "--snr-db-list", "10",
                "--trials", "100", "--search-halfwidth-deg", halfwidth,
                "--fd-step-deg", fd_step, "--out", out]) == 0
    got = float(out.read_text().splitlines()[1].split(",")[6])
    pats = upa_patterns(2, 2, 0.5, AngleGrid(40, 80, 20, 60, 1.0))
    want = crlb_matrix(pats, (60.0, 40.0), 10.0, fd_step_deg=fd_step).c_theta_theta
    assert got == pytest.approx(math.sqrt(want), rel=1e-12)
    # off broadside the step changes the bound, so a dropped step shows
    grid_step = crlb_matrix(pats, (60.0, 40.0), 10.0).c_theta_theta
    assert got != pytest.approx(math.sqrt(grid_step), rel=1e-6)


def test_export_plots_port_count(tmp_path, ds_file):
    books = []
    for n in (1, 2):
        out = tmp_path / f"cb_n{n}.json"
        assert run(["optimize", "--dataset", ds_file, "--n-active", n,
                    "--space", "85:95:-5:5", "--schedule", "1", "--population", "8",
                    "--generations", "2", "--out", out]) == 0
        books.append(str(out))
    outdir = tmp_path / "plots"
    assert run(["export-plots", "--fig", "port-count", "--dataset", ds_file,
                "--codebooks", ",".join(books), "--out-dir", outdir]) == 0
    rows = (outdir / "port_count_tradeoff.csv").read_text().strip().splitlines()
    assert rows[0] == "n_active,worst_objective"
    assert len(rows) == 3
    ns = [int(r.split(",")[0]) for r in rows[1:]]
    assert ns == [1, 2]
    # csv parses back losslessly
    for r in rows[1:]:
        float(r.split(",")[1])


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--upa", "2x2", "--snr-db", "40", "--out", "{tmp}/mc.csv"],
    ["export-plots", "--fig", "port-count", "--dataset", "{ds}", "--codebooks", "{cb}"],
    ["export-plots", "--fig", "area-size", "--dataset", "{ds}", "--eval-area", "85:95:-5:5",
     "--out-dir", "{tmp}"],
], ids=["montecarlo_snr_db", "export_plots_no_out_dir", "export_plots_no_codebooks"])
def test_flag_errors_exit_2(tmp_path, ds_file, cb_file, argv):
    argv = [a.format(tmp=tmp_path, ds=ds_file, cb=cb_file) for a in argv]
    assert exit_code(argv) == 2


@pytest.mark.parametrize("argv, flag, text", [
    (["montecarlo", "--upa", "2x2", "--snr-db-list", "10,,20", "--trials", "100"],
     "--snr-db-list", "10,,20"),
    (["optimize", "--dataset", "{ds}", "--space", "80:100:-10:10", "--schedule", "1,x"],
     "--schedule", "1,x"),
], ids=["montecarlo_snr_db_list", "optimize_schedule"])
def test_bad_list_flag_is_named(tmp_path, capsys, ds_file, argv, flag, text):
    argv = [a.format(ds=ds_file) for a in argv] + ["--out", tmp_path / "out"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and repr(text) in err


@pytest.mark.parametrize("z0", ["inf", "50+nanj"])
def test_non_finite_source_impedance_exits_2(tmp_path, capsys, ds_file, z0):
    out = tmp_path / "cb.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--schedule", "1", "--population", "12",
                "--generations", "3", "--z0-ohm", z0, "--out", out]) == 2
    assert "source impedance must be finite" in capsys.readouterr().err
    assert not out.exists()


# one bad input per command: (argv, exit code); "bad" names a file that is no JSON
BAD_INPUT_RUNS = {
    "gen_dataset": (["gen-dataset", "--pixels", "5y5"], 2),
    "optimize": (["optimize", "--dataset", "bad", "--space", "80:100:-10:10"], 3),
    "crlb_map": (["crlb-map", "--dataset", "bad", "--codebook", "bad",
                  "--area", "80:100:-10:10"], 3),
    "compare": (["compare", "--dataset", "bad", "--codebook", "bad", "--upa", "2x2"], 3),
    "montecarlo": (["montecarlo", "--upa", "2x2", "--trials", "10"], 2),
    "export_plots": (["export-plots", "--fig", "port-count", "--dataset", "bad",
                      "--codebooks", "bad"], 3),
}


@pytest.mark.parametrize("argv, code", BAD_INPUT_RUNS.values(), ids=BAD_INPUT_RUNS.keys())
def test_failed_run_creates_no_out_dir(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_text("{nope")
    assert run(argv + ["--out-dir", "newdir"]) == code
    assert not (tmp_path / "newdir").exists()


def test_export_plots_missing_inputs(tmp_path, ds_file):
    assert run(["export-plots", "--fig", "area-size", "--dataset", ds_file,
                "--codebooks", str(tmp_path / "absent.json"),
                "--eval-area", "85:95:-5:5", "--out-dir", tmp_path]) == 3


def test_manifest_replay_reproduces_codebook(tmp_path, ds_file, cb_file):
    # rebuild the optimize invocation from the manifest's resolved parameters
    manifest = json.loads((cb_file.parent / (cb_file.name + ".manifest.json")).read_text())
    p = manifest["parameters"]
    out = tmp_path / "replay.json"
    argv = ["optimize", "--dataset", p["dataset"], "--n-active", p["n_active"],
            "--space", p["space"], "--schedule", p["schedule"],
            "--population", p["population"], "--generations", p["generations"],
            "--seed", p["seed"], "--out", out]
    assert run(argv) == 0
    assert out.read_bytes() == cb_file.read_bytes()


# (base argv, flags only another path of the command reads); "{ds}"/"{cb}"
# stand for the dataset and codebook files
FOREIGN_FLAGS = {
    "crlb_map_upa_codebook": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"],
                              ["--dataset", "{ds}", "--codebook", "{cb}"]),
    "crlb_map_codebook_fd_step": (["crlb-map", "--dataset", "{ds}", "--codebook", "{cb}",
                                   "--area", "85:95:-5:5"], ["--fd-step-deg", "10"]),
    "montecarlo_codebook_fd_step": (["montecarlo", "--dataset", "{ds}", "--codebook", "{cb}",
                                     "--angles", "90,0", "--snr-db-list", "10",
                                     "--trials", "100"], ["--fd-step-deg", "10"]),
    "crlb_map_seed": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"], ["--seed", "9"]),
    "montecarlo_upa_codebook": (["montecarlo", "--upa", "2x2", "--angles", "90,0",
                                 "--snr-db-list", "10", "--trials", "100"],
                                ["--dataset", "{ds}", "--codebook", "{cb}"]),
    "montecarlo_codebook_upa_flags": (["montecarlo", "--dataset", "{ds}", "--codebook", "{cb}",
                                       "--angles", "90,0", "--snr-db-list", "10",
                                       "--trials", "100"],
                                      ["--step-deg", "0.5", "--spacing", "3",
                                       "--element", "iso-dual"]),
    "compare_baseline_upa": (["compare", "--dataset", "{ds}", "--codebook", "{cb}",
                              "--baseline-codebook", "{cb}"],
                             ["--upa", "4x4", "--spacing", "3", "--element", "iso-dual"]),
    "compare_seed": (["compare", "--dataset", "{ds}", "--codebook", "{cb}",
                      "--baseline-codebook", "{cb}"], ["--seed", "4"]),
    **{f"port_count_{flag[2:].replace('-', '_')}":
       (["export-plots", "--fig", "port-count", "--dataset", "{ds}", "--codebooks", "{cb}"],
        [flag, value])
       for flag, value in [("--codebook", "{cb}"), ("--upa", "2x2"),
                           ("--eval-area", "80:90:0:10"), ("--snr-db", "10")]},
    "area_size_upa": (["export-plots", "--fig", "area-size", "--dataset", "{ds}",
                       "--codebooks", "{cb}", "--eval-area", "85:95:-5:5"], ["--upa", "2x2"]),
}


@pytest.mark.parametrize("base, foreign", FOREIGN_FLAGS.values(), ids=FOREIGN_FLAGS.keys())
def test_flags_of_another_path_exit_2(tmp_path, monkeypatch, capsys, ds_file, cb_file,
                                      base, foreign):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(ds=ds_file, cb=cb_file) for a in base + foreign + ["--out-dir", "out"]]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert all(re.search(re.escape(f) + r"\b", err) for f in foreign if f.startswith("--"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["crlb-map", "--area", "85:95:-5:5"], "crlb-map needs --upa, or --dataset with --codebook"),
    (["montecarlo", "--dataset", "{ds}"], "montecarlo needs --upa, or --dataset with --codebook"),
    (["compare", "--dataset", "{ds}", "--codebook", "{cb}"],
     "compare needs --baseline-codebook, or --upa"),
    (["crlb-map", "--codebook", "{cb}", "--area", "85:95:-5:5"],
     "crlb-map --codebook needs --dataset"),
    (["export-plots", "--fig", "port-count", "--dataset", "{ds}", "--codebooks", ""],
     "export-plots --fig port-count needs --codebooks"),
], ids=["crlb_map", "montecarlo", "compare", "crlb_map_codebook", "empty_codebooks"])
def test_missing_path_flags_exit_2(tmp_path, monkeypatch, capsys, ds_file, cb_file, argv, named):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(ds=ds_file, cb=cb_file) for a in argv + ["--out-dir", "out"]]
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# one run of each path: (argv, the path's resolved flags, flags of other paths)
# a codebook path reads its feed network and FD step from the codebook file
UPA_DEFAULTS = {"spacing": 0.5, "element": "iso-theta"}
PATH_RUNS = {
    "crlb_map_upa": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"],
                     {**UPA_DEFAULTS, "step_deg": 1.0, "mode": "both", "fd_step_deg": None},
                     ["dataset", "codebook"]),
    "crlb_map_codebook": (["crlb-map", "--dataset", "{ds}", "--codebook", "{cb}",
                           "--area", "85:95:-5:5"], {},
                          ["upa", "spacing", "element", "step_deg", "mode", "fd_step_deg"]),
    "montecarlo_upa": (["montecarlo", "--upa", "2x2", "--angles", "90,0", "--snr-db-list", "20",
                        "--trials", "100"], {**UPA_DEFAULTS, "step_deg": 1.0, "fd_step_deg": None},
                       ["dataset", "codebook"]),
    "montecarlo_codebook": (["montecarlo", "--dataset", "{ds}", "--codebook", "{cb}",
                             "--angles", "90,0", "--snr-db-list", "20", "--trials", "100"],
                            {}, ["upa", "spacing", "element", "step_deg", "fd_step_deg"]),
    "compare_baseline": (["compare", "--dataset", "{ds}", "--codebook", "{cb}",
                          "--baseline-codebook", "{cb}"], {}, ["upa", "spacing", "element"]),
    "compare_upa": (["compare", "--dataset", "{ds}", "--codebook", "{cb}", "--upa", "2x2"],
                    UPA_DEFAULTS, ["baseline_codebook"]),
    "area_size": (["export-plots", "--fig", "area-size", "--dataset", "{ds}",
                   "--codebooks", "{cb}", "--eval-area", "85:95:-5:5"], {"snr_db": 0.0}, []),
    "port_count": (["export-plots", "--fig", "port-count", "--dataset", "{ds}",
                    "--codebooks", "{cb}"], {}, ["eval_area", "snr_db"]),
}


@pytest.fixture(scope="module")
def path_manifests(tmp_path_factory, ds_file, cb_file):
    """Each PATH_RUNS run in a directory of its own: {id: (directory, manifest)}."""
    done = {}
    for name, (argv, _, _) in PATH_RUNS.items():
        work = tmp_path_factory.mktemp(name)
        assert run([a.format(ds=ds_file, cb=cb_file) for a in argv] + ["--out-dir", work]) == 0
        manifest, = work.glob("*.manifest.json")
        done[name] = (work, json.loads(manifest.read_text()))
    return done


@pytest.mark.parametrize("name", PATH_RUNS)
def test_manifest_records_only_the_taken_paths_flags(path_manifests, name):
    _, own, others = PATH_RUNS[name]
    doc = path_manifests[name][1]
    params = doc["parameters"]
    assert {k: params[k] for k in own} == own
    assert {k: params[k] for k in others} == dict.fromkeys(others)
    if doc["command"] != "montecarlo":
        assert "seed" not in params and doc["seed"] is None


@pytest.mark.parametrize("name", PATH_RUNS)
def test_manifest_replay_reproduces_each_path(tmp_path, path_manifests, name):
    work, doc = path_manifests[name]
    argv = [doc["command"]]
    for key, value in doc["parameters"].items():
        if value is None or value is False or key in ("command", "out_dir"):
            continue
        argv.append("--" + key.replace("_", "-"))
        if key == "out":
            argv.append(Path(value).name)
        elif value is not True:
            argv.append(value)
    assert run(argv + ["--out-dir", tmp_path]) == 0
    for out in doc["outputs"]:
        assert (tmp_path / Path(out).name).read_bytes() == (work / Path(out).name).read_bytes()


def test_montecarlo_codebook_mode(tmp_path, ds_file, cb_file):
    out = tmp_path / "mc_cb.csv"
    assert run(["montecarlo", "--dataset", ds_file, "--codebook", cb_file,
                "--angles", "90,0", "--snr-db-list", "20", "--trials", "100",
                "--search-halfwidth-deg", "10", "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2


def test_export_plots_area_size(tmp_path, ds_file):
    books = []
    for span, bounds in ((10, "85:95:-5:5"), (20, "80:100:-10:10")):
        out = tmp_path / f"cb_{span}.json"
        assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                    "--space", bounds, "--schedule", "1", "--population", "8",
                    "--generations", "2", "--out", out]) == 0
        books.append(str(out))
    outdir = tmp_path / "plots"
    assert run(["export-plots", "--fig", "area-size", "--dataset", ds_file,
                "--codebooks", ",".join(books), "--eval-area", "85:95:-5:5",
                "--out-dir", outdir]) == 0
    rows = (outdir / "area_size_sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "area_size_deg,worst_objective"
    sizes = [float(r.split(",")[0]) for r in rows[1:]]
    assert sizes == [10.0, 20.0]


@pytest.fixture(scope="module")
def cb4_file(tmp_path_factory, ds_file):
    # four leaves over 80:100:-10:10; the two below hold different geometries
    path = tmp_path_factory.mktemp("cli") / "cb4.json"
    assert run(["optimize", "--dataset", ds_file, "--n-active", "2",
                "--space", "80:100:-10:10", "--schedule", "1,4",
                "--population", "20", "--generations", "5", "--seed", "0",
                "--out", path]) == 0
    return path


def test_export_plots_area_size_scores_each_point_under_its_leaf(tmp_path, capsys, ds_file,
                                                                cb4_file):
    area = "80:100:-10:10"
    out = tmp_path / "map.csv"
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", cb4_file, "--area", area,
                "--out", out]) == 0
    printed = re.search(r"worst objective over \S+: (\S+) rad", capsys.readouterr().out)
    worst = max(float(r.split(",")[5]) for r in out.read_text().splitlines()[1:])
    assert printed.group(1) == f"{worst:.6g}"
    assert run(["export-plots", "--fig", "area-size", "--dataset", ds_file,
                "--codebooks", cb4_file, "--eval-area", area, "--out-dir", tmp_path]) == 0
    row = (tmp_path / "area_size_sweep.csv").read_text().splitlines()[1]
    assert float(row.split(",")[1]) == worst


def test_montecarlo_each_angle_uses_its_own_leaf(tmp_path, ds_file, cb4_file):
    ds, cb = load_dataset(ds_file), load_codebook(cb4_file)
    leaves = [codebook_lookup(cb, a).config for a in ((85.0, -5.0), (95.0, 5.0))]
    assert leaves[0] != leaves[1]
    argv = ["montecarlo", "--dataset", ds_file, "--codebook", cb4_file,
            "--snr-db-list", "20", "--trials", "100", "--search-halfwidth-deg", "10"]
    after, alone = tmp_path / "after.csv", tmp_path / "alone.csv"
    assert run(argv + ["--angles", "85,-5;95,5", "--out", after]) == 0
    assert run(argv + ["--angles", "95,5", "--out", alone]) == 0
    rows = after.read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["85.0", "-5.0"], ["95.0", "5.0"]]
    assert rows[2] == alone.read_text().splitlines()[1]
    # the bound is the one of the leaf that covers (95, 5)
    pats = overall_patterns(ds, leaves[1], FeedNetworkConfig()).patterns
    bound = crlb_matrix(pats, (95.0, 5.0), 100.0)
    assert float(rows[2].split(",")[6]) == math.sqrt(bound.c_theta_theta)


def test_montecarlo_searches_one_geometrys_angles_together(tmp_path, ds_file):
    # four leaves of one geometry run as the one-leaf codebook of that geometry
    argv = ["montecarlo", "--dataset", ds_file, "--angles", "85,-5;95,5;85,5",
            "--snr-db-list", "0", "--trials", "100"]
    outs = []
    for name, leaves in (("one", GEOMS[:1]), ("four", GEOMS[:1] * 4)):
        outs.append(tmp_path / f"{name}.csv")
        assert run(argv + ["--codebook", _leaf_codebook(tmp_path / f"{name}.json", ds_file, leaves),
                           "--out", outs[-1]]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """The pixelaoa lines of the README's "Command line" block, continuations joined."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("pixelaoa ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1]


def test_readme_path_table_matches_path_flags():
    # {(command, path): {flag: needed}}, from the README's "Flags by path" table
    table = README.read_text().split("Flags by path", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        command, path, flags = (cell.strip() for cell in line.split("|")[1:4])
        path = path.strip("`")
        path = path.split()[1] if path.startswith("--fig ") else path[2:].replace("-", "_")
        rows[command.strip("`"), path] = {
            flag.replace("-", "_"): "*needed*" in item
            for item in flags.split(",") for flag in re.findall(r"`--([a-z0-9-]+)`", item)}
    assert rows == {(command, path): {d: v is cli.NEEDED for d, v in own.items()}
                    for command, paths in cli.PATH_FLAGS.items() for path, own in paths.items()}
