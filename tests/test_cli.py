import hashlib
import itertools
import json
import math
import re
import shlex
import weakref
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
from pixelaoa import cli
from pixelaoa.cli import main
from pixelaoa.optimizer import (
    Codebook,
    Codeword,
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
    return edit


@pytest.mark.parametrize("edit", [
    _set_first_codeword("connections", "2000"),
    _set_first_codeword("feed_ports", [0, 2]),
    _set_first_codeword("connections", "000"),
    lambda doc: doc.update(n_loaded=3),
    _set_first_codeword("area", {"theta_min_deg": 100, "theta_max_deg": 80,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
    lambda doc: doc["schedule"].update(factors=[2]),
    lambda doc: doc.update(codewords=[]),
    _set_first_codeword("area", {"theta_min_deg": 80, "theta_max_deg": 90,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
    lambda doc: doc["codewords"].append(doc["codewords"][0]),
    _set_first_codeword("area", {"theta_min_deg": 70, "theta_max_deg": 90,
                                 "phi_min_deg": -10, "phi_max_deg": 10}),
], ids=["bit_2", "port_0", "short_bits", "header_n_loaded", "empty_area", "bad_schedule",
        "no_codewords", "leaf_cut", "leaf_twice", "leaf_outside"])
def test_crlb_map_bad_codebook_is_format_error(tmp_path, ds_file, cb_file, edit):
    doc = json.loads(cb_file.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["crlb-map", "--dataset", ds_file, "--codebook", bad,
                "--area", "85:95:-5:5", "--out", tmp_path / "map.csv"]) == 3


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
    ["export-plots", "--fig", "area-bars", "--codebook", "cb22", "--upa", "2x2"],
    ["export-plots", "--fig", "area-size", "--codebooks", "cb22", "--eval-area", "85:95:-5:5"],
    ["export-plots", "--fig", "port-count", "--codebooks", "cb22"],
], ids=["crlb_map", "compare", "compare_baseline", "montecarlo", "area_bars", "area_size",
        "port_count"])
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
    ["export-plots", "--fig", "area-bars", "--upa", "2x2"],
], ids=["compare", "crlb_map", "montecarlo", "area_bars"])
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
    schedule, holding leaf_geoms in leaf order; return its path."""
    ds = load_dataset(ds_file)
    factors = (1,) if len(leaf_geoms) == 1 else (1, 4)
    schedule = SubdivisionSchedule(SensingArea(80, 100, -10, 10), factors,
                                   ("both",) * len(factors))
    areas = stage_areas(schedule, ds.grid.step_deg)[-1]
    save_codebook(Codebook(schedule, 1.0, ds.n_feed, ds.n_loaded,
                           tuple(Codeword(a, g, 0.0, 1) for a, g in zip(areas, leaf_geoms))),
                  path)
    return path


@pytest.mark.parametrize("argv, n_solves", [
    (["crlb-map", "--codebook", "BOOK", "--area", "80:100:-10:10"], 2),
    (["export-plots", "--fig", "area-size", "--codebooks", "BOOK",
      "--eval-area", "80:100:-10:10"], 2),
    (["montecarlo", "--codebook", "BOOK", "--angles", "85,-5;85,5;95,-5;95,5",
      "--snr-db-list", "20", "--trials", "100"], 2),
    (["compare", "--codebook", "ONE", "--baseline-codebook", "BOOK"], 3),
], ids=["crlb_map", "area_size", "montecarlo", "compare_baseline"])
def test_codebook_map_holds_one_geometry_at_a_time(tmp_path, monkeypatch, ds_file, argv,
                                                   n_solves):
    # four leaves over two geometries, alternating, so each geometry's points
    # span two leaves; compare also solves its one HRPA leaf
    books = {"BOOK": _leaf_codebook(tmp_path / "alt.json", ds_file, GEOMS * 2),
             "ONE": _leaf_codebook(tmp_path / "one.json", ds_file, GEOMS[:1])}
    calls, returned = [], []

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in returned)   # no earlier pattern set alive
        calls.append(args[1])
        net = overall_patterns(*args, **kwargs)
        returned.append(weakref.ref(net.patterns))
        return net

    monkeypatch.setattr(cli, "overall_patterns", spy)
    argv = [books.get(a, a) for a in argv]
    assert run(argv + ["--dataset", ds_file, "--out-dir", tmp_path]) == 0
    assert len(calls) == n_solves and set(calls) == set(GEOMS)


def test_compare_self_is_zero_improvement(tmp_path, ds_file, cb_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file,
                "--baseline-codebook", cb_file, "--out", out]) == 0
    rows = out.read_text().strip().splitlines()
    improvement = float(rows[1].split(",")[-1])
    assert improvement == 0.0


def _one_leaf_over(tmp_path, cb_file, bounds):
    """cb_file's one-leaf codebook moved to the area tmin:tmax:pmin:pmax."""
    area = dict(zip(("theta_min_deg", "theta_max_deg", "phi_min_deg", "phi_max_deg"),
                    (float(b) for b in bounds.split(":"))))
    doc = json.loads(cb_file.read_text())
    doc["space"] = doc["codewords"][0]["area"] = area
    path = tmp_path / f"cb_{bounds}.json"
    path.write_text(json.dumps(doc))
    return path


def test_compare_singular_side_gives_no_improvement(tmp_path, capsys, ds_file, cb_file):
    # the 2x2 UPA is singular at endfire, phi = 90
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook",
                _one_leaf_over(tmp_path, cb_file, "80:100:70:90"), "--upa", "2x2",
                "--out", out]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert math.isfinite(float(row[4])) and row[5:] == ["inf", "nan"]
    assert "improvement undefined (baseline singular)" in capsys.readouterr().out


def test_compare_baseline_must_cover_each_leaf(tmp_path, capsys, ds_file, cb_file):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--dataset", ds_file, "--codebook", cb_file, "--baseline-codebook",
                _one_leaf_over(tmp_path, cb_file, "85:95:-5:5"), "--out", out]) == 2
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
    def forbidden(*args, **kwargs):
        raise AssertionError("no trial is scored before the fd step is checked")

    monkeypatch.setattr(kernels, "ml_scores", forbidden)
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--upa", "4x4", "--step-deg", "0.5", "--fd-step-deg", "0.75",
                "--out", out]) == 2
    assert "must be a positive multiple of the grid step" in capsys.readouterr().err
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
    "crlb_map_upa_z0": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"],
                        ["--z0-ohm", "75"]),
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
                           ("--eval-area", "80:90:0:10"), ("--snr-db", "10"),
                           ("--fd-step-deg", "2"), ("--z0-ohm", "75")]},
    "area_bars_area_size_flags": (["export-plots", "--fig", "area-bars", "--dataset", "{ds}",
                                   "--codebook", "{cb}", "--upa", "2x2"],
                                  ["--codebooks", "{cb}", "--eval-area", "80:90:0:10"]),
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
    (["export-plots", "--fig", "area-bars", "--dataset", "{ds}", "--upa", "2x2"],
     "export-plots --fig area-bars needs --codebook"),
    (["export-plots", "--fig", "port-count", "--dataset", "{ds}", "--codebooks", ""],
     "export-plots --fig port-count needs --codebooks"),
], ids=["crlb_map", "montecarlo", "compare", "crlb_map_codebook", "area_bars", "empty_codebooks"])
def test_missing_path_flags_exit_2(tmp_path, monkeypatch, capsys, ds_file, cb_file, argv, named):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(ds=ds_file, cb=cb_file) for a in argv + ["--out-dir", "out"]]
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# one run of each path: (argv, the path's resolved flags, flags of other paths)
Z0 = str(50.0 + 0.0j)
UPA_DEFAULTS = {"spacing": 0.5, "element": "iso-theta"}
SCORING_DEFAULTS = {"snr_db": 0.0, "z0_ohm": Z0, "fd_step_deg": None}
PATH_RUNS = {
    "crlb_map_upa": (["crlb-map", "--upa", "2x2", "--area", "85:95:-5:5"],
                     {**UPA_DEFAULTS, "step_deg": 1.0, "mode": "both"},
                     ["dataset", "codebook", "z0_ohm"]),
    "crlb_map_codebook": (["crlb-map", "--dataset", "{ds}", "--codebook", "{cb}",
                           "--area", "85:95:-5:5"], {"z0_ohm": Z0},
                          ["upa", "spacing", "element", "step_deg", "mode"]),
    "montecarlo_upa": (["montecarlo", "--upa", "2x2", "--angles", "90,0", "--snr-db-list", "20",
                        "--trials", "100"], {**UPA_DEFAULTS, "step_deg": 1.0},
                       ["dataset", "codebook", "z0_ohm"]),
    "montecarlo_codebook": (["montecarlo", "--dataset", "{ds}", "--codebook", "{cb}",
                             "--angles", "90,0", "--snr-db-list", "20", "--trials", "100"],
                            {"z0_ohm": Z0}, ["upa", "spacing", "element", "step_deg"]),
    "compare_baseline": (["compare", "--dataset", "{ds}", "--codebook", "{cb}",
                          "--baseline-codebook", "{cb}"], {}, ["upa", "spacing", "element"]),
    "compare_upa": (["compare", "--dataset", "{ds}", "--codebook", "{cb}", "--upa", "2x2"],
                    UPA_DEFAULTS, ["baseline_codebook"]),
    "area_bars": (["export-plots", "--fig", "area-bars", "--dataset", "{ds}",
                   "--codebook", "{cb}", "--upa", "2x2"],
                  {**UPA_DEFAULTS, **SCORING_DEFAULTS}, ["codebooks", "eval_area"]),
    "area_size": (["export-plots", "--fig", "area-size", "--dataset", "{ds}",
                   "--codebooks", "{cb}", "--eval-area", "85:95:-5:5"],
                  SCORING_DEFAULTS, ["upa", "spacing", "element", "codebook"]),
    "port_count": (["export-plots", "--fig", "port-count", "--dataset", "{ds}",
                    "--codebooks", "{cb}"], {},
                   ["upa", "spacing", "element", "codebook", "eval_area", "snr_db", "z0_ohm",
                    "fd_step_deg"]),
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


def _readme_commands() -> list[str]:
    """The pixelaoa lines of the README's "Command line" block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
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
