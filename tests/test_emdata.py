import io
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pixelaoa import (
    AngleGrid,
    DipoleModelParams,
    PortLayout,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    upa_patterns,
    validate_dataset,
)
from pixelaoa.emdata import ETA0, pattern_gram
from pixelaoa.cli import main as cli_main
from pixelaoa.errors import (
    DatasetFormatError,
    DimensionMismatchError,
    FinitenessError,
    GridError,
    LayoutError,
    PassivityError,
    ReciprocityError,
)

from conftest import with_arrays
from oracles import upa_patterns_factor_list


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_port_counts_for_paper_layout():
    lay = PortLayout(pixel_rows=5, pixel_cols=5)
    assert lay.n_feed == 25
    assert lay.n_loaded == 40
    assert lay.n_ports == 65


@pytest.mark.parametrize("rows,cols,q", [(1, 1, 0), (2, 1, 1), (2, 2, 4), (3, 3, 12)])
def test_edge_counting(rows, cols, q):
    lay = PortLayout(pixel_rows=rows, pixel_cols=cols)
    assert lay.n_loaded == q


def test_positions_inside_footprint():
    lay = PortLayout()
    half = lay.substrate_side_mm / 2 * 1e-3
    pos = lay.all_port_positions()
    assert np.all(np.abs(pos[:, 1:]) <= half + 1e-12)


def test_degenerate_layout_rejected():
    with pytest.raises(LayoutError):
        PortLayout(pixel_rows=0, pixel_cols=3)
    with pytest.raises(LayoutError):
        PortLayout(frequency_hz=0.0)


@pytest.mark.parametrize("field", ["substrate_side_mm", "height_mm", "frequency_hz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_layout_lengths_and_frequency_are_finite_and_positive(field, value):
    with pytest.raises(LayoutError, match=field):
        PortLayout(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("self_reactance_ohm", float("nan")), ("reactance_scale_ohm", float("inf")),
    ("resistance_floor_ohm", float("nan")), ("self_reactance_jitter_ohm", float("inf")),
    ("self_reactance_jitter_ohm", -3.0), ("feed_resistance_target_ohm", float("inf")),
    ("feed_resistance_target_ohm", 0.0)])
def test_dipole_model_params_are_finite(field, value):
    with pytest.raises(ValueError, match=field):
        DipoleModelParams(**{field: value})


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_paper_scale_dataset_shape(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(), coarse_grid)
    assert ds.Z.shape == (65, 65)
    assert ds.e_oc.shape == (2, 65, coarse_grid.n_theta, coarse_grid.n_phi)
    assert validate_dataset(ds).passed


def test_single_port_layout(coarse_grid):
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=1, pixel_cols=1), coarse_grid)
    assert ds.Z.shape == (1, 1)
    assert ds.Z[0, 0].real > 0
    assert np.any(np.abs(ds.e_oc) > 0)


def test_window_is_a_view_of_e_oc_and_rejects_other_grids(tiny_dataset):
    ds = tiny_dataset                                   # the 5-degree sphere
    w = ds.window(AngleGrid(80, 100, 170, 175, 5.0))
    assert np.shares_memory(w, ds.e_oc)
    assert np.array_equal(w, ds.e_oc[:, :, 16:21, 70:72])
    for grid in (AngleGrid(80, 100, -10, 10, 10.0),     # another step
                 AngleGrid(80, 100, 170, 180, 5.0)):    # phi = 180 is not on the sphere
        with pytest.raises(GridError):
            ds.window(grid)


def test_mutual_resistance_matches_bruteforce_quadrature(coarse_grid):
    # independent oracle: explicit loop over grid cells, Re{e1^H e2} * w
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=1), coarse_grid)
    w = coarse_grid.weights()
    acc = 0.0
    for i in range(coarse_grid.n_theta):
        for j in range(coarse_grid.n_phi):
            e1 = ds.e_oc[:, 0, i, j]
            e2 = ds.e_oc[:, 1, i, j]
            acc += float(np.real(np.vdot(e1, e2))) * w[i, j]
    r12_oracle = acc / (2 * ETA0)
    assert ds.Z[0, 1].real == pytest.approx(r12_oracle, rel=1e-10)


def test_pattern_gram_holds_one_polarization_temporary():
    # 3x3 pixels at 2 deg: one polarization of e_oc is 5.5 MB
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=3, pixel_cols=3),
                                    AngleGrid(step_deg=2.0))
    w = ds.quadrature()
    tracemalloc.start()
    try:
        A = pattern_gram(ds.e_oc, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_pol = ds.n_ports * ds.grid.n_theta * ds.grid.n_phi * 16
    assert peak <= 1.25 * one_pol, (peak, one_pol)
    flat = ds.e_oc.reshape(2, ds.n_ports, -1)
    want = sum((flat[pol].conj() * w.reshape(-1)) @ flat[pol].T for pol in range(2))
    assert np.array_equal(A, want)


def test_generated_z_exactly_symmetric(tiny_dataset):
    assert np.max(np.abs(tiny_dataset.Z - tiny_dataset.Z.T)) == 0.0


def test_feed_resistance_normalization(coarse_grid):
    ds = generate_synthetic_dataset(
        PortLayout(pixel_rows=2, pixel_cols=2), coarse_grid,
        DipoleModelParams(feed_resistance_target_ohm=75.0))
    assert ds.Z[0, 0].real == pytest.approx(75.0, rel=1e-12)


def test_seed_only_matters_with_jitter(coarse_grid):
    lay = PortLayout(pixel_rows=2, pixel_cols=2)
    a = generate_synthetic_dataset(lay, coarse_grid, seed=1)
    b = generate_synthetic_dataset(lay, coarse_grid, seed=2)
    assert np.array_equal(a.Z, b.Z)
    jp = DipoleModelParams(self_reactance_jitter_ohm=1.0)
    c = generate_synthetic_dataset(lay, coarse_grid, jp, seed=1)
    d = generate_synthetic_dataset(lay, coarse_grid, jp, seed=2)
    assert not np.array_equal(c.Z, d.Z)
    assert np.array_equal(c.Z.real, d.Z.real)      # jitter touches reactances only


@settings(max_examples=12, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_resistance_psd_over_layouts(rows, cols):
    grid = AngleGrid(step_deg=15.0)
    ds = generate_synthetic_dataset(PortLayout(pixel_rows=rows, pixel_cols=cols), grid)
    eigs = np.linalg.eigvalsh(ds.Z.real)
    assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0)


# ---------------------------------------------------------------------------
# validation / io
# ---------------------------------------------------------------------------

def test_validation_catches_passivity_violation(tiny_dataset):
    Z = np.array(tiny_dataset.Z)
    Z[0, 0] = complex(-0.5, Z[0, 0].imag)
    report = validate_dataset(with_arrays(tiny_dataset, Z=Z))
    assert not report.passed
    assert any("passivity" in c.name and not c.passed for c in report.checks)


def test_roundtrip_bit_exact(tmp_path, tiny_dataset):
    p = tmp_path / "ds.json"
    save_dataset(tiny_dataset, p)
    back = load_dataset(p)
    assert np.array_equal(back.Z, tiny_dataset.Z)
    assert np.array_equal(back.e_oc, tiny_dataset.e_oc)
    assert back.layout == tiny_dataset.layout
    assert back.grid == tiny_dataset.grid


def test_malformed_file_rejected(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("this is not json {")
    with pytest.raises(DatasetFormatError):
        load_dataset(p)


def test_reciprocity_violation_on_strict_load_v2(tmp_path, tiny_dataset):
    Z = np.array(tiny_dataset.Z)
    Z[1, 0] += 1e-3                               # perturb one off-diagonal entry
    p = tmp_path / "ds.json"
    save_dataset(with_arrays(tiny_dataset, Z=Z), p)
    with pytest.raises(ReciprocityError):
        load_dataset(p, strict=True)
    ds = load_dataset(p, strict=False)
    assert ds.Z.shape == tiny_dataset.Z.shape


def test_strict_load_raises_finiteness_before_reciprocity(tmp_path, tiny_dataset):
    Z = np.array(tiny_dataset.Z)
    Z[1, 0] += 1e-3                               # asymmetric ...
    Z[2, 2] = complex(np.nan, 0.0)                # ... and non-finite
    p = tmp_path / "ds.json"
    save_dataset(with_arrays(tiny_dataset, Z=Z), p)
    with pytest.raises(FinitenessError):
        load_dataset(p, strict=True)
    report = validate_dataset(load_dataset(p, strict=False))
    failed = {c.error for c in report.checks if not c.passed}
    assert {ReciprocityError, FinitenessError} <= failed


def _signed_zero_dataset(ds):
    """ds with real and imaginary parts of -0.0 in Z and E_oc."""
    Z = np.array(ds.Z)
    Z[0, 1] = Z[1, 0] = complex(Z[0, 1].real, -0.0)
    e = np.array(ds.e_oc)
    e[0, 0, 0, :4] = [complex(1.5, -0.0), complex(-0.0, -0.0), complex(0.0, -0.0),
                      complex(-0.0, 2.0)]
    return with_arrays(ds, Z=Z, e_oc=e)


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_roundtrip_keeps_signed_zeros(tmp_path, tiny_dataset):
    # np.array_equal in test_roundtrip_bit_exact cannot tell -0.0 from 0.0
    ds = _signed_zero_dataset(tiny_dataset)
    p = tmp_path / "ds.json"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert _bits_equal(back.Z, ds.Z)
    assert _bits_equal(back.e_oc, ds.e_oc)
    assert back.layout == ds.layout and back.grid == ds.grid
    assert back.metadata == ds.metadata


# A format-v1 file: one JSON document of [re, im] pairs (1x1 pixels, 2x2 grid points).
V1_DOCUMENT = (
    '{"version": 1, "layout": {"pixel_rows": 1, "pixel_cols": 1, "pixel_side_mm": 12.0, '
    '"substrate_side_mm": 62.5, "height_mm": 12.5, "frequency_hz": 2400000000.0}, '
    '"grid": {"theta_start_deg": 80.0, "theta_stop_deg": 90.0, "phi_start_deg": 0.0, '
    '"phi_stop_deg": 10.0, "step_deg": 10.0}, "metadata": {"provenance": "synthetic"}, '
    '"Z": [[50.0, -20.0]], '
    '"E_oc": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], '
    '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}')


def test_v1_document_is_rejected_with_a_hint(tmp_path, monkeypatch, capsys):
    p = tmp_path / "v1.json"
    p.write_text(V1_DOCUMENT)
    with pytest.raises(DatasetFormatError, match="format-v1 .* gen-dataset"):
        load_dataset(p)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli_main(["validate", "--dataset", str(p)]) == 3
    captured = capsys.readouterr()
    assert "v1" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [p]


def test_save_is_byte_deterministic(tmp_path, tiny_dataset):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    save_dataset(tiny_dataset, a)
    save_dataset(tiny_dataset, b)
    save_dataset(load_dataset(a), c)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes() == _v2_file(tiny_dataset)


def _npy(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


def _v2_file(ds, magic=b"PIXELAOA-DATASET 2\n", header=None, Z=None, e_oc=None):
    """A v2 file assembled by hand from its parts."""
    if header is None:
        header = {"layout": ds.layout.to_dict(), "grid": asdict(ds.grid),
                  "metadata": ds.metadata}
    return (magic + json.dumps(header, sort_keys=True).encode() + b"\n"
            + _npy(ds.Z if Z is None else Z) + _npy(ds.e_oc if e_oc is None else e_oc))


def _bad_v2(ds, case):
    if case == "truncated":
        return _v2_file(ds)[:-100]
    if case == "header_dims":
        header = json.loads(_v2_file(ds).split(b"\n")[1])
        header["layout"]["pixel_rows"] += 1
        return _v2_file(ds, header=header)
    if case == "header_grid":
        header = json.loads(_v2_file(ds).split(b"\n")[1])
        header["grid"]["step_deg"] = 0.4
        return _v2_file(ds, header=header)
    if case == "header_metadata":
        header = json.loads(_v2_file(ds).split(b"\n")[1])
        header["metadata"] = [1]
        return _v2_file(ds, header=header)
    if case == "complex64":
        return _v2_file(ds, Z=ds.Z.astype(np.complex64))
    if case == "float64":
        return _v2_file(ds, e_oc=ds.e_oc.real.copy())
    if case == "trailing":
        return _v2_file(ds) + b"\0"
    if case == "magic":
        return _v2_file(ds, magic=b"PIXELAOA-DATASHEET 2\n")
    if case == "version":
        return _v2_file(ds, magic=b"PIXELAOA-DATASET 3\n")
    if case == "short_z":
        return _v2_file(ds, Z=ds.Z[:-1])
    if case == "nan_e_oc":
        e = np.array(ds.e_oc)
        e[1, 2, 3, 4] = complex(np.nan, 0.0)
        return _v2_file(ds, e_oc=e)
    raise AssertionError(case)


@pytest.mark.parametrize("field, value", [("pixel_rows", 2.9), ("pixel_rows", 2.0),
                                          ("pixel_cols", "2"), ("pixel_cols", [2])])
def test_non_integer_layout_count_is_format_error(tmp_path, tiny_dataset, capsys, field, value):
    # a count is a JSON integer: 2.9 is not read as 2 pixel rows
    header = json.loads(_v2_file(tiny_dataset).split(b"\n")[1])
    header["layout"][field] = value
    p = tmp_path / "bad.ds"
    p.write_bytes(_v2_file(tiny_dataset, header=header))
    with pytest.raises(DatasetFormatError, match=field):
        load_dataset(p, strict=False)
    capsys.readouterr()
    assert cli_main(["validate", "--dataset", str(p)]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["frequency_hz", "height_mm", "substrate_side_mm"])
def test_nan_layout_field_is_format_error(tmp_path, tiny_dataset, capsys, field):
    # json reads NaN as a float; the layout rejects it
    header = json.loads(_v2_file(tiny_dataset).split(b"\n")[1])
    header["layout"][field] = float("nan")
    p = tmp_path / "bad.ds"
    p.write_bytes(_v2_file(tiny_dataset, header=header))
    with pytest.raises(DatasetFormatError, match=field):
        load_dataset(p, strict=False)
    capsys.readouterr()
    assert cli_main(["validate", "--dataset", str(p)]) == 3
    assert field in capsys.readouterr().err


def test_header_pixel_side_mm_is_ignored(tmp_path, tiny_dataset):
    # earlier files hold the layout key pixel_side_mm, which no computation read
    header = json.loads(_v2_file(tiny_dataset).split(b"\n")[1])
    plain = tmp_path / "plain.ds"
    plain.write_bytes(_v2_file(tiny_dataset, header=header))
    header["layout"]["pixel_side_mm"] = 12.0
    keyed = tmp_path / "keyed.ds"
    keyed.write_bytes(_v2_file(tiny_dataset, header=header))
    a, b = load_dataset(plain), load_dataset(keyed)
    assert _bits_equal(a.Z, b.Z) and _bits_equal(a.e_oc, b.e_oc)
    assert a.grid == b.grid and a.layout == b.layout


@pytest.mark.parametrize("part, field, edit", [
    ("layout", "height_mm", str), ("layout", "frequency_hz", lambda v: True),
    ("layout", "substrate_side_mm", lambda v: [v]), ("grid", "step_deg", str),
    ("grid", "phi_stop_deg", str)])
def test_non_number_header_field_is_format_error(tmp_path, tiny_dataset, capsys, part, field,
                                                 edit):
    # a length, frequency or grid bound is a JSON number: "12.5" is not read as 12.5
    header = json.loads(_v2_file(tiny_dataset).split(b"\n")[1])
    header[part][field] = edit(header[part][field])
    p = tmp_path / "bad.ds"
    p.write_bytes(_v2_file(tiny_dataset, header=header))
    with pytest.raises(DatasetFormatError, match=field):
        load_dataset(p, strict=False)
    capsys.readouterr()
    assert cli_main(["validate", "--dataset", str(p)]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("case,error,code", [
    ("truncated", DatasetFormatError, 3),
    ("header_dims", DimensionMismatchError, 3),
    ("header_grid", DatasetFormatError, 3),
    ("header_metadata", DatasetFormatError, 3),
    ("complex64", DatasetFormatError, 3),
    ("float64", DatasetFormatError, 3),
    ("trailing", DatasetFormatError, 3),
    ("magic", DatasetFormatError, 3),
    ("version", DatasetFormatError, 3),
    ("short_z", DimensionMismatchError, 3),
    ("nan_e_oc", FinitenessError, 4),
])
def test_bad_v2_file_fails_with_documented_error(tmp_path, tiny_dataset, case, error, code):
    p = tmp_path / "bad.json"
    p.write_bytes(_bad_v2(tiny_dataset, case))
    with pytest.raises(error):
        load_dataset(p)
    if error is FinitenessError:        # a non-strict load leaves the judging to the report
        report = validate_dataset(load_dataset(p, strict=False))
        assert [c.passed for c in report.checks if c.error is FinitenessError] == [False]
    else:
        with pytest.raises(error):
            load_dataset(p, strict=False)
    assert cli_main(["validate", "--dataset", str(p)]) == code


# ---------------------------------------------------------------------------
# UPA patterns
# ---------------------------------------------------------------------------

def test_single_element_upa_equals_element(coarse_grid):
    pats = upa_patterns(1, 1, 0.5, coarse_grid)
    assert pats.n_ports == 1
    assert np.allclose(pats.data[0], 1.0)
    assert np.allclose(pats.data[1], 0.0)


def test_upa_2x2_broadside_ports_identical(coarse_grid):
    # at (90, 0) both array-factor exponents vanish
    pats = upa_patterns(2, 2, 0.5, coarse_grid)
    E = pats.at(90.0, 0.0)
    assert np.allclose(E[0], E[0][0])
    assert E[0][0] == pytest.approx(1.0)


def test_upa_port_phase_ratio_at_90_90(coarse_grid):
    # k*sin(theta)*sin(phi) = pi for port 2 relative to port 1
    pats = upa_patterns(2, 1, 0.5, coarse_grid)
    E = pats.at(90.0, 90.0)
    ratio = E[0][1] / E[0][0]
    assert ratio == pytest.approx(np.exp(1j * np.pi), abs=1e-12)


def test_upa_array_factor_unit_modulus(coarse_grid):
    pats = upa_patterns(3, 2, 0.5, coarse_grid)
    mags = np.abs(pats.data[0])
    assert np.allclose(mags, mags[0])


def test_upa_dual_polarization_doubles_ports(coarse_grid):
    pats = upa_patterns(2, 2, 0.5, coarse_grid, element="iso-dual")
    assert pats.n_ports == 8
    assert np.allclose(np.abs(pats.data[0, :4]), 1.0)
    assert np.allclose(pats.data[1, :4], 0.0)
    assert np.allclose(pats.data[0, 4:], 0.0)
    assert np.allclose(np.abs(pats.data[1, 4:]), 1.0)


def test_upa_mod_mapping_matches_formula(coarse_grid):
    # independent re-evaluation of the array factor for every port
    n_y, n_z, spacing = 3, 2, 0.5
    pats = upa_patterns(n_y, n_z, spacing, coarse_grid)
    k = 2 * np.pi * spacing
    th, ph = np.deg2rad(75.0), np.deg2rad(40.0)
    E = pats.at(75.0, 40.0)
    for n in range(1, n_y * n_z + 1):
        ny = n % n_y or n_y
        nz = int(np.ceil(n / n_y))
        af = np.exp(1j * k * ((ny - 1) * np.sin(th) * np.sin(ph) + (nz - 1) * np.cos(th)))
        assert E[0][n - 1] == pytest.approx(af, abs=1e-12)


@pytest.mark.parametrize("element", ["iso-theta", "iso-dual"])
def test_upa_patterns_bit_equal_to_factor_list_oracle(coarse_grid, element):
    got = upa_patterns(3, 2, 0.45, coarse_grid, element=element).data
    want = upa_patterns_factor_list(3, 2, 0.45, coarse_grid, element=element)
    assert got.shape == want.shape
    # bit equality, signed zeros included
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


def test_upa_patterns_rejects_an_unknown_element(coarse_grid):
    with pytest.raises(ValueError, match="unknown element kind"):
        upa_patterns(2, 2, 0.5, coarse_grid, element="iso-phi")


def test_upa_patterns_peak_memory_near_its_output():
    # the upa workload's map grid: 4x4 ports on 0:180:-90.5:90.5 at 0.5 deg
    tracemalloc.start()
    try:
        pats = upa_patterns(4, 4, 0.5, AngleGrid(0.0, 180.0, -90.5, 90.5, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = pats.data.nbytes
    assert peak <= 1.5 * size, (peak, size)


def test_validate_reports_nan_without_raising(tiny_dataset):
    e = np.array(tiny_dataset.e_oc)
    e[0, 0, 0, 0] = np.nan
    report = validate_dataset(with_arrays(tiny_dataset, e_oc=e))
    assert not report.passed
    assert any("finiteness" in c.name and not c.passed for c in report.checks)
