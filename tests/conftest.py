import json

import numpy as np
import pytest

from pixelaoa import AngleGrid, PortLayout, generate_synthetic_dataset


@pytest.fixture(scope="session")
def coarse_grid():
    """Full sphere at 5 deg: fast enough for unit tests, wraps in phi."""
    return AngleGrid(step_deg=5.0)


@pytest.fixture(scope="session")
def tiny_dataset(coarse_grid):
    """2x2 pixels (M=4, Q=4) on the coarse grid."""
    return generate_synthetic_dataset(PortLayout(pixel_rows=2, pixel_cols=2), coarse_grid)


@pytest.fixture(scope="session")
def small_dataset(coarse_grid):
    """3x3 pixels (M=9, Q=12) on the coarse grid."""
    return generate_synthetic_dataset(PortLayout(pixel_rows=3, pixel_cols=3), coarse_grid)


def random_symmetric_z(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symmetric impedance with safely positive-definite real part."""
    A = rng.normal(size=(n, n))
    R = A @ A.T + n * np.eye(n)
    X = rng.normal(size=(n, n)) * 5.0
    X = 0.5 * (X + X.T)
    return R + 1j * X


def save_dataset_v1(ds, path):
    """Write the v1 dataset file (one JSON document of [re, im] pairs).

    The writer of format v1, kept here so that the v1 reader stays covered
    now that save_dataset writes v2 only.
    """
    def pairs(a):
        flat = np.asarray(a, dtype=np.complex128).reshape(-1)
        return [[float(v.real), float(v.imag)] for v in flat]

    doc = {
        "version": 1,
        "layout": ds.layout.to_dict(),
        "grid": {
            "theta_start_deg": ds.grid.theta_start_deg,
            "theta_stop_deg": ds.grid.theta_stop_deg,
            "phi_start_deg": ds.grid.phi_start_deg,
            "phi_stop_deg": ds.grid.phi_stop_deg,
            "step_deg": ds.grid.step_deg,
        },
        "metadata": ds.metadata,
        "Z": pairs(ds.Z),
        "E_oc": pairs(ds.e_oc),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
