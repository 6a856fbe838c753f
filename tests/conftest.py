import numpy as np
import pytest

from pixelaoa import AngleGrid, PortLayout, generate_synthetic_dataset
from pixelaoa.emdata import EMDataset


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


def with_arrays(ds, Z=None, e_oc=None):
    """ds with Z and/or e_oc replaced; EMDataset takes asymmetric and
    non-finite arrays, so this builds the tampered datasets of the tests."""
    return EMDataset(layout=ds.layout, grid=ds.grid,
                     Z=ds.Z if Z is None else Z,
                     e_oc=ds.e_oc if e_oc is None else e_oc,
                     metadata=dict(ds.metadata))
