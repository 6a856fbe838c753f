"""pixelaoa: reconfigurable pixel-antenna angle-of-arrival sensing toolkit.

Models a pixel antenna with switchable pixel links and selectable feed
ports as a loaded multiport network, evaluates Cramer-Rao lower bounds for
2-D AoA estimation from its radiation patterns, optimizes geometries per
sensing area into a codebook, and validates the bounds with a Monte-Carlo
maximum-likelihood estimator.  A closed-form uniform planar array serves
as the fixed-geometry baseline.
"""

__version__ = "0.1.0"

from .grid import AngleGrid
from .emdata import (
    DipoleModelParams,
    EMDataset,
    PatternSet,
    PortLayout,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    upa_patterns,
    validate_dataset,
)
from .crlb import (
    CRLBMap,
    CRLBResult,
    SensingArea,
    crlb_map,
    crlb_matrix,
    projection_matrix,
    upa_crlb_closed_form,
    upa_crlb_closed_form_map,
)
from .network import (
    ActiveNetwork,
    FeedNetworkConfig,
    GeometryConfig,
    overall_patterns,
)

__all__ = [
    "AngleGrid",
    "DipoleModelParams",
    "EMDataset",
    "PatternSet",
    "PortLayout",
    "generate_synthetic_dataset",
    "load_dataset",
    "save_dataset",
    "upa_patterns",
    "validate_dataset",
    "CRLBMap",
    "CRLBResult",
    "SensingArea",
    "crlb_map",
    "crlb_matrix",
    "projection_matrix",
    "upa_crlb_closed_form",
    "upa_crlb_closed_form_map",
    "ActiveNetwork",
    "FeedNetworkConfig",
    "GeometryConfig",
    "overall_patterns",
]
