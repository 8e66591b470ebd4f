"""Closed-form cost/space models: the paper's Tables 1-3."""

from repro.models.extensions import (
    diag3d_cannon_one_port,
    dns_cannon_one_port,
    fox_one_port,
)
from repro.models.table2 import (
    OVERHEAD_MODELS,
    LatticeAxes,
    OverheadModel,
    coefficient_grids,
    communication_overhead,
    overhead_coefficients,
    overhead_grid,
    winner_grids,
)
from repro.models.table3 import SPACE_MODELS, SpaceModel, overall_space, processor_limit

__all__ = [
    "diag3d_cannon_one_port",
    "dns_cannon_one_port",
    "fox_one_port",
    "OVERHEAD_MODELS",
    "OverheadModel",
    "communication_overhead",
    "overhead_coefficients",
    "LatticeAxes",
    "coefficient_grids",
    "overhead_grid",
    "winner_grids",
    "SPACE_MODELS",
    "SpaceModel",
    "overall_space",
    "processor_limit",
]
