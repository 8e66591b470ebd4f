"""The paper's Section 5 analysis: region maps and claim checks."""

from repro.analysis.regions import (
    FIGURE_ALGORITHMS,
    RegionMap,
    best_algorithm,
    candidates,
    region_map,
)
from repro.analysis.figures import (
    PANELS,
    figure13,
    figure14,
    render_ascii,
)
from repro.analysis.chaos import (
    STACKS,
    format_report,
    minimize_atoms,
    run_campaign,
    sample_atoms,
)
from repro.analysis.cache import (
    ResultCache,
    cached_coefficients,
    cached_figure,
    cached_region_map,
    engine_fingerprint,
)
from repro.analysis.measure import (
    extract_coefficients,
    measure_comm_time,
    measured_vs_model,
)
from repro.analysis.scalability import (
    efficiency,
    isoefficiency_curve,
    isoefficiency_n,
)
from repro.analysis.sweep import crossover, sweep

__all__ = [
    "FIGURE_ALGORITHMS",
    "RegionMap",
    "best_algorithm",
    "candidates",
    "region_map",
    "PANELS",
    "figure13",
    "figure14",
    "render_ascii",
    "ResultCache",
    "cached_coefficients",
    "cached_figure",
    "cached_region_map",
    "engine_fingerprint",
    "extract_coefficients",
    "measure_comm_time",
    "measured_vs_model",
    "efficiency",
    "isoefficiency_curve",
    "isoefficiency_n",
    "crossover",
    "sweep",
    "STACKS",
    "sample_atoms",
    "run_campaign",
    "minimize_atoms",
    "format_report",
]
