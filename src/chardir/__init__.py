"""Characteristic-direction analysis of two-class gene expression data.

The package identifies differentially expressed genes geometrically: a
unit vector normal to a linear classification boundary between the two
sample classes apportions the expression difference across genes through
its squared components. Alongside the two estimators (regression-based
and permutation-based) it ships the Welch/BH baseline, hypergeometric and
principal-angle enrichment, projection plot data, and a synthetic-data
benchmark with known ground truth.
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread: at chardir's matrix shapes helper threads only burn CPU,
# and they make last bits of a product depend on the machine's core count.
# Only possible before numpy loads; a thread count the user set is kept.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(_THREAD_VARIABLES, "1"))

from .data import (
    ExpressionDataError,
    ExpressionMatrix,
    GeneSet,
    GeneSetLibrary,
    TwoClassDesign,
    align_design,
    parse_design_tsv,
    parse_expression_tsv,
    parse_gmt,
)
from .direction import (
    CharacteristicDirection,
    NoDifferentialSignalError,
    SignificantGeneCall,
    call_significant,
    lr1_direction,
    np1_direction,
)
from .enrichment import (
    AngleEnrichmentResult,
    EnrichmentResult,
    angle_enrich,
    angle_null_pvalue,
    hypergeom_enrich,
    overlap_counts,
    sliding_window_profile,
)
from .linalg import ZeroVarianceError, random_rotation
from .projection import density_estimate, project_hierarchy
from .simulate import (
    RecoveryScore,
    SimulationOutcome,
    SyntheticSpec,
    benchmark_sweep_roc,
    generate,
    score_recovery,
)
from .welch import WelchScreen, bh_fdr, ttest_screen, welch_arrays

__all__ = [
    "__version__",
    "ExpressionDataError",
    "ExpressionMatrix",
    "GeneSet",
    "GeneSetLibrary",
    "TwoClassDesign",
    "align_design",
    "parse_design_tsv",
    "parse_expression_tsv",
    "parse_gmt",
    "CharacteristicDirection",
    "NoDifferentialSignalError",
    "SignificantGeneCall",
    "call_significant",
    "lr1_direction",
    "np1_direction",
    "AngleEnrichmentResult",
    "EnrichmentResult",
    "angle_enrich",
    "angle_null_pvalue",
    "hypergeom_enrich",
    "overlap_counts",
    "sliding_window_profile",
    "ZeroVarianceError",
    "random_rotation",
    "density_estimate",
    "project_hierarchy",
    "RecoveryScore",
    "SimulationOutcome",
    "SyntheticSpec",
    "benchmark_sweep_roc",
    "generate",
    "score_recovery",
    "WelchScreen",
    "bh_fdr",
    "ttest_screen",
    "welch_arrays",
]
