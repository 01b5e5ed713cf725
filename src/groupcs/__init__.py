"""Grouped incoherent sampling for compressive sensing.

Core pieces: orthonormal bases and measurement ensembles (`operators`),
group structures and grouped draws (`grouping`), the grouping penalty factor
with certified bounds (`gamma`), l1 recovery with verdicts proved where a
proof exists (`recovery`), sample-count bounds and their Monte-Carlo
validation (`bounds`), and the experiment harness plus CLI (`harness`,
`cli`).
"""

from .bounds import (
    BoundQuery,
    ConcentrationStats,
    bound_gram,
    bound_grouped,
    bound_unstructured,
    validate_cross_row_energy,
    validate_gram_concentration,
)
from .gamma import (
    ENUM_LIMIT_DEFAULT,
    KP_COMPLEX,
    KP_REAL,
    GammaEstimate,
    penalty_gamma,
)
from .grouping import (
    GroupStructure,
    contiguous_1d,
    draw_uniform,
    lines_2d,
    max_manhattan_2d,
    random_groups,
    rect_2d,
    singletons,
    spiral_2d,
    spiral_order,
    strided_1d,
)
from .harness import (
    MinMResult,
    SignalSpec,
    SupportCase,
    SweepConfig,
    SweepRecord,
    default_m_grid,
    image_to_sparse,
    random_coefficients,
    records_from_csv,
    records_to_csv,
    scatter_gamma_vs_m,
    synthetic_image,
)
from .operators import (
    MeasurementEnsemble,
    OrthonormalBasis,
    SupportSet,
    make_basis,
    make_ensemble,
    normalize_rows,
    submatrix,
)
from .pgm import read_pgm, write_pgm
from .recovery import (
    RecoveryResult,
    SolverOptions,
    nre,
    solve_trials,
)

__version__ = "0.1.0"
