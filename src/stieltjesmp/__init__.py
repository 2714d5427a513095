"""Truncated matrix Stieltjes moment problem, end to end.

Given Hermitian matrix moments ``S_0 .. S_m``, this package decides
solvability through block Hankel positivity, realizes the data as a
non-negative Hermitian shift operator on a finite-dimensional space, decides
determinacy by the dimension of its defect space, and parameterizes the full family of solutions through the resolvent formula of
the boundary machinery, with every output verified by moment round trips.
"""

from .errors import (
    BadPoint,
    CompletionInfeasible,
    InconsistentTruncation,
    MomentProblemError,
    NotHermitian,
    NotIndeterminate,
    NotPSD,
    NotStieltjesClass,
    OrderTooHigh,
    OrderTooLow,
    ParameterDegenerate,
    PoleHit,
    PropertyViolated,
    SchemaError,
    WeylLimitDivergent,
)
from .extensions import (
    ContractionPicture,
    DeterminacyVerdict,
    determinacy,
    extremal_extensions,
    resolvent_from_contraction,
    spectral_solution,
)
from .gns import HilbertRep, build_space
from .hankel import (
    MomentSequence,
    ScalarGram,
    SolvabilityReport,
    build_gamma,
    check_solvable,
    load_moments,
    moment_sequence,
    scalarize,
)
from .krein import (
    GammaWeyl,
    TauParameter,
    build_gamma_weyl,
    check_stieltjes_class,
    constant_tau_of_extension,
    exit_space_extension,
    extension_of_constant_tau,
    krein_resolvent,
    make_tau,
    solution_transform,
)
from .pipeline import Analysis, Tolerances, analyze, solve_tau_grid, solve_with_tau
from .shiftop import ShiftOperator, build_shift
from .solutions import (
    SolutionMeasure,
    moments_of_measure,
    random_discrete_measure,
    solution_measure,
    transform_of_measure,
    verify_moments,
)

__version__ = "0.1.0"
