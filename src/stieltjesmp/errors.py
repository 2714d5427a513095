"""Exception hierarchy for the moment-problem pipeline.

Every error raised by this package derives from :class:`MomentProblemError`,
so callers can catch one base class at pipeline boundaries.  The boundary
data are the contraction picture, well formed for every problem (``q = 0`` on
a determinate one), and its Weyl limit ``M(0) = 2 G^{-1}`` is always finite,
so no error is raised by the boundary data themselves.
"""


class MomentProblemError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(MomentProblemError):
    """A structured document (JSON input, tau description) is malformed."""


class NotHermitian(MomentProblemError):
    """An input matrix deviates from Hermitian symmetry beyond tolerance."""


class OrderTooHigh(MomentProblemError):
    """A block Hankel matrix of the requested order needs moments past the data."""


class OrderTooLow(MomentProblemError):
    """The moment sequence is too short to determine the shift operator."""


class NotPSD(MomentProblemError):
    """A Gram matrix that must be positive semi-definite is not."""


class InconsistentTruncation(MomentProblemError):
    """The kernel of the truncated Gram is not mapped into the kernel of its
    shift, so the data do not determine a well-defined shift operator."""


class BadPoint(MomentProblemError):
    """An evaluation point z lies on [0, inf) where resolvents are undefined."""


class PropertyViolated(MomentProblemError):
    """A verified operator property (Hermitian symmetry, non-negativity,
    contractivity) fails; carries a witness vector when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CompletionInfeasible(MomentProblemError):
    """No solution: :func:`pipeline.analyze` refuses ``"not solvable"`` data,
    and :func:`extensions.extremal_extensions` operator data whose
    contractive-completion range condition fails beyond tolerance."""


class NotIndeterminate(MomentProblemError):
    """The analysis of a determinate problem carries no boundary data to
    parametrize solutions by: :meth:`pipeline.Analysis.require_gamma_weyl`."""


class NotStieltjesClass(MomentProblemError):
    """A parameter is not Stieltjes class: ``tau(0)`` has a positive eigenvalue
    or a residue sits on the negative axis (``worst_eig``: the signed margin)."""

    def __init__(self, message, worst_eig=None):
        super().__init__(message)
        self.worst_eig = worst_eig


class ParameterDegenerate(MomentProblemError):
    """The parameter block of Krein's formula is numerically singular."""


class PoleHit(MomentProblemError):
    """A transform was evaluated at (or too close to) an atom of the measure."""

