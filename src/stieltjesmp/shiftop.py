"""The non-negative Hermitian shift operator.

On the representation space the data prescribe ``A xi_k = xi_{k+N}`` for
``0 <= k < n*N``; the domain is the span of the first ``n*N`` coordinate
vectors, which the natural-order factor of :mod:`gns` makes the first ``q1``
coordinates.  ``A`` is fixed there by the kept columns, and must then also
map the dropped ones: the solution is accepted only when its residual is
at most ``CONSISTENCY_TOL`` on every column, otherwise the truncated data
do not determine the operator and :class:`InconsistentTruncation` is raised.

The deficiency index is ``q = d - q1``, the dimension of the coordinates
outside the domain; :mod:`extensions` reads the defect space at ``-1`` off
the blocks of ``A``.  Non-negativity of ``A`` is the spectrum of its leading
block ``A11``, which :func:`extensions.extremal_extensions` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPoint, InconsistentTruncation, OrderTooLow

__all__ = ["ShiftOperator", "build_shift"]

CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class ShiftOperator:
    """Matrix of the shift on its domain subspace.

    The domain is spanned by the first ``domain_dim`` (``q1``) coordinate
    vectors; ``matrix`` acts as the operator on them and is zero on the other
    coordinates.
    """

    rep: object
    domain_dim: int
    matrix: np.ndarray  # (d, d)
    consistency_residual: float
    N: int

    @property
    def dim(self):
        return self.rep.dim


def _off_positive_axis(z):
    """``complex(z)``; :class:`BadPoint` when it is not finite or lies on
    ``[0, inf)``, where no resolvent is defined."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BadPoint(f"z = {z} is not finite")
    if z.imag == 0.0 and z.real >= 0.0:
        raise BadPoint(f"z = {z} lies on [0, inf)")
    return z


def build_shift(rep):
    """Solve ``A xi_k = xi_{k+N}`` on the domain by one triangular solve.

    The kept columns among the first ``n*N`` are upper triangular on the
    first ``q1`` coordinates; ``A`` there is their images times its inverse.

    Raises
    ------
    OrderTooLow
        The sequence stops at ``S_0`` or ``S_1`` (empty domain, n = 0).
    InconsistentTruncation
        The residual on some domain column exceeds ``CONSISTENCY_TOL``
        relative to the shifted vectors, i.e. the kernel of the domain Gram
        is not mapped into the kernel of the shifted Gram.
    """
    N = rep.gram.N
    n = rep.gram.n
    if n < 1:
        raise OrderTooLow("need moments through S_2 to define the shift")
    X = rep.vectors
    d = rep.dim
    dom = X[:, : n * N]
    img = X[:, N:]
    pivots = (X != 0).argmax(axis=1)
    q1 = int(np.count_nonzero(pivots < n * N))
    A = np.zeros((d, d), dtype=complex)
    tri = X[:q1, pivots[:q1]]
    A[:, :q1] = np.linalg.solve(tri.T, img[:, pivots[:q1]].T).T
    target = np.linalg.norm(img, axis=0)
    achieved = np.linalg.norm(A @ dom - img, axis=0)
    top = float(target.max()) if target.size else 0.0
    residual = float(achieved.max()) / top if top > 0.0 else 0.0
    if residual > CONSISTENCY_TOL:
        raise InconsistentTruncation(
            f"shift relation residual {residual:.3e} exceeds {CONSISTENCY_TOL:.1e}; the "
            "degenerate truncated data do not determine the shift operator"
        )
    return ShiftOperator(
        rep=rep,
        domain_dim=q1,
        matrix=A,
        consistency_residual=residual,
        N=int(N),
    )
