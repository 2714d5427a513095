"""The non-negative Hermitian shift operator and its defect subspaces.

On the representation space the data prescribe ``A xi_k = xi_{k+N}`` for
``0 <= k < n*N``; the domain is the span of the first ``n*N`` coordinate
vectors, which the natural-order factor of :mod:`gns` makes the first ``q1``
coordinates.  ``A`` is fixed there by the kept columns, and must then also
map the dropped ones: the solution is accepted only when its residual is
negligible on every column, otherwise the truncated data simply do not
determine the operator and :class:`InconsistentTruncation` is raised.

Defect subspaces are computed exactly as the finite-dimensional geometry
dictates: the defect space at ``z`` is the orthogonal complement of
``(A - z) D(A)``, spanned by the projections of the first ``N`` coordinate
vectors onto that complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import orth_cols
from .errors import BadPoint, InconsistentTruncation, OrderTooLow, PropertyViolated

__all__ = [
    "ShiftOperator",
    "DefectData",
    "build_shift",
    "check_nonneg_hermitian",
    "defect_subspace",
]

DEFAULT_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class ShiftOperator:
    """Matrix of the shift on its domain subspace.

    ``domain_basis`` is the leading ``q1`` identity columns; ``matrix`` acts
    as the operator on them and is zero on the other coordinates.
    """

    rep: object
    domain_basis: np.ndarray  # (d, q1) leading identity columns
    matrix: np.ndarray  # (d, d)
    consistency_residual: float
    N: int

    @property
    def dim(self):
        return self.rep.dim

    @property
    def domain_dim(self):
        return self.domain_basis.shape[1]


@dataclass(frozen=True)
class DefectData:
    """Range/defect decomposition at a point z off ``[0, inf)``."""

    z: complex
    range_basis: np.ndarray  # orthonormal basis of (A - z) D(A)
    y_vectors: np.ndarray  # columns xi_k - P xi_k, k < N
    defect_basis: np.ndarray  # orthonormal basis of the defect space
    index: int


def _off_positive_axis(z):
    """``complex(z)``; :class:`BadPoint` when it is not finite or lies on
    ``[0, inf)``, where no resolvent is defined."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BadPoint(f"z = {z} is not finite")
    if z.imag == 0.0 and z.real >= 0.0:
        raise BadPoint(f"z = {z} lies on [0, inf)")
    return z


def build_shift(rep, tol=DEFAULT_CONSISTENCY_TOL):
    """Solve ``A xi_k = xi_{k+N}`` on the domain by one triangular solve.

    The kept columns among the first ``n*N`` are upper triangular on the
    first ``q1`` coordinates; ``A`` there is their images times its inverse.

    Raises
    ------
    OrderTooLow
        The sequence stops at ``S_0`` or ``S_1`` (empty domain, n = 0).
    InconsistentTruncation
        The residual on some domain column exceeds ``tol`` relative to the
        shifted vectors, i.e. the kernel of the domain Gram is not mapped into
        the kernel of the shifted Gram.
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
    if residual > tol:
        raise InconsistentTruncation(
            f"shift relation residual {residual:.3e} exceeds {tol:.1e}; the "
            "degenerate truncated data do not determine the shift operator"
        )
    return ShiftOperator(
        rep=rep,
        domain_basis=np.eye(d, q1, dtype=complex),
        matrix=A,
        consistency_residual=residual,
        N=int(N),
    )


def check_nonneg_hermitian(op, trials=64, seed=0, tol=1e-9):
    """Sample Hermitian symmetry and non-negativity of A on its domain.

    For pseudo-random x, y in D(A) checks ``(Ax, y) = (x, Ay)`` and
    ``(Ax, x) >= -tol * ||x||^2``.  Deterministic given ``seed``.  Returns a
    small report dict; raises :class:`PropertyViolated` with a witness vector
    on failure.
    """
    rng = np.random.default_rng(seed)
    B = op.domain_basis
    q1 = B.shape[1]
    A = op.matrix
    if q1 == 0:
        return {"trials": 0, "max_symmetry_defect": 0.0, "min_rayleigh": 0.0}
    opnorm = max(float(np.linalg.norm(A @ B, ord=2)), 1e-300)
    max_sym = 0.0
    min_ray = np.inf
    for _ in range(int(trials)):
        cx = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
        cy = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
        x = B @ cx
        y = B @ cy
        sym = abs(np.vdot(y, A @ x) - np.vdot(A @ y, x))
        nx = float(np.linalg.norm(x)) ** 2
        ray = float(np.vdot(x, A @ x).real)
        max_sym = max(max_sym, sym / (opnorm * np.linalg.norm(x) * np.linalg.norm(y)))
        min_ray = min(min_ray, ray / nx)
        if sym > tol * opnorm * np.linalg.norm(x) * np.linalg.norm(y):
            raise PropertyViolated(
                f"Hermitian symmetry defect {sym:.3e} on the domain", witness=x
            )
        if ray < -tol * nx:
            raise PropertyViolated(
                f"negative form value {ray:.3e} for ||x||^2 = {nx:.3e}", witness=x
            )
    return {
        "trials": int(trials),
        "max_symmetry_defect": float(max_sym),
        "min_rayleigh": float(min_ray),
    }


def defect_subspace(op, z):
    """Range and defect decomposition of ``(A - z) D(A)`` at ``z``.

    ``z`` must avoid ``[0, inf)``.  Returns a :class:`DefectData` whose
    ``index`` is the dimension of the orthogonal complement of the range,
    spanned by the complement-projections of ``xi_0 .. xi_{N-1}``.
    """
    z = _off_positive_axis(z)
    d = op.dim
    B = op.domain_basis
    rng_basis = orth_cols((op.matrix - z * np.eye(d)) @ B)
    X = op.rep.vectors
    X0 = X[:, : op.N]
    Y = X0 - rng_basis @ (rng_basis.conj().T @ X0)
    # Rank decisions for the y's are made against the scale of the coordinate
    # vectors themselves, not of Y: when the defect is trivial every y is pure
    # roundoff and must not masquerade as a direction.
    scale = float(np.linalg.norm(X, axis=0).max()) if X.size else 0.0
    if Y.size and scale > 0.0:
        kept = Y[:, np.linalg.norm(Y, axis=0) > 1e-8 * scale]
        defect = orth_cols(kept)
    else:
        defect = np.zeros((d, 0), dtype=complex)
    return DefectData(
        z=z,
        range_basis=rng_basis,
        y_vectors=Y,
        defect_basis=defect,
        index=defect.shape[1],
    )
