"""Concrete realization of the scalarized Gram as inner products of vectors.

A positive semi-definite Gram matrix ``gamma`` of size ``(n+1)N`` factors as
``gamma = X* X`` with ``X`` its Cholesky factor in natural order, i.e.
Gram-Schmidt of ``xi_0, xi_1, ...``: column ``k`` opens a new coordinate when
its pivot (its squared residual after the earlier kept columns) exceeds
``rank_tol * gamma[k, k]``, and is dropped into their span otherwise.  The
columns ``xi_a`` of ``X`` live in ``C^d`` (d = kept columns) and reproduce the
Gram in the standard inner product: ``vdot(xi_a, xi_b) = gamma[a, b]``.
``X`` is upper trapezoidal, so the span of the first vectors is a span of
leading coordinates (the block-Jacobi basis of matrix orthogonal polynomials).

Rank-deficient Grams are a first-class case: linearly dependent ``xi_a`` are
expected and everything downstream is tested only through inner products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import herm
from .errors import NotPSD

__all__ = ["HilbertRep", "build_space"]

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class HilbertRep:
    """Coordinate vectors realizing a scalarized Gram.

    ``vectors`` has shape ``(dim, size)``; column ``a`` is ``xi_a``.  It is
    upper trapezoidal: the first nonzero of row ``i`` is the positive pivot
    of the ``i``-th kept column.
    """

    dim: int
    vectors: np.ndarray
    gram: object  # the source ScalarGram
    rank_tol: float


def build_space(gram, rank_tol=DEFAULT_RANK_TOL):
    """Factor a scalarized Gram into coordinate vectors, in natural order.

    With ``c_k = max(gamma[k, k], 1)``, a pivot below ``-rank_tol * c_k``, or
    a dropped column's Schur-complement row with ``|s_kj|^2 > rank_tol c_k c_j``
    (the Cauchy-Schwarz bound its pivot allows), means the Gram is not positive
    semi-definite (unsolvable input reached the construction): :class:`NotPSD`.
    """
    G = herm(np.asarray(gram.gamma, dtype=complex))
    size = G.shape[0]
    scale = np.maximum(G.diagonal().real, 1.0)
    R = np.zeros((size, size), dtype=complex)
    d = 0
    for k in range(size):
        row = G[k, k:] - R[:d, k].conj() @ R[:d, k:]
        pivot = row[0].real
        if pivot < -rank_tol * scale[k]:
            raise NotPSD(
                f"Gram pivot {k} is {pivot:.3e}, below "
                f"-{rank_tol:.1e} * {scale[k]:.3e}"
            )
        if pivot > rank_tol * G[k, k].real:
            R[d, k:] = row / np.sqrt(pivot)
            d += 1
        elif (np.abs(row[1:]) ** 2 > rank_tol * scale[k] * scale[k + 1 :]).any():
            raise NotPSD(
                f"Gram column {k} is dropped (pivot {pivot:.3e}) but its "
                "Schur-complement row is not negligible"
            )
    return HilbertRep(dim=d, vectors=R[:d], gram=gram, rank_tol=rank_tol)
