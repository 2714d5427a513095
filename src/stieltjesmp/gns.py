"""Concrete realization of the scalarized Gram as inner products of vectors.

A positive semi-definite Gram matrix ``gamma`` of size ``(n+1)N`` factors as
``gamma = X* X`` with ``X`` its Cholesky factor in natural order, i.e.
Gram-Schmidt of ``xi_0, xi_1, ...``: column ``k`` opens a new coordinate when
its pivot (its squared residual after the earlier kept columns) exceeds
``psd_tol * gamma[k, k]``, and is dropped into their span otherwise.  The
columns ``xi_a`` of ``X`` live in ``C^d`` (d = kept columns) and reproduce the
Gram in the standard inner product: ``vdot(xi_a, xi_b) = gamma[a, b]``.
``X`` is upper trapezoidal, so the span of the first vectors is a span of
leading coordinates (the block-Jacobi basis of matrix orthogonal polynomials).

Rank-deficient Grams are a first-class case: linearly dependent ``xi_a`` are
expected and everything downstream is tested only through inner products.
The rule is :func:`natural_factor`; only :func:`hankel.check_solvable` runs
it, and its plain factor is the one :func:`build_space` takes, so a dropped
column is always a ``marginal`` (or worse) verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD

__all__ = ["HilbertRep", "build_space", "natural_factor"]


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


def natural_factor(G, tol):
    """Natural-order factor of the Hermitian ``G`` at relative tolerance
    ``tol``: ``(R, rel, fault)``, with ``R`` the kept rows and ``rel[k]``
    pivot ``k`` over ``c_k = max(G[k, k], 1)``.

    Column ``k`` is kept when its pivot exceeds ``tol * |G[k, k]|``.  ``fault``
    names the first column that shows ``G`` is not positive semi-definite, or
    is ``None``: a pivot below ``-tol * c_k``, or a dropped column's
    Schur-complement row with ``|s_kj|^2 > tol c_k c_j`` (the Cauchy-Schwarz
    bound its pivot allows).  Pivot ``k`` depends only on the leading
    ``(k+1) x (k+1)`` block of ``G``.
    """
    size, diag = G.shape[0], G.diagonal().real
    scale = np.maximum(diag, 1.0)
    c, keep = scale.tolist(), (tol * np.abs(diag)).tolist()  # floats for the loop
    R = np.zeros((size, size), dtype=complex)
    rel, fault, d = np.empty(size), None, 0
    for k in range(size):
        row = G[k, k:] - R[:d, k].conj() @ R[:d, k:]
        pivot = row[0].real
        rel[k] = pivot / c[k]
        if pivot < -tol * c[k]:
            fault = fault or (
                f"Gram pivot {k} is {pivot:.3e}, below -{tol:.1e} * {c[k]:.3e}"
            )
        elif pivot > keep[k]:
            np.divide(row, np.sqrt(pivot), out=R[d, k:])
            d += 1
        elif (np.abs(row[1:]) ** 2 > tol * c[k] * scale[k + 1 :]).any():
            fault = fault or (
                f"Gram column {k} is dropped (pivot {pivot:.3e}) but its "
                "Schur-complement row is not negligible"
            )
    return R[:d], rel, fault


def build_space(gram, factor):
    """Coordinate vectors of a scalarized Gram from its :func:`natural_factor`
    (``SolvabilityReport.plain`` carries both); a fault means the Gram is not
    positive semi-definite (a direct caller's unsolvable input): :class:`NotPSD`."""
    R, _, fault = factor
    if fault:
        raise NotPSD(fault)
    return HilbertRep(dim=R.shape[0], vectors=R, gram=gram)
