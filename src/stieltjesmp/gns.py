"""Concrete realization of the scalarized Gram as inner products of vectors.

A positive semi-definite Gram matrix ``gamma`` of size ``(n+1)N`` factors as
``gamma = X* X`` with ``X = Lambda_kept^{1/2} U_kept*`` from the truncated
eigendecomposition.  The columns ``xi_a`` of ``X`` live in ``C^d`` (d = rank)
and reproduce the Gram in the standard inner product:
``vdot(xi_a, xi_b) = gamma[a, b]``.

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

    ``vectors`` has shape ``(dim, size)``; column ``a`` is ``xi_a``.
    """

    dim: int
    vectors: np.ndarray
    gram: object  # the source ScalarGram
    rank_tol: float

    def vector(self, a):
        return self.vectors[:, a]

    def reproduced_gram(self):
        return self.vectors.conj().T @ self.vectors


def build_space(gram, rank_tol=DEFAULT_RANK_TOL):
    """Factor a scalarized Gram into coordinate vectors.

    Eigenvalues above ``rank_tol * lambda_max`` are kept; eigenvalues below
    ``-rank_tol * max(lambda_max, 1)`` mean the Gram is not positive
    semi-definite (unsolvable input reached the construction) and raise
    :class:`NotPSD`.
    """
    G = herm(np.asarray(gram.gamma, dtype=complex))
    w, U = np.linalg.eigh(G)
    lam_max = float(w.max()) if w.size else 0.0
    if w.size and float(w.min()) < -rank_tol * max(lam_max, 1.0):
        raise NotPSD(
            f"Gram matrix has eigenvalue {w.min():.3e} below "
            f"-{rank_tol:.1e} * {max(lam_max, 1.0):.3e}"
        )
    keep = w > rank_tol * lam_max if lam_max > 0.0 else np.zeros_like(w, dtype=bool)
    X = (np.sqrt(w[keep])[:, None]) * U[:, keep].conj().T
    return HilbertRep(dim=int(keep.sum()), vectors=X, gram=gram, rank_tol=rank_tol)

