"""Small shared linear-algebra helpers (Hermitian-safe, rank-revealing)."""

from __future__ import annotations

import numpy as np

# Relative cutoff of every rank decision and pseudo-inverse after the Gram
# factor: orthonormal bases (``orth_cols``), the ranks of pole residues, and
# the eigenvalues of ``A11`` that the Krein corner inverts (a signed cutoff).
PINV_RCOND = 1e-12


def herm(M):
    """Hermitian part (M + M*)/2; cheap guard against roundoff drift."""
    return 0.5 * (M + M.conj().T)


def asymmetry(M):
    """Largest entrywise deviation of M from its Hermitian part."""
    return float(np.abs(M - M.conj().T).max()) if M.size else 0.0


def min_eigh(M):
    """Smallest eigenvalue of a Hermitian matrix (0.0 for empty)."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(herm(M)).min())


def orth_cols(A, rtol=PINV_RCOND):
    """Orthonormal basis of the column span of A, rank-revealed by SVD.

    Returns a (d, r) matrix with orthonormal columns; r is the numerical
    rank at relative tolerance ``rtol``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.size == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    r = int(np.sum(s > rtol * s[0]))
    return U[:, :r]


def complement(basis, dim):
    """Orthonormal basis of the orthogonal complement of span(basis) in C^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    A = basis.conj().T
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(s.dtype).eps * s.max()))
    return vh[rank:].conj().T


def random_unitary(rng, dim):
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
