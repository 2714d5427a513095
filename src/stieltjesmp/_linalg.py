"""Small shared linear-algebra helpers (Hermitian-safe) and the shared rank
cutoff."""

from __future__ import annotations

import numpy as np

# Relative cutoff of every rank decision and pseudo-inverse after the Gram
# factor: the rank of the ideal subspace of a mixed parameter, the ranks of
# pole residues, and the eigenvalues of ``A11`` that the Krein corner inverts
# (a signed cutoff).
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
