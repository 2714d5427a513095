"""Small shared linear-algebra helpers (Hermitian-safe), the shared rank
cutoff, and the check of a resolvent point."""

from __future__ import annotations

import math

import numpy as np

from .errors import BadPoint

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


def _off_positive_axis(z):
    """``complex(z)``; :class:`BadPoint` when it is not finite or lies on
    ``[0, inf)``, where no resolvent is defined."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BadPoint(f"z = {z} is not finite")
    if z.imag == 0.0 and z.real >= 0.0:
        raise BadPoint(f"z = {z} lies on [0, inf)")
    return z
