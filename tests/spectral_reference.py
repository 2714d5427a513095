"""Independent reference for the spectral weights: one eigenvector overlap
and one Gram product per cluster, canonicalized by ``solution_measure``.

Clusters are grown eigenvalue by eigenvalue while each stays within
``CLUSTER_TOL`` of the cluster's first one; a cluster's weight is
``G* G`` with ``G = V_c* Xi0`` over its eigenvectors, and a cluster whose
mean eigenvalue is within ``INFINITY_TOL`` of ``-1`` is mass at infinity.
"""

import numpy as np

from stieltjesmp.extensions import CLUSTER_TOL, INFINITY_TOL
from stieltjesmp.solutions import solution_measure


def herm(M):
    return 0.5 * (M + M.conj().T)


def spectral_reference(t, rep, N):
    """Solution measure of the extension ``t``, cluster by cluster."""
    Xi0 = rep.vectors[:, :N]
    pad = t.shape[0] - Xi0.shape[0]
    if pad:
        Xi0 = np.vstack([Xi0, np.zeros((pad, N), dtype=Xi0.dtype)])
    w, V = np.linalg.eigh(herm(np.asarray(t, dtype=complex)))
    w = np.clip(w, -1.0, 1.0)
    atoms = []
    inf_weight = None
    start = 0
    for i in range(1, len(w) + 1):
        if i < len(w) and w[i] - w[start] <= CLUSTER_TOL:
            continue
        ti = float(np.mean(w[start:i]))
        G = V[:, start:i].conj().T @ Xi0
        start = i
        W = herm(G.conj().T @ G)
        if 1.0 + ti <= INFINITY_TOL:
            inf_weight = W if inf_weight is None else herm(inf_weight + W)
            continue
        lam = (1.0 - ti) / (1.0 + ti)
        atoms.append((max(lam, 0.0), W))
    return solution_measure(N, atoms, mass_at_infinity=inf_weight)
