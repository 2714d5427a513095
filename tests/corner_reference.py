"""Independent reference for the extremal extensions, built from
``shift.matrix`` alone.

One complete QR factorization ``(A + E) B = Q R`` of the domain images splits
the space: ``Q[:, :q1]`` is an orthonormal basis ``Q1`` of ``D(T)``,
``Q[:, q1:]`` an (arbitrary) orthonormal basis of ``N_{-1}``, and
``T Q1 = (E - A) B R^{-1}``.  ``E + t_mu`` and ``E - t_M`` are the minimal
non-negative extensions of ``E + T`` and ``E - T`` from ``D(T)`` (Krein 1947;
Ando-Nishio 1970), read off Gram factors: with ``T11 = Q1* T Q1``,

    E + t_mu = W W*,  W = (Q1 + T Q1) L^{-*},  L L* = I + T11,
    E - t_M  = Z Z*,  Z = (Q1 - T Q1) Y mu^{-1/2}

over the eigenpairs ``(mu, Y)`` of ``I - T11`` above ``1e-12`` times the
largest.  The gap is formed on the defect space only, ``t_M = t_mu + J G J*``
with ``G = 2I - (J* W)(J* W)* - (J* Z)(J* Z)*``.
"""

import numpy as np

from oracles import domain_basis

#: gap eigenvalues up to this fraction of the largest one span the gap kernel
KER_TOL = 1e-9


def herm(M):
    return 0.5 * (M + M.conj().T)


def cayley_reference(shift):
    """``(Q1, TQ, J)``: orthonormal bases of ``D(T)`` and ``N_{-1}`` and the
    images ``T Q1``, from one complete QR."""
    B = domain_basis(shift)
    q1 = B.shape[1]
    AB = shift.matrix @ B
    Q, R = np.linalg.qr(AB + B, mode="complete")
    return Q[:, :q1], np.linalg.solve(R[:q1].T, (B - AB).T).T, Q[:, q1:]


def reference_corners(shift):
    """``(t_mu, t_M, J)`` from the Gram factors of ``E +- T``."""
    Q1, TQ, J = cayley_reference(shift)
    d = shift.dim
    L = np.linalg.cholesky(herm(Q1.conj().T @ (Q1 + TQ)))
    W = np.linalg.solve(L, (Q1 + TQ).conj().T).conj().T
    mu, Y = np.linalg.eigh(herm(Q1.conj().T @ (Q1 - TQ)))
    keep = mu > 1e-12 * mu.max(initial=0.0)
    Z = (Q1 - TQ) @ (Y[:, keep] / np.sqrt(mu[keep]))
    JW = J.conj().T @ W
    JZ = J.conj().T @ Z
    G = herm(2.0 * np.eye(J.shape[1]) - JW @ JW.conj().T - JZ @ JZ.conj().T)
    t_mu = herm(W @ W.conj().T) - np.eye(d)
    return t_mu, t_mu + herm(J @ G @ J.conj().T), J


def gap_kernel_dim(t_mu, t_M, J):
    """Gap eigenvalues at most ``KER_TOL`` times the largest, on ``J``."""
    w = np.linalg.eigvalsh(herm(J.conj().T @ (t_M - t_mu) @ J))
    return int((w <= KER_TOL * max(w.max(initial=0.0), 1e-300)).sum())


def assemble_completion(shift, X):
    """Extension of ``T`` with corner ``X`` on the defect space, built block
    by block from the reference bases."""
    Q1, TQ, J = cayley_reference(shift)
    T11 = Q1.conj().T @ TQ
    T21 = J.conj().T @ TQ
    B = np.hstack([Q1, J])
    blk = np.block([[T11, T21.conj().T], [T21, X]])
    return herm(B @ blk @ B.conj().T)
