"""Independent reference for the resolvent formula, one point at a time.

Every point recomputes what the library forms once: the eigen-coordinates
``V* Xi0`` of the data vectors, the diagonals ``r = (1 + w)/c`` and
``g = 2/c`` with ``c = 1 - w - z (1 + w)``, the Weyl function ``M(z)``, the
finite-part inclusion of a mixed parameter (from its raw ideal vectors), and the
condition number of the parameter block by ``np.linalg.cond`` before an
explicit inverse.  The class kernel is assembled block by block.
"""

import numpy as np

from stieltjesmp.errors import BadPoint, ParameterDegenerate, SchemaError
from stieltjesmp.krein import CONDITION_LIMIT


def herm(M):
    return 0.5 * (M + M.conj().T)


def inclusion(tau, q, ideal=None):
    """Isometry of the finite-part subspace of ``tau`` into ``C^q``.

    A mixed parameter's complement is built here from its raw
    ``ideal_subspace`` vectors (the rows of ``ideal``) by a complete QR, not
    read off the parameter.  These are not the parameter's own coordinates,
    so its finite part must be scalar (``tau0`` and every ``W`` a multiple of
    the identity), which no change of coordinates alters.
    """
    if tau.is_ideal:
        return np.zeros((q, 0), dtype=complex)
    if len(tau.finite_basis) != q:
        raise SchemaError(f"parameter lives on C^{len(tau.finite_basis)}, the defect space is C^{q}")
    if tau.finite_dim == q:
        return np.eye(q, dtype=complex)
    if ideal is None:
        raise ValueError("a mixed parameter needs its ideal_subspace vectors")
    for M in (tau.tau0, *(W for _, W in tau.poles)):
        if not np.array_equal(M, M[0, 0] * np.eye(len(M))):
            raise ValueError("the finite part of a mixed parameter must be scalar")
    ideal = np.atleast_2d(ideal)
    Q, _ = np.linalg.qr(ideal.T, mode="complete")
    return Q[:, len(ideal) :]


def compressed_resolvent(gw, tau, z, P, ideal=None):
    """``P* (V* R(tau, z) V) P`` at one point."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise BadPoint(f"z = {z} lies on [0, inf)")
    c = 1.0 - gw.w - z * (1.0 + gw.w)
    r, g = (1.0 + gw.w) / c, 2.0 / c
    Ph = P.conj().T
    R = Ph @ (r[:, None] * P)
    if tau.is_ideal:
        return R
    inc = inclusion(tau, gw.q, ideal)
    M = (z + 1.0) * (gw.ov.conj().T @ (g[:, None] * gw.ov))
    K1 = tau.value(z) + inc.conj().T @ (M - gw.M0) @ inc
    if np.linalg.cond(K1) > CONDITION_LIMIT:
        raise ParameterDegenerate(f"parameter block at z = {z} is ill-conditioned")
    Kinv = inc @ np.linalg.inv(K1) @ inc.conj().T
    return R - (Ph @ (g[:, None] * gw.ov)) @ Kinv @ ((gw.ov.conj().T * g) @ P)


def krein_resolvent(gw, tau, z, ideal=None):
    return compressed_resolvent(gw, tau, z, gw.V.conj().T, ideal)


def solution_transform(gw, tau, rep, N, z, ideal=None):
    return compressed_resolvent(gw, tau, z, gw.V.conj().T @ rep.vectors[:, :N], ideal)


def kernel(fun, pts, dim):
    """Sampled Nevanlinna kernel of ``fun``, one ``dim x dim`` block at a time:
    ``K[(j,b),(i,a)] = (G(z_i) - G(z_j)*)[b,a] / (z_i - conj(z_j))``."""
    vals = [np.atleast_2d(fun(z)) for z in pts]
    m = len(pts) * dim
    K = np.zeros((m, m), dtype=complex)
    for j in range(len(pts)):
        for i in range(len(pts)):
            blk = (vals[i] - vals[j].conj().T) / (pts[i] - np.conj(pts[j]))
            K[j * dim : (j + 1) * dim, i * dim : (i + 1) * dim] = blk
    return herm(K)
