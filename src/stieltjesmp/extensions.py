"""Cayley-transform calculus for the non-negative shift operator.

The shift ``A`` is traded for the Hermitian contraction ``T`` with
``D(T) = (A + E) D(A)`` and ``T (A + E) f = (E - A) f``.  Self-adjoint
contractive extensions of ``T`` in the representation space correspond
one-to-one with non-negative self-adjoint extensions of ``A``; they form the
operator interval ``[t_mu, t_M]`` between the Friedrichs and Krein corners.
``E + t_mu`` and ``E - t_M`` are the minimal non-negative extensions of
``E + T`` and ``E - T`` from ``D(T)`` (Krein 1947; Ando-Nishio 1970), each a
Gram matrix on ``D(T)``: with ``Q1`` an orthonormal basis of ``D(T)`` and
``T11 = Q1* T Q1``,

    E + t_mu = (Q1 + T Q1) (I + T11)^{-1} (Q1 + T Q1)*,
    E - t_M  = (Q1 - T Q1) (I - T11)^+  (Q1 - T Q1)*,

read off a Cholesky factor of ``I + T11`` (positive definite for any
contraction) and the positive part of ``I - T11``.  The splitting into
``D(T)`` and the defect space ``N_{-1}`` is read off one complete QR
factorization of ``(A + E)`` on the coordinate domain of :mod:`shiftop`.  The
interval is validated against a brute-force feasibility oracle in the test
suite.

Both corners agree with ``T`` on ``D(T)``, so the interval is
``t_mu + J [0, G] J*`` (``J`` the defect basis) for the ``q x q`` gap
``G = J* (t_M - t_mu) J``.  Determinacy, the gap norm and the gap kernel are
read off one ``eigh`` of ``G`` (:func:`_gap_kernel`), never of a ``d x d``
matrix.

The dense reference resolvent is computed from the contraction itself:
``R_z = (E + t) ((1 - z) E - (1 + z) t)^{-1}``.  An eigenvalue ``-1`` of ``t``
(a point mass at infinity of the extension, routine for the Friedrichs corner
of a truncated problem) then contributes nothing, with no singular inversion.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from ._linalg import PINV_RCOND, herm, random_unitary
from .errors import BadPoint, CompletionInfeasible, PropertyViolated
from .shiftop import _off_positive_axis
from .solutions import solution_measure

__all__ = [
    "ContractionPicture",
    "DeterminacyVerdict",
    "cayley",
    "extremal_extensions",
    "sample_sc_extensions",
    "determinacy",
    "extend_ext",
    "resolvent_from_contraction",
    "transform_from_contraction",
    "spectral_solution",
]

#: eigenvalues of a contraction within this distance of -1 are treated as the
#: point at infinity of the inverse Cayley transform
INFINITY_TOL = 1e-12

#: contractivity slack allowed to an extremal completion
FEAS_TOL = 1e-8
#: gap eigenvalues up to this fraction of the largest one span the gap kernel
KER_TOL = 1e-9
#: determinate when the gap norm is at most ``1e-9 ||t_M|| + 1e-12``, where
#: ``||t_M|| = 1`` for any non-trivial defect: the Krein corner makes
#: ``E - t_M`` singular
DET_TOL = 1e-9 + 1e-12
#: eigenvalues this close form one atom; an atom whose moment importance is
#: below ``WEIGHT_RTOL`` times the total is dropped
CLUSTER_TOL = 1e-9
WEIGHT_RTOL = 1e-12


@dataclass(frozen=True)
class ContractionPicture:
    """The contraction ``T`` with (optionally) its extremal extensions.

    ``t_on_dom`` holds the ambient images ``T Q1`` of the orthonormal columns
    ``Q1`` of ``dom_basis``, which is all of ``T``.  :func:`extremal_extensions`
    fills in the corners ``t_mu``/``t_M`` and their gap ``C = t_M - t_mu``,
    which is supported on the defect space.
    """

    dim: int
    dom_basis: np.ndarray  # (d, q1) orthonormal basis of D(T)
    defect_basis: np.ndarray  # (d, q) orthonormal basis of N_{-1}
    t_on_dom: np.ndarray  # (d, q1)
    t_mu: np.ndarray | None = None
    t_M: np.ndarray | None = None
    C: np.ndarray | None = None

    @property
    def dom_dim(self):
        return self.dom_basis.shape[1]

    @property
    def defect_dim(self):
        return self.defect_basis.shape[1]

    @property
    def has_extremals(self):
        return self.t_mu is not None


@dataclass(frozen=True)
class DeterminacyVerdict:
    upsilon_dim: int
    completely_indeterminate: bool
    determinate: bool
    gap_norm: float
    defect_dim: int

    def to_dict(self):
        return asdict(self)


def cayley(op):
    """Contraction picture of a shift operator: ``T (A+E) f = (E-A) f``.

    One complete QR factorization ``(A + E) B = Q R`` of the domain images
    splits the space: ``Q[:, :q1]`` is an orthonormal basis of ``D(T)``,
    ``Q[:, q1:]`` one of ``N_{-1}``, and ``T Q[:, :q1] = (E - A) B R^{-1}``.
    """
    d = op.dim
    B = op.domain_basis
    q1 = B.shape[1]
    AB = op.matrix @ B
    Q, R = np.linalg.qr(AB + B, mode="complete")
    diag = np.abs(np.diag(R))
    if q1 and diag.min() <= PINV_RCOND * diag.max():
        raise PropertyViolated(
            "(A + E) lost injectivity on the domain; the operator is not "
            "non-negative within tolerance"
        )
    return ContractionPicture(
        dim=d,
        dom_basis=Q[:, :q1],
        defect_basis=Q[:, q1:],
        t_on_dom=np.linalg.solve(R[:q1].T, (B - AB).T).T,
    )


def extremal_extensions(pic):
    """Fill in the extremal extensions ``t_mu <= t_M`` and the gap ``C``.

    ``E + t_mu = W W*`` with ``W = (Q1 + T Q1) L^{-*}`` for the Cholesky
    factor ``L`` of ``I + T11``; ``E - t_M = Z Z*`` with
    ``Z = (Q1 - T Q1) Y mu^{-1/2}`` over the eigenpairs of ``I - T11`` above
    ``PINV_RCOND`` times the largest (a signed cutoff, so a roundoff-negative
    eigenvalue is never inverted).  The gap is formed on the defect space
    only, ``C = J G J*`` with ``G = 2I - (J* W)(J* W)* - (J* Z)(J* Z)*``, and
    ``t_M = t_mu + C``.  Raises :class:`CompletionInfeasible` when
    ``I + T11`` is not positive definite or either extremal extension fails
    contractivity beyond ``FEAS_TOL`` (numerically inconsistent input;
    cannot happen for a genuine contraction).
    """
    Q1, TQ, J = pic.dom_basis, pic.t_on_dom, pic.defect_basis
    try:
        L = np.linalg.cholesky(herm(Q1.conj().T @ (Q1 + TQ)))
    except np.linalg.LinAlgError:
        raise CompletionInfeasible(
            "I + T is not positive definite on D(T); T is not a contraction"
        ) from None
    W = np.linalg.solve(L, (Q1 + TQ).conj().T).conj().T
    mu, Y = np.linalg.eigh(herm(Q1.conj().T @ (Q1 - TQ)))
    keep = mu > PINV_RCOND * mu.max(initial=0.0)
    Z = (Q1 - TQ) @ (Y[:, keep] / np.sqrt(mu[keep]))
    JW = J.conj().T @ W
    JZ = J.conj().T @ Z
    G = herm(2.0 * np.eye(pic.defect_dim) - JW @ JW.conj().T - JZ @ JZ.conj().T)
    t_mu = herm(W @ W.conj().T) - np.eye(pic.dim)
    C = herm(J @ G @ J.conj().T)
    t_M = t_mu + C
    for name, t in (("t_mu", t_mu), ("t_M", t_M)):
        w = np.linalg.eigvalsh(t) if pic.dim else np.zeros(1)
        lo = min(1.0 + float(w[0]), 1.0 - float(w[-1]))
        if lo < -FEAS_TOL:
            raise CompletionInfeasible(
                f"extremal completion {name} violates contractivity by {lo:.3e}"
            )
    return replace(pic, t_mu=t_mu, t_M=t_M, C=C)


def sample_sc_extensions(pic, count, seed=0):
    """Deterministic sample of self-adjoint contractive extensions of T.

    Returns ``count`` Hermitian contraction matrices extending T: the segment
    ``t_mu + s C`` at evenly spaced ``s`` in ``[0, 1]`` plus random points
    ``t_mu + J R Y R* J*`` of the interval, with ``R`` the square root of the
    gap ``G`` and ``0 <= Y <= I``.
    """
    w, V, _ = _gap_kernel(pic)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    count = int(count)
    if count <= 0:
        return []
    n_seg = min(count, max(2, (count + 1) // 2))
    out = [pic.t_mu + s * pic.C for s in np.linspace(0.0, 1.0, n_seg)]
    rng = np.random.default_rng(seed)
    q = pic.defect_dim
    JR = pic.defect_basis @ root
    while len(out) < count:
        if q == 0:
            out.append(pic.t_mu.copy())
            continue
        Q = random_unitary(rng, q)
        Y = (Q * rng.uniform(0.0, 1.0, size=q)) @ Q.conj().T
        out.append(pic.t_mu + herm(JR @ Y @ JR.conj().T))
    return out[:count]


def _gap_kernel(pic):
    """``(w, V, in_ker)``: the eigenpairs of the ``q x q`` gap ``G = J* C J``
    and the mask of its kernel.

    The kernel holds the eigenvectors whose eigenvalue is at most ``KER_TOL``
    times the largest one; :func:`determinacy` counts them and
    :func:`extend_ext` absorbs them, by this one rule.
    """
    if not pic.has_extremals:
        raise ValueError("extremal extensions not computed")
    J = pic.defect_basis
    w, V = np.linalg.eigh(herm(J.conj().T @ pic.C @ J))
    return w, V, w <= KER_TOL * max(float(w.max()) if w.size else 0.0, 1e-300)


def determinacy(pic, det_tol=DET_TOL):
    """Decide determinacy and measure the gap between the extremal extensions.

    The gap norm is the largest ``|eigenvalue|`` of the ``q x q`` gap; the
    problem is determinate when the defect is trivial or that norm is at most
    ``det_tol``.
    """
    w, _, in_ker = _gap_kernel(pic)
    q = pic.defect_dim
    gap = float(np.abs(w).max()) if q else 0.0
    determinate = q == 0 or gap <= det_tol
    ups = q if determinate else int(in_ker.sum())
    return DeterminacyVerdict(
        upsilon_dim=ups,
        completely_indeterminate=(ups == 0 and q > 0),
        determinate=determinate,
        gap_norm=gap,
        defect_dim=q,
    )


def extend_ext(pic):
    """Absorb ker(C | defect) into the domain, forcing complete indeterminacy.

    On the kernel of the gap all self-adjoint contractive extensions agree
    with both extremal ones, so T extends canonically there; the regularized
    picture keeps the extremal pair ``t_mu``, ``t_M``, ``C`` and has a trivial
    gap kernel.  Returns ``pic`` itself when there is nothing to absorb.
    """
    _, V, in_ker = _gap_kernel(pic)
    if not in_ker.any():
        return pic
    absorbed = pic.defect_basis @ V[:, in_ker]
    return replace(
        pic,
        dom_basis=np.hstack([pic.dom_basis, absorbed]),
        defect_basis=pic.defect_basis @ V[:, ~in_ker],
        t_on_dom=np.hstack([pic.t_on_dom, pic.t_mu @ absorbed]),
    )


def resolvent_from_contraction(t, z):
    """Resolvent at ``z`` of the non-negative extension encoded by ``t``.

    ``R_z = (E + t) ((1-z) E - (1+z) t)^{-1}``; the eigenspace of ``t`` at
    ``-1`` (mass at infinity) is annihilated, never inverted.
    """
    z = complex(z)
    if not _off_positive_axis(z):
        raise BadPoint(f"z = {z} lies on [0, inf)")
    t = np.asarray(t, dtype=complex)
    d = t.shape[0]
    I = np.eye(d, dtype=complex)
    return (I + t) @ np.linalg.solve((1.0 - z) * I - (1.0 + z) * t, I)


def transform_from_contraction(t, rep, N, z):
    """Matrix transform ``F[k, j](z) = <xi_k, R_z xi_j>`` of the extension."""
    Xi0 = rep.vectors[:, :N]
    return Xi0.conj().T @ resolvent_from_contraction(t, z) @ Xi0


def spectral_solution(t, rep, N):
    """Solution measure of a self-adjoint contractive extension.

    Each eigenvalue ``t_i > -1`` of ``t`` maps to an atom at
    ``lambda_i = (1 - t_i) / (1 + t_i)`` with weight
    ``W_i[k, j] = <xi_k, P_i xi_j>`` (``k, j < N``); the eigenvalue ``-1``
    contributes a flagged mass-at-infinity weight excluded from the measure.

    An exit-space extension acts on ``C^d + C^r``; the data vectors live in
    the first ``d`` coordinates, so they are padded with ``r`` zero rows.

    Eigenvalues within ``CLUSTER_TOL`` of a cluster's first one are merged
    into one atom.  Weights are formed from eigenvector overlaps, never by
    sandwiching the assembled projector: a far atom can carry a weight many
    orders below the matrix scale, and the projector would cancel it into
    roundoff.  Atoms with negligible weight are dropped, where "negligible" is
    judged by the atom's largest contribution to the reproducible moments,
    ``||W|| max(1, lambda)^{2n}``, against ``WEIGHT_RTOL`` times the total:
    a far-out atom with a tiny weight can still carry an order-one share of
    the top moment and must be kept.
    """
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
    two_n = 2 * rep.gram.n
    importance = [
        float(np.linalg.norm(W)) * max(1.0, lam) ** two_n for lam, W in atoms
    ]
    weight_tol = WEIGHT_RTOL * max(1.0, sum(importance))
    atoms = [
        (lam, W) for (lam, W), imp in zip(atoms, importance) if imp > weight_tol
    ]
    return solution_measure(N, atoms, mass_at_infinity=inf_weight)
