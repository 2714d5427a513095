"""Cayley-transform calculus for the non-negative shift operator.

The shift ``A`` is traded for the Hermitian contraction ``T`` with
``D(T) = (A + E) D(A)`` and ``T (A + E) f = (E - A) f``.  Self-adjoint
contractive extensions of ``T`` in the representation space correspond
one-to-one with non-negative self-adjoint extensions of ``A``; in the block
splitting ``(D(T), N_{-1})`` every such extension is a Hermitian completion

    [[ T11,  T21* ],
     [ T21,  X    ]]

and the feasible corners ``X`` form the operator interval between

    X_min = -I + T21 (I + T11)^+ T21*,      (Friedrichs side)
    X_max = +I - T21 (I - T11)^+ T21*,      (Krein side)

which are the corners of the extremal extensions ``t_mu`` and ``t_M``.  The
completion interval is validated against a brute-force feasibility oracle in
the test suite.

The dense reference resolvent is computed from the contraction itself:
``R_z = (E + t) ((1 - z) E - (1 + z) t)^{-1}``.  An eigenvalue ``-1`` of ``t``
(a point mass at infinity of the extension, routine for the Friedrichs corner
of a truncated problem) then contributes nothing, with no singular inversion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import complement, herm, hpinv, orth_cols, random_unitary
from .errors import BadPoint, CompletionInfeasible, PropertyViolated
from .shiftop import _off_positive_axis
from .solutions import solution_measure

__all__ = [
    "ContractionPicture",
    "DeterminacyVerdict",
    "cayley",
    "extremal_extensions",
    "assemble_completion",
    "sample_sc_extensions",
    "determinacy",
    "extend_ext",
    "resolvent_from_contraction",
    "transform_from_contraction",
    "spectral_solution",
    "clustered_eigh",
]

#: eigenvalues of a contraction within this distance of -1 are treated as the
#: point at infinity of the inverse Cayley transform
INFINITY_TOL = 1e-12

DEFAULT_KER_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class ContractionPicture:
    """The contraction ``T`` with (optionally) its extremal extensions.

    ``t_on_dom`` holds the ambient images of the orthonormal columns of
    ``dom_basis``; ``t_mu``/``t_M``/``C`` are filled in by
    :func:`extremal_extensions`.
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

    def t11(self):
        """Compression of T to D(T)."""
        return self.dom_basis.conj().T @ self.t_on_dom

    def t21(self):
        """Component of T|D(T) in the defect space."""
        return self.defect_basis.conj().T @ self.t_on_dom


@dataclass(frozen=True)
class DeterminacyVerdict:
    upsilon_dim: int
    completely_indeterminate: bool
    determinate: bool
    gap_norm: float
    defect_dim: int

    def to_dict(self):
        return {
            "determinate": self.determinate,
            "completely_indeterminate": self.completely_indeterminate,
            "upsilon_dim": self.upsilon_dim,
            "gap_norm": self.gap_norm,
            "defect_dim": self.defect_dim,
        }


def cayley(op):
    """Contraction picture of a shift operator: ``T (A+E) f = (E-A) f``."""
    d = op.dim
    B = op.domain_basis
    A = op.matrix
    I = np.eye(d, dtype=complex)
    U = (A + I) @ B
    W = (I - A) @ B
    dom_basis = orth_cols(U)
    if dom_basis.shape[1] != B.shape[1]:
        raise PropertyViolated(
            "(A + E) lost injectivity on the domain; the operator is not "
            "non-negative within tolerance"
        )
    if B.shape[1]:
        coeff = np.linalg.lstsq(U, dom_basis, rcond=None)[0]
        t_on_dom = W @ coeff
    else:
        t_on_dom = np.zeros((d, 0), dtype=complex)
    return ContractionPicture(
        dim=d,
        dom_basis=dom_basis,
        defect_basis=complement(dom_basis, d),
        t_on_dom=t_on_dom,
    )


def assemble_completion(pic, X):
    """Full Hermitian extension matrix with corner ``X`` on the defect space."""
    B = np.hstack([pic.dom_basis, pic.defect_basis])
    blk = np.block([[pic.t11(), pic.t21().conj().T], [pic.t21(), X]])
    return herm(B @ blk @ B.conj().T)


def extremal_extensions(pic, feas_tol=1e-8):
    """Fill in the extremal extensions ``t_mu <= t_M`` and the gap ``C``.

    Raises :class:`CompletionInfeasible` when the assembled extremal
    completions fail contractivity beyond ``feas_tol`` (numerically
    inconsistent input; cannot happen for a genuine contraction).
    """
    T11 = pic.t11()
    T21 = pic.t21()
    q1 = pic.dom_dim
    q = pic.defect_dim
    Iq1 = np.eye(q1, dtype=complex)
    Iq = np.eye(q, dtype=complex)
    X_min = herm(-Iq + T21 @ hpinv(Iq1 + T11) @ T21.conj().T)
    X_max = herm(Iq - T21 @ hpinv(Iq1 - T11) @ T21.conj().T)
    t_mu = assemble_completion(pic, X_min)
    t_M = assemble_completion(pic, X_max)
    for name, t in (("t_mu", t_mu), ("t_M", t_M)):
        I = np.eye(pic.dim, dtype=complex)
        for sgn in (+1.0, -1.0):
            lo = float(np.linalg.eigvalsh(I + sgn * t).min()) if pic.dim else 0.0
            if lo < -feas_tol:
                raise CompletionInfeasible(
                    f"extremal completion {name} violates contractivity by "
                    f"{lo:.3e}"
                )
    C = herm(t_M - t_mu)
    return replace(pic, t_mu=t_mu, t_M=t_M, C=C)


def sample_sc_extensions(pic, count, seed=0):
    """Deterministic sample of self-adjoint contractive extensions of T.

    Returns ``count`` Hermitian contraction matrices extending T: the segment
    ``t_mu + s (t_M - t_mu)`` at evenly spaced ``s`` in ``[0, 1]`` plus
    randomized feasible corners drawn inside the completion interval.
    """
    if not pic.has_extremals:
        raise ValueError("extremal extensions not computed")
    count = int(count)
    if count <= 0:
        return []
    n_seg = min(count, max(2, (count + 1) // 2))
    out = [
        herm(pic.t_mu + s * (pic.t_M - pic.t_mu))
        for s in np.linspace(0.0, 1.0, n_seg)
    ]
    rng = np.random.default_rng(seed)
    q = pic.defect_dim
    D = herm(
        pic.defect_basis.conj().T @ (pic.t_M - pic.t_mu) @ pic.defect_basis
    )
    w, V = np.linalg.eigh(D)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    X_min = herm(pic.defect_basis.conj().T @ pic.t_mu @ pic.defect_basis)
    while len(out) < count:
        if q == 0:
            out.append(pic.t_mu.copy())
            continue
        Q = random_unitary(rng, q)
        Y = (Q * rng.uniform(0.0, 1.0, size=q)) @ Q.conj().T
        X = herm(X_min + root @ Y @ root.conj().T)
        out.append(assemble_completion(pic, X))
    return out[:count]


def _gap_kernel(pic, ker_tol):
    """Defect coordinates split into ``ker(J* C J)`` and its complement.

    The kernel holds the eigenvectors whose eigenvalue is at most ``ker_tol``
    times the largest one; :func:`determinacy` counts them and
    :func:`extend_ext` absorbs them, by this one rule.
    """
    w, V = np.linalg.eigh(herm(pic.defect_basis.conj().T @ pic.C @ pic.defect_basis))
    in_ker = w <= ker_tol * max(float(w.max()) if w.size else 0.0, 1e-300)
    return V[:, in_ker], V[:, ~in_ker]


def determinacy(pic, det_tol=None, ker_tol=DEFAULT_KER_TOL):
    """Decide determinacy and measure the gap between the extremal extensions."""
    if not pic.has_extremals:
        raise ValueError("extremal extensions not computed")
    q = pic.defect_dim
    gap = float(np.linalg.norm(pic.C, 2)) if pic.dim else 0.0
    if det_tol is None:
        tnorm = float(np.linalg.norm(pic.t_M, 2)) if pic.dim else 0.0
        det_tol = 1e-9 * tnorm + 1e-12
    determinate = q == 0 or gap <= det_tol
    ups = q if determinate else _gap_kernel(pic, ker_tol)[0].shape[1]
    return DeterminacyVerdict(
        upsilon_dim=ups,
        completely_indeterminate=(ups == 0 and q > 0),
        determinate=determinate,
        gap_norm=gap,
        defect_dim=q,
    )


def extend_ext(pic, ker_tol=DEFAULT_KER_TOL):
    """Absorb ker(C | defect) into the domain, forcing complete indeterminacy.

    On the kernel of the gap all self-adjoint contractive extensions agree
    with both extremal ones, so T extends canonically there; the regularized
    picture has the same extremal pair and a trivial gap kernel.  Returns
    ``pic`` itself when there is nothing to absorb.
    """
    if not pic.has_extremals:
        raise ValueError("extremal extensions not computed")
    ker, rest = _gap_kernel(pic, ker_tol)
    if ker.shape[1] == 0:
        return pic
    absorbed = pic.defect_basis @ ker
    extended = ContractionPicture(
        dim=pic.dim,
        dom_basis=np.hstack([pic.dom_basis, absorbed]),
        defect_basis=pic.defect_basis @ rest,
        t_on_dom=np.hstack([pic.t_on_dom, pic.t_mu @ absorbed]),
    )
    return extremal_extensions(extended)


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


def clustered_eigh(t, cluster_tol=DEFAULT_CLUSTER_TOL):
    """Eigendecomposition of a Hermitian contraction with near-degenerate
    eigenvalues merged; returns a list of (eigenvalue, eigenvector block)
    pairs with orthonormal block columns.

    Downstream weights are always formed from inner products with the
    eigenvectors, never by sandwiching the assembled projector: a far atom
    can carry a weight many orders below the matrix scale, and the projector
    product would cancel it down into roundoff.
    """
    t = herm(np.asarray(t, dtype=complex))
    if t.shape[0] == 0:
        return []
    w, V = np.linalg.eigh(t)
    w = np.clip(w, -1.0, 1.0)
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[start] > cluster_tol:
            idx = slice(start, i)
            groups.append((float(np.mean(w[idx])), V[:, idx]))
            start = i
    return groups


def spectral_solution(
    t, rep, N, cluster_tol=DEFAULT_CLUSTER_TOL, weight_tol=None
):
    """Solution measure of a self-adjoint contractive extension.

    Each eigenvalue ``t_i > -1`` of ``t`` maps to an atom at
    ``lambda_i = (1 - t_i) / (1 + t_i)`` with weight
    ``W_i[k, j] = <xi_k, P_i xi_j>`` (``k, j < N``); the eigenvalue ``-1``
    contributes a flagged mass-at-infinity weight excluded from the measure.

    An exit-space extension acts on ``C^d + C^r``; the data vectors live in
    the first ``d`` coordinates, so they are padded with ``r`` zero rows.

    Atoms with negligible weight are dropped, where "negligible" is judged by
    the atom's largest contribution to the reproducible moments,
    ``||W|| max(1, lambda)^{2n}``: a far-out atom with a tiny weight can
    still carry an order-one share of the top moment and must be kept.
    """
    Xi0 = rep.vectors[:, :N]
    pad = t.shape[0] - Xi0.shape[0]
    if pad:
        Xi0 = np.vstack([Xi0, np.zeros((pad, N), dtype=Xi0.dtype)])
    atoms = []
    inf_weight = None
    for ti, V in clustered_eigh(t, cluster_tol):
        G = V.conj().T @ Xi0  # overlaps first; keeps tiny weights accurate
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
    if weight_tol is None:
        weight_tol = 1e-12 * max(1.0, sum(importance))
    atoms = [
        (lam, W) for (lam, W), imp in zip(atoms, importance) if imp > weight_tol
    ]
    return solution_measure(N, atoms, mass_at_infinity=inf_weight)
