"""The interval of non-negative extensions of the shift, in Cayley form.

The shift ``A`` is traded for the Hermitian contraction ``T`` with
``D(T) = (A + E) D(A)`` and ``T (A + E) f = (E - A) f``.  Self-adjoint
contractive extensions of ``T`` correspond one-to-one with non-negative
self-adjoint extensions of ``A``; they form the operator interval
``[t_mu, t_M]`` between the Friedrichs and Krein corners.

In the natural-order coordinates of :mod:`shiftop`, ``A`` is known on the
first ``q1`` coordinates, by its blocks ``A11`` (``q1 x q1``, Hermitian) and
``A21``, and both corners have closed forms in them (Krein 1947;
Ando-Nishio 1970).  The Friedrichs extension is ``A11`` plus a multivalued
part on the last ``q`` coordinates, so

    t_mu = diag(2 (E + A11)^{-1} - E, -E_q),

with the eigenpairs ``cay(a) = (1 - a) / (1 + a)`` over ``eigh(A11)`` and
``-1`` on the last coordinates.  The Krein extension completes ``A`` by the
Schur complement ``B_K = A21 A11^+ A21*``.  The defect space
``N_{-1} = D(T)^perp`` is spanned by the columns of
``K = [-(E + A11)^{-1} A21*; E_q]``; the canonical orthonormal basis is
``J = K L^{-*}`` with ``L`` the Cholesky factor of ``K* K``, so ``J[q1:]``
is upper triangular with a positive diagonal.  On it the corners differ by
the ``q x q`` gap

    G = J* (t_M - t_mu) J = 2 L* S_K^{-1} L,
    S_K = E_q + A21 A11^+ (E + A11)^{-1} A21*,

and ``t_M = t_mu + J G J*``.  This needs ``A21`` to vanish on the kernel of
``A11``, as it does for solvable data; otherwise the Krein extension is no
operator and the contractivity check on ``t_M`` refuses the input.  The
interval is validated against a brute-force feasibility oracle and an
independent Gram-factor construction in the test suite.

Every factor of ``G`` is nonsingular, so ``G`` is positive definite whenever
``q > 0``: the problem is determinate exactly when the defect is trivial
(Krein 1947; Gantmacher, ch. XVI, in the scalar case).  Partial determinacy
shows as ``q < N``, never as a kernel of the gap.

Each matrix is decomposed once.  The gap norm is read off one ``eigh`` of the
``G`` formed here (:attr:`ContractionPicture.gap`), whose pairs also give
the Weyl limit ``M(0) = 2 G^{-1}``; each corner's solution, off its pairs.
The picture is also the boundary data of :mod:`krein`, based at ``-1``.

The dense reference resolvent is computed from the contraction itself:
``R_z = (E + t) ((1 - z) E - (1 + z) t)^{-1}``.  An eigenvalue ``-1`` of ``t``
(a point mass at infinity of the extension, routine for the Friedrichs corner
of a truncated problem) then contributes nothing, with no singular inversion.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._linalg import PINV_RCOND, herm
from .errors import CompletionInfeasible
from .shiftop import _off_positive_axis
from .solutions import SolutionMeasure

__all__ = [
    "ContractionPicture",
    "DeterminacyVerdict",
    "extremal_extensions",
    "determinacy",
    "resolvent_from_contraction",
    "spectral_solution",
]

#: eigenvalues of a contraction within this distance of -1 are treated as the
#: point at infinity of the inverse Cayley transform
INFINITY_TOL = 1e-12

#: contractivity slack allowed to an extremal completion (and negativity
#: allowed to ``A11``)
FEAS_TOL = 1e-8
#: eigenvalues this close form one atom
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class ContractionPicture:
    """The extremal extensions ``t_mu <= t_M`` of the contraction ``T``, and
    the boundary data of :mod:`krein`, based at ``z0 = -1``.

    Their gap ``C = t_M - t_mu = J G J*`` is supported on the defect space.
    ``t_mu = V diag(w) V*`` with the eigenpairs read off ``eigh(A11)``, and
    ``t_M = V_M diag(w_M) V_M*`` and ``G = U diag(g) U*`` from one ``eigh`` each.
    """

    dim: int
    J: np.ndarray  # (d, q) orthonormal basis of N_{-1}
    t_mu: np.ndarray
    t_M: np.ndarray
    C: np.ndarray
    w: np.ndarray  # (d,) eigenvalues of t_mu
    V: np.ndarray  # (d, d) eigenvectors of t_mu
    w_M: np.ndarray  # (d,) eigenvalues of t_M, ascending
    V_M: np.ndarray  # (d, d) eigenvectors of t_M
    gap: tuple  # (g, U), the eigenpairs of G: the gap norm and M(0) = 2 G^{-1}
    rep: object  # its data vectors' coordinates are formed on first transform

    @property
    def q(self):
        return self.J.shape[1]

    @cached_property
    def M0(self):
        """``M(0) = 2 G^{-1}``, as ``tau = 0`` gives ``t_M = t_mu + 2 J M(0)^{-1} J*``;
        finite, as ``G > 0`` whenever ``q > 0``, and ``0 x 0`` when ``q = 0``."""
        g, U = self.gap
        return herm(2.0 * (U / g) @ U.conj().T)

    @cached_property
    def ov(self):
        """``(d, q)`` overlaps ``V* J``."""
        return self.V.conj().T @ self.J

    @cached_property
    def _one_pm_w(self):
        """``(1 - w, 1 + w)``, so that ``c = (1 - w) - z (1 + w)``."""
        return 1.0 - self.w, 1.0 + self.w

    @cached_property
    def coordinates(self):
        """``(Y, Y*)`` for ``Y = _stacked(w, ov, V* Xi0)``, formed on first use;
        the factor is upper trapezoidal, so ``Xi0`` is zero below row ``N``."""
        N = self.rep.gram.N
        return _stacked(self.w, self.ov, self.V[:N].conj().T @ self.rep.vectors[:N, :N])

    def _diagonal(self, z):
        """``g = 2/c``, so that ``V* gamma(z) = diag(g) V* J``."""
        z = _off_positive_axis(z)
        a, b = self._one_pm_w
        return 2.0 / (a - z * b)

    def gamma(self, z):
        return self.V @ (self._diagonal(z)[:, None] * self.ov)

    def M(self, z):
        g = self._diagonal(z)
        return (complex(z) + 1.0) * (self.ov.conj().T @ (g[:, None] * self.ov))


def _stacked(w, ov, X):
    """``(Y, Y*)`` for ``Y = [h X, V* J, X]``, eigen-coordinates ``X = V* P``
    and ``h = (1 + w)/2`` (clipped at 0).  With ``g = 2/c`` the formula reads
    two products: ``X* diag(g) [h X, V* J]`` is ``[P* R_z P, P* gamma(z)]``
    and ``(V* J)* diag(g) [V* J, X]`` is ``[M(z)/(z + 1), gamma(conj(z))* P]``.
    ``Y*`` is made contiguous once, so no point conjugates a copy."""
    h = np.clip(1.0 + w, 0.0, None) / 2.0
    Y = np.hstack([h[:, None] * X, ov, X])
    return Y, np.ascontiguousarray(Y.conj().T)


@dataclass(frozen=True)
class DeterminacyVerdict:
    determinate: bool
    gap_norm: float
    defect_dim: int

    def to_dict(self):
        return asdict(self)


def extremal_extensions(op):
    """The extremal extensions of the shift ``op``, from its blocks ``A11``
    and ``A21``.

    ``t_mu`` is ``cay(A11)`` on the domain, formed by a solve with
    ``E + A11``, and ``-E`` on the last ``q`` coordinates; ``J = K L^{-*}``;
    the gap ``G = 2 L* S_K^{-1} L`` keeps the eigenvalues ``a`` of ``A11``
    with ``a / (1 + a)`` above ``PINV_RCOND`` times the largest (a signed
    cutoff, so a roundoff-negative eigenvalue at an atom at 0 is never
    inverted); ``C = J G J*`` and ``t_M = t_mu + C``.  Raises
    :class:`CompletionInfeasible` when ``A11`` has an eigenvalue below
    ``-FEAS_TOL`` (``A`` is not non-negative) or ``t_M`` fails contractivity
    beyond ``FEAS_TOL`` (numerically inconsistent input); the latter message
    names the range-condition residual, the norm of ``A21`` on the
    eigenvectors of ``A11`` that the cutoff drops.
    """
    d, q1 = op.dim, op.domain_dim
    q = d - q1
    A11 = herm(op.matrix[:q1, :q1])
    A21 = op.matrix[q1:, :q1]
    a, U = np.linalg.eigh(A11)
    if q1 and a[0] < -FEAS_TOL:
        raise CompletionInfeasible(
            f"A11 has eigenvalue {a[0]:.3e}; the shift is not non-negative"
        )
    E1 = np.eye(q1)
    P = np.linalg.solve(E1 + A11, np.hstack([E1, A21.conj().T]))
    t_mu = -np.eye(d, dtype=complex)
    t_mu[:q1, :q1] = herm(2.0 * P[:, :q1] - E1)
    K = np.vstack([-P[:, q1:], np.eye(q)])
    L = np.linalg.cholesky(herm(K.conj().T @ K))
    J = np.linalg.solve(L, K.conj().T).conj().T
    r = a / (1.0 + a)
    keep = r > PINV_RCOND * r.max(initial=0.0)
    F = (A21 @ U[:, keep]) / np.sqrt(a[keep] * (1.0 + a[keep]))
    S = np.eye(q) + F @ F.conj().T
    G = herm(2.0 * L.conj().T @ np.linalg.solve(S, L))
    C = herm(J @ G @ J.conj().T)
    t_M = t_mu + C
    w_M, V_M = np.linalg.eigh(t_M)
    lo = min(1.0 + float(w_M[0]), 1.0 - float(w_M[-1])) if d else 1.0
    if lo < -FEAS_TOL:
        off = float(np.linalg.norm(A21 @ U[:, ~keep]))
        raise CompletionInfeasible(
            f"extremal completion t_M violates contractivity by {lo:.3e}; "
            f"range-condition residual |A21 on ker A11| = {off:.3e} (A21 "
            f"must vanish on ker A11 for solvable data)"
        )
    g, U_G = np.linalg.eigh(G)
    V = np.eye(d, dtype=complex)
    V[:q1, :q1] = U
    return ContractionPicture(
        dim=d,
        J=J,
        t_mu=t_mu,
        t_M=t_M,
        C=C,
        w=np.concatenate([(1.0 - a) / (1.0 + a), -np.ones(q)]),
        V=V,
        w_M=w_M,
        V_M=V_M,
        gap=(g, U_G),
        rep=op.rep,
    )


def determinacy(pic):
    """Decide determinacy and measure the gap between the extremal extensions.

    The problem is determinate exactly when the defect is trivial: the gap is
    positive definite whenever ``q > 0``.  The gap norm, the largest
    eigenvalue of the ``q x q`` gap, says how far apart the corners are.
    """
    q = pic.q
    return DeterminacyVerdict(
        determinate=q == 0,
        gap_norm=float(np.abs(pic.gap[0]).max(initial=0.0)),
        defect_dim=q,
    )


def resolvent_from_contraction(t, z):
    """Resolvent at ``z`` of the non-negative extension encoded by ``t``.

    ``R_z = (E + t) ((1-z) E - (1+z) t)^{-1}``; the eigenspace of ``t`` at
    ``-1`` (mass at infinity) is annihilated, never inverted.
    """
    z = _off_positive_axis(z)
    t = np.asarray(t, dtype=complex)
    d = t.shape[0]
    I = np.eye(d, dtype=complex)
    return (I + t) @ np.linalg.solve((1.0 - z) * I - (1.0 + z) * t, I)


def spectral_solution(t, rep, N):
    """Solution measure of a self-adjoint contractive extension.

    Each eigenvalue ``t_i > -1`` of ``t`` maps to an atom at
    ``lambda_i = (1 - t_i) / (1 + t_i)`` with weight
    ``W_i[k, j] = <xi_k, P_i xi_j>`` (``k, j < N``); the eigenvalue ``-1``
    contributes a flagged mass-at-infinity weight excluded from the measure.

    All weights come from one product after the one ``eigh``: the overlaps
    ``Y = V[:n]* Xi0`` of every eigenvector with the data vectors, so a
    simple eigenvalue weighs ``conj(y) y^T`` over its row ``y`` of ``Y``
    (Golub-Welsch 1969: the weights are the first components of the
    eigenvectors), all formed by one ``einsum``, Hermitian as computed, and
    copied out per atom.  The factor is upper trapezoidal, so the data
    vectors ``Xi0`` are the first ``n = min(N, d)`` rows of ``N`` columns;
    the extra coordinates of an exit-space ``t`` on ``C^d + C^r`` follow.

    Eigenvalues within ``CLUSTER_TOL`` of a cluster's first one are merged
    into one atom of weight ``herm(Y_c* Y_c)`` over the cluster's rows.
    Weights are formed from eigenvector overlaps, never by sandwiching the
    assembled projector: a far atom can carry a weight many orders below the
    matrix scale, and the projector would cancel it into roundoff.  No atom
    is dropped for being small: a weight far below the total can still carry
    the share of some moment that the round trip needs.  The atoms come out
    in decreasing eigenvalue order, which is increasing position.
    """
    w, V = np.linalg.eigh(herm(np.asarray(t, dtype=complex)))
    return _spectral_measure(w, V, rep, N)


def _spectral_measure(w, V, rep, N):
    """:func:`spectral_solution` from the eigenpairs ``(w, V)`` of ``t``."""
    w = np.clip(w, -1.0, 1.0)
    Xi0 = rep.vectors[:N, :N]
    Y = V[: len(Xi0)].conj().T @ Xi0
    outer = np.einsum("ki,kj->kij", Y.conj(), Y)
    ends = np.searchsorted(w, w + CLUSTER_TOL, side="right").tolist()
    starts = [0]
    while starts[-1] < len(w):
        starts.append(ends[starts[-1]])
    atoms, inf_weight = [], None
    for start, stop in reversed(list(zip(starts, starts[1:]))):
        if stop == start + 1:
            W, ti = outer[start].copy(), float(w[start])
        else:
            G = Y[start:stop]
            W, ti = herm(G.conj().T @ G), float(np.mean(w[start:stop]))
        if 1.0 + ti <= INFINITY_TOL:
            # only the lowest cluster: it holds every eigenvalue within
            # CLUSTER_TOL of the lowest one
            inf_weight = W
        else:
            atoms.append((max((1.0 - ti) / (1.0 + ti), 0.0), W))
    return SolutionMeasure(N=int(N), atoms=tuple(atoms), mass_at_infinity=inf_weight)
