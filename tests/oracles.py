"""Sampling oracles for the operator picture, used only by the tests.

``sample_sc_extensions`` draws self-adjoint contractive extensions from the
interval ``[t_mu, t_M]``, ``check_nonneg_hermitian`` samples Hermitian
symmetry and non-negativity of the shift on its domain, and
``defect_subspace`` computes the defect space at ``z`` exactly as the
finite-dimensional geometry dictates: the orthogonal complement of
``(A - z) D(A)``, spanned by the projections of the first ``N`` coordinate
vectors onto that complement.  Points are validated by the library's own
``_off_positive_axis``.
"""

from dataclasses import dataclass

import numpy as np

from stieltjesmp._linalg import PINV_RCOND, herm
from stieltjesmp.errors import PropertyViolated
from stieltjesmp.extensions import _gap_kernel
from stieltjesmp.shiftop import _off_positive_axis


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


def random_unitary(rng, dim):
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def domain_basis(op):
    """The leading ``q1`` identity columns, which span the shift's domain."""
    return np.eye(op.dim, op.domain_dim, dtype=complex)


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


def check_nonneg_hermitian(op, trials=64, seed=0, tol=1e-9):
    """Sample Hermitian symmetry and non-negativity of A on its domain.

    For pseudo-random x, y in D(A) checks ``(Ax, y) = (x, Ay)`` and
    ``(Ax, x) >= -tol * ||x||^2``.  Deterministic given ``seed``.  Returns a
    small report dict; raises :class:`PropertyViolated` with a witness vector
    on failure.
    """
    rng = np.random.default_rng(seed)
    B = domain_basis(op)
    q1 = B.shape[1]
    A = op.matrix
    if q1 == 0:
        return {"trials": 0, "max_symmetry_defect": 0.0, "min_rayleigh": 0.0}
    opnorm = max(float(np.linalg.norm(A @ B, ord=2)), 1e-300)
    max_sym = 0.0
    min_ray = np.inf
    for _ in range(int(trials)):
        cx = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
        cy = rng.standard_normal(q1) + 1j * rng.standard_normal(q1)
        x = B @ cx
        y = B @ cy
        sym = abs(np.vdot(y, A @ x) - np.vdot(A @ y, x))
        nx = float(np.linalg.norm(x)) ** 2
        ray = float(np.vdot(x, A @ x).real)
        max_sym = max(max_sym, sym / (opnorm * np.linalg.norm(x) * np.linalg.norm(y)))
        min_ray = min(min_ray, ray / nx)
        if sym > tol * opnorm * np.linalg.norm(x) * np.linalg.norm(y):
            raise PropertyViolated(
                f"Hermitian symmetry defect {sym:.3e} on the domain", witness=x
            )
        if ray < -tol * nx:
            raise PropertyViolated(
                f"negative form value {ray:.3e} for ||x||^2 = {nx:.3e}", witness=x
            )
    return {
        "trials": int(trials),
        "max_symmetry_defect": float(max_sym),
        "min_rayleigh": float(min_ray),
    }


@dataclass(frozen=True)
class DefectData:
    """Range/defect decomposition at a point z off ``[0, inf)``."""

    z: complex
    range_basis: np.ndarray  # orthonormal basis of (A - z) D(A)
    y_vectors: np.ndarray  # columns xi_k - P xi_k, k < N
    defect_basis: np.ndarray  # orthonormal basis of the defect space
    index: int


def defect_subspace(op, z):
    """Range and defect decomposition of ``(A - z) D(A)`` at ``z``.

    ``z`` must avoid ``[0, inf)``.  Returns a :class:`DefectData` whose
    ``index`` is the dimension of the orthogonal complement of the range,
    spanned by the complement-projections of ``xi_0 .. xi_{N-1}``.
    """
    z = _off_positive_axis(z)
    d = op.dim
    rng_basis = orth_cols((op.matrix - z * np.eye(d)) @ domain_basis(op))
    X = op.rep.vectors
    X0 = X[:, : op.N]
    Y = X0 - rng_basis @ (rng_basis.conj().T @ X0)
    # Rank decisions for the y's are made against the scale of the coordinate
    # vectors themselves, not of Y: when the defect is trivial every y is pure
    # roundoff and must not masquerade as a direction.
    scale = float(np.linalg.norm(X, axis=0).max()) if X.size else 0.0
    if Y.size and scale > 0.0:
        kept = Y[:, np.linalg.norm(Y, axis=0) > 1e-8 * scale]
        defect = orth_cols(kept)
    else:
        defect = np.zeros((d, 0), dtype=complex)
    return DefectData(
        z=z,
        range_basis=rng_basis,
        y_vectors=Y,
        defect_basis=defect,
        index=defect.shape[1],
    )
