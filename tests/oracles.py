"""Sampling oracles for the operator picture, used only by the tests.

``sample_sc_extensions`` draws self-adjoint contractive extensions from the
interval ``[t_mu, t_M]``, ``check_nonneg_hermitian`` samples Hermitian
symmetry and non-negativity of the shift on its domain, and
``defect_subspace`` computes the defect space at ``z`` exactly as the
finite-dimensional geometry dictates: the orthogonal complement of
``(A - z) D(A)``, spanned by the projections of the first ``N`` coordinate
vectors onto that complement.  Points are validated by the library's own
``_off_positive_axis``.  ``perron_invert`` recovers a discrete measure from
samples of its transform by a Stieltjes-Perron scan, an approximate
cross-check of the exact spectral measures the library emits, and
``measure_distance`` tells two measures apart by their cumulatives.

``build_gamma_tilde`` builds the shifted block Hankel of one order.
``eigen_solvability`` is the eigenvalue form of the solvability test, one
``eigvalsh`` per leading block; ``mp_relative_pivots`` is the natural-order
Cholesky of a rounded Hankel in ``mpmath``, the exact-input reference for the
relative pivots that ``check_solvable`` reports.

``sampled_class_test`` is the Pick-matrix test of the Stieltjes class: the
Nevanlinna kernels of ``tau(z)/z`` and ``tau(z)`` over upper-half-plane
sample points must be positive semi-definite.  It is only a necessary
condition, the reference the library's closed form is tested against, and
it also probes a bare callable outside the normal form.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from stieltjesmp._linalg import PINV_RCOND, herm
from stieltjesmp.errors import MomentProblemError, PropertyViolated
from stieltjesmp.hankel import DEFAULT_PSD_TOL, _block_hankel
from stieltjesmp.krein import CLASS_TOL, TauParameter
from stieltjesmp.shiftop import _off_positive_axis
from stieltjesmp.solutions import solution_measure


def build_gamma_tilde(seq, n):
    """Shifted block Hankel of order n: block ``(i, j)`` is ``S_{i+j+1}``."""
    return _block_hankel(seq, n, 1)


def eigen_solvability(seq, psd_tol=DEFAULT_PSD_TOL):
    """Solvability by one ``eigvalsh`` per leading block of both maximal
    Hankels: ``(plain_min_eigs, shifted_min_eigs, verdict)``.

    A block whose minimum eigenvalue is below ``-psd_tol * scale`` (scale is
    ``max(1, |entries|)`` of the block) makes the data ``"not solvable"``; one
    below ``+psd_tol * scale`` makes them ``"marginal"``.
    """
    N = seq.N
    tops = (seq.n, (seq.m - 1) // 2)
    eigs, scales = ([], []), ([], [])
    for offset, top in enumerate(tops):
        G = _block_hankel(seq, top, offset)
        for k in range(top + 1):
            sub = G[: (k + 1) * N, : (k + 1) * N]
            eigs[offset].append(float(np.linalg.eigvalsh(herm(sub)).min()))
            scales[offset].append(max(1.0, float(np.abs(sub).max())))
    verdict = "solvable"
    for ev, sc in zip(chain(*eigs), chain(*scales)):
        if ev < -psd_tol * sc:
            verdict = "not solvable"
        elif ev < psd_tol * sc and verdict == "solvable":
            verdict = "marginal"
    return tuple(eigs[0]), tuple(eigs[1]), verdict


def mp_relative_pivots(G, dps=60):
    """Relative pivots ``pivot_k / max(G_kk, 1)`` of the natural-order
    Cholesky of the Hermitian ``G``, computed in ``mpmath`` at ``dps``
    digits from its double entries taken exactly.

    A column with a positive pivot opens a new row of the factor; any other
    is dropped, as exact arithmetic on the rounded matrix decides.  Returns a
    float array, one entry per column.
    """
    import mpmath

    size = G.shape[0]
    with mpmath.workdps(dps):
        A = [[mpmath.mpc(complex(G[i, j])) for j in range(size)] for i in range(size)]
        rows = []
        rel = []
        for k in range(size):
            row = [
                A[k][j] - mpmath.fsum(mpmath.conj(r[k]) * r[j] for r in rows)
                for j in range(k, size)
            ]
            pivot = row[0].real
            rel.append(float(pivot / max(A[k][k].real, 1)))
            if pivot > 0:
                root = mpmath.sqrt(pivot)
                rows.append([0] * k + [x / root for x in row])
    return np.array(rel)


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
    w, V = pic.gap
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


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion

#: a scan value is a peak candidate above this multiple of the scan's median
PEAK_FACTOR = 10.0


class NoConvergence(MomentProblemError):
    """Richardson extrapolation across the inversion schedule did not settle."""


def _imag_part(F):
    return (F - F.conj().T) / 2j


def _refine_peak(sampler, x0, half_width, eps, steps=3, pts=25):
    """Zoom on a local maximum of trace Im F(x + i eps)."""
    lo, hi = x0 - half_width, x0 + half_width
    for _ in range(steps):
        xs = np.linspace(lo, hi, pts)
        vals = [float(np.trace(_imag_part(sampler(x + 1j * eps))).real) for x in xs]
        i = int(np.argmax(vals))
        if 0 < i < pts - 1:
            # parabolic vertex through the three top samples
            y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
            denom = y0 - 2 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
            shift = float(np.clip(shift, -1.0, 1.0))
            x_best = xs[i] + shift * (xs[1] - xs[0])
        else:
            x_best = xs[i]
        width = (hi - lo) / (pts - 1) * 2.0
        lo, hi = x_best - width, x_best + width
    return x_best


def perron_invert(
    sampler,
    grid=(-0.5, 10.5),
    eps_schedule=(1e-2, 1e-3, 1e-4),
    atom_tol=1e-3,
    n_grid=2001,
):
    """Recover a discrete measure from its Stieltjes transform.

    Scans ``trace Im F(x + i eps)`` on the grid at the coarsest ``eps`` to
    locate peaks (threshold: ``PEAK_FACTOR`` times the median of the scan),
    refines each atom position down the ``eps`` schedule, and estimates
    weights by ``W ~ eps * Im F(lambda + i eps)`` with Richardson
    extrapolation in ``eps^2`` across the schedule.  Detections closer than
    the scan can resolve are merged into one atom.

    Raises :class:`NoConvergence` when the two Richardson extrapolants
    disagree by more than ``atom_tol``, and ``ValueError`` for a schedule
    without two distinct positive values or a grid of fewer than two points.
    """
    eps_schedule = sorted({float(e) for e in eps_schedule}, reverse=True)
    if len(eps_schedule) < 2 or not all(e > 0.0 for e in eps_schedule):
        raise ValueError(
            "need at least two distinct positive epsilon values for extrapolation"
        )
    if int(n_grid) < 2:
        raise ValueError("the scan grid needs at least two points")
    lo, hi = float(grid[0]), float(grid[1])
    xs = np.linspace(lo, hi, int(n_grid))
    eps0 = eps_schedule[0]
    probe = sampler(xs[0] + 1j * eps0)
    N = probe.shape[0]
    scan = np.empty(len(xs))
    scan[0] = float(np.trace(_imag_part(probe)).real)
    for i in range(1, len(xs)):
        scan[i] = float(np.trace(_imag_part(sampler(xs[i] + 1j * eps0))).real)
    threshold = max(PEAK_FACTOR * float(np.median(scan)), 1e-12)
    if float(scan.max()) <= threshold:
        return solution_measure(N, [])

    # local maxima above threshold
    candidates = []
    for i in range(len(xs)):
        v = scan[i]
        if v <= threshold:
            continue
        if (i == 0 or v >= scan[i - 1]) and (i == len(xs) - 1 or v > scan[i + 1]):
            candidates.append(xs[i])

    spacing = xs[1] - xs[0]
    atoms = []
    for x0 in candidates:
        pos = x0
        half = max(3.0 * eps0, 2.0 * spacing)
        for eps in eps_schedule:
            pos = _refine_peak(sampler, pos, half, eps)
            half = 4.0 * eps
        # tiny negative positions from refining an atom at the origin
        if -10.0 * eps_schedule[-1] <= pos < 0.0:
            pos = 0.0
        weights = [
            eps * _imag_part(sampler(pos + 1j * eps)) for eps in eps_schedule
        ]
        # Richardson in eps^2 over consecutive pairs; compare the two finest
        extrap = []
        for (ea, Wa), (eb, Wb) in zip(
            zip(eps_schedule, weights), zip(eps_schedule[1:], weights[1:])
        ):
            extrap.append(Wb + (Wb - Wa) * eb**2 / (ea**2 - eb**2))
        disagreement = float(np.linalg.norm(extrap[-1] - extrap[-2])) if len(
            extrap
        ) > 1 else 0.0
        if disagreement > atom_tol:
            raise NoConvergence(
                f"weight extrapolation at position {pos:.6g} moved by "
                f"{disagreement:.3e} (> {atom_tol:.1e}) across the schedule"
            )
        atoms.append((pos, herm(extrap[-1])))

    # merge duplicate detections of one atom
    min_sep = max(10.0 * eps_schedule[-1], 2.0 * spacing)
    merged = []
    for lam, W in sorted(atoms, key=lambda a: a[0]):
        if merged and lam - merged[-1][0] <= min_sep:
            merged[-1] = (merged[-1][0], merged[-1][1] + W)
        else:
            merged.append((lam, W))
    return solution_measure(N, merged)


def measure_distance(a, b, grid=None):
    """Largest Frobenius gap of the cumulatives over a comparison grid."""
    if grid is None:
        pts = np.concatenate([a.positions, b.positions, [0.0, 1.0]])
        lo, hi = float(pts.min()) - 1.0, float(pts.max()) + 1.0
        grid = np.linspace(lo, hi, 257)
    worst = 0.0
    for lam in grid:
        worst = max(worst, float(np.linalg.norm(a.cumulative(lam) - b.cumulative(lam))))
    return worst


#: default upper-half-plane sample set for the class kernel test
DEFAULT_CLASS_POINTS = (1j, 2j, 1 + 1j, -1 + 1j, 0.5 + 1.5j)


def kernel_min_eig(fun, pts, dim):
    """Smallest eigenvalue of the sampled Nevanlinna kernel of ``fun``."""
    vals = np.array([np.atleast_2d(fun(z)) for z in pts])
    p = np.asarray(pts)
    # row block j carries the conjugated slot: K[(j,b),(i,a)] =
    # (G(z_i) - G(z_j)*)[b,a] / (z_i - conj(z_j)), positive semi-definite
    # exactly when G is a Herglotz function.
    num = vals[None] - vals.conj().transpose(0, 2, 1)[:, None]
    blk = num / (p[None, :] - p.conj()[:, None])[:, :, None, None]
    K = herm(blk.transpose(0, 2, 1, 3).reshape(len(pts) * dim, len(pts) * dim))
    w = np.linalg.eigvalsh(K)
    return float(w.min()), float(np.abs(w).max())


def sampled_class_test(tau, sample_points=DEFAULT_CLASS_POINTS):
    """Sampled kernel test for admissibility of a parameter.

    Builds, over the sample points and a basis of finite-part directions, the
    Nevanlinna kernels of ``z -> tau(z)/z`` and of ``tau`` itself, and passes
    iff both have smallest eigenvalue at least ``-CLASS_TOL`` (relative to the
    kernel scale).  A parameter with empty finite part passes vacuously.

    ``tau`` may be a :class:`TauParameter` or a bare callable
    ``z -> matrix`` (any matrix-valued function can be probed this way).

    Returns ``(passed, worst_min_eig)``.
    """
    if callable(tau) and not isinstance(tau, TauParameter):
        value = lambda z: np.atleast_2d(np.asarray(tau(z), dtype=complex))
        dim = value(1j).shape[0]
    else:
        if tau.is_ideal:
            return True, 0.0
        value = tau.value
        dim = tau.finite_dim
    pts = [complex(z) for z in sample_points]
    if any(z.imag <= 0 for z in pts):
        raise ValueError("class sample points must lie in the upper half-plane")
    worst = np.inf
    ok = True
    for fun in (lambda z: value(z) / z, value):
        lo, scale = kernel_min_eig(fun, pts, dim)
        worst = min(worst, lo)
        if lo < -CLASS_TOL * max(1.0, scale):
            ok = False
    return ok, float(worst)
