"""Boundary-parameter machinery: gamma field, Weyl function, Stieltjes-class
parameters, and the resolvent formula generating every solution.

With ``J`` an isometry onto the defect space at the base point ``-1`` and
``R_z`` the resolvent of the Friedrichs-corner extension ``t_mu``, the pair

    gamma(z) = (E + (z+1) R_z) J,
    M(z)     = (z+1) J* (E + (z+1) R_z) J,

satisfies ``M(z) - M(w)* = (z - conj(w)) gamma(w)* gamma(z)`` (so ``M`` is a
matrix Herglotz function, normalized by ``M(-1) = 0``) and maps the defect
space onto the defect space at ``z``.  Generalized resolvents are then

    R(tau, z) = R_z - gamma(z) (tau(z) + M(z) - M(0))^{-1} gamma(conj(z))*,

a bijection between admissible parameters ``tau`` and the compressions to the
representation space of resolvents of non-negative extensions (possibly in a
larger space).  Hermitian-constant parameters correspond exactly to the
extensions inside the space: ``tau = 0`` recovers the Krein corner ``t_M`` and
the ideal parameter (``tau = infinity``) recovers ``t_mu`` itself.  The
first gives ``M(0)``: on the defect space the corners differ by the gap
``G = J* (t_M - t_mu) J``, so ``M(0) = 2 G^{-1}``, finite because ``G`` is
positive definite whenever the defect is not trivial.  A trivial defect
(``q = 0``, a determinate problem) leaves the ideal parameter alone, and the
formula is the resolvent of ``t_mu``: the unique solution's.  A rational
parameter ``tau0 + sum W_k / (p_k - z)`` corresponds to an exit-space
extension: a Hermitian contraction on ``C^d + C^r`` (``r = sum rank W_k``),
written in closed form at the base point by :func:`exit_space_extension`, so
its solution is the exact spectral measure of a finite matrix.  That one
construction serves every parameter: without poles it is the in-space
extension, and the ideal parameter gives ``t_mu``.  One ``eigh`` of the
extension serves its run-time checks (contractivity, and its resolvent
against the formula at two check points) and then its measure.

Everything else comes from the eigenpairs of ``t_mu = V diag(w) V*``, which
the extension picture reads off ``eigh(A11)`` (``w = cay(a)`` on the first
``q1`` coordinates, ``-1`` on the last ``q``): for ``c = 1 - w - z (1 + w)``,
``V* R_z V = diag((1 + w)/c)`` and ``V* gamma(z) = diag(2/c) V* J``.  An
eigenvalue ``w = -1`` (mass at infinity) needs no special case: there
``c = 2``, so it adds 0 to ``R_z``, 1 to gamma.  The coordinates of the data
vectors are formed once per analysis, on its first transform, so one point of
the formula costs two products (the four blocks it reads, and no other) and
one inverse.  With ``K(z)^{-1}`` in hand, ``||K||_F ||K^{-1}||_F``, an upper
bound on ``cond_2 K``, certifies the point when it is within half of
``CONDITION_LIMIT``; only a point it cannot certify pays for an SVD, the
condition test itself, which then decides.  The parameter block at the base
point, ``tau0 - P* M(0) P``, takes the same certified inverse.

A parameter has one normal form, ``(finite_basis, tau0, poles)``
(:class:`TauParameter`), sized by its own matrices; it meets the defect
space only in :meth:`TauParameter.inclusion`.  Admissibility is read off
the normal form: ``tau(z)`` and ``tau(z)/z`` must
both be matrix Nevanlinna functions.  With PSD residues ``tau`` itself is,
and ``tau(z)/z = tau(0)/z + sum (W_k/p_k)/(p_k - z)``, so the class is
``tau(0) = tau0 + sum W_k/p_k <= 0`` with no residue on the negative axis
(Krein-Nudelman 1977, ch. V): constant members are the Hermitian
``tau <= 0``, rational members have their poles on the positive axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import PINV_RCOND, asymmetry, herm
from .errors import NotStieltjesClass, ParameterDegenerate, PropertyViolated, SchemaError
from .io import parse_complex, parse_hermitian, parse_matrix
from .shiftop import _off_positive_axis

__all__ = [
    "GammaWeyl",
    "TauParameter",
    "build_gamma_weyl",
    "make_tau",
    "check_stieltjes_class",
    "krein_resolvent",
    "solution_transform",
    "constant_tau_of_extension",
    "extension_of_constant_tau",
    "exit_space_extension",
]

#: the class conditions may fail by this much, relative to the form's scale
CLASS_TOL = 1e-9

#: condition-number guard for the parameter block of the resolvent formula
CONDITION_LIMIT = 1e12

#: check points and tolerance of the run-time checks on a recovered extension
#: (the tolerance also bounds how far an extension may differ from the
#: Friedrichs corner off the defect space in :func:`constant_tau_of_extension`)
CHECK_POINTS = (1.7j, -0.8 + 0.9j)
CHECK_TOL = 1e-7


@dataclass(frozen=True)
class GammaWeyl:
    """Gamma field and Weyl function data, based at ``z0 = -1``."""

    J: np.ndarray  # (d, q) isometry onto the defect space
    t_mu: np.ndarray  # Friedrichs-corner contraction
    M0: np.ndarray  # (q, q) limit of M at 0, ``2 G^{-1}``
    q: int
    w: np.ndarray  # (d,) eigenvalues of t_mu
    V: np.ndarray  # (d, d) eigenvectors of t_mu
    ov: np.ndarray  # (d, q) overlaps V* J
    vectors: np.ndarray  # the data vectors' source, ``rep.vectors``
    N: int  # the number of data vectors

    @property
    def dim(self):
        return self.t_mu.shape[0]

    @cached_property
    def _one_pm_w(self):
        """``(1 - w, 1 + w)``, so that ``c = (1 - w) - z (1 + w)``."""
        return 1.0 - self.w, 1.0 + self.w

    @cached_property
    def coordinates(self):
        """``(Y, Y*)`` for ``Y = _stacked(w, ov, V* Xi0)``, formed on first use;
        the factor is upper trapezoidal, so ``Xi0`` is zero below row ``N``."""
        N = self.N
        return _stacked(self.w, self.ov, self.V[:N].conj().T @ self.vectors[:N, :N])

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


def build_gamma_weyl(pic, rep):
    """Gamma field / Weyl function of a picture, with the data vectors
    ``xi_0 .. xi_{N-1}`` of ``rep`` (their coordinates are formed on the
    first :func:`solution_transform`).

    ``M(0)`` is read off the gap: the Krein corner is ``tau = 0``, so
    ``t_M = t_mu + 2 J M(0)^{-1} J*`` and ``M(0) = 2 G^{-1}``, from the
    eigenpairs of ``G`` the picture stores.  The gap is positive definite
    whenever the defect is not trivial, so the limit is always finite.  On a
    trivial defect (a determinate problem) the data are still well formed:
    ``J`` is ``d x 0``, ``M(0)`` is ``0 x 0``, and the ideal parameter gives
    the unique solution's transform.
    """
    J, w, V = pic.defect_basis, pic.w, pic.V
    g, U = pic.gap
    return GammaWeyl(J=J, t_mu=pic.t_mu, M0=herm(2.0 * (U / g) @ U.conj().T),
                     q=pic.defect_dim, w=w, V=V, ov=V.conj().T @ J,
                     vectors=rep.vectors, N=rep.gram.N)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class TauParameter:
    """A parameter of the resolvent formula, in one normal form.

    ``finite_basis`` (orthonormal columns in ``C^q``) spans the orthogonal
    complement of the relation part, the identity when there is none; the
    finite part acts there, in those coordinates:
    ``tau(z) = tau0 + sum_k W_k / (p_k - z)``.  The pure ideal parameter has
    a ``0 x 0`` ``tau0``, no poles and no ``finite_basis``, so it fits every
    defect space; any other fits the one its basis has rows for.
    """

    finite_basis: np.ndarray | None
    tau0: np.ndarray
    poles: tuple

    @property
    def finite_dim(self):
        return self.tau0.shape[0]

    @property
    def is_ideal(self):
        return self.finite_dim == 0

    def inclusion(self, q):
        """Isometry of the finite-part subspace into C^q."""
        if self.finite_basis is None:
            return np.zeros((q, 0), dtype=complex)
        if self.finite_basis.shape[0] != q:
            raise SchemaError(
                f"parameter lives on C^{self.finite_basis.shape[0]}, the defect space is C^{q}"
            )
        return self.finite_basis

    def value(self, z):
        """Finite part ``tau(z)`` in its own coordinates."""
        V = self.tau0.astype(complex)
        for p, W in self.poles:
            V = V + W / (p - z)
        return V


def _parse_ideal(vecs):
    """Orthonormal basis ``U[:, k:]`` of the orthogonal complement of the
    span of the ``k`` ``ideal_subspace`` vectors, from one complete SVD of
    their columns.  They must be independent: ``k`` at most their length
    and ``s_k > PINV_RCOND s_1``."""
    if not isinstance(vecs, list) or not vecs:
        raise SchemaError("mixed tau needs a non-empty 'ideal_subspace'")
    cols = [
        parse_matrix([v], where=f"ideal_subspace[{i}]").ravel()
        for i, v in enumerate(vecs)
    ]
    if len({c.size for c in cols}) != 1:
        raise SchemaError("ideal_subspace vectors have unequal lengths")
    raw = np.column_stack(cols)
    length, k = raw.shape
    U, s, _ = np.linalg.svd(raw)
    if k > length or not s[k - 1] > PINV_RCOND * s[0]:
        raise SchemaError("ideal_subspace vectors are linearly dependent")
    return U[:, k:]


def _parse_poles(raw):
    """Validated ``(p, W)`` pairs, every residue PSD."""
    if not isinstance(raw, list):
        raise SchemaError("'poles' must be an array")
    poles = []
    for i, p in enumerate(raw):
        if not isinstance(p, dict) or "p" not in p or "W" not in p:
            raise SchemaError(f"pole {i} must have keys 'p' and 'W'")
        pos = p["p"]
        if not isinstance(pos, (int, float)) or isinstance(pos, bool):
            raise SchemaError(f"pole {i}: 'p' must be a real number")
        pos = parse_complex(pos, where=f"pole {i}: 'p'").real
        if pos == 0.0:
            raise SchemaError(f"pole {i}: a pole at 0 is not admissible")
        poles.append((float(pos), parse_hermitian(p["W"], f"pole {i} residue", psd=True)))
    return tuple(poles)


def make_tau(spec, require_class=False):
    """Build a validated :class:`TauParameter` from a parsed description.

    Accepted shapes::

        {"type": "infinite"}
        {"type": "constant", "matrix": [[...]]}
        {"type": "rational", "tau0": [[...]], "poles": [{"p": x, "W": [[...]]}]}
        {"type": "mixed", "ideal_subspace": [[...], ...], <finite part>}

    All four are sugar for the one normal form ``(finite_basis, tau0, poles)``:
    ``infinite`` is an empty finite part, ``constant`` a ``tau0`` without
    poles, and ``mixed`` a rational finite part acting on the orthogonal
    complement of ``ideal_subspace``, in the coordinates of the trailing left
    singular vectors of the ``ideal_subspace`` columns.  Every matrix is read
    at its square shape, so ``[[re, im]]`` is the ``1 x 1`` matrix
    ``re + i im``, as in a moments document.  The parameter is sized by one
    rule, after reading: the finite part has the dimension of the complement
    for ``mixed``, else the first residue's, else ``tau0``'s, and every
    residue and ``tau0`` must agree with it.  The defect space it must fit is
    matched later, by :meth:`TauParameter.inclusion`.  Class membership
    (:func:`check_stieltjes_class`) is tested only when ``require_class`` is
    set, in which case a failing parameter raises :class:`NotStieltjesClass`
    naming the failed condition.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("tau description must be an object with a 'type'")
    kind = spec["type"]
    if kind not in ("infinite", "constant", "rational", "mixed"):
        raise SchemaError(f"unknown tau type {kind!r}")

    basis = None
    if kind == "infinite":
        tau0, poles = np.zeros((0, 0), dtype=complex), ()
    else:
        if kind == "mixed":
            basis = _parse_ideal(spec.get("ideal_subspace"))
        if kind == "constant":
            tau0, poles = parse_hermitian(spec.get("matrix"), "constant tau matrix"), ()
        else:
            tau0_raw, poles_raw = spec.get("tau0"), spec.get("poles", [])
            if tau0_raw is None and not poles_raw:
                raise SchemaError("rational tau needs 'tau0' and/or 'poles'")
            poles = _parse_poles(poles_raw)
            tau0 = None if tau0_raw is None else parse_hermitian(tau0_raw, "tau0")
        n = basis.shape[1] if basis is not None else (poles[0][1] if poles else tau0).shape[0]
        for i, (_, W) in enumerate(poles):
            if W.shape[0] != n:
                raise SchemaError(f"pole {i}: residue size mismatch")
        if tau0 is None:
            tau0 = np.zeros((n, n), dtype=complex)
        elif tau0.shape[0] != n:
            raise SchemaError("tau0 size mismatch")
        if basis is None:
            basis = np.eye(n, dtype=complex)

    tau = TauParameter(finite_basis=basis, tau0=tau0, poles=poles)
    margin, condition = _worst_condition(tau) if require_class else (0.0, None)
    if margin < 0.0:
        raise NotStieltjesClass(f"parameter is not Stieltjes class: {condition}", worst_eig=margin)
    return tau


def _worst_condition(tau):
    """``(margin, condition)`` of the class condition nearest to failing."""
    if tau.is_ideal:
        return 0.0, None
    scales = [np.abs(W).max() / abs(p) for p, W in tau.poles]
    bound = CLASS_TOL * float(max(1.0, np.abs(tau.tau0).max(), *scales))
    lam = float(np.linalg.eigvalsh(tau.value(0.0))[-1])
    conditions = [(bound - lam, f"tau(0) has eigenvalue {lam:.3e} > 0")]
    for p, W in tau.poles:
        if p < 0.0:
            lam = float(np.linalg.eigvalsh(W)[-1])
            conditions.append((bound - lam / -p, f"pole p = {p:.6g} lies on the "
                               f"negative axis (residue eigenvalue {lam:.3e})"))
    return min(conditions, key=lambda c: c[0])


def check_stieltjes_class(tau):
    """Admissibility of a :class:`TauParameter`, read off its normal form:
    ``lambda_max(tau(0))`` and, for each pole ``p_k < 0``,
    ``lambda_max(W_k)/|p_k|`` may not exceed ``CLASS_TOL s``, with
    ``s = max(1, |tau0|, |W_k|/|p_k|)`` in max-entry norms.  The ideal
    parameter passes vacuously.

    Returns ``(passed, margin)``: the bound less the worst value, ``>= 0``
    inside the class.
    """
    margin = _worst_condition(tau)[0]
    return margin >= 0.0, margin


# ---------------------------------------------------------------------------
# the resolvent formula


def _certified_solve(K, B, z):
    """``K^{-1} B`` for the parameter block ``K = K(z)``, refused when its
    condition number exceeds ``CONDITION_LIMIT``.  One inverse gives
    ``K^{-1}``, and ``cond_2(K) <= ||K||_F ||K^{-1}||_F``, so a bound within
    half the limit accepts (the margin absorbs the inverse's roundoff).  Any
    other case (a larger bound, a NaN, an exactly singular pivot) takes the
    SVD test, where an all-zero block counts as infinitely ill-conditioned.
    """
    try:
        Ki = np.linalg.inv(K)
        # the squares as Python floats: their true product is at least the
        # block's size, so a square that underflows comes with one that
        # overflows, and inf or 0 * inf = NaN fails the test, without a warning
        if float(np.vdot(K, K).real) * float(np.vdot(Ki, Ki).real) <= (
            CONDITION_LIMIT / 2
        ) ** 2:
            return Ki @ B
    except np.linalg.LinAlgError:
        Ki = None
    s = np.linalg.svd(K, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise ParameterDegenerate(
            f"parameter block at z = {z} has condition above {CONDITION_LIMIT:.0e}"
        )
    return np.linalg.solve(K, B) if Ki is None else Ki @ B


def _compressed_resolvent(gw, tau, z, Y, Yh):
    """``P* (V* R(tau, z) V) P`` for ``(Y, Yh) = _stacked(gw.w, gw.ov, P)``:
    two products with ``diag(g) Y`` give the four blocks the formula reads,
    then one certified inverse applies the parameter block
    ``K = tau(z) + I* (M(z) - M(0)) I``, assembled in place (``I``, the
    finite-part inclusion of ``tau``, is skipped when it is the identity)."""
    z = _off_positive_axis(z)
    a, b = gw._one_pm_w
    gY = (2.0 / (a - z * b))[:, None] * Y
    q, n = gw.q, (Y.shape[1] - gw.q) // 2
    if tau.is_ideal:
        return Yh[n + q :] @ gY[:, :n]
    HC, MB = Yh[n + q :] @ gY[:, : n + q], Yh[n : n + q] @ gY[:, n:]
    K, B, C = (z + 1.0) * MB[:, :q] - gw.M0, MB[:, q:], HC[:, n:]
    inc = tau.inclusion(q)
    if tau.finite_dim < q:
        inch = inc.conj().T
        K, B, C = inch @ K @ inc, inch @ B, C @ inc
    K += tau.tau0
    for p, W in tau.poles:
        K += W / (p - z)
    return HC[:, :n] - C @ _certified_solve(K, B, z)


def krein_resolvent(gw, tau, z):
    """Generalized resolvent ``R_z - gamma(z) K(z)^{-1} gamma(conj(z))*`` on
    all of ``C^d``: the compressed formula at the coordinates ``P = V*``.
    ``K(z)^{-1}`` is embedded by zero on the relation part, so the pure ideal
    parameter returns the Friedrichs-corner resolvent unchanged."""
    return _compressed_resolvent(gw, tau, z, *_stacked(gw.w, gw.ov, gw.V.conj().T))


def solution_transform(gw, tau, rep, N, z):
    """Matrix Stieltjes transform of the solution attached to ``tau``; the
    coordinates stored on ``gw`` serve when ``rep`` and ``N`` are its own."""
    if rep.vectors is gw.vectors and N == gw.N:
        Y, Yh = gw.coordinates
    else:
        Y, Yh = _stacked(gw.w, gw.ov, gw.V.conj().T @ rep.vectors[:, :N])
    return _compressed_resolvent(gw, tau, z, Y, Yh)


# ---------------------------------------------------------------------------
# canonical correspondence at the base point
#
# At z = -1 the formula is closed: gamma(-1) = J, M(-1) = 0 and
# R_{-1} = (E + t)/2, so a Hermitian constant tau and its in-space extension
# t are related by
#
#     t = t_mu - 2 J (tau - M(0))^{-1} J*,    tau = M(0) - 2 (J* (t - t_mu) J)^{-1}.


def constant_tau_of_extension(gw, t):
    """Hermitian constant parameter reproducing a contractive extension.

    Raises :class:`ParameterDegenerate` when ``t`` does not differ from the
    Friedrichs corner on the defect space alone (it is not an in-space
    extension), or when it touches that corner (the parameter is the ideal
    element, or has an ideal part).
    """
    J = gw.J
    diff = np.asarray(t, dtype=complex) - gw.t_mu
    D = herm(J.conj().T @ diff @ J)
    off = float(np.abs(diff - J @ D @ J.conj().T).max())
    if off > CHECK_TOL:  # entries of a contraction are at most 1: relative
        raise ParameterDegenerate(
            f"extension differs from the Friedrichs corner by {off:.3e} off "
            "the defect space; it is not an in-space extension"
        )
    if np.linalg.norm(D) < 1e-13:
        raise ParameterDegenerate(
            "extension coincides with the Friedrichs corner; the "
            "parameter is the ideal element"
        )
    if np.linalg.cond(D) > CONDITION_LIMIT:
        raise ParameterDegenerate(
            "extension agrees with the Friedrichs corner on a subspace; "
            "the parameter has an ideal part"
        )
    return herm(gw.M0 - 2.0 * np.linalg.inv(D))


def _verified(gw, tau, t):
    """``(herm(t), w, V)`` after the run-time checks, all read off one
    ``eigh(herm(t)) = (w, V)``: ``t`` is Hermitian, contractive
    (``max |w| <= 1 + CHECK_TOL``), and at the check points its resolvent
    ``V_d diag((1 + w)/((1 - z) - (1 + z) w)) V_d*`` over the leading ``d``
    rows of ``V`` (the leading block, for an exit-space ``t``) is the one the
    formula returns for ``tau``."""
    if asymmetry(t) > CHECK_TOL * max(1.0, float(np.abs(t).max())):
        raise PropertyViolated("recovered extension is not Hermitian", witness=t)
    t = herm(t)
    w, V = np.linalg.eigh(t)
    if float(np.abs(w).max()) > 1.0 + CHECK_TOL:
        raise PropertyViolated("recovered extension is not a contraction", witness=t)
    Vd = V[: gw.dim]
    Y, Yh = _stacked(gw.w, gw.ov, gw.V.conj().T)  # krein_resolvent's, for both points
    for zc in CHECK_POINTS:
        R = (Vd * ((1.0 + w) / ((1.0 - zc) - (1.0 + zc) * w))) @ Vd.conj().T
        err = np.abs(_compressed_resolvent(gw, tau, zc, Y, Yh) - R).max()
        if err > CHECK_TOL:
            raise PropertyViolated(
                f"recovered extension mismatches the formula at z = {zc} "
                f"({err:.3e})",
                witness=t,
            )
    return t, w, V


def extension_of_constant_tau(gw, tau):
    """Contractive extension whose resolvent the formula returns for ``tau``.

    Valid for parameters without z-dependence (constant, ideal, or mixed with
    constant finite part): these correspond to extensions inside the space,
    :func:`exit_space_extension` without its pole block.
    """
    if tau.poles:
        raise ValueError("only constant/ideal parameters define an in-space extension")
    return exit_space_extension(gw, tau)


def _pole_factors(tau):
    """``(B, p)`` with ``sum_k W_k / (p_k - z) = B* diag(1/(p - z)) B``: each
    residue factored at its rank as ``W_k = B_k* B_k``, the ``B_k`` stacked."""
    rows = [np.zeros((0, tau.finite_dim), dtype=complex)]
    pos = []
    for p, W in tau.poles:
        w, U = np.linalg.eigh(herm(W))
        keep = w > PINV_RCOND * float(np.abs(w).max())
        rows.append(np.sqrt(w[keep])[:, None] * U[:, keep].conj().T)
        pos += [p] * int(keep.sum())
    return np.vstack(rows), np.array(pos)


def exit_space_extension(gw, tau):
    """Contraction on ``C^d + C^r`` whose resolvent, compressed to ``C^d``, is
    the one the formula returns for ``tau`` (``r`` = summed residue ranks).

    With ``Q = tau0 - P* M(0) P``, ``t_c = t_mu - 2 J P Q^{-1} P* J*`` (the
    extension of ``tau0`` alone), ``W_k = B_k* B_k``,
    ``D' = diag(p) + B Q^{-1} B*``, ``Y = B Q^{-1} P* J*`` and
    ``S = (E + D')^{-1}``::

        T = [[t_c + 2 Y* S Y, 2 Y* S], [2 S Y, (E - D') S]]

    Woodbury makes ``t_mu - 2 J P (tau(z) - P* M(0) P)^{-1} P* J*`` equal to
    ``t_c + 2 Y* (D' - z)^{-1} Y``, the Schur complement of ``T`` that its
    compressed resolvent sees.  Admissible parameters give ``D' >= 0``.
    Without poles (``r = 0``) ``T = t_c``, an extension inside the space; the
    ideal parameter (``P`` with no columns) gives ``t_mu``.  ``Q`` takes the
    certified inverse of every point of the formula, at ``z = -1``, and ``T``
    is verified once, by :func:`_verified`.
    """
    return _extension(gw, tau)[0]


def _extension(gw, tau):
    """``(T, w, V)``: :func:`exit_space_extension` and the eigenpairs of
    ``herm(T)``, from the one ``eigh`` that verifies it."""
    B, p = _pole_factors(tau)
    d, r = gw.dim, len(p)
    P = tau.inclusion(gw.q)
    JP = gw.J @ P
    Q = tau.tau0 - P.conj().T @ gw.M0 @ P
    X = _certified_solve(Q, np.hstack([JP.conj().T, B.conj().T]), -1)
    QiJP, QiB = X[:, :d], X[:, d:]
    t = np.zeros((d + r, d + r), dtype=complex)
    t[:d, :d] = gw.t_mu - 2.0 * JP @ QiJP
    if r:
        delta, U = np.linalg.eigh(herm(np.diag(p) + B @ QiB))
        if delta.min() < -CHECK_TOL * max(1.0, float(np.abs(delta).max())):
            raise PropertyViolated(
                f"pole block D' has eigenvalue {delta.min():.3e} < 0; the "
                "exit-space extension is not a contraction"
            )
        # T = diag(t_c, -E) + 2 [Y, E]* S [Y, E], with S = U diag(1/(1 + delta)) U*
        Z = U.conj().T @ np.hstack([B @ QiJP, np.eye(r)])
        t[d:, d:] = -np.eye(r)
        t += 2.0 * Z.conj().T @ (Z / (1.0 + delta)[:, None])
    return _verified(gw, tau, t)
