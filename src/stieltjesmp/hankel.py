"""Moment sequences, block Hankel matrices, the scalarized Gram, and the
positive-semidefiniteness solvability check.

The data of the problem are Hermitian ``N x N`` matrices ``S_0 .. S_m``: the
power moments of a sought non-decreasing matrix function on ``[0, inf)``.
Solvability is governed by two families of block Hankel matrices: the plain
one with block ``(i, j)`` equal to ``S_{i+j}`` and the shifted one with block
``S_{i+j+1}``; the problem admits a solution exactly when every representable
matrix of both families is positive semi-definite and the range condition
holds: the family whose maximal matrix stops at ``S_{m-1}`` has its next block
column ``[S_{n+1}; ..; S_m]`` in that matrix's range (Krein-Krasnoselskiy;
Dyukarev, Math. Notes 75, 2004).  One natural-order factor of each family's
maximal matrix decides every order and the range condition
(:func:`check_solvable`).

Everything downstream works with the scalarized Gram: the plain block Hankel
of maximal representable order ``n = floor(m/2)`` viewed entrywise, so that
``gamma[r*N + j, t*N + k] = S_{r+t}[j, k]``, built and factored once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from ._linalg import herm
from .errors import NotHermitian, OrderTooHigh, SchemaError
from .gns import natural_factor
from .io import HERMITIAN_TOL, parse_matrix

__all__ = [
    "MomentSequence",
    "ScalarGram",
    "SolvabilityReport",
    "moment_sequence",
    "load_moments",
    "build_gamma",
    "scalarize",
    "check_solvable",
]

#: default relative PSD tolerance of the solvability verdict
DEFAULT_PSD_TOL = 1e-10


@dataclass(frozen=True)
class MomentSequence:
    """A finite prefix ``S_0 .. S_m`` of Hermitian ``N x N`` moment matrices."""

    N: int
    moments: tuple

    @property
    def m(self):
        """Highest moment index."""
        return len(self.moments) - 1

    @property
    def n(self):
        """Construction order: largest n with ``S_{2n}`` available."""
        return self.m // 2


@dataclass(frozen=True)
class ScalarGram:
    """The maximal plain block Hankel matrix viewed as a scalar Gram matrix.

    ``gamma[r*N + j, t*N + k] = S_{r+t}[j, k]`` for ``0 <= r, t <= n``.  The
    construction copies each entry from the same source matrix, so the shift
    identity ``gamma[a + N, b] == gamma[a, b + N]`` holds bit-for-bit.
    """

    size: int
    gamma: np.ndarray
    N: int
    n: int


@dataclass(frozen=True)
class SolvabilityReport:
    """Per order ``k``, the smallest relative pivot ``pivot / max(G_jj, 1)``
    over the leading ``(k+1)N`` columns of each family's factor, and the
    verdict.  Not reported: ``plain``, the :class:`ScalarGram` and its
    factor (the arguments of :func:`gns.build_space`), and ``fault``, the
    first failed condition of a ``"not solvable"`` verdict."""

    plain_min_pivots: tuple
    shifted_min_pivots: tuple
    verdict: str  # "solvable" | "not solvable" | "marginal"
    psd_tol: float
    max_plain_order: int
    max_shifted_order: int
    plain: tuple = field(default=None, repr=False, compare=False)
    fault: str | None = field(default=None, repr=False, compare=False)

    def to_dict(self):
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("plain", "fault")},
            "note": (
                "verdict certifies positive semi-definiteness of the block "
                "Hankel matrices up to the stated orders only"
            ),
        }


def _validate_matrices(mats, N):
    """Hermitian-validate and symmetrize a list of N x N arrays, reading each
    one's scale and asymmetry off one stack of them all."""
    for p, S in enumerate(mats):
        if S.shape != (N, N):
            raise SchemaError(f"moment {p}: expected shape {(N, N)}, got {S.shape}")
    S = np.array(mats, dtype=complex)
    scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
    asym = np.abs(S - S.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    for p in np.flatnonzero(asym > 0.0):
        if asym[p] > HERMITIAN_TOL * scale[p]:
            raise NotHermitian(
                f"moment {p} deviates from Hermitian symmetry by {asym[p]:.3e} "
                f"(tolerance {HERMITIAN_TOL * scale[p]:.3e})"
            )
        warnings.warn(f"moment {p}: symmetrized asymmetry {asym[p]:.3e}", stacklevel=3)
        S[p] = herm(S[p])
    return tuple(S)


def moment_sequence(matrices, N=None):
    """Build a validated :class:`MomentSequence` from in-memory matrices."""
    matrices = [np.atleast_2d(np.asarray(S, dtype=complex)) for S in matrices]
    if not matrices:
        raise SchemaError("a moment sequence needs at least S_0")
    if N is None:
        N = matrices[0].shape[0]
    if N < 1:
        raise SchemaError("block size N must be >= 1")
    return MomentSequence(N=int(N), moments=_validate_matrices(matrices, N))


def load_moments(raw):
    """Validate a parsed moments document and return a :class:`MomentSequence`.

    Parameters
    ----------
    raw : dict
        Parsed JSON of shape ``{"N": int, "moments": [matrix, ...]}``, each
        ``N x N`` matrix read by :func:`io.parse_matrix` (the wire format's
        one reader).  Asymmetry up to ``HERMITIAN_TOL`` times the matrix scale
        is symmetrized with a warning; anything larger raises.

    Raises
    ------
    SchemaError
        Malformed document.
    NotHermitian
        A moment matrix is asymmetric beyond tolerance.
    """
    if not isinstance(raw, dict):
        raise SchemaError("moments document must be a JSON object")
    if "N" not in raw or "moments" not in raw:
        raise SchemaError("moments document must have keys 'N' and 'moments'")
    N = raw["N"]
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise SchemaError("'N' must be a positive integer")
    mom_raw = raw["moments"]
    if not isinstance(mom_raw, list) or not mom_raw:
        raise SchemaError("'moments' must be a non-empty array")
    mats = [
        parse_matrix(Sj, shape=(N, N), where=f"moments[{p}]")
        for p, Sj in enumerate(mom_raw)
    ]
    return MomentSequence(N=N, moments=_validate_matrices(mats, N))


def _block_hankel(seq, n, offset):
    """The ``((n+1)N, (n+1)N)`` block Hankel of order n whose block
    ``(i, j)`` is ``S_{i+j+offset}``."""
    top = 2 * n + offset
    if top > seq.m:
        raise OrderTooHigh(f"order {n} needs S_{top} but data stop at S_{seq.m}")
    N = seq.N
    G = np.empty(((n + 1) * N, (n + 1) * N), dtype=complex)
    for i in range(n + 1):
        for j in range(n + 1):
            G[i * N : (i + 1) * N, j * N : (j + 1) * N] = seq.moments[i + j + offset]
    return G


def build_gamma(seq, n):
    """Plain block Hankel of order n: block ``(i, j)`` is ``S_{i+j}``."""
    return _block_hankel(seq, n, 0)


def scalarize(seq):
    """Scalarized Gram of the maximal representable order ``n = floor(m/2)``."""
    n = seq.n
    G = build_gamma(seq, n)
    return ScalarGram(size=(n + 1) * seq.N, gamma=G, N=seq.N, n=n)


def _range_fault(seq, G, factor, tol):
    """The range condition on the family whose maximal Hankel ``G`` stops at
    ``S_{m-1}``, read off its factor ``R``: on each dropped column ``k``, the
    Schur complement ``s_k = b_k - R[:, k]* X`` of the next block column
    ``b = [S_{n+1}; ..; S_m]``, with ``X = T^{-*} b_kept`` its coordinates on
    the kept columns ``T``, must keep :func:`gns.natural_factor`'s
    Cauchy-Schwarz bound ``|s_kj|^2 <= tol c_k c_j``.  The diagonal entry of
    ``b``'s column ``j`` needs ``S_{m+1}``; ``c_j = max(||X_j||^2, 1)`` takes
    the least value it can have.  Returns the failure, or ``None``."""
    R = factor[0]
    kept = (R != 0).argmax(axis=1)  # the first nonzero of a row is its pivot
    drop = np.flatnonzero(np.bincount(kept, minlength=G.shape[0]) == 0)
    if not drop.size:
        return None
    b = np.vstack(seq.moments[seq.n + 1 :])
    X = np.linalg.solve(R[:, kept].conj().T, b[kept])
    s = b[drop] - R[:, drop].conj().T @ X
    c_k = np.maximum(G.diagonal().real[drop], 1.0)
    c_j = np.maximum((np.abs(X) ** 2).sum(axis=0), 1.0)
    ratio = np.abs(s) ** 2 / np.outer(c_k, c_j)
    k, j = np.unravel_index(ratio.argmax(), ratio.shape)
    if ratio[k, j] <= tol:
        return None
    return (
        f"range condition: [S_{seq.n + 1}; ..; S_{seq.m}] is not in the range of "
        f"the {('shifted', 'plain')[seq.m % 2]} Hankel of order "
        f"{G.shape[0] // seq.N - 1}: its column {drop[k]} is dropped but its "
        f"Schur complement against column {j} of S_{seq.m} is {abs(s[k, j]):.3e}"
    )


def check_solvable(seq, psd_tol=DEFAULT_PSD_TOL):
    """Decide every representable Hankel matrix from one
    :func:`gns.natural_factor` at ``psd_tol`` of each family's maximal one,
    whose leading ``(k+1)N`` block is the Hankel of order ``k``: ``"not
    solvable"`` when a factor has a fault or the range condition fails
    (:func:`_range_fault`, on the plain family for odd ``m`` and the shifted
    one for even ``m``), ``"marginal"`` when a factor drops a column,
    ``"solvable"`` otherwise.  The plain one is the scalarized Gram."""
    gram, top = scalarize(seq), (seq.m - 1) // 2  # the maximal shifted order
    shifted = _block_hankel(seq, top, 1)
    factors = [natural_factor(G, psd_tol) for G in (gram.gamma, shifted)]
    verdict, pivots, fault = "solvable", [], None
    for name, (R, rel, f) in zip(("plain", "shifted"), factors):
        pivots.append(tuple(np.minimum.accumulate(rel)[seq.N - 1 :: seq.N].tolist()))
        if R.shape[0] < rel.size:
            verdict = "marginal"
        fault = fault or (f and f"{name} Hankel: {f}")
    if not fault and seq.m:
        G, f = (gram.gamma, factors[0]) if seq.m % 2 else (shifted, factors[1])
        fault = _range_fault(seq, G, f, psd_tol)
    if fault:
        verdict = "not solvable"
    return SolvabilityReport(
        plain_min_pivots=pivots[0],
        shifted_min_pivots=pivots[1],
        verdict=verdict,
        psd_tol=psd_tol,
        max_plain_order=seq.n,
        max_shifted_order=top,
        plain=(gram, factors[0]),
        fault=fault,
    )
