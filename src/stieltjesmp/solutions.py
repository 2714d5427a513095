"""Discrete matrix measures: the forward oracle, verification and
transforms.

A solution is held as atoms ``(lambda_i, W_i)`` with ``lambda_i >= 0`` and
PSD ``N x N`` weights; the non-decreasing matrix function it induces is the
left-continuous cumulative ``M(lambda) = sum_{lambda_i < lambda} W_i`` with
``M(0) = 0``.  ``moments_of_measure`` is the brute-force oracle the whole
package is verified against: moments by direct summation, every order at once
as the Vandermonde product ``(lambda_i^p) @ (W_i)`` over the atoms.

Every measure the pipeline emits is the exact spectral measure of an
extension, so no measure is recovered from its transform here; the
Stieltjes-Perron scan that does so approximately is a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import herm
from .errors import PoleHit

__all__ = [
    "SolutionMeasure",
    "solution_measure",
    "moments_of_measure",
    "verify_moments",
    "transform_of_measure",
    "random_discrete_measure",
    "measure_distance",
]


@dataclass(frozen=True)
class SolutionMeasure:
    """Non-negative discrete matrix measure on ``[0, inf)``.

    ``atoms`` is sorted by position with strictly increasing positions;
    ``mass_at_infinity``, when not ``None``, records the weight carried by the
    point at infinity of a relation-type extension (such a measure cannot
    reproduce the full moment data and is excluded from round-trip gates).
    """

    N: int
    atoms: tuple
    mass_at_infinity: np.ndarray | None = None

    @property
    def positions(self):
        return np.array([lam for lam, _ in self.atoms])

    def cumulative(self, lam):
        """Left-continuous cumulative ``sum_{lambda_i < lam} W_i``."""
        Z = np.zeros((self.N, self.N), dtype=complex)
        for pos, W in self.atoms:
            if pos < lam:
                Z = Z + W
        return Z


def solution_measure(N, atoms, mass_at_infinity=None):
    """Canonicalize raw (position, weight) pairs into a measure.

    Positions are validated non-negative (slack 1e-12, tiny negatives
    clamped), sorted, and atoms at the same position merged by summing
    weights.
    """
    cleaned = []
    for lam, W in atoms:
        lam = float(lam)
        if lam < -1e-12:
            raise ValueError(f"atom position {lam} below the support [0, inf)")
        W = herm(np.asarray(W, dtype=complex))
        cleaned.append((max(lam, 0.0), W))
    cleaned.sort(key=lambda a: a[0])
    merged = []
    for lam, W in cleaned:
        if merged and lam == merged[-1][0]:
            merged[-1] = (merged[-1][0], herm(merged[-1][1] + W))
        else:
            merged.append((lam, W))
    if mass_at_infinity is not None:
        mass_at_infinity = herm(np.asarray(mass_at_infinity, dtype=complex))
    return SolutionMeasure(
        N=int(N), atoms=tuple(merged), mass_at_infinity=mass_at_infinity
    )


def moments_of_measure(meas, p_max):
    """Moments ``S_p = sum_i lambda_i^p W_i`` by direct summation (oracle),
    for every ``p <= p_max`` at once: the Vandermonde matrix ``lambda_i^p``
    times the stacked weights.  The weights are stacked ``p_max + 1`` atoms
    at a time, so the stack never takes more memory than the moments."""
    from .hankel import moment_sequence

    N, P = meas.N, int(p_max) + 1
    powers = meas.positions[None, :] ** np.arange(P)[:, None]
    S = np.zeros((P, N * N), dtype=complex)
    for i in range(0, len(meas.atoms), P):
        block = np.array([W for _, W in meas.atoms[i : i + P]], dtype=complex)
        S += powers[:, i : i + P] @ block.reshape(-1, N * N)
    S = S.reshape(P, N, N)
    return moment_sequence([herm(Sp) for Sp in S], N=N)


def verify_moments(meas, seq, upto=None, rtol=1e-8):
    """Per-order relative errors of the measure's moments against ``seq``.

    Error at order p is ``||sum lambda^p W - S_p||_F / max(1, ||S_p||_F)``;
    the report passes iff every error is at most ``rtol``.
    """
    if meas.N != seq.N:
        raise ValueError(f"the measure has N={meas.N} but the moments have N={seq.N}")
    if upto is None:
        upto = seq.m
    if not 0 <= upto <= seq.m:
        raise ValueError(f"upto={upto} lies outside the data's orders 0..{seq.m}")
    got = moments_of_measure(meas, upto)
    errors = []
    for p in range(upto + 1):
        ref = seq.moments[p]
        err = np.linalg.norm(got.moments[p] - ref) / max(1.0, np.linalg.norm(ref))
        errors.append(float(err))
    ok = all(e <= rtol for e in errors)
    return {
        "pass": ok,
        "rtol": float(rtol),
        "upto": int(upto),
        "errors": errors,
        "worst_order": int(np.argmax(errors)) if errors else 0,
        "has_mass_at_infinity": meas.mass_at_infinity is not None,
    }


def transform_of_measure(meas, z):
    """Matrix Stieltjes transform ``sum_i W_i / (lambda_i - z)``."""
    z = complex(z)
    N = meas.N
    F = np.zeros((N, N), dtype=complex)
    for lam, W in meas.atoms:
        if abs(lam - z) <= 1e-12:
            raise PoleHit(f"z = {z} hits the atom at {lam}")
        F = F + W / (lam - z)
    return F


# ---------------------------------------------------------------------------
# generation and comparison utilities


def random_discrete_measure(seed, N, count, lam_range=(0.0, 10.0), min_sep=0.0):
    """Deterministic random measure: atoms uniform in ``lam_range``, weights
    ``W = G* G / N`` for complex Gaussian ``G`` (PSD, a.s. full rank)."""
    rng = np.random.default_rng(seed)
    lo, hi = lam_range
    positions = []
    guard = 0
    while len(positions) < count:
        lam = float(rng.uniform(lo, hi))
        if all(abs(lam - p) >= min_sep for p in positions):
            positions.append(lam)
        guard += 1
        if guard > 10000:
            raise ValueError("cannot place atoms with the requested separation")
    atoms = []
    for lam in sorted(positions):
        G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        W = herm(G.conj().T @ G) * (1.0 / N)
        atoms.append((lam, W))
    return solution_measure(N, atoms)


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
