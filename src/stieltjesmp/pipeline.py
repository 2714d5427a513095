"""End-to-end orchestration: moments in, analyzed operator picture and
solution measures out.

This is the layer the command-line tool and the demos drive; each stage is a
thin composition of the module-level operations so intermediate objects stay
inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from . import hankel
from .errors import MomentProblemError, NotIndeterminate, WeylLimitDivergent
from .extensions import (
    DET_TOL,
    determinacy,
    extend_ext,
    extremal_extensions,
    spectral_solution,
)
from .gns import build_space
from .krein import build_gamma_weyl, constant_tau_of_extension, exit_space_extension
from .shiftop import build_shift
from .solutions import verify_moments

__all__ = ["Tolerances", "Analysis", "analyze", "solve_tau_grid", "solve_with_tau"]


@dataclass(frozen=True)
class Tolerances:
    psd_tol: float = 1e-10
    rank_tol: float = 1e-10
    consistency_tol: float = 1e-8
    det_tol: float = DET_TOL
    rtol: float = 1e-8
    # not a setting: no library code reads it, only the benchmark harness
    invert_rtol: ClassVar[float] = 1e-3


@dataclass(frozen=True)
class Analysis:
    """Everything the pipeline derives from a moment sequence."""

    seq: object
    solvability: object
    gram: object
    rep: object
    shift: object
    picture: object  # with extremal extensions
    verdict: object
    extended: object | None = None  # regularized picture, indeterminate case only
    gamma_weyl: object | None = None
    gamma_weyl_error: str | None = None

    @property
    def N(self):
        return self.seq.N

    def require_gamma_weyl(self):
        if self.gamma_weyl is None:
            raise WeylLimitDivergent(
                self.gamma_weyl_error or "no boundary data (determinate problem)"
            )
        return self.gamma_weyl


def analyze(seq, tols=Tolerances()):
    """Run the construction through the determinacy decision.

    For indeterminate problems the regularized picture and the boundary data
    (gamma field / Weyl function) are attached; a divergent Weyl limit is
    recorded rather than raised so that callers needing only the verdict
    still succeed.
    """
    solv = hankel.check_solvable(seq, tols.psd_tol)
    gram = hankel.scalarize(seq)
    rep = build_space(gram, tols.rank_tol)
    shift = build_shift(rep, tol=tols.consistency_tol)
    pic = extremal_extensions(shift)
    verdict = determinacy(pic, det_tol=tols.det_tol)
    extended = None
    gw = None
    gw_error = None
    if not verdict.determinate:
        extended = extend_ext(pic)
        try:
            gw = build_gamma_weyl(extended, rep)
        except (WeylLimitDivergent, NotIndeterminate) as exc:
            gw_error = str(exc)
    return Analysis(
        seq=seq,
        solvability=solv,
        gram=gram,
        rep=rep,
        shift=shift,
        picture=pic,
        verdict=verdict,
        extended=extended,
        gamma_weyl=gw,
        gamma_weyl_error=gw_error,
    )


def _gated(analysis, meas, rtol):
    """Attach the verification report; refuse silently-broken measures.  Every
    measure the solvers emit is the spectral measure of an extension, so it
    is marked exact."""
    report = verify_moments(meas, analysis.seq, upto=2 * analysis.seq.n, rtol=rtol)
    return {"measure": meas, "verification": report, "exact": True}


def unique_solution(analysis, tols=Tolerances()):
    """Solution of a determinate problem (spectral measure of the unique
    non-negative extension)."""
    if not analysis.verdict.determinate:
        raise MomentProblemError("problem is not determinate")
    meas = spectral_solution(analysis.picture.t_mu, analysis.rep, analysis.N)
    return _gated(analysis, meas, tols.rtol)


def solve_tau_grid(analysis, count, tols=Tolerances()):
    """Canonical solutions along the extension segment.

    Emits ``count`` measures from the contractive extensions
    ``t_mu + s C`` at ``s = (j+1)/count``; the Krein corner
    (``s = 1``) is included, and the Friedrichs corner is approached but
    excluded because its measure carries mass at infinity and cannot
    reproduce the top moment.  Each entry reports the Hermitian-constant
    parameter its extension corresponds to.
    """
    pic = analysis.picture
    out = []
    for j in range(int(count)):
        s = (j + 1) / count
        t = pic.t_mu + s * pic.C
        meas = spectral_solution(t, analysis.rep, analysis.N)
        entry = _gated(analysis, meas, tols.rtol)
        entry["s"] = s
        if analysis.gamma_weyl is not None:
            try:
                entry["tau_constant"] = constant_tau_of_extension(
                    analysis.gamma_weyl, t
                )
            except MomentProblemError:
                entry["tau_constant"] = None
        out.append(entry)
    return out


def solve_with_tau(analysis, tau, tols=Tolerances()):
    """Solution attached to one parameter: the spectral measure of the
    extension it defines, exact and gated at ``tols.rtol``.

    A parameter without poles defines an extension inside the representation
    space; a rational one ``tau0 + sum W_k / (p_k - z)`` defines an
    exit-space extension, a contraction on ``C^d + C^r``
    (:func:`krein.exit_space_extension`), whose atoms and weights are read
    off its eigenpairs like any other.  Every parameter :func:`krein.make_tau`
    accepts is one of these, so the measure is always exact; no transform is
    inverted.
    """
    t = exit_space_extension(analysis.require_gamma_weyl(), tau)
    meas = spectral_solution(t, analysis.rep, analysis.N)
    return _gated(analysis, meas, tols.rtol)
