"""End-to-end orchestration: moments in, analyzed operator picture and
solution measures out.

This is the layer the command-line tool and the demos drive; each stage is a
thin composition of the module-level operations so intermediate objects stay
inspectable.  The :class:`Tolerances` given to :func:`analyze` are the only
settings; the :class:`Analysis` keeps them and the solvers gate at its rtol.
:func:`analyze` refuses data that are ``"not solvable"``, so every later stage
sees only ``"solvable"`` or ``"marginal"`` data; the solvers read the
corners' measures off the eigenpairs the picture stores.  On indeterminate
data the picture is also their boundary data, ``Analysis.gamma_weyl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import signature
from typing import ClassVar

from . import hankel
from .errors import CompletionInfeasible, MomentProblemError, NotIndeterminate
from .extensions import _spectral_measure, determinacy, extremal_extensions
from .extensions import spectral_solution
from .gns import build_space
from .krein import exit_space_extension
from .shiftop import build_shift
from .solutions import verify_moments

__all__ = ["Tolerances", "Analysis", "analyze", "solve_tau_grid", "solve_with_tau"]


@dataclass(frozen=True)
class Tolerances:
    """The two settings; every other threshold is a module constant."""

    psd_tol: float = hankel.DEFAULT_PSD_TOL  # every rank cut and PSD verdict
    rtol: float = signature(verify_moments).parameters["rtol"].default  # round-trip gate
    # not a setting: no library code reads it, only the benchmark harness
    invert_rtol: ClassVar[float] = 1e-3


@dataclass(frozen=True)
class Analysis:
    """Everything the pipeline derives from a moment sequence."""

    seq: object
    tols: Tolerances
    solvability: object
    gram: object
    rep: object
    shift: object
    picture: object  # with extremal extensions
    verdict: object
    gamma_weyl: object | None = None

    @property
    def N(self):
        return self.seq.N

    def require_gamma_weyl(self):
        if self.gamma_weyl is None:
            raise NotIndeterminate("no boundary data (determinate problem)")
        return self.gamma_weyl


def analyze(seq, tols=Tolerances()):
    """Run the construction through the determinacy decision at ``tols``.

    ``"not solvable"`` data are refused first, by :class:`CompletionInfeasible`
    naming the failed condition.  The problem is determinate exactly when its
    defect is trivial.  For indeterminate problems the picture, which carries
    the gamma field and Weyl function, is attached as the boundary data; its
    ``M(0)`` is ``2 G^{-1}``, finite because the gap is positive definite.
    """
    solv = hankel.check_solvable(seq, tols.psd_tol)
    if solv.fault:
        raise CompletionInfeasible(f"the data are not solvable: {solv.fault}")
    rep = build_space(*solv.plain)
    shift = build_shift(rep)
    pic = extremal_extensions(shift)
    verdict = determinacy(pic)
    return Analysis(
        seq=seq,
        tols=tols,
        solvability=solv,
        gram=rep.gram,
        rep=rep,
        shift=shift,
        picture=pic,
        verdict=verdict,
        gamma_weyl=None if verdict.determinate else pic,
    )


def _gated(analysis, meas):
    """Attach the verification report at ``analysis.tols.rtol``, for
    :func:`cli._result` to refuse a failing measure.  Every measure the
    solvers emit is the spectral measure of an extension, so it is exact."""
    seq, rtol = analysis.seq, analysis.tols.rtol
    report = verify_moments(meas, seq, upto=2 * seq.n, rtol=rtol)
    return {"measure": meas, "verification": report, "exact": True}


def unique_solution(analysis):
    """Solution of a determinate problem, the spectral measure of ``t_mu`` read
    off its stored pairs in ascending order, gated at ``analysis.tols.rtol``
    (:func:`analyze` refused ``"not solvable"`` data, so no solver does)."""
    if not analysis.verdict.determinate:
        raise MomentProblemError("problem is not determinate")
    pic = analysis.picture
    up = pic.w.argsort()  # Cayley order: descending, then the -1s
    meas = _spectral_measure(pic.w[up], pic.V[:, up], analysis.rep, analysis.N)
    return _gated(analysis, meas)


def solve_tau_grid(analysis, count):
    """Canonical solutions along the extension segment.

    Emits ``count`` measures, each gated at ``analysis.tols.rtol``, from the
    contractive extensions ``t_mu + s C`` at ``s = (j+1)/count``; the Krein
    corner (``s = 1``) is included, from the eigenpairs its picture stores,
    and the Friedrichs corner is approached but excluded because its measure
    carries mass at infinity and cannot reproduce the top moment.  Each entry
    reports the Hermitian-constant parameter of its extension, in closed form
    at the base point: ``t_mu + s C = t_mu + s J G J*`` and ``M(0) = 2 G^{-1}``,
    so ``tau_s = M(0) - (2/s) G^{-1} = (1 - 1/s) M(0)``, and the Krein corner
    reports exactly 0.
    """
    pic, gw = analysis.picture, analysis.gamma_weyl
    out = []
    for j in range(int(count)):
        s = (j + 1) / count
        if j + 1 == count:
            meas = _spectral_measure(pic.w_M, pic.V_M, analysis.rep, analysis.N)
        else:
            meas = spectral_solution(pic.t_mu + s * pic.C, analysis.rep, analysis.N)
        entry = _gated(analysis, meas)
        entry["s"] = s
        if gw is not None:
            entry["tau_constant"] = (1.0 - 1.0 / s) * gw.M0
        out.append(entry)
    return out


def solve_with_tau(analysis, tau):
    """Solution attached to one parameter: the spectral measure of the
    extension it defines, exact and gated at ``analysis.tols.rtol``.

    A parameter without poles defines an extension inside the representation
    space; a rational one ``tau0 + sum W_k / (p_k - z)`` defines an
    exit-space extension, a contraction on ``C^d + C^r``
    (:func:`krein.exit_space_extension`), whose atoms and weights are read
    off the eigenpairs its run-time checks computed.  Every parameter
    :func:`krein.make_tau` accepts is one of these, so the measure is always
    exact; no transform is inverted.
    """
    _, w, V = exit_space_extension(analysis.require_gamma_weyl(), tau)
    meas = _spectral_measure(w, V, analysis.rep, analysis.N)
    return _gated(analysis, meas)
