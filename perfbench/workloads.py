"""The three workloads: seeded input generators, the op each one times, and
the checks every op's outputs go through.

Ground truth comes from the generator.  Moments are those of a discrete
measure with full-rank ``N x N`` weights, so ``>= n+2`` atoms in ``(0, inf)``
make the problem indeterminate, ``<= n`` atoms make it determinate, and no
generated problem is "not solvable".  The library receives only the moments
(as a parsed JSON document or as matrices) and the parameter descriptions.

A workload's ``run`` is the timed op: only the library calls a user would
make, with their results returned and any exception kept at the op boundary.
Its ``check`` runs after the timer stops and turns those results into one
record per problem.  A record carries the verdicts, the worst round-trip
error of every measure the op emitted, and the failures it met, by type;
failures are counted, never raised.  A record also says whether the library
is known to fail on that problem (``may_fail``); a failure anywhere else
makes the run incorrect.
"""

from __future__ import annotations

import traceback

import numpy as np

from stieltjesmp import extensions, hankel, io, krein, pipeline, solutions
from stieltjesmp.errors import MomentProblemError

#: atoms of every generated measure lie in this window
ATOM_WINDOW = (0.1, 4.0)

#: round-trip gates: the library's own thresholds for exact (spectral) and
#: approximate (Perron-inverted) measures
EXACT_RTOL = pipeline.Tolerances().rtol
APPROX_RTOL = pipeline.Tolerances().invert_rtol

#: failure types counted per problem
FAIL_TYPES = (
    "shiftop.InconsistentTruncation",
    "solutions.NoConvergence",
    "pipeline.error_other",
    "pipeline.verdict_wrong",
    "pipeline.gate_fail",
    "transform.check_fail",
)

#: an exception of another type than MomentProblemError breaks the library's
#: error contract; it is counted under this type and makes the run incorrect
UNEXPECTED = "pipeline.error_unexpected"

_ERROR_TYPES = {
    "InconsistentTruncation": "shiftop.InconsistentTruncation",
    "NoConvergence": "solutions.NoConvergence",
}


# ---------------------------------------------------------------------------
# generation


def random_measure(rng, N, count):
    """``count`` atoms uniform in :data:`ATOM_WINDOW` with weights ``G* G / N``
    for complex Gaussian ``G`` (full rank almost surely)."""
    lam = np.sort(rng.uniform(*ATOM_WINDOW, count))
    G = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    W = np.einsum("kji,kjl->kil", G.conj(), G) / N
    return lam, W


def measure_moments(lam, W, m):
    """Moments ``S_0 .. S_m`` by direct summation, as an ``(m+1, N, N)`` array."""
    powers = lam[None, :] ** np.arange(m + 1)[:, None]
    S = np.einsum("pk,kij->pij", powers, W)
    return 0.5 * (S + S.conj().transpose(0, 2, 1))


def random_psd(rng, N, scale):
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (G.conj().T @ G) * (scale / N)


def wire_matrix(M):
    """Row-major nested ``[re, im]`` pairs, the library's JSON convention."""
    return np.stack([M.real, M.imag], axis=-1).tolist()


def rational_tau_spec(rng, q):
    """Admissible rational parameter ``tau0 + sum W_k / (p_k - z)``: PSD
    residues, poles on the positive axis, ``tau(0) <= 0``."""
    poles = [
        (float(rng.uniform(0.5, 3.0)), random_psd(rng, q, rng.uniform(0.2, 1.0)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    tau0 = -sum(W / p for p, W in poles) - random_psd(rng, q, rng.uniform(0.1, 1.0))
    return {
        "type": "rational",
        "tau0": wire_matrix(tau0),
        "poles": [{"p": p, "W": wire_matrix(W)} for p, W in poles],
    }


def constant_tau_spec(rng, q):
    """Admissible constant parameter: a negative definite Hermitian matrix."""
    return {"type": "constant", "matrix": wire_matrix(-random_psd(rng, q, rng.uniform(0.2, 2.0)))}


class Problem:
    """One generated moment problem with its ground truth."""

    def __init__(self, rng, N, m, count):
        self.N, self.m, self.count = N, m, count
        self.cell = f"N{N}_m{m}_a{count}"
        self.determinate = count <= m // 2
        self.lam, self.W = random_measure(rng, N, count)
        self.S = measure_moments(self.lam, self.W, m)

    def document(self):
        return {"N": self.N, "moments": [wire_matrix(S) for S in self.S]}

    def sequence(self):
        return hankel.moment_sequence(list(self.S), N=self.N)


def op_rng(seed, workload, i):
    """Generator for op ``i``: fresh inputs per op, repeatable per seed."""
    return np.random.default_rng([seed, sum(map(ord, workload)), i])


# ---------------------------------------------------------------------------
# checks


class Record:
    """Outcome of one problem inside an op."""

    def __init__(self, cell, may_fail):
        self.cell = cell
        self.may_fail = may_fail
        self.verdict = None
        self.errors = []  # worst round-trip error (or mismatch) per measure
        self.fails = []
        self.dropped_dims = 0
        self.atoms = 0
        self.detail = None

    def fail(self, kind, detail=None):
        self.fails.append(kind)
        if detail and self.detail is None:
            self.detail = detail

    def error(self, exc):
        if isinstance(exc, MomentProblemError):
            name = type(exc).__name__
            self.fail(_ERROR_TYPES.get(name, "pipeline.error_other"), name)
        else:
            self.fail(UNEXPECTED, traceback.format_exception_only(exc)[-1].strip())

    def as_dict(self):
        return {
            "cell": self.cell,
            "may_fail": self.may_fail,
            "verdict": self.verdict,
            "errors": self.errors,
            "fails": self.fails,
            "dropped_dims": self.dropped_dims,
            "atoms": self.atoms,
            "detail": self.detail,
        }


def regression(rec):
    """Whether a problem record failed where the library is not known to fail.

    The library is known to misjudge data it calls "marginal" itself, in any
    cell: atoms so close that the Hankel test sits at its tolerance, where it
    may call indeterminate data determinate.  Those failures are counted but
    are not regressions.
    """
    marginal = rec["verdict"] is not None and rec["verdict"]["solvability"] == "marginal"
    return bool(rec["fails"]) and not rec["may_fail"] and not marginal


def roundtrip_error(meas, S, upto):
    """Worst relative moment error ``||sum lam^p W - S_p|| / max(1, ||S_p||)``
    over ``p <= upto``, the quantity ``verify_moments`` reports."""
    if meas.atoms:
        lam = np.array([a for a, _ in meas.atoms])
        W = np.array([w for _, w in meas.atoms])
        got = measure_moments(lam, W, upto)
    else:
        got = np.zeros_like(S[: upto + 1])
    ref = S[: upto + 1]
    num = np.linalg.norm(got - ref, axis=(1, 2))
    den = np.maximum(1.0, np.linalg.norm(ref, axis=(1, 2)))
    return float((num / den).max())


def verdicts(a):
    """What the checks need of an analysis.  An op keeps this rather than
    the analysis, so its peak memory is that of one problem at a time."""
    return {
        "solvability": a.solvability.verdict,
        "determinate": bool(a.verdict.determinate),
        "dropped_dims": int(a.gram.size - a.rep.dim),
    }


def check_analysis(rec, prob, v):
    """Verdicts against the generator's ground truth."""
    rec.verdict = {"solvability": v["solvability"], "determinate": v["determinate"]}
    rec.dropped_dims += v["dropped_dims"]
    if v["solvability"] == "not solvable" or v["determinate"] != prob.determinate:
        rec.fail("pipeline.verdict_wrong")


def check_result(rec, prob, res):
    """Verdicts, every emitted measure and any exception of one problem."""
    if res["verdicts"] is not None:
        check_analysis(rec, prob, res["verdicts"])
    for entry in res["entries"]:
        gate(rec, prob, entry)
    if res["error"] is not None:
        rec.error(res["error"])


def gate(rec, prob, entry):
    """Independent round trip of one emitted measure against the generator's
    moments, at the threshold the library claims for it."""
    meas = entry["measure"]
    err = roundtrip_error(meas, prob.S, 2 * (prob.m // 2))
    rec.errors.append(err)
    rec.atoms += len(meas.atoms)
    rtol = EXACT_RTOL if entry["exact"] else APPROX_RTOL
    if not err <= rtol:
        rec.fail("pipeline.gate_fail")


def summary_document(a, entries):
    """What the ladder serializes per problem: verdicts, verification
    reports and atom positions with weight traces (full weights would make
    the op a JSON-formatting benchmark at N = 32)."""
    return {
        "N": a.N,
        "determinate": a.verdict.determinate,
        "solvability": a.solvability.verdict,
        "results": [
            {
                "verification": e["verification"],
                "positions": [lam for lam, _ in e["measure"].atoms],
                "weight_traces": [float(np.trace(W).real) for _, W in e["measure"].atoms],
            }
            for e in entries
        ],
    }


# ---------------------------------------------------------------------------
# workloads


class Ladder:
    """The size ladder ``N in {1,4,16,32} x m in {3,5,9}`` with ``n+2``
    atoms, one determinate case and the 40-atom ``m = 13`` case; one op runs
    it once on fresh atoms."""

    name = "ladder"
    CELLS = [(N, m, m // 2 + 2) for N in (1, 4, 16, 32) for m in (3, 5, 9)] + [
        (4, 5, 2),
        (1, 13, 40),
    ]

    def __init__(self, seed):
        self.seed = seed

    def inputs(self, i):
        rng = op_rng(self.seed, self.name, i)
        probs = [Problem(rng, N, m, c) for N, m, c in self.CELLS]
        return [(p, p.document()) for p in probs]

    #: cells where the library fails on some seeds: wrong verdicts and gate
    #: failures at ``m >= 9``.  Every other cell passed on 2911 passes over
    #: 80 seeds, except on "marginal" data (see :func:`regression`).
    KNOWN_FAILING = {(1, 9, 6), (4, 9, 6), (16, 9, 6), (32, 9, 6), (1, 13, 40)}

    def run(self, inputs):
        """Parse, analyze and solve each problem as the library's verdict
        says, and serialize a summary."""
        results = []
        for _, doc in inputs:
            res = {"verdicts": None, "entries": [], "error": None}
            results.append(res)
            try:
                a = pipeline.analyze(hankel.load_moments(doc))
                res["verdicts"] = verdicts(a)
                if a.solvability.verdict == "not solvable":
                    continue
                if a.verdict.determinate:
                    res["entries"] = [pipeline.unique_solution(a)]
                else:
                    res["entries"] = pipeline.solve_tau_grid(a, 3)
                io.dumps_canonical(summary_document(a, res["entries"]))
            except Exception as exc:  # op boundary: keep it for the check
                # without the traceback, whose frames would keep the op's
                # arrays alive until the next garbage collection
                res["error"] = exc.with_traceback(None)
        return results

    def check(self, inputs, results):
        records = []
        for (prob, _), res in zip(inputs, results):
            rec = Record(prob.cell, (prob.N, prob.m, prob.count) in self.KNOWN_FAILING)
            check_result(rec, prob, res)
            records.append(rec)
        return records


class Rational:
    """Small indeterminate problems (``N in {1,2}``, ``m in {3,5}``) solved
    for a seeded rational parameter; one problem per op, the four size
    classes in turn."""

    name = "rational"
    CLASSES = [(1, 3), (1, 5), (2, 3), (2, 5)]

    def __init__(self, seed):
        self.seed = seed

    def inputs(self, i):
        rng = op_rng(self.seed, self.name, i)
        N, m = self.CLASSES[i % len(self.CLASSES)]
        prob = Problem(rng, N, m, m // 2 + 2)
        return prob, prob.sequence(), rational_tau_spec(rng, N)

    def run(self, inputs):
        """Analyze, and solve for the parameter if the library finds the
        problem indeterminate."""
        _, seq, spec = inputs
        res = {"verdicts": None, "entries": [], "error": None}
        try:
            a = pipeline.analyze(seq)
            res["verdicts"] = verdicts(a)
            if a.solvability.verdict != "not solvable" and not a.verdict.determinate:
                tau = krein.make_tau(spec, require_class=True)
                res["entries"] = [pipeline.solve_with_tau(a, tau)]
        except Exception as exc:  # op boundary: keep it for the check
            res["error"] = exc.with_traceback(None)
        return res

    def check(self, inputs, res):
        """Every size class fails on some seeds (gate, ``NoConvergence``)."""
        prob = inputs[0]
        rec = Record(prob.cell, may_fail=True)
        check_result(rec, prob, res)
        return [rec]


class Transform:
    """Transform scans on a pool of analyses made at set-up (``N = 8``,
    ``m = 9``, 12 atoms, so ``d = 40`` and ``q = 8``); one op evaluates one
    parameter at :data:`POINTS` points, constant and rational parameters in
    turn."""

    name = "transform"
    N, M, ATOMS, POOL = 8, 9, 12, 8
    POINTS = 256
    EPS = 0.01
    #: relative mismatch allowed between the resolvent formula and the
    #: transform of the spectral solution, and PSD slack of Im F
    MATCH_TOL = 1e-6
    PSD_TOL = 1e-9

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.pool = []
        for _ in range(self.POOL):
            prob = Problem(rng, self.N, self.M, self.ATOMS)
            rec = Record(prob.cell, may_fail=False)
            try:
                a = pipeline.analyze(prob.sequence())
                check_analysis(rec, prob, verdicts(a))
                a.require_gamma_weyl()
            except Exception as exc:  # counted against every op using it
                rec.error(exc)
                a = None
            self.pool.append((prob, a, rec))
        lo, hi = ATOM_WINDOW
        self.zs = np.linspace(lo - 0.1, hi + 0.1, self.POINTS) + 1j * self.EPS

    def inputs(self, i):
        """Op ``i`` uses pool entry ``i // 2``, with a constant parameter on
        even ``i`` and a rational one on odd ``i``, sized to its defect space."""
        rng = op_rng(self.seed, self.name, i)
        entry = self.pool[(i // 2) % self.POOL]
        a = entry[1]
        q = a.gamma_weyl.q if a is not None and a.gamma_weyl is not None else self.N
        make = constant_tau_spec if i % 2 == 0 else rational_tau_spec
        return entry, make(rng, q)

    def run(self, inputs):
        """Evaluate the transform for the parameter at every point."""
        (_, a, setup_rec), spec = inputs
        res = {"tau": None, "F": None, "error": None}
        if setup_rec.fails:
            return res
        try:
            gw = a.require_gamma_weyl()
            res["tau"] = tau = krein.make_tau(spec, require_class=True)
            res["F"] = np.array(
                [krein.solution_transform(gw, tau, a.rep, a.N, z) for z in self.zs]
            )
        except Exception as exc:  # op boundary: keep it for the check
            res["error"] = exc.with_traceback(None)
        return res

    def check(self, inputs, res):
        """No transform op failed on any seed tried, so every failure here,
        the pool's included, makes the run incorrect."""
        (prob, a, setup_rec), spec = inputs
        rec = Record(f"{prob.cell}_{spec['type']}", may_fail=False)
        rec.verdict = setup_rec.verdict
        if setup_rec.fails:
            rec.fails = list(setup_rec.fails)
            rec.detail = setup_rec.detail
        elif res["error"] is not None:
            rec.error(res["error"])
        else:
            try:
                if spec["type"] == "constant":
                    self.cross_check(rec, a, res["tau"], res["F"])
                else:
                    self.psd_check(rec, res["F"])
            except Exception as exc:
                rec.error(exc)
        return [rec]

    def cross_check(self, rec, a, tau, F):
        """Constant parameter: the formula must match the transform of the
        spectral solution of the extension that parameter defines."""
        t = krein.extension_of_constant_tau(a.gamma_weyl, tau)
        meas = extensions.spectral_solution(t, a.rep, a.N)
        ref = np.array([solutions.transform_of_measure(meas, z) for z in self.zs])
        rel = np.linalg.norm(F - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        worst = float(rel.max())
        rec.errors.append(worst)
        if not worst <= self.MATCH_TOL:
            rec.fail("transform.check_fail", f"mismatch {worst:.3e}")

    def psd_check(self, rec, F):
        """Rational parameter: ``Im F(z)`` must be positive semi-definite."""
        im = (F - F.conj().transpose(0, 2, 1)) / 2j
        w = np.linalg.eigvalsh(im)
        scale = np.abs(w).max(axis=1)
        worst = float((-w[:, 0] / scale).max())
        if not worst <= self.PSD_TOL:
            rec.fail("transform.check_fail", f"Im F eigenvalue {worst:.3e} below 0")


WORKLOADS = {cls.name: cls for cls in (Ladder, Rational, Transform)}
