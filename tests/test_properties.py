"""Invariances the determinacy decision must respect, the closed-form
extremal corners against an independent reference, the closed-form class
test against the sampled one, the one rank decision behind the verdict and
the space, ``analyze`` refusing exactly the ``"not solvable"`` data, ``tau =
0`` as the Krein corner, Krein's bounds on the negative axis and nested
data, as property tests.

The data are moments of discrete measures of moderate size: block size
``N <= 2`` (``N <= 3`` for the parameter family), order ``m <= 9``, atoms on
a fixed grid in ``[0.2, 5]`` (and at 0 where a property says so) with
weights whose non-zero eigenvalues lie in ``[0.5, 2]``.  The refusal is
tested on moments of random atoms (``N <= 4``) with one moment moved by a
random PSD multiple.
The parameters are normal forms ``tau0 + sum W_k / (p_k - z)`` on ``C^f``,
``f <= 3``, with at most two poles of either sign; the admissible ones of
the parameter family have their poles on the positive axis, and may have an
ideal part.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from corner_reference import gap_kernel_dim, reference_corners  # noqa: E402
from oracles import DEFAULT_CLASS_POINTS, sampled_class_test  # noqa: E402

from stieltjesmp import CompletionInfeasible, NotPSD, NotStieltjesClass  # noqa: E402
from stieltjesmp import Tolerances, analyze, build_space  # noqa: E402
from stieltjesmp import check_solvable, make_tau, moment_sequence  # noqa: E402
from stieltjesmp import moments_of_measure, solution_measure, solve_tau_grid  # noqa: E402
from stieltjesmp.pipeline import unique_solution  # noqa: E402
from stieltjesmp import MomentProblemError, solution_transform, transform_of_measure  # noqa: E402
from stieltjesmp.io import encode_matrix  # noqa: E402
from stieltjesmp.krein import CLASS_TOL, check_stieltjes_class  # noqa: E402

GRID = (0.2, 0.6, 1.1, 1.7, 2.4, 3.2, 4.1, 5.0)
FEW = settings(max_examples=12, deadline=None, derandomize=True, database=None)
#: 36 draws for the parameter family, over the 12 cells of N <= 3, even m <= 8
FAMILY = settings(max_examples=36, deadline=None, derandomize=True, database=None)


def _herm(S):
    return 0.5 * (S + S.conj().T)


def _unitary(rng, N):
    Q, R = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _measure(rng, N, positions, rank=None):
    """Weights of rank ``rank`` (1..N at random when ``None``) at ``positions``."""
    atoms = []
    for lam in positions:
        s = rng.uniform(0.5, 2.0, size=N)
        s[rank or rng.integers(1, N + 1) :] = 0.0
        U = _unitary(rng, N)
        atoms.append((lam, (U * s) @ U.conj().T))
    return solution_measure(N, atoms)


@st.composite
def problems(draw):
    """``(moments, rng)``: moments of a random discrete measure and a
    generator for any further random choice the property needs."""
    N = draw(st.integers(1, 2))
    count = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meas = _measure(rng, N, rng.choice(GRID, size=count, replace=False))
    return moments_of_measure(meas, m), rng


def _positions(analysis, count):
    return [e["measure"].positions for e in solve_tau_grid(analysis, count)]


def _same_positions(a, b, rtol=1e-6):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.shape == pb.shape, (pa, pb)
        assert np.allclose(pa, pb, rtol=rtol, atol=1e-8), (pa, pb)


@FEW
@given(problems())
def test_unitary_conjugation_leaves_the_decision_unchanged(problem):
    seq, rng = problem
    U = _unitary(rng, seq.N)
    conj = moment_sequence([_herm(U.conj().T @ S @ U) for S in seq.moments])
    a, b = analyze(seq), analyze(conj)
    va, vb = a.verdict, b.verdict
    assert va.determinate == vb.determinate
    assert va.defect_dim == vb.defect_dim
    assert np.isclose(va.gap_norm, vb.gap_norm, rtol=1e-8, atol=1e-12)
    _same_positions(_positions(a, 3), _positions(b, 3))


@FEW
@given(problems(), problems())
def test_block_diagonal_data_sum_the_dimensions(p1, p2):
    (s1, _), (s2, _) = p1, p2
    m = min(s1.m, s2.m)
    N1, N2 = s1.N, s2.N
    mats = []
    for p in range(m + 1):
        S = np.zeros((N1 + N2, N1 + N2), dtype=complex)
        S[:N1, :N1] = s1.moments[p]
        S[N1:, N1:] = s2.moments[p]
        mats.append(S)
    a1 = analyze(moment_sequence(s1.moments[: m + 1]))
    a2 = analyze(moment_sequence(s2.moments[: m + 1]))
    v = analyze(moment_sequence(mats)).verdict
    assert v.defect_dim == a1.verdict.defect_dim + a2.verdict.defect_dim
    assert v.determinate == (a1.verdict.determinate and a2.verdict.determinate)


@FEW
@given(problems(), st.floats(0.5, 2.0))
def test_scaling_the_axis_scales_the_atoms(problem, c):
    # S_p -> c^p S_p is the measure pushed forward by x -> c x.  The Krein
    # corner (s = 1) is the Krein-von Neumann extension, which scales with
    # the operator; interior points of the Cayley segment do not.
    seq, _ = problem
    scaled = moment_sequence([c**p * S for p, S in enumerate(seq.moments)])
    a, b = analyze(seq), analyze(scaled)
    assert a.verdict.determinate == b.verdict.determinate
    assert a.verdict.defect_dim == b.verdict.defect_dim
    _same_positions([c * p for p in _positions(a, 1)], _positions(b, 1))


@FEW
@given(problems())
def test_corners_match_the_gram_factor_reference(problem):
    # the closed forms in A11, A21 against the Gram factors of E +- T, both
    # from the same shift
    seq, _ = problem
    a = analyze(seq)
    t_mu, t_M, J = reference_corners(a.shift)
    assert np.abs(a.picture.t_mu - t_mu).max() <= 1e-9
    assert np.abs(a.picture.t_M - t_M).max() <= 1e-9
    assert gap_kernel_dim(t_mu, t_M, J) == 0


@settings(FEW, max_examples=40)
@given(problems())
def test_determinate_exactly_when_the_defect_is_trivial(problem):
    # G = 2 L* S_K^{-1} L is a product of nonsingular factors, so it is
    # positive definite whenever q > 0: the defect dimension decides alone
    seq, _ = problem
    a = analyze(seq)
    q = a.picture.defect_dim
    assert a.verdict.determinate == (q == 0)
    if q:
        assert a.picture.gap[0].min() > 0


#: the sampled test bounds ``lambda_max(tau(0))`` by ``CLASS_TOL`` over
#: ``sum 1/|z_i|^2``, the norm of the ``tau(0)/z`` part of its kernel
BAND = sum(abs(z) ** -2 for z in DEFAULT_CLASS_POINTS)


@st.composite
def normal_forms(draw):
    """``(spec, s)``: a rational parameter with ``lambda_max(tau(0))``
    of either sign, at ``1e-14`` to ``1`` or (half the draws) within a
    decade and a half of ``CLASS_TOL s``; ``s`` is the form's scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = int(rng.integers(1, 4))
    poles = []
    for _ in range(int(rng.integers(0, 3))):
        p = float(10 ** rng.uniform(-1, 2.5) * rng.choice([-1.0, 1.0]))
        shape = (rng.integers(1, f + 1), f)
        B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        W = _herm(B.conj().T @ B)
        poles.append((p, W * 10 ** rng.uniform(-6, 1) / np.abs(W).max()))
    s = max([1.0] + [np.abs(W).max() / abs(p) for p, W in poles])
    if draw(st.booleans()):
        lam = CLASS_TOL * s * 10 ** rng.uniform(-1.5, 1.5)
    else:
        lam = 10 ** rng.uniform(-14, 0) * rng.choice([-1.0, 1.0])
    U = _unitary(rng, f)
    tau_at_0 = (U * (lam - np.r_[0.0, rng.uniform(0, 1, f - 1)])) @ U.conj().T
    tau0 = _herm(tau_at_0 - sum((W / p for p, W in poles), np.zeros((f, f))))
    spec = {
        "type": "rational",
        "tau0": encode_matrix(tau0),
        "poles": [{"p": p, "W": encode_matrix(W)} for p, W in poles],
    }
    return spec, max(s, np.abs(tau0).max())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(normal_forms())
def test_closed_form_class_implies_the_sampled_kernel_test(form):
    # the sampled test is a necessary condition: what the closed form admits
    # it admits too, except where its tighter bound on tau(0) bites
    spec, s = form
    tau = make_tau(spec)
    ok, margin = check_stieltjes_class(tau)
    try:
        make_tau(spec, require_class=True)
    except NotStieltjesClass:
        assert not ok
    else:
        assert ok
    assert (margin >= 0.0) == ok
    lam = float(np.linalg.eigvalsh(tau.value(0.0))[-1])
    if ok and not CLASS_TOL * s / BAND < lam <= CLASS_TOL * s:
        with np.errstate(all="ignore"):
            assert sampled_class_test(tau)[0], (spec, lam / s)


@st.composite
def deficient_problems(draw):
    """Moments of ``count <= n`` atoms whose weights all have rank ``r <= N``
    (``N <= 2``, ``m <= 7``), one of them at 0 in half the draws: the Gram
    has rank at most ``count r < (n+1) N``."""
    N, m = draw(st.integers(1, 2)), draw(st.integers(2, 7))
    count, rank = draw(st.integers(1, m // 2)), draw(st.integers(1, N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.choice(GRID, size=count, replace=False)
    if draw(st.booleans()):
        positions[0] = 0.0
    return moments_of_measure(_measure(rng, N, positions, rank), m)


@FEW
@given(deficient_problems())
def test_a_dropped_space_column_is_never_a_solvable_verdict(seq):
    # the verdict and the space are one rank decision, at psd_tol
    for psd_tol in (1e-12, 1e-10, 1e-6):
        solv = check_solvable(seq, psd_tol)
        try:
            rep = build_space(*solv.plain)
        except NotPSD:
            assert solv.verdict == "not solvable"
            continue
        assert rep.dim == rep.gram.size or solv.verdict != "solvable"
        try:
            a = analyze(seq, Tolerances(psd_tol=psd_tol))
        except MomentProblemError:
            continue  # refused after the space is built (shift, completion)
        assert (a.rep.dim, a.solvability.verdict) == (rep.dim, solv.verdict)


@st.composite
def perturbed_problems(draw):
    """Moments ``S_0 .. S_m`` (``N`` in 1, 2, 4; ``m <= 9``) of 1 to ``n``
    atoms in ``[0.1, 4]`` with weights ``G* G / N``, one of them then moved by
    a random PSD multiple ``P``: ``S_m`` up or down by ``0.1 max|S_m| P``, or
    ``S_k`` (``k = 3``, or 1 for ``m = 2``) down by ``0.3 max|S_k| P``.  Most
    draws are not solvable, by each condition ``check_solvable`` reads."""
    N, m = draw(st.sampled_from((1, 2, 4))), draw(st.integers(2, 9))
    k, step = draw(st.sampled_from(((m, 0.1), (m, -0.1), (3 if m >= 3 else 1, -0.3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(rng.integers(1, m // 2 + 1))
    G = rng.standard_normal((count + 1, N, N)) + 1j * rng.standard_normal((count + 1, N, N))
    *W, P = [g.conj().T @ g / N for g in G]
    lam = rng.uniform(0.1, 4.0, count)
    S = [_herm(sum(x**p * w for x, w in zip(lam, W))) for p in range(m + 1)]
    S[k] = _herm(S[k] + step * np.abs(S[k]).max() * P)
    return moment_sequence(S)


@FAMILY
@given(perturbed_problems())
def test_analyze_refuses_exactly_what_check_calls_not_solvable(seq):
    # one verdict, one refusal: analyze raises on not solvable data, naming
    # check_solvable's fault, and on nothing else with that message
    solv = check_solvable(seq)
    try:
        analyze(seq)
        message = ""
    except CompletionInfeasible as exc:
        message = str(exc)
    except MomentProblemError:
        message = ""  # a later stage's own check on solvable or marginal data
    refused = message.startswith("the data are not solvable")
    assert refused == (solv.verdict == "not solvable"), (solv.verdict, message)
    assert not refused or message == f"the data are not solvable: {solv.fault}"


@FEW
@given(st.sampled_from((5, 7, 9)), st.integers(0, 2**32 - 1))
def test_tau_zero_is_the_krein_corner(m, seed):
    # Krein's formula at the constant tau = 0 and the grid's s = 1 measure
    # (the Krein corner's eigenpairs) are the same solution, with an atom
    # at 0 in the data
    n = m // 2
    rng = np.random.default_rng(seed)
    positions = np.r_[0.0, rng.choice(GRID, size=n + 1, replace=False)]
    a = analyze(moments_of_measure(_measure(rng, 1, positions), m))
    meas = solve_tau_grid(a, 1)[0]["measure"]
    tau = make_tau({"type": "constant", "matrix": [[0.0]]})
    # K(z) = M(z) - M(0) cancels as z -> 0, so near 0 the error grows like
    # eps/|z|: the bound is 1e-12 from z = -1e-2 outwards, 1e-12 (1e-2/|z|)
    # inside (worst 6.6e-14, 6.7e-12 and 6.6e-10 at -1e-2, -1e-4 and -1e-6
    # over m in {5, 7, 9} and seeds 0-59)
    for z in (-1e-6, -1e-4, -1e-2, -0.3, -2.0, 0.5j, 1 + 1j):
        got = solution_transform(a.require_gamma_weyl(), tau, a.rep, 1, z)
        ref = transform_of_measure(meas, z)
        bound = 1e-12 * max(1.0, 1e-2 / abs(z))
        assert np.abs(got - ref).max() <= bound * np.abs(ref).max(), (z, got, ref)


@st.composite
def indeterminate_problems(draw):
    """``(moments, rng)``: ``S_0 .. S_m`` (``N <= 3``, even ``m <= 8``) of
    ``m/2 + 2`` atoms of full-rank weight, so every Hankel is positive
    definite and the problem completely indeterminate."""
    N, m = draw(st.integers(1, 3)), draw(st.sampled_from((2, 4, 6, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.choice(GRID, size=m // 2 + 2, replace=False)
    return moments_of_measure(_measure(rng, N, positions, rank=N), m), rng


def _negative_definite(rng, f):
    B = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
    return -10 ** rng.uniform(-2, 2) * _herm(B.conj().T @ B + 0.1 * np.eye(f))


def _finite_part(rng, f, rational):
    """A constant ``tau0 < 0`` on ``C^f``, or (``rational``) one or two PSD
    residues at poles ``p > 0`` with ``tau(0) = tau0 + sum W_k/p_k < 0``."""
    if not rational:
        return {"type": "constant", "matrix": encode_matrix(_negative_definite(rng, f))}
    poles = []
    for _ in range(int(rng.integers(1, 3))):
        B = rng.standard_normal((f, f)) + 1j * rng.standard_normal((f, f))
        poles.append((float(10 ** rng.uniform(-1, 1.5)), _herm(B.conj().T @ B)))
    tau0 = _negative_definite(rng, f) - sum(W / p for p, W in poles)
    return {
        "type": "rational",
        "tau0": encode_matrix(tau0),
        "poles": [{"p": p, "W": encode_matrix(W)} for p, W in poles],
    }


def _admissible_taus(rng, q):
    """Constant and rational admissible parameters on ``C^q``, the ideal one,
    and (``q >= 2``) a mixed one with a rational finite part."""
    specs = [_finite_part(rng, q, False), _finite_part(rng, q, True), {"type": "infinite"}]
    if q >= 2:
        k = int(rng.integers(1, q))
        ideal = rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))
        mixed = _finite_part(rng, q - k, True)
        mixed.update(type="mixed", ideal_subspace=[encode_matrix(v[None])[0] for v in ideal])
        specs.append(mixed)
    return [make_tau(spec, require_class=True) for spec in specs]


def _corner_transform(w, V, Xi0, x):
    """``Xi0* R_x Xi0`` for the contraction ``V diag(w) V*``."""
    Y = V.conj().T @ Xi0
    return Y.conj().T @ (((1.0 + w) / ((1.0 - x) - (1.0 + x) * w))[:, None] * Y)


@FAMILY
@given(indeterminate_problems())
def test_every_solution_lies_between_the_corners_on_the_negative_axis(problem):
    # Krein 1947: F_mu(x) <= F(x) <= F_M(x) in Loewner order for x < 0, F_mu
    # and F_M the transforms of the Friedrichs and Krein corners
    seq, rng = problem
    a = analyze(seq)
    gw, pic, Xi0 = a.require_gamma_weyl(), a.picture, a.rep.vectors[:, : seq.N]
    taus = _admissible_taus(rng, gw.q)
    for x in (-0.05, -0.5, -3.0, -30.0):
        F_mu = _corner_transform(pic.w, pic.V, Xi0, x)
        F_M = _corner_transform(pic.w_M, pic.V_M, Xi0, x)
        slack = 1e-12 * np.linalg.norm(F_M, 2)
        for tau in taus:
            F = solution_transform(gw, tau, a.rep, seq.N, x)
            low = np.linalg.eigvalsh(_herm(F - F_mu))[0]
            high = np.linalg.eigvalsh(_herm(F_M - F))[0]
            assert min(low, high) >= -slack, (x, tau.finite_dim, low, high, slack)


@FAMILY
@given(indeterminate_problems(), st.sampled_from((2, 4)))
def test_a_solution_continued_by_its_own_moments_is_determinate(problem, extra):
    # the first interior grid member has a finite-rank measure; its own next
    # moments leave it the only solution, and it passes the gate
    seq, _ = problem
    meas = solve_tau_grid(analyze(seq), 3)[0]["measure"]
    tail = moments_of_measure(meas, seq.m + extra).moments[seq.m + 1 :]
    a = analyze(moment_sequence(seq.moments + tail))
    assert a.verdict.determinate, a.verdict
    assert unique_solution(a)["verification"]["pass"]
