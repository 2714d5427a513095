from dataclasses import replace

import numpy as np
import pytest
from corner_reference import (
    assemble_completion,
    cayley_reference,
    gap_kernel_dim,
    reference_corners,
)
from oracles import domain_basis, resolvent_from_contraction, sample_sc_extensions
from spectral_reference import spectral_reference
from stieltjesmp import (
    BadPoint,
    CompletionInfeasible,
    analyze,
    build_shift,
    build_space,
    check_solvable,
    exit_space_extension,
    extremal_extensions,
    make_tau,
    moment_sequence,
    solution_measure,
    solution_transform,
    solve_tau_grid,
    spectral_solution,
)
from stieltjesmp.errors import MomentProblemError
from stieltjesmp.pipeline import unique_solution
from stieltjesmp.solutions import moments_of_measure, random_discrete_measure, verify_moments


def herm(M):
    return 0.5 * (M + M.conj().T)


def min_eig(M):
    return float(np.linalg.eigvalsh(herm(M)).min())


def domain_images(shift, c):
    """``(u, T u)`` for ``u = (A + E) f``, ``f`` the domain vector with
    coordinates ``c``: ``T u = (E - A) f``."""
    f = domain_basis(shift) @ c
    Af = shift.matrix @ f
    return Af + f, f - Af


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_of_zero_operator_is_identity(dirac0):
    pic = dirac0.picture
    # D(T) is the whole (1-dim) space and T acts as +1: its only extension
    assert dirac0.shift.domain_dim == 1 and pic.q == 0
    assert np.allclose(pic.t_mu, [[1.0]]) and np.allclose(pic.t_M, [[1.0]])


def test_cayley_of_identity_operator_is_zero(delta1):
    pic = delta1.picture
    assert delta1.shift.domain_dim == 1 and pic.q == 0
    assert np.allclose(pic.t_mu, 0.0) and np.allclose(pic.t_M, 0.0)


def test_cayley_two_atom_splitting(two_atom):
    pic = two_atom.picture
    assert pic.dim == 2 and two_atom.shift.domain_dim == 1 and pic.q == 1


def test_contraction_on_domain(two_atom):
    # T (A + E) f = (E - A) f is a contraction, and both corners extend it
    op = two_atom.shift
    pic = two_atom.picture
    rng = np.random.default_rng(5)
    for _ in range(16):
        c = rng.standard_normal(op.domain_dim) + 1j * rng.standard_normal(op.domain_dim)
        u, Tu = domain_images(op, c)
        assert np.linalg.norm(Tu) <= np.linalg.norm(u) + 1e-12
        assert np.linalg.norm(pic.t_mu @ u - Tu) <= 1e-12 * np.linalg.norm(u)
        assert np.linalg.norm(pic.t_M @ u - Tu) <= 1e-12 * np.linalg.norm(u)


def test_cayley_inverse_through_resolvents(two_atom):
    # R_z of any extension maps (A - z) f back to f on the domain
    op = two_atom.shift
    pic = two_atom.picture
    d = op.dim
    for t in (pic.t_mu, pic.t_M):
        for z in (1j, -1.0, -2 + 3j):
            R = resolvent_from_contraction(t, z)
            f = domain_basis(op)[:, 0]
            g = (op.matrix - z * np.eye(d)) @ f
            assert np.linalg.norm(R @ g - f) <= 1e-9


# ---------------------------------------------------------------------------
# extremal extensions


def test_self_adjoint_case_has_zero_gap(delta1):
    pic = delta1.picture
    assert np.allclose(pic.t_mu, pic.t_M, atol=1e-12)
    ref = assemble_completion(delta1.shift, np.zeros((0, 0)))
    assert np.allclose(pic.t_mu, ref)


def test_empty_domain_interval_is_full(delta1):
    # a shift with an empty domain on C^1: every contraction extends T
    op = replace(
        delta1.shift,
        domain_dim=0,
        matrix=np.zeros((1, 1), dtype=complex),
    )
    pic = extremal_extensions(op)
    assert pic.q == 1
    assert np.allclose(pic.t_mu, [[-1.0]])
    assert np.allclose(pic.t_M, [[1.0]])


def _two_dim_shift(two_atom, a11, a21):
    """The two-atom shift with its blocks replaced: ``A e1 = a11 e1 + a21 e2``."""
    A = np.zeros((2, 2), dtype=complex)
    A[:, 0] = [a11, a21]
    return replace(two_atom.shift, matrix=A)


@pytest.mark.parametrize(
    "a11",
    [-0.5, -3.0, -1.0],
    ids=["norm-above-one", "eigenvalue-below-minus-one", "singular-A-plus-E"],
)
def test_non_contraction_is_infeasible(two_atom, a11):
    # T = cay(A11) on e1 is 3 for A11 = -0.5 and -2 for A11 = -3; at -1 it
    # does not exist
    with pytest.raises(CompletionInfeasible, match="A11 has eigenvalue"):
        extremal_extensions(_two_dim_shift(two_atom, a11, 0.7))


def test_krein_corner_contractivity_guard(two_atom):
    # A11 = -9e-9 passes the A11 >= -FEAS_TOL guard, but T = cay(A11) then
    # exceeds 1 by 1.8e-8, and so does t_M >= t_mu
    with pytest.raises(CompletionInfeasible, match="t_M violates contractivity"):
        extremal_extensions(_two_dim_shift(two_atom, -9e-9, 0.7))


def test_kernel_of_A11_not_annihilated_by_A21_is_refused():
    # S = [1, 0, 1] is not solvable (S_1 = 0 puts all mass at 0, so S_2 = 0):
    # A xi_0 = xi_1 with (A xi_0, xi_0) = 0.  The Krein corner is not an
    # operator there; the contractivity guard refuses the input and names
    # the failed range condition: A11 = 0 and |A21| = 1.  analyze refuses
    # these data first, so the guard is reached by building the steps by hand
    seq = moment_sequence([[[1.0]], [[0.0]], [[1.0]]])
    with pytest.raises(CompletionInfeasible, match="not solvable: range condition"):
        analyze(seq)
    with pytest.raises(CompletionInfeasible) as info:
        extremal_extensions(build_shift(build_space(*check_solvable(seq).plain)))
    msg = str(info.value)
    assert "t_M violates contractivity by -3.236e+00" in msg
    assert "range-condition residual |A21 on ker A11| = 1.000e+00" in msg
    assert "A21 must vanish on ker A11 for solvable data" in msg


def test_contractivity_guard_residual_is_A21_on_the_dropped_kernel(two_atom):
    # A11 = -9e-9 falls below the signed cutoff, so its eigenvector counts
    # as ker A11, and A21 = 0.7 on it
    with pytest.raises(CompletionInfeasible, match=r"ker A11\| = 7\.000e-01"):
        extremal_extensions(_two_dim_shift(two_atom, -9e-9, 0.7))


def _atom_at_zero_sequence(seed, N=4):
    # atoms 0, 0.366, 2.103, 6.866 with weight ranks 4, 3, 2, 4 and weights
    # s G*G, s = 10^U(-3, 3); order m = 6 or 7
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 8))
    s = 10.0 ** rng.uniform(-3, 3)
    atoms = []
    for lam, r in zip((0.0, 0.366, 2.103, 6.866), (4, 3, 2, 4)):
        G = rng.standard_normal((r, N)) + 1j * rng.standard_normal((r, N))
        atoms.append((lam, herm(s * (G.conj().T @ G))))
    return moments_of_measure(solution_measure(N, atoms), m)


@pytest.mark.parametrize("seed", [0, 1, 6, 7, 9])
def test_atom_at_zero_keeps_krein_corner_contractive(seed):
    # the atom at 0 puts an eigenvalue of I - T11 at zero up to roundoff of
    # either sign; it must not be inverted, or the Krein corner leaves the
    # unit ball and the input is refused as CompletionInfeasible
    a = analyze(_atom_at_zero_sequence(seed))
    assert not a.verdict.determinate
    entries = solve_tau_grid(a, 3)
    assert len(entries) == 3
    for e in entries:
        assert e["verification"]["pass"], e["verification"]


def _assert_matches_reference(a, label):
    # corners within 1e-9 of the Gram-factor reference, whose gap has no
    # kernel either, and a defect basis orthogonal to D(T)
    pic = a.picture
    t_mu, t_M, J = reference_corners(a.shift)
    assert np.abs(pic.t_mu - t_mu).max() <= 1e-9, label
    assert np.abs(pic.t_M - t_M).max() <= 1e-9, label
    assert gap_kernel_dim(t_mu, t_M, J) == 0, label
    Q1 = cayley_reference(a.shift)[0]
    assert np.abs(Q1.conj().T @ pic.J).max(initial=0.0) <= 1e-12, label


def test_corners_match_reference_on_battery(battery):
    for name, a in battery.items():
        _assert_matches_reference(a, name)


@pytest.mark.parametrize("seed", [0, 1, 6, 7, 9])
def test_corners_match_reference_with_atom_at_zero(seed):
    _assert_matches_reference(analyze(_atom_at_zero_sequence(seed)), seed)


def test_defect_basis_is_canonical(battery):
    # J = K L^{-*} with K = [-(E + A11)^{-1} A21*; E]: orthonormal, and its
    # last q rows L^{-*} are upper triangular with a positive diagonal
    checked = 0
    for name, a in battery.items():
        J = a.picture.J
        q = J.shape[1]
        low = J[a.shift.domain_dim :]
        assert low.shape == (q, q), name
        assert np.abs(J.conj().T @ J - np.eye(q)).max(initial=0.0) <= 1e-12, name
        assert np.abs(np.tril(low, -1)).max(initial=0.0) <= 1e-14, name
        assert (np.diag(low).real > 0).all(), name
        assert np.abs(np.diag(low).imag).max(initial=0.0) <= 1e-14, name
        checked += q > 1
    assert checked >= 2


def test_two_atom_extremal_eigenvalues(two_atom):
    # frozen from the explicit rank-2 factorization of S = [2, 3, 5]
    pic = two_atom.picture
    assert np.allclose(np.linalg.eigvalsh(pic.t_mu), [-1.0, -0.2], atol=1e-9)
    assert np.allclose(np.linalg.eigvalsh(pic.t_M), [-0.25, 1.0], atol=1e-9)
    comp = pic.J.conj().T @ pic.C @ pic.J
    assert min_eig(comp) > 0.1


def test_extensions_are_contractions_and_extend_T(two_atom):
    pic = two_atom.picture
    I = np.eye(pic.dim)
    op = two_atom.shift
    u, Tu = domain_images(op, np.eye(op.domain_dim))
    for t in sample_sc_extensions(pic, 12, seed=3):
        assert min_eig(I - t @ t) >= -1e-10
        assert np.abs(t @ u - Tu).max() <= 1e-9


def test_sandwich_order(two_atom):
    pic = two_atom.picture
    samples = sample_sc_extensions(pic, 20, seed=4)
    # the deterministic segment hits both endpoints exactly
    assert np.abs(samples[0] - pic.t_mu).max() <= 1e-12
    assert any(np.abs(t - pic.t_M).max() <= 1e-12 for t in samples)
    for t in samples:
        assert min_eig(t - pic.t_mu) >= -1e-10
        assert min_eig(pic.t_M - t) >= -1e-10


def test_resolvent_ordering(two_atom):
    pic = two_atom.picture
    for x in (0.1, 1.0, 10.0):
        R_mu = resolvent_from_contraction(pic.t_mu, -x)
        R_M = resolvent_from_contraction(pic.t_M, -x)
        for t in sample_sc_extensions(pic, 8, seed=6):
            R = resolvent_from_contraction(t, -x)
            assert min_eig(R - R_mu) >= -1e-9
            assert min_eig(R_M - R) >= -1e-9


def test_feasible_corner_oracle(two_atom):
    # brute-force search: no feasible Hermitian corner escapes the interval
    # (completions from the reference bases, bounds from the corners)
    pic = two_atom.picture
    J = cayley_reference(two_atom.shift)[2]
    X_min = (J.conj().T @ pic.t_mu @ J).real
    X_max = (J.conj().T @ pic.t_M @ J).real
    rng = np.random.default_rng(11)
    feasible = 0
    I = np.eye(pic.dim)
    for _ in range(2000):
        X = np.array([[rng.uniform(-1.5, 1.5)]], dtype=complex)
        t = assemble_completion(two_atom.shift, X)
        if min_eig(I - t) >= -1e-10 and min_eig(I + t) >= -1e-10:
            feasible += 1
            assert X[0, 0].real >= X_min[0, 0] - 1e-8
            assert X[0, 0].real <= X_max[0, 0] + 1e-8
    assert feasible > 100


def test_transversality_rank(two_atom):
    pic = two_atom.picture
    I = np.eye(pic.dim)
    stacked = np.hstack([I + pic.t_mu, I + pic.t_M])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == pic.dim


def test_transversality_rank_battery(indeterminate_battery):
    # indeterminate case: ran(E + t_mu) + ran(E + t_M) fills H
    for name, a in indeterminate_battery.items():
        pic = a.picture
        I = np.eye(pic.dim)
        stacked = np.hstack([I + pic.t_mu, I + pic.t_M])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == pic.dim, name


# ---------------------------------------------------------------------------
# determinacy


def test_determinacy_verdicts(delta1, dirac0, two_atom):
    # determinate exactly when the defect is trivial
    assert delta1.verdict.determinate and delta1.verdict.defect_dim == 0
    assert dirac0.verdict.determinate and dirac0.verdict.defect_dim == 0
    v = two_atom.verdict
    assert not v.determinate and v.defect_dim == 1 and v.gap_norm > 0


def test_determinate_gap_is_empty(delta1):
    g, U = delta1.picture.gap
    assert g.shape == (0,) and U.shape == (0, 0)
    assert delta1.verdict.gap_norm == 0.0


def test_determinate_corners_coincide(delta1):
    # no defect: T is defined on the whole space, so it is its own extension
    pic = delta1.picture
    assert pic.q == 0 and np.array_equal(pic.t_mu, pic.t_M)


def test_indeterminate_gap_is_positive_definite(two_atom):
    g, U = two_atom.picture.gap
    assert g.min() > 0 and np.isclose(two_atom.verdict.gap_norm, g.max())


def _direct_sum(s1, s2):
    """Analysis of the direct sum of two scalar problems (block-diagonal
    data)."""
    return analyze(
        moment_sequence(
            [
                np.diag(np.concatenate([np.diag(a), np.diag(b)])).astype(complex)
                for a, b in zip(s1.moments, s2.moments)
            ]
        )
    )


def test_tiny_gap_is_indeterminate_with_finite_weyl_limit():
    # S = [1, 1e-12, 1] puts its mass next to 0 and a sliver at 1e12.  Its
    # Hankel is positive definite, so it is indeterminate with q = 1, though
    # its gap is only 4e-12; M(0) = 2 G^{-1} is huge but finite, and the
    # transform of tau = -1 at -0.5 is 2 up to S_1 = 1e-12
    a = analyze(moment_sequence([[[1.0]], [[1e-12]], [[1.0]]]))
    v = a.verdict
    assert not v.determinate and v.defect_dim == 1
    assert 3e-12 <= v.gap_norm <= 5e-12
    gw = a.require_gamma_weyl()
    assert abs(gw.M0[0, 0] - 2.0 / v.gap_norm) <= 1e-12 * abs(gw.M0[0, 0])
    tau = make_tau({"type": "constant", "matrix": [[-1.0]]})
    F = solution_transform(gw, tau, a.rep, a.N, -0.5)
    assert abs(F[0, 0] - 2.0) <= 1e-11


def test_trivial_direct_sum_with_determinate_instance(delta1, two_atom):
    # partial determinacy shows as q < N: the determinate summand adds no
    # defect, and the gap of the sum is positive definite
    mixed = _direct_sum(delta1.seq, two_atom.seq)
    v = mixed.verdict
    assert mixed.N == 2 and v.defect_dim == 1 and not v.determinate
    assert mixed.picture.gap[0].min() > 0 and mixed.gamma_weyl is not None


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_closed_forms():
    I2 = np.eye(2, dtype=complex)
    z = 0.3 + 0.7j
    assert np.allclose(resolvent_from_contraction(np.zeros((2, 2)), z), I2 / (1 - z))
    assert np.allclose(resolvent_from_contraction(I2, z), -I2 / z)
    assert np.allclose(resolvent_from_contraction(-I2, z), 0.0)


def test_resolvent_bad_point():
    with pytest.raises(BadPoint):
        resolvent_from_contraction(np.zeros((2, 2)), 2.0)


@pytest.mark.parametrize("z", ["nan", "-inf", "1+infj", "nan-1j"])
def test_resolvent_point_not_finite(z):
    with pytest.raises(BadPoint, match="not finite"):
        resolvent_from_contraction(np.zeros((2, 2)), complex(z))


def test_resolvent_identity_and_symmetry(two_atom):
    t = two_atom.picture.t_M
    z, w = 1j, -1 + 2j
    Rz = resolvent_from_contraction(t, z)
    Rw = resolvent_from_contraction(t, w)
    assert np.abs(Rz - Rw - (z - w) * Rz @ Rw).max() <= 1e-10
    Rzc = resolvent_from_contraction(t, np.conj(z))
    assert np.abs(Rz.conj().T - Rzc).max() <= 1e-12


# ---------------------------------------------------------------------------
# spectral solutions


def test_spectral_solution_delta1(delta1):
    meas = spectral_solution(np.zeros((1, 1)), delta1.rep, 1)
    assert len(meas.atoms) == 1
    lam, W = meas.atoms[0]
    assert np.isclose(lam, 1.0) and np.isclose(W[0, 0], 1.0)


def test_spectral_solution_dirac0(dirac0):
    meas = spectral_solution(np.ones((1, 1)), dirac0.rep, 1)
    lam, W = meas.atoms[0]
    assert lam == 0.0 and np.isclose(W[0, 0], 1.0)


def test_spectral_solution_recovers_generating_measure(two_atom):
    # intertwine the representation with the explicit two-point model
    # (x_0 = (1,1), x_1 = (1,2), multiplication by diag(1,2)) and push the
    # multiplication operator through: an extension of the shift
    X = two_atom.rep.vectors
    M0 = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    U = X @ np.linalg.inv(M0)
    A = U @ np.diag([1.0, 2.0]) @ U.conj().T
    assert np.linalg.norm(A @ X[:, 0] - X[:, 1]) <= 1e-10
    I = np.eye(2)
    t = (I - A) @ np.linalg.inv(I + A)
    meas = spectral_solution(herm(t), two_atom.rep, 1)
    assert len(meas.atoms) == 2
    assert np.allclose(meas.positions, [1.0, 2.0], atol=1e-9)
    assert np.allclose([W[0, 0].real for _, W in meas.atoms], [1.0, 1.0], atol=1e-9)


def test_friedrichs_corner_has_mass_at_infinity(two_atom):
    # frozen: the finite part is a single atom (3/2, weight 2); the lost mass
    # shows up in the top moment only
    pic = two_atom.picture
    meas = spectral_solution(pic.t_mu, two_atom.rep, 1)
    assert meas.mass_at_infinity is not None
    assert len(meas.atoms) == 1
    lam, W = meas.atoms[0]
    assert np.isclose(lam, 1.5, atol=1e-9) and np.isclose(W[0, 0], 2.0, atol=1e-9)
    rep = verify_moments(meas, two_atom.seq, upto=2)
    assert not rep["pass"]
    assert np.allclose(rep["errors"][:2], 0.0, atol=1e-12)
    got = moments_of_measure(meas, 2).moments[2][0, 0]
    assert np.isclose(got, 4.5, atol=1e-9)


def test_round_trip_for_interior_extensions(two_atom):
    pic = two_atom.picture
    for t in sample_sc_extensions(pic, 10, seed=9)[1:]:  # skip the mu corner
        meas = spectral_solution(t, two_atom.rep, 1)
        if meas.mass_at_infinity is not None:
            continue
        rep = verify_moments(meas, two_atom.seq, upto=2, rtol=1e-8)
        assert rep["pass"], rep


def _assert_weights_match_reference(meas, t, rep, N):
    ref = spectral_reference(t, rep, N)
    assert len(meas.atoms) == len(ref.atoms)
    assert np.array_equal(meas.positions, ref.positions)
    pairs = [(W, W0) for (_, W), (_, W0) in zip(meas.atoms, ref.atoms)]
    assert (meas.mass_at_infinity is None) == (ref.mass_at_infinity is None)
    if ref.mass_at_infinity is not None:
        pairs.append((meas.mass_at_infinity, ref.mass_at_infinity))
    for W, W0 in pairs:
        assert np.array_equal(W, W.conj().T)
        assert np.linalg.norm(W - W0) <= 1e-14 * np.linalg.norm(W0)
    return ref


def test_spectral_weights_chained_cluster(battery):
    # eigenvalues 0, 0.6e-9, 1.2e-9: the middle one is within CLUSTER_TOL of
    # both neighbours, but the last is not within it of the cluster's first
    # one, so the rule gives two atoms, not one chained cluster
    a = battery["n1_three_m5"]
    assert a.rep.dim == 3
    U = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 1.5 + 1j * np.eye(3))[0]
    t = herm(U @ np.diag([0.0, 0.6e-9, 1.2e-9]) @ U.conj().T)
    meas = spectral_solution(t, a.rep, 1)
    _assert_weights_match_reference(meas, t, a.rep, 1)
    assert len(meas.atoms) == 2
    assert np.isclose(meas.atoms[0][0], (1 - 1.2e-9) / (1 + 1.2e-9), rtol=0, atol=1e-15)


def test_spectral_solution_herms_clusters_only(
    battery, indeterminate_battery, monkeypatch
):
    # singleton weights come out of one einsum, Hermitian as computed; herm
    # runs once on the input and once per cluster of two or more eigenvalues
    from stieltjesmp import extensions

    calls = []

    def counted(M):
        calls.append(M.shape)
        return herm(M)

    monkeypatch.setattr(extensions, "herm", counted)
    a = battery["n1_three_m5"]
    U = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 1.5 + 1j * np.eye(3))[0]
    t = herm(U @ np.diag([0.0, 0.5e-9, 0.7]) @ U.conj().T)
    meas = spectral_solution(t, a.rep, 1)
    assert len(meas.atoms) == 2 and len(calls) == 2
    for a in indeterminate_battery.values():
        t = a.picture.t_mu + 0.5 * a.picture.C
        calls.clear()
        meas = spectral_solution(t, a.rep, a.N)
        assert len(meas.atoms) == a.rep.dim and calls == [t.shape]


def test_grid_factors_each_matrix_once(monkeypatch):
    # analyze and a 3-point grid on an indeterminate problem: eigh
    # of A11, of t_M (read by the contractivity check and the s = 1 entry)
    # and of the q x q gap (shared by determinacy and M(0) = 2 G^{-1}),
    # then one per interior grid point; no eigvalsh.  Each parameter is
    # (1 - 1/s) M(0), so the Krein corner's is exactly 0
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(M, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, M.copy()))
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    a = analyze(_ladder_n4_m9_problem())
    entries = solve_tau_grid(a, 3)
    pic, d, q = a.picture, a.picture.dim, a.picture.q
    assert not a.verdict.determinate and a.gamma_weyl is not None
    assert [(n, M.shape) for n, M in calls] == [
        ("eigh", (d - q, d - q)),
        ("eigh", (d, d)),
        ("eigh", (q, q)),
        ("eigh", (d, d)),
        ("eigh", (d, d)),
    ]
    assert np.array_equal(calls[1][1], pic.t_M)
    for e in entries:
        assert np.array_equal(e["tau_constant"], (1.0 - 1.0 / e["s"]) * a.gamma_weyl.M0)
    assert not entries[-1]["tau_constant"].any()
    monkeypatch.undo()
    krein = spectral_solution(pic.t_M, a.rep, a.N)
    got = entries[-1]["measure"]
    assert entries[-1]["s"] == 1.0 and len(got.atoms) == len(krein.atoms)
    for (lam, W), (lam0, W0) in zip(got.atoms, krein.atoms):
        assert lam == lam0 and np.array_equal(W, W0)


def _counted_eigh(monkeypatch):
    """The inputs of every ``np.linalg.eigh`` and ``eigvalsh`` call, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(M, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, M.copy()))
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_unique_solution_reads_the_stored_pairs(monkeypatch):
    # a determinate analyze and its unique solution decompose A11, t_M and
    # the q x q gap once each; the solution reads t_mu's stored pairs
    meas = random_discrete_measure(0, 2, 2, (0.1, 4.0), min_sep=0.3)
    calls = _counted_eigh(monkeypatch)
    a = analyze(moments_of_measure(meas, 6))
    got = unique_solution(a)["measure"]
    pic, d, q = a.picture, a.picture.dim, a.picture.q
    assert a.verdict.determinate
    assert [(n, M.shape) for n, M in calls] == [
        ("eigh", (d - q, d - q)),
        ("eigh", (d, d)),
        ("eigh", (q, q)),
    ]
    assert np.array_equal(calls[1][1], pic.t_M)
    monkeypatch.undo()
    # the same atoms as a fresh eigh of t_mu, weights to 1e-7 of the mass
    fresh = spectral_solution(pic.t_mu, a.rep, a.N)
    mass = np.trace(a.seq.moments[0]).real
    assert len(got.atoms) == len(fresh.atoms) == 2
    for (lam, W), (lam0, W0) in zip(got.atoms, fresh.atoms):
        assert abs(lam - lam0) <= 1e-12 * lam0
        assert np.abs(W - W0).max() <= 1e-7 * mass
    for (lam, W), (lam0, W0) in zip(got.atoms, meas.atoms):
        assert abs(lam - lam0) <= 1e-10 * lam0
        assert np.abs(W - W0).max() <= 1e-7 * mass


def test_unique_solution_refuses_an_indeterminate_analysis(two_atom):
    with pytest.raises(MomentProblemError, match="problem is not determinate"):
        unique_solution(two_atom)


def test_gap_is_decomposed_from_the_formed_G(monkeypatch):
    # the gap's eigh input is the G that C = herm(J G J*) is formed from,
    # bit for bit, not J* C J
    calls = _counted_eigh(monkeypatch)
    a = analyze(_ladder_n4_m9_problem())
    pic = a.picture
    J, (_, G_in) = pic.J, calls[2]
    assert not a.verdict.determinate and G_in.shape == (pic.q,) * 2
    assert np.array_equal(herm(J @ G_in @ J.conj().T), pic.C)
    g, U = pic.gap
    assert g.min() > 0
    assert np.abs((U * g) @ U.conj().T - G_in).max() <= 1e-13 * g.max()


@pytest.mark.parametrize("case", ["rank_deficient", "exit_space"])
def test_overlaps_read_the_first_N_rows(indeterminate_battery, case):
    # the data vectors are zero below row N, so the weights from the first
    # min(N, d) rows equal those of the full-row reference: with fewer
    # vectors than N (two atoms of rank-one weight at N = 3, d = 2), and on
    # C^(d+r) for an exit-space extension
    from stieltjesmp.io import encode_matrix

    if case == "rank_deficient":
        u, v = np.array([1.0, 2.0, 1j]), np.array([0.5, -1j, 1.0])
        atoms = [(1.5, np.outer(u.conj(), u)), (0.5, np.outer(v.conj(), v))]
        a = analyze(moments_of_measure(solution_measure(3, atoms), 4))
        assert a.rep.dim == 2 < a.N
        ts = [a.picture.t_mu, herm(np.array([[0.2, 0.3j], [-0.3j, -0.4]]))]
    else:
        a = indeterminate_battery["n2_rand"]
        E = np.eye(a.gamma_weyl.q)
        poles = [{"p": 1.5, "W": encode_matrix(E)}]
        spec = {"type": "rational", "tau0": encode_matrix(-E), "poles": poles}
        ts = [exit_space_extension(a.gamma_weyl, make_tau(spec))[0]]
        assert ts[0].shape[0] > a.rep.dim > a.N
    assert not a.rep.vectors[a.N :, : a.N].any()
    for t in ts:
        _assert_weights_match_reference(spectral_solution(t, a.rep, a.N), t, a.rep, a.N)


@pytest.mark.parametrize("name", ["two_atom", "n1_three_m5", "n2_rand", "n3_rand"])
def test_spectral_weights_mass_at_infinity(indeterminate_battery, name):
    # the Friedrichs corner: -1 on the last q coordinates
    a = indeterminate_battery[name]
    meas = spectral_solution(a.picture.t_mu, a.rep, a.N)
    assert meas.mass_at_infinity is not None
    _assert_weights_match_reference(meas, a.picture.t_mu, a.rep, a.N)


def test_spectral_weights_atom_at_zero(battery):
    # the Krein corner of atoms {0, 1} has the eigenvalue +1, an atom at 0
    a = battery["atom0_pair"]
    meas = spectral_solution(a.picture.t_M, a.rep, a.N)
    assert meas.atoms[0][0] == 0.0
    _assert_weights_match_reference(meas, a.picture.t_M, a.rep, a.N)


def test_spectral_weights_along_the_segment(indeterminate_battery):
    for a in indeterminate_battery.values():
        for s in (0.25, 2 / 3, 1.0):
            t = a.picture.t_mu + s * a.picture.C
            _assert_weights_match_reference(spectral_solution(t, a.rep, a.N), t, a.rep, a.N)


def test_spectral_weights_exit_space_padding():
    # a rational parameter with a rank-q residue: the contraction acts on
    # C^d + C^q, and the data vectors are padded with q zero rows
    from stieltjesmp.io import encode_matrix

    a = analyze(_ladder_n4_m9_problem())
    q = a.gamma_weyl.q
    E = np.eye(q)
    spec = {
        "type": "rational",
        "tau0": encode_matrix(-(1 / 1.2 + 0.3) * E),
        "poles": [{"p": 1.2, "W": encode_matrix(E)}],
    }
    t = exit_space_extension(a.gamma_weyl, make_tau(spec))[0]
    assert t.shape[0] == a.rep.dim + q
    meas = spectral_solution(t, a.rep, a.N)
    assert meas.mass_at_infinity is None
    _assert_weights_match_reference(meas, t, a.rep, a.N)


def _ladder_n4_m9_problem():
    # the N = 4, m = 9, 6-atom problem of op 1 of the benchmark's size ladder
    # at seed 1, by its generator's recipe: the ladder draws its cells in
    # order from one stream, atoms uniform in [0.1, 4], weights G*G / N
    rng = np.random.default_rng([1, sum(map(ord, "ladder")), 1])
    for N, count in [(1, 3), (1, 4), (1, 6), (4, 3), (4, 4), (4, 6)]:
        lam = np.sort(rng.uniform(0.1, 4.0, count))
        G = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    W = np.einsum("kji,kjl->kil", G.conj(), G) / 4
    S = np.einsum("pk,kij->pij", lam[None, :] ** np.arange(10)[:, None], W)
    return moment_sequence(list(0.5 * (S + S.conj().transpose(0, 2, 1))), N=4)


def test_no_real_atom_is_dropped():
    # at s = 2/3 an atom carrying ~1e-8 of a moment used to be dropped by a
    # rule that compared it with the summed importance of all atoms, which
    # far atoms dominate: 19 atoms and a 1.6e-8 round trip, refused by the
    # 1e-8 gate.  All 20 atoms are kept now.
    entries = solve_tau_grid(analyze(_ladder_n4_m9_problem()), 3)
    assert [len(e["measure"].atoms) for e in entries] == [20, 20, 17]
    for e in entries:
        assert max(e["verification"]["errors"]) <= 1e-12, e["verification"]
