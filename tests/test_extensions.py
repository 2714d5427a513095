import numpy as np
import pytest

from stieltjesmp import (
    BadPoint,
    CompletionInfeasible,
    analyze,
    determinacy,
    extend_ext,
    extremal_extensions,
    resolvent_from_contraction,
    sample_sc_extensions,
    solution_measure,
    solve_tau_grid,
    spectral_solution,
)
from stieltjesmp.extensions import ContractionPicture
from stieltjesmp.solutions import moments_of_measure, verify_moments


def herm(M):
    return 0.5 * (M + M.conj().T)


def min_eig(M):
    return float(np.linalg.eigvalsh(herm(M)).min())


def assemble_completion(pic, X):
    """Reference extension of T with corner ``X`` on the defect space, built
    block by block from ``dom_basis`` and ``t_on_dom`` alone."""
    T11 = pic.dom_basis.conj().T @ pic.t_on_dom
    T21 = pic.defect_basis.conj().T @ pic.t_on_dom
    B = np.hstack([pic.dom_basis, pic.defect_basis])
    blk = np.block([[T11, T21.conj().T], [T21, X]])
    return herm(B @ blk @ B.conj().T)


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_of_zero_operator_is_identity(dirac0):
    pic = dirac0.picture
    # D(T) is the whole (1-dim) space and T acts as +1
    assert pic.dom_dim == 1 and pic.defect_dim == 0
    assert np.allclose(pic.t_on_dom, pic.dom_basis)


def test_cayley_of_identity_operator_is_zero(delta1):
    pic = delta1.picture
    assert pic.dom_dim == 1 and pic.defect_dim == 0
    assert np.allclose(pic.t_on_dom, 0.0)


def test_cayley_two_atom_splitting(two_atom):
    pic = two_atom.picture
    assert pic.dim == 2 and pic.dom_dim == 1 and pic.defect_dim == 1


def test_contraction_on_domain(two_atom):
    pic = two_atom.picture
    rng = np.random.default_rng(5)
    for _ in range(16):
        c = rng.standard_normal(pic.dom_dim) + 1j * rng.standard_normal(pic.dom_dim)
        u = pic.dom_basis @ c
        Tu = pic.t_on_dom @ c
        assert np.linalg.norm(Tu) <= np.linalg.norm(u) + 1e-12


def test_cayley_inverse_through_resolvents(two_atom):
    # R_z of any extension maps (A - z) f back to f on the domain
    op = two_atom.shift
    pic = two_atom.picture
    d = op.dim
    for t in (pic.t_mu, pic.t_M):
        for z in (1j, -1.0, -2 + 3j):
            R = resolvent_from_contraction(t, z)
            f = op.domain_basis[:, 0]
            g = (op.matrix - z * np.eye(d)) @ f
            assert np.linalg.norm(R @ g - f) <= 1e-9


# ---------------------------------------------------------------------------
# extremal extensions


def test_self_adjoint_case_has_zero_gap(delta1):
    pic = delta1.picture
    assert np.allclose(pic.t_mu, pic.t_M, atol=1e-12)
    assert np.allclose(pic.t_mu, assemble_completion(pic, np.zeros((0, 0))))


def test_empty_domain_interval_is_full():
    pic = ContractionPicture(
        dim=1,
        dom_basis=np.zeros((1, 0), dtype=complex),
        defect_basis=np.eye(1, dtype=complex),
        t_on_dom=np.zeros((1, 0), dtype=complex),
    )
    pic = extremal_extensions(pic)
    assert np.allclose(pic.t_mu, [[-1.0]])
    assert np.allclose(pic.t_M, [[1.0]])


@pytest.mark.parametrize(
    "t_e1",
    [[0.9, 0.9], [-1.5, 0.0]],
    ids=["norm-above-one", "eigenvalue-below-minus-one"],
)
def test_non_contraction_is_infeasible(t_e1):
    # T e1 = 0.9 e1 + 0.9 e2 has norm 1.27; T e1 = -1.5 e1 makes I + T11
    # indefinite, so its Cholesky factor does not exist
    pic = ContractionPicture(
        dim=2,
        dom_basis=np.array([[1.0], [0.0]], dtype=complex),
        defect_basis=np.array([[0.0], [1.0]], dtype=complex),
        t_on_dom=np.array(t_e1, dtype=complex).reshape(2, 1),
    )
    with pytest.raises(CompletionInfeasible):
        extremal_extensions(pic)


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


def test_two_atom_extremal_eigenvalues(two_atom):
    # frozen from the explicit rank-2 factorization of S = [2, 3, 5]
    pic = two_atom.picture
    assert np.allclose(np.linalg.eigvalsh(pic.t_mu), [-1.0, -0.2], atol=1e-9)
    assert np.allclose(np.linalg.eigvalsh(pic.t_M), [-0.25, 1.0], atol=1e-9)
    comp = pic.defect_basis.conj().T @ pic.C @ pic.defect_basis
    assert min_eig(comp) > 0.1


def test_extensions_are_contractions_and_extend_T(two_atom):
    pic = two_atom.picture
    I = np.eye(pic.dim)
    for t in sample_sc_extensions(pic, 12, seed=3):
        assert min_eig(I - t @ t) >= -1e-10
        assert np.abs(t @ pic.dom_basis - pic.t_on_dom).max() <= 1e-9


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
    pic = two_atom.picture
    X_min = (pic.defect_basis.conj().T @ pic.t_mu @ pic.defect_basis).real
    X_max = (pic.defect_basis.conj().T @ pic.t_M @ pic.defect_basis).real
    rng = np.random.default_rng(11)
    feasible = 0
    I = np.eye(pic.dim)
    for _ in range(2000):
        X = np.array([[rng.uniform(-1.5, 1.5)]], dtype=complex)
        t = assemble_completion(pic, X)
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
    # completely indeterminate case: ran(E + t_mu) + ran(E + t_M) fills H
    for name, a in indeterminate_battery.items():
        pic = a.extended
        I = np.eye(pic.dim)
        stacked = np.hstack([I + pic.t_mu, I + pic.t_M])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == pic.dim, name


# ---------------------------------------------------------------------------
# determinacy and regularization


def test_determinacy_verdicts(delta1, dirac0, two_atom):
    assert delta1.verdict.determinate
    assert dirac0.verdict.determinate
    v = two_atom.verdict
    assert not v.determinate
    assert v.completely_indeterminate and v.upsilon_dim == 0 and v.defect_dim == 1


def test_determinate_implies_full_kernel(delta1):
    v = delta1.verdict
    assert v.upsilon_dim == v.defect_dim


def test_extend_ext_noop_when_completely_indeterminate(two_atom):
    ext = extend_ext(two_atom.picture)
    assert two_atom.picture.defect_dim - ext.defect_dim == 0
    assert np.allclose(ext.t_mu, two_atom.picture.t_mu)


def test_extend_ext_determinate_fills_space(delta1):
    ext = extend_ext(delta1.picture)
    assert ext.defect_dim == 0
    assert ext.dom_dim == delta1.picture.dim


def _direct_sum(p1, p2):
    def stack(a, b):
        top = np.hstack([a, np.zeros((a.shape[0], b.shape[1]))])
        bot = np.hstack([np.zeros((b.shape[0], a.shape[1])), b])
        return np.vstack([top, bot]).astype(complex)

    return ContractionPicture(
        dim=p1.dim + p2.dim,
        dom_basis=stack(p1.dom_basis, p2.dom_basis),
        defect_basis=stack(p1.defect_basis, p2.defect_basis),
        t_on_dom=stack(p1.t_on_dom, p2.t_on_dom),
    )


def test_extend_ext_absorbs_determinate_summand(two_atom):
    # determinate-with-defect block: T e1 = e2 exactly saturates the norm,
    # so its completion interval collapses (X_min = X_max = 0)
    p_det = ContractionPicture(
        dim=2,
        dom_basis=np.array([[1.0], [0.0]], dtype=complex),
        defect_basis=np.array([[0.0], [1.0]], dtype=complex),
        t_on_dom=np.array([[0.0], [1.0]], dtype=complex),
    )
    p_det = extremal_extensions(p_det)
    assert np.abs(p_det.C).max() <= 1e-12
    mixed = extremal_extensions(_direct_sum(p_det, two_atom.picture))
    v = determinacy(mixed)
    assert v.defect_dim == 2 and v.upsilon_dim == 1
    ext = extend_ext(mixed)
    assert mixed.defect_dim - ext.defect_dim == 1
    assert ext.defect_dim == 1
    # the regularized picture keeps the same extremal pair
    assert np.abs(ext.t_mu - mixed.t_mu).max() <= 1e-9
    assert np.abs(ext.t_M - mixed.t_M).max() <= 1e-9
    assert determinacy(ext).completely_indeterminate


def test_trivial_direct_sum_with_determinate_instance(delta1, two_atom):
    mixed = extremal_extensions(_direct_sum(delta1.picture, two_atom.picture))
    v = determinacy(mixed)
    # the determinate summand has no defect, so nothing is absorbed
    assert v.defect_dim == 1 and v.upsilon_dim == 0
    assert mixed.defect_dim - extend_ext(mixed).defect_dim == 0


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
