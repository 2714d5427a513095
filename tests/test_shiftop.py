import numpy as np
import pytest
from oracles import check_nonneg_hermitian, defect_subspace

from stieltjesmp import (
    BadPoint,
    InconsistentTruncation,
    OrderTooLow,
    PropertyViolated,
    build_shift,
    build_space,
    check_solvable,
    moment_sequence,
)
from stieltjesmp.shiftop import ShiftOperator
from stieltjesmp.solutions import moments_of_measure, random_discrete_measure


def shift_of(values, n_extra=None, N=1):
    seq = moment_sequence([[[float(v)]] for v in values]) if N == 1 else values
    rep = build_space(*check_solvable(seq).plain)
    return build_shift(rep)


def test_delta1_shift_is_identity():
    op = shift_of([1, 1, 1])
    assert op.dim == 1
    assert np.isclose(op.matrix[0, 0], 1.0)
    assert op.consistency_residual <= 1e-12


def test_two_atom_shift():
    op = shift_of([2, 3, 5])
    assert op.dim == 2 and op.domain_dim == 1
    assert op.consistency_residual <= 1e-12
    xi0 = op.rep.vectors[:, 0]
    assert np.isclose(np.vdot(xi0, op.matrix @ xi0), 3.0)


def test_dirac0_shift_is_zero():
    op = shift_of([1, 0, 0])
    assert op.dim == 1
    assert np.isclose(op.matrix[0, 0], 0.0)


def test_order_too_low():
    seq = moment_sequence([[[1.0]], [[2.0]]])
    rep = build_space(*check_solvable(seq).plain)
    with pytest.raises(OrderTooLow):
        build_shift(rep)


def test_inconsistent_truncation_detected():
    # kernel relation xi_0 = xi_1 is not respected by the shifted vectors.
    # These data fail the range condition, so analyze refuses them first;
    # build_shift's own check is reached only by calling it directly
    seq = moment_sequence([[[1.0]], [[1.0]], [[1.0]], [[1.0]], [[2.0]]])
    rep = build_space(*check_solvable(seq).plain)
    with pytest.raises(InconsistentTruncation):
        build_shift(rep)


@pytest.mark.xfail(
    strict=True,
    raises=InconsistentTruncation,
    reason=(
        "consistent data refused: four full-rank atoms (two of them 3.6e-3 "
        "apart) at N = 4, m = 9 leave a shift residual of 1.2e-5 against the "
        "1e-8 bound (ROADMAP items 2 and 3)"
    ),
)
def test_determinate_data_of_low_order_define_the_shift():
    # moments of a measure, so exactly consistent; the generator is the
    # benchmark's random_measure and measure_moments, problem 117 of the
    # determinate census
    rng = np.random.default_rng([117, 25])
    N, m = 4, 9
    count = rng.integers(1, 5)
    lam = np.sort(rng.uniform(0.1, 4.0, count))
    G = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    W = np.einsum("kji,kjl->kil", G.conj(), G) / N
    S = np.einsum("pk,kij->pij", lam[None, :] ** np.arange(m + 1)[:, None], W)
    op = shift_of(moment_sequence(list(0.5 * (S + S.conj().transpose(0, 2, 1)))), N=N)
    assert op.consistency_residual <= 1e-8


# ---------------------------------------------------------------------------
# sampled operator properties


def test_delta1_properties_pass():
    report = check_nonneg_hermitian(shift_of([1, 1, 1]), trials=32, seed=1)
    assert report["min_rayleigh"] >= -1e-12


def test_two_atom_rayleigh_bounded_by_smallest_atom():
    report = check_nonneg_hermitian(shift_of([2, 3, 5]), trials=64, seed=2)
    # atoms sit at 1 and 2, so the form is bounded below by 1 on the domain
    assert report["min_rayleigh"] >= 1.0 - 1e-9


def test_negative_operator_flagged():
    base = shift_of([1, 1, 1])
    bad = ShiftOperator(
        rep=base.rep,
        domain_dim=1,
        matrix=np.array([[-1.0 + 0j]]),
        consistency_residual=0.0,
        N=1,
    )
    with pytest.raises(PropertyViolated):
        check_nonneg_hermitian(bad, trials=8, seed=0)


# ---------------------------------------------------------------------------
# defect subspaces


def test_delta1_defect_trivial():
    dd = defect_subspace(shift_of([1, 1, 1]), 1j)
    assert dd.index == 0


def test_two_atom_defect_one():
    dd = defect_subspace(shift_of([2, 3, 5]), -1.0)
    assert dd.index == 1
    # defect orthogonal to the range
    assert np.abs(dd.defect_basis.conj().T @ dd.range_basis).max() <= 1e-10


@pytest.mark.parametrize("z", [0.0, 1.0, 17.3, "nan", "-1-infj"])
def test_bad_point_on_positive_axis(z):
    with pytest.raises(BadPoint):
        defect_subspace(shift_of([2, 3, 5]), complex(z))


def test_index_conjugation_symmetric():
    op = shift_of([2, 3, 5])
    for z in (1j, -2 + 3j, 0.5 + 0.25j):
        assert defect_subspace(op, z).index == defect_subspace(op, np.conj(z)).index


@pytest.mark.parametrize("seed", range(6))
def test_defect_invariants_on_generated_instances(seed):
    N = seed % 3 + 1
    count = seed % 3 + 1
    seq = moments_of_measure(
        random_discrete_measure(seed, N, count, min_sep=0.4), 2 * count
    )
    rep = build_space(*check_solvable(seq).plain)
    op = build_shift(rep)
    indices = []
    for z in (1j, -1.0, -2 + 3j):
        dd = defect_subspace(op, z)
        indices.append(dd.index)
        # deficiency bound
        assert dd.index <= N
        # dim H_z + index = d
        assert dd.range_basis.shape[1] + dd.index == rep.dim
        if dd.index and dd.range_basis.shape[1]:
            assert np.abs(dd.defect_basis.conj().T @ dd.range_basis).max() <= 1e-10
        # every coordinate vector splits across range + defect
        for k in range(rep.vectors.shape[1]):
            xi = rep.vectors[:, k]
            pr = dd.range_basis @ (dd.range_basis.conj().T @ xi)
            pd_ = dd.defect_basis @ (dd.defect_basis.conj().T @ xi)
            assert np.linalg.norm(xi - pr - pd_) <= 1e-9 * max(
                1.0, np.linalg.norm(xi)
            )
    # index is the same at every sampled point
    assert len(set(indices)) == 1


def test_shift_identity_recomputed():
    op = shift_of([2, 3, 5])
    X = op.rep.vectors
    n, N = op.rep.gram.n, op.N
    for k in range(n * N):
        assert np.linalg.norm(op.matrix @ X[:, k] - X[:, k + N]) <= 1e-10
