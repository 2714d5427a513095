import numpy as np
import pytest

from stieltjesmp import NotPSD, build_space, check_solvable, moment_sequence
from stieltjesmp.gns import natural_factor
from stieltjesmp.hankel import ScalarGram
from stieltjesmp.solutions import moments_of_measure, random_discrete_measure, solution_measure


def space_of_gram(matrix, tol=1e-10):
    # a hand-made Gram goes the way check_solvable sends the plain Hankel:
    # one natural_factor, whose fault build_space raises as NotPSD
    matrix = np.asarray(matrix, dtype=complex)
    gram = ScalarGram(size=matrix.shape[0], gamma=matrix, N=1, n=matrix.shape[0] - 1)
    return build_space(gram, natural_factor(matrix, tol))


def space_of_moments(seq, psd_tol=1e-10):
    return build_space(*check_solvable(seq, psd_tol).plain)


def reproduced_gram(rep):
    return rep.vectors.conj().T @ rep.vectors


def test_all_ones_gram_is_rank_one():
    rep = space_of_gram(np.ones((3, 3)))
    assert rep.dim == 1
    # all coordinate vectors coincide and have unit norm
    for a in range(3):
        assert np.allclose(rep.vectors[:, a], rep.vectors[:, 0])
    assert np.isclose(np.linalg.norm(rep.vectors[:, 0]), 1.0)


def test_identity_gram_gives_orthonormal_vectors():
    rep = space_of_gram(np.eye(4))
    assert rep.dim == 4
    assert np.allclose(reproduced_gram(rep), np.eye(4), atol=1e-12)


def test_dirac_gram():
    rep = space_of_gram([[1.0, 0.0], [0.0, 0.0]])
    assert rep.dim == 1
    assert np.isclose(abs(rep.vectors[0, 0]), 1.0)
    assert np.allclose(rep.vectors[:, 1], 0.0)


def test_not_psd_raises():
    with pytest.raises(NotPSD, match="^Gram pivot 1 is -3.000e"):
        space_of_gram([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("seed", range(8))
def test_gram_reproduction(seed):
    N = seed % 3 + 1
    count = seed % 4 + 1
    seq = moments_of_measure(
        random_discrete_measure(seed, N, count, min_sep=0.2), 2 * count
    )
    rep = space_of_moments(seq)
    g = rep.gram
    scale = max(1.0, float(np.abs(g.gamma).max()))
    assert np.abs(reproduced_gram(rep) - g.gamma).max() <= 1e-9 * scale


def test_rank_monotone_in_tolerance():
    seq = moments_of_measure(random_discrete_measure(0, 2, 2, min_sep=0.5), 4)
    dims = [space_of_moments(seq, tol).dim for tol in (1e-14, 1e-10, 1e-6, 1e-2)]
    assert dims == sorted(dims, reverse=True)


def test_phase_convention_invisible_through_inner_products():
    seq = moment_sequence([[[2.0]], [[3.0]], [[5.0]]])
    rep = space_of_moments(seq)
    # a global unitary (e.g. eigenvector phase flip) leaves the Gram alone
    rng = np.random.default_rng(0)
    phases = np.exp(2j * np.pi * rng.uniform(size=rep.dim))
    flipped = (phases[:, None]) * rep.vectors
    assert np.allclose(flipped.conj().T @ flipped, reproduced_gram(rep), atol=1e-12)


def test_zero_pivot_with_live_row_is_not_psd():
    # column 1 repeats column 0 on the diagonal block (pivot 0, dropped) but
    # not against column 2: indefinite, and only the dropped row shows it
    with pytest.raises(NotPSD, match="Schur-complement row"):
        space_of_gram([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])


def test_factor_is_upper_trapezoidal_with_positive_pivots():
    seq = moments_of_measure(random_discrete_measure(2, 2, 2, min_sep=0.5), 4)
    rep = space_of_moments(seq)
    X = rep.vectors
    pivots = (X != 0).argmax(axis=1)
    assert (np.diff(pivots) > 0).all()
    assert (X[np.arange(rep.dim), pivots].real > 0).all()
    assert np.allclose(X[np.arange(rep.dim), pivots].imag, 0.0)


def test_factor_matches_high_precision_cholesky():
    # the Hankel of Lebesgue measure on [0, 1] (a Hilbert matrix), 7 x 7 with
    # condition ~5e8: full rank, so the factor is the Cholesky factor G = X* X
    mpmath = pytest.importorskip("mpmath")
    size = 7
    seq = moment_sequence([[[1.0 / (p + 1)]] for p in range(2 * size - 1)])
    rep = space_of_moments(seq)
    assert rep.dim == size
    with mpmath.workdps(50):
        hilbert = mpmath.matrix(
            [[mpmath.mpf(1) / (i + j + 1) for j in range(size)] for i in range(size)]
        )
        L = mpmath.cholesky(hilbert)
        ref = np.array(
            [[float(L[j, i]) for j in range(size)] for i in range(size)]
        )
    # column-wise relative error of xi_a, against the column's norm
    err = np.linalg.norm(rep.vectors - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-10


@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("seed", range(6))
def test_full_rank_data_keep_every_direction(N, seed):
    # n + 2 full-rank atoms at m = 9: the Gram has full rank (n + 1) N and the
    # problem is indeterminate, so no direction may be dropped
    from stieltjesmp import analyze, solve_tau_grid

    m = 9
    n = m // 2
    meas = random_discrete_measure(seed, N, n + 2, lam_range=(0.1, 4.0))
    a = analyze(moments_of_measure(meas, m))
    assert a.rep.dim == (n + 1) * N
    assert not a.verdict.determinate
    assert all(e["verification"]["pass"] for e in solve_tau_grid(a, 3))


@pytest.mark.parametrize("kind", ["determinate", "indeterminate", "rank-deficient"])
def test_one_natural_factor_per_hankel_family(kind, monkeypatch):
    # check_solvable builds and factors each family's maximal Hankel once;
    # analyze takes its space from that plain factor, so build_space never
    # factors and the space's Gram is the matrix the verdict read
    from stieltjesmp import analyze, gns, hankel

    seq = {
        "determinate": moment_sequence([[[1.0]], [[1.0]], [[1.0]]]),
        "indeterminate": moments_of_measure(
            random_discrete_measure(0, 2, 4, lam_range=(0.1, 4.0)), 5
        ),
        "rank-deficient": moments_of_measure(
            solution_measure(
                2, [(1.0, np.eye(2)), (2.0, np.diag([1.0, 0.0])), (3.0, np.diag([1.0, 0.0]))]
            ),
            4,
        ),
    }[kind]
    factored, built = [], []
    real_factor, real_block = gns.natural_factor, hankel._block_hankel

    def counted_factor(G, tol):
        factored.append(G)
        return real_factor(G, tol)

    def counted_block(seq, n, offset):
        built.append((n, offset))
        return real_block(seq, n, offset)

    monkeypatch.setattr(hankel, "natural_factor", counted_factor)
    monkeypatch.setattr(gns, "natural_factor", counted_factor)
    monkeypatch.setattr(hankel, "_block_hankel", counted_block)
    a = analyze(seq)
    assert len(factored) == 2
    assert built == [(seq.n, 0), ((seq.m - 1) // 2, 1)]
    assert factored[0] is a.gram.gamma and a.rep.gram is a.gram
    factored.clear()
    check_solvable(seq)
    assert len(factored) == 2
    monkeypatch.undo()
    assert a.verdict.determinate == (kind == "determinate")
    assert (a.rep.dim < a.gram.size) == (kind != "indeterminate")
