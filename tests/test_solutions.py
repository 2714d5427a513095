import numpy as np
import pytest

from oracles import NoConvergence, measure_distance, perron_invert

from stieltjesmp import (
    PoleHit,
    SchemaError,
    moment_sequence,
    moments_of_measure,
    solution_measure,
    transform_of_measure,
    verify_moments,
)
from stieltjesmp.solutions import random_discrete_measure


def scalar_measure(*atoms):
    return solution_measure(1, [(lam, [[w]]) for lam, w in atoms])


# ---------------------------------------------------------------------------
# oracle: moments by direct summation


def test_moments_two_atoms():
    seq = moments_of_measure(scalar_measure((1.0, 1.0), (2.0, 1.0)), 3)
    assert [S[0, 0].real for S in seq.moments] == [2.0, 3.0, 5.0, 9.0]


def test_moments_dirac_zero():
    seq = moments_of_measure(scalar_measure((0.0, 1.0)), 2)
    assert [S[0, 0].real for S in seq.moments] == [1.0, 0.0, 0.0]


def _moments_per_atom(meas, p_max):
    out = []
    for p in range(p_max + 1):
        S = np.zeros((meas.N, meas.N), dtype=complex)
        for lam, W in meas.atoms:
            S = S + (lam**p) * W
        out.append(0.5 * (S + S.conj().T))
    return out


@pytest.mark.parametrize("N, count", [(1, 3), (2, 7), (4, 20), (8, 60), (3, 150)])
def test_moments_match_per_atom_summation(N, count):
    for seed in range(5):
        meas = random_discrete_measure(seed, N, count, lam_range=(0.0, 4.0))
        got = moments_of_measure(meas, 9).moments
        for S, ref in zip(got, _moments_per_atom(meas, 9), strict=True):
            assert np.linalg.norm(S - ref) <= 1e-15 * np.linalg.norm(ref)


def test_moments_of_the_empty_measure_are_zero():
    seq = moments_of_measure(solution_measure(3, []), 4)
    assert seq.N == 3 and seq.m == 4
    assert all(S.shape == (3, 3) and not S.any() for S in seq.moments)


def test_moments_block_diag():
    meas = solution_measure(
        2, [(1.0, np.diag([1.0, 0.0])), (2.0, np.diag([0.0, 1.0]))]
    )
    seq = moments_of_measure(meas, 2)
    for j in range(3):
        assert np.allclose(seq.moments[j], np.diag([1.0, 2.0**j]))


def test_verify_exact_round_trip():
    meas = scalar_measure((1.0, 1.0), (2.0, 1.0))
    seq = moments_of_measure(meas, 3)
    rep = verify_moments(meas, seq, upto=3)
    assert rep["pass"] and max(rep["errors"]) == 0.0


def test_verify_detects_perturbed_weight():
    meas = scalar_measure((1.0, 1.0), (2.0, 1.0 + 1e-3))
    seq = moment_sequence([[[2.0]], [[3.0]], [[5.0]]])
    rep = verify_moments(meas, seq, upto=2, rtol=1e-8)
    assert not rep["pass"]
    assert rep["errors"][rep["worst_order"]] > 1e-4


@pytest.mark.parametrize("N", [1, 2, 3, 8, 32])
def test_verify_errors_are_the_per_order_norms(N):
    # every order at once, but each error is the same bits as one
    # np.linalg.norm per order; the CLI prints them with 17 digits
    for seed in range(4):
        meas = random_discrete_measure(seed, N, 6, lam_range=(0.0, 4.0))
        seq = moments_of_measure(random_discrete_measure(seed + 9, N, 6), 9)
        got = moments_of_measure(meas, 9).moments
        ref = [
            np.linalg.norm(g - S) / max(1.0, np.linalg.norm(S))
            for g, S in zip(got, seq.moments)
        ]
        assert verify_moments(meas, seq)["errors"] == ref


def test_moments_of_a_negative_order_are_refused():
    with pytest.raises(SchemaError):
        moments_of_measure(scalar_measure((1.0, 1.0)), -1)


def test_verify_rejects_upto_past_data():
    meas = scalar_measure((1.0, 1.0))
    seq = moments_of_measure(meas, 2)
    with pytest.raises(ValueError):
        verify_moments(meas, seq, upto=5)


def test_verify_rejects_block_size_mismatch():
    meas = scalar_measure((1.0, 1.0), (2.0, 1.0))
    seq = moments_of_measure(random_discrete_measure(1, 2, 2), 2)
    with pytest.raises(ValueError):
        verify_moments(meas, seq)


# ---------------------------------------------------------------------------
# transforms


def test_transform_single_atom():
    F = transform_of_measure(scalar_measure((1.0, 1.0)), 1j)
    assert np.isclose(F[0, 0], 0.5 + 0.5j)


def test_transform_atom_at_zero():
    F = transform_of_measure(scalar_measure((0.0, 1.0)), -1.0)
    assert np.isclose(F[0, 0], 1.0)


def test_transform_pole_hit():
    with pytest.raises(PoleHit):
        transform_of_measure(scalar_measure((1.0, 1.0)), 1.0 + 1e-14j)


def test_transform_conjugation_symmetry():
    meas = random_discrete_measure(2, 2, 3, min_sep=0.3)
    for z in (1j, 0.7 + 0.2j, -1 + 1j):
        F = transform_of_measure(meas, z)
        Fc = transform_of_measure(meas, np.conj(z))
        assert np.abs(F.conj().T - Fc).max() == 0.0


# ---------------------------------------------------------------------------
# inversion (the Perron oracle in tests/oracles.py)


def test_invert_single_atom():
    meas = scalar_measure((1.0, 1.0))
    got = perron_invert(lambda z: transform_of_measure(meas, z), grid=(-0.5, 3.0))
    assert len(got.atoms) == 1
    lam, W = got.atoms[0]
    assert abs(lam - 1.0) <= 1e-4
    assert abs(W[0, 0].real - 1.0) <= 1e-3


def test_invert_two_atoms_criterion_tolerances():
    meas = scalar_measure((1.0, 1.0), (2.0, 1.0))
    got = perron_invert(lambda z: transform_of_measure(meas, z), grid=(-0.5, 4.0))
    assert len(got.atoms) == 2
    for (lam, W), (lam0, W0) in zip(got.atoms, meas.atoms):
        assert abs(lam - lam0) <= 1e-4
        assert abs(W[0, 0] - W0[0, 0]) <= 1e-3


def test_invert_zero_transform_empty():
    got = perron_invert(lambda z: np.zeros((2, 2), dtype=complex), grid=(-0.5, 4.0))
    assert got.atoms == ()


def test_invert_matrix_weights():
    W0 = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.5]])
    meas = solution_measure(2, [(0.8, W0), (2.2, np.eye(2))])
    got = perron_invert(lambda z: transform_of_measure(meas, z), grid=(-0.5, 4.0))
    assert len(got.atoms) == 2
    assert abs(got.atoms[0][0] - 0.8) <= 1e-4
    assert np.abs(got.atoms[0][1] - W0).max() <= 1e-3


def test_invert_no_convergence_under_strict_tolerance():
    meas = scalar_measure((1.0, 1.0), (1.02, 0.5))
    with pytest.raises(NoConvergence):
        perron_invert(
            lambda z: transform_of_measure(meas, z),
            grid=(-0.5, 3.0),
            atom_tol=1e-13,
        )


@pytest.mark.parametrize(
    "eps", [(1e-2,), (1e-2, 1e-2), (0.0, 1e-3), (-1e-2, 1e-3)]
)
def test_invert_refuses_schedule_without_two_distinct_positive_eps(eps):
    meas = scalar_measure((1.0, 1.0))
    with pytest.raises(ValueError):
        perron_invert(lambda z: transform_of_measure(meas, z), eps_schedule=eps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_closure(seed):
    N = seed % 2 + 1
    meas = random_discrete_measure(seed, N, 3, lam_range=(0.0, 10.0), min_sep=0.5)
    got = perron_invert(
        lambda z: transform_of_measure(meas, z), grid=(-0.5, 11.0)
    )
    ref = moments_of_measure(meas, 4)
    rep = verify_moments(got, ref, upto=4, rtol=1e-3)
    assert rep["pass"], rep


# ---------------------------------------------------------------------------
# measure bookkeeping


def test_cumulative_left_continuous_and_zero_at_origin():
    meas = scalar_measure((0.0, 1.0), (2.0, 3.0))
    assert meas.cumulative(0.0)[0, 0] == 0.0  # jump at 0 not yet counted
    assert meas.cumulative(1.0)[0, 0] == 1.0
    assert meas.cumulative(2.0)[0, 0] == 1.0  # left-continuity at the atom
    assert meas.cumulative(2.5)[0, 0] == 4.0


def test_cumulative_monotone_psd():
    meas = random_discrete_measure(4, 2, 3, min_sep=0.2)
    grid = np.linspace(-1, 11, 101)
    prev = np.zeros((2, 2), dtype=complex)
    for lam in grid:
        cur = meas.cumulative(lam)
        step = cur - prev
        assert float(np.linalg.eigvalsh(step).min()) >= -1e-12
        prev = cur


def test_atom_position_validation():
    with pytest.raises(ValueError):
        solution_measure(1, [(-0.5, [[1.0]])])
    # tiny negatives are clamped
    meas = solution_measure(1, [(-1e-13, [[1.0]])])
    assert meas.atoms[0][0] == 0.0


def test_random_measure_determinism_and_separation():
    a = random_discrete_measure(7, 2, 4, min_sep=0.5)
    b = random_discrete_measure(7, 2, 4, min_sep=0.5)
    assert np.array_equal(a.positions, b.positions)
    for x, y in zip(a.atoms, b.atoms):
        assert np.array_equal(x[1], y[1])
    seps = np.diff(a.positions)
    assert (seps >= 0.5).all()


def test_borderline_rank_truncation_is_gated_not_silent():
    # seed 14: the smallest genuine Gram eigenvalue (5.0e-6 of the largest)
    # is far above every pivot threshold of the natural-order factor, so the
    # default keeps all 12 directions and the measures pass cleanly.  A loose
    # psd_tol (it makes every rank cut) truncates genuine directions; the
    # emitted measures then miss the 1e-8 gate, and the pipeline must refuse
    # (gate), not pass.
    from stieltjesmp import analyze, solve_tau_grid
    from stieltjesmp.pipeline import Tolerances

    meas = random_discrete_measure(14, 3, 4, lam_range=(0.2, 6.0), min_sep=0.7)
    seq = moments_of_measure(meas, 7)

    full = analyze(seq)
    assert full.rep.dim == 12
    entries = solve_tau_grid(full, 2)
    assert all(e["verification"]["pass"] for e in entries)

    loose_tols = Tolerances(psd_tol=1e-5)
    loose = analyze(seq, loose_tols)
    assert loose.rep.dim < 12
    entries = solve_tau_grid(loose, 2)
    assert all(not e["verification"]["pass"] for e in entries)
    assert all(max(e["verification"]["errors"]) < 1e-4 for e in entries)


def test_the_settings_go_in_once_to_analyze():
    # psd_tol and rtol are the only settings; the analysis keeps the ones it
    # was given, and every solver gates at its rtol
    from dataclasses import fields

    from stieltjesmp import analyze, moment_sequence, solve_tau_grid
    from stieltjesmp.pipeline import Tolerances

    assert [f.name for f in fields(Tolerances)] == ["psd_tol", "rtol"]
    seq = moment_sequence([[[2.0]], [[3.0]], [[5.0]]])
    t = Tolerances(rtol=1e-3)
    a = analyze(seq, t)
    assert a.tols is t
    assert {e["verification"]["rtol"] for e in solve_tau_grid(a, 2)} == {1e-3}


def test_close_atom_pairs_keep_the_full_defect_space():
    # N = 2, m = 5, four full-rank atoms in two close pairs: the Gram has full
    # rank 6 at condition ~1e11.  A global eigenvalue cutoff dropped one
    # genuine direction here, shrank the defect space to C^1 and refused any
    # C^2 parameter with a SchemaError.
    from stieltjesmp import analyze, make_tau, solve_with_tau

    atoms = [
        (2.3002013551070517, [[2.4908178079640466, 0.1601539097094028 - 1.2521999264119505j],
                              [0.1601539097094028 + 1.2521999264119505j, 0.813926239855253]]),
        (2.3116759170204357, [[3.1584085129733914, 2.308774870347483 - 1.974264660534522j],
                              [2.308774870347483 + 1.974264660534522j, 5.844340255984646]]),
        (3.2064044066833066, [[4.939196167890713, 1.3562014015363275 - 2.143389483454203j],
                              [1.3562014015363275 + 2.143389483454203j, 1.6157668145126935]]),
        (3.2070296468007293, [[2.4995094562349793, 2.108168822679291 - 0.8828345425354281j],
                              [2.108168822679291 + 0.8828345425354281j, 2.7514678708231393]]),
    ]
    a = analyze(moments_of_measure(solution_measure(2, atoms), 5))
    assert a.rep.dim == 6
    assert a.picture.defect_dim == 2
    tau = make_tau(
        {
            "type": "rational",
            "tau0": [[-1.5, 0.5], [0.5, -3.0]],
            "poles": [{"p": 2.9, "W": [[0.3, 0.1], [0.1, 0.8]]}],
        },
        require_class=True,
    )
    entry = solve_with_tau(a, tau)
    assert entry["verification"]["pass"]
    assert max(entry["verification"]["errors"]) <= 1e-8


def test_measure_distance_zero_iff_same():
    a = scalar_measure((1.0, 1.0), (2.0, 1.0))
    b = scalar_measure((1.0, 1.0), (2.0, 1.0 + 1e-3))
    assert measure_distance(a, a) == 0.0
    assert measure_distance(a, b) >= 1e-4
