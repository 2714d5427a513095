import warnings
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from itertools import product
from unittest import mock

import numpy as np
import pytest

from stieltjesmp import (
    CompletionInfeasible,
    NotHermitian,
    OrderTooHigh,
    SchemaError,
    analyze,
    build_gamma,
    check_solvable,
    load_moments,
    moment_sequence,
    scalarize,
    solution_measure,
)
from stieltjesmp import io
from stieltjesmp.gns import natural_factor
from stieltjesmp.io import _pair_array, measure_from_dict
from stieltjesmp.krein import make_tau
from stieltjesmp.solutions import moments_of_measure, random_discrete_measure

from oracles import build_gamma_tilde, eigen_solvability, mp_relative_pivots


def seq1(*values):
    return moment_sequence([[[float(v)]] for v in values])


# ---------------------------------------------------------------------------
# load_moments


def test_load_two_atom_document():
    seq = load_moments({"N": 1, "moments": [[[2, 0]], [[3, 0]], [[5, 0]]]})
    assert seq.N == 1 and seq.m == 2
    assert seq.moments[2][0, 0] == 5.0


def test_load_single_mass_moment():
    seq = load_moments({"N": 1, "moments": [[[1, 0]]]})
    assert seq.m == 0 and seq.moments[0][0, 0] == 1.0


def test_load_rejects_nonreal_diagonal():
    doc = {"N": 2, "moments": [[[[0, 1], [0, 0]], [[0, 0], [1, 0]]]]}
    with pytest.raises(NotHermitian):
        load_moments(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"N": 1},
        {"N": 0, "moments": [[[1, 0]]]},
        {"N": 1, "moments": []},
        {"N": 1, "moments": [[[1, 0], [2, 0]]]},  # wrong shape
        {"N": 1, "moments": [[["x", 0]]]},
    ],
)
def test_load_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        load_moments(doc)


# a Hermitian 2 x 2 moment in [re, im] pairs, with a signed zero
P2 = [[[2, 0], [0.5, -0.25]], [[0.5, 0.25], [3.0, -0.0]]]


def _with_entry(value):
    """``[P2, P2']`` where ``P2'`` has ``value`` in place of its last entry."""
    return [P2, [P2[0], [P2[1][0], value]]]


@contextmanager
def _array_reads(on=True):
    """Record, per matrix that :func:`io.parse_matrix` reads, whether the
    array read took it; with ``on`` false every matrix goes through the
    per-entry loop."""
    taken, real = [], io._pair_array

    def spy(obj, shape):
        M = real(obj, shape) if on else None
        taken.append(M is not None)
        return M

    with mock.patch.object(io, "_pair_array", spy):
        yield taken


def _per_entry(doc):
    """The moments as the per-entry loop alone reads and validates them."""
    with _array_reads(on=False):
        return load_moments(doc)


def _bits(parsed):
    """The bytes of every number of a parsed document, in field order."""
    if isinstance(parsed, np.ndarray):
        return parsed.tobytes()
    if isinstance(parsed, (tuple, list)):
        return b"".join(map(_bits, parsed))
    if is_dataclass(parsed):
        return b"".join(_bits(getattr(parsed, f.name)) for f in fields(parsed))
    return repr(parsed).encode()


@pytest.mark.parametrize(
    "doc, one_array",
    [
        ({"N": 2, "moments": [P2, P2, P2]}, (True,) * 3),
        ({"N": 2, "moments": [[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]]}, (True,)),  # ints
        ({"N": 2, "moments": [[[2.0, 0.5], [0.5, 3.0]]]}, (False,)),  # bare reals
        ({"N": 2, "moments": [P2, [[2, [0.5, -0.25]], [[0.5, 0.25], 3]]]}, (True, False)),
        ({"N": 1, "moments": [[[[2, 0]]], [[[3.5, 0]]], [[[5, -0.0]]]]}, (True,) * 3),
        ({"N": 1, "moments": [[[2, 0]], [[3.5, 0]], [[5, 0]]]}, (False,) * 3),  # width-1 rows
        ({"N": 1, "moments": [[[2]], [[[3.5, 0]]], [[5, 0]]]}, (False, True, False)),
    ],
    ids=["pairs", "int-pairs", "bare-reals", "mixed", "N1-pairs", "N1-width1-rows",
         "N1-mixed"],
)
def test_load_one_array_parity(doc, one_array):
    # each moment of [re, im] pairs is read as one array, any other entry by
    # entry; the moments are bit-identical either way
    N = doc["N"]
    assert tuple(_pair_array(S, (N, N)) is not None for S in doc["moments"]) == one_array
    with _array_reads() as taken:
        seq = load_moments(doc)
    assert tuple(taken) == one_array
    assert _bits(seq) == _bits(_per_entry(doc))


def test_load_one_array_keeps_the_asymmetry_warning():
    S = [[[1, 0], [0.1, 1e-14]], [[0.1, 0], [1, 0]]]
    doc = {"N": 2, "moments": [S, P2]}
    assert all(_pair_array(S, (2, 2)) is not None for S in doc["moments"])
    with pytest.warns(UserWarning, match="moment 0: symmetrized asymmetry 1.000e-14"):
        seq = load_moments(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _bits(seq) == _bits(_per_entry(doc))


@pytest.mark.parametrize(
    "moments, N, message",
    [
        (_with_entry([True, 0]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got [True, 0]"),
        (_with_entry([3, False]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got [3, False]"),
        (_with_entry(["1.5", 0]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got ['1.5', 0]"),
        (_with_entry([None, 0]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got [None, 0]"),
        (_with_entry([3, 0, 0]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got [3, 0, 0]"),
        (_with_entry([]), 2, "moments[1][1][1]: expected a number or [re, im] pair, got []"),
        ([P2, [P2[0], [[0.5, 0.25]]]], 2, "moments[1]: ragged rows"),
        ([P2, P2], 3, "moments[0]: expected shape (3, 3), got (2, 2)"),
        ([P2, P2], 1, "moments[0]: expected shape (1, 1), got (2, 2)"),
        ([P2, [[[[2, 0]], [0.5, -0.25]], P2[1]]], 2, "moments[1][0][0]: expected a number or [re, im] pair, got [[2, 0]]"),
        ([P2, [[], []]], 2, "moments[1]: row 0 is not a non-empty array"),
        ([P2, []], 2, "moments[1]: expected a non-empty nested array"),
        ([P2, "abc"], 2, "moments[1]: expected a non-empty nested array"),
        ([], 2, "'moments' must be a non-empty array"),
        ([[[True]]], 1, "moments[0][0][0]: expected a number or [re, im] pair, got True"),
        ([[[1, 0]], [[None, 0]]], 1, "moments[1][0][0]: expected a number or [re, im] pair, got None"),
    ],
    ids=["true", "false-im", "string", "null", "triple", "empty-entry", "ragged",
         "N-too-large", "N-too-small", "too-deep", "empty-rows", "empty-matrix",
         "string-matrix", "no-moments", "N1-true", "N1-null"],
)
def test_load_malformed_messages(moments, N, message):
    # the per-entry messages, unchanged by the one-array read
    with pytest.raises(SchemaError) as info:
        load_moments({"N": N, "moments": moments})
    assert str(info.value) == message


def test_load_out_of_range_integer_fails_alike_on_both_paths():
    # an integer beyond the float range passes the one-array type check;
    # the read must then fail exactly as the per-entry read does
    doc = {"N": 1, "moments": [[[[10**400, 0]]]]}
    with pytest.raises(Exception) as one_array:
        load_moments(doc)
    with pytest.raises(Exception) as per_entry:
        _per_entry(doc)
    assert type(one_array.value) is type(per_entry.value)
    assert str(one_array.value) == str(per_entry.value)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize(
    "entry, one_array",
    [(lambda v: [v, 0], True), (lambda v: [0.5, v], True), (lambda v: v, False)],
    ids=["pair-re", "pair-im", "bare"],
)
def test_load_refuses_non_finite_numbers(value, entry, one_array):
    # a NaN, an infinity (JSON's 1e400) or an integer beyond the float range
    # is a schema error on either read, naming the entry
    if one_array:
        moments = [P2, [P2[0], [P2[1][0], entry(value)]]]
        assert _pair_array(P2, (2, 2)) is not None
    else:
        moments = [[[2.0, 0.5], [0.5, 3.0]], [[2.0, 0.5], [0.5, entry(value)]]]
    assert _pair_array(moments[1], (2, 2)) is None
    with pytest.raises(SchemaError) as info:
        load_moments({"N": 2, "moments": moments})
    if isinstance(value, int):
        message = "moments[1][1][1]: an integer beyond the float range"
    else:
        message = f"moments[1][1][1]: {entry(value)!r} is not a finite number"
    assert str(info.value) == message


# every other matrix document, one matrix slot each: (template, read of
# the slot's value, location of its last entry, ragged outcome as (every
# entry a pair, message))
IDEAL = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0.5, -0.25], [0, 1]]]
DOCUMENTS = {
    "constant": (P2, lambda M: make_tau({"type": "constant", "matrix": M}),
                 "constant tau matrix[1][1]", (False, "constant tau matrix: ragged rows")),
    "tau0": (P2, lambda M: make_tau({"type": "rational", "tau0": M}),
             "tau0[1][1]", (False, "tau0: ragged rows")),
    "residue": (P2, lambda M: make_tau({"type": "rational", "poles": [{"p": 2.0, "W": M}]}),
                "pole 0 residue[1][1]", (False, "pole 0 residue: ragged rows")),
    "ideal": (IDEAL, lambda M: make_tau(
        {"type": "mixed", "ideal_subspace": M, "tau0": [[[-1, 0]]]}),
        "ideal_subspace[1][0][2]", (True, "ideal_subspace vectors have unequal lengths")),
    "weight": (P2, lambda M: measure_from_dict(
        {"N": 2, "atoms": [{"position": 1.0, "weight": M}]}),
        "atom 0 weight[1][1]", (False, "atom 0 weight: ragged rows")),
    "mass_at_infinity": (P2, lambda M: measure_from_dict(
        {"N": 2, "atoms": [], "mass_at_infinity": M}),
        "mass_at_infinity[1][1]", (False, "mass_at_infinity: ragged rows")),
    "N1-weight": ([[[2, 0]]], lambda M: measure_from_dict(
        {"N": 1, "atoms": [{"position": 1.0, "weight": M}]}),
        "atom 0 weight[0][0]", (False, "atom 0 weight: row 0 is not a non-empty array")),
}


def _last(T, value):
    """``T`` with ``value`` in place of its last entry."""
    return [*T[:-1], [*T[-1][:-1], value]]


# (variant of the template, every entry a pair, the message that follows
# the last entry's location, or None where no entry is at fault)
VARIANTS = {
    "pairs": (lambda T: T, True, None),
    "int-pairs": (lambda T: _last(T, [3, 0]), True, None),
    "bare-reals": (lambda T: [[re for re, _ in row] for row in T], False, None),
    "mixed": (lambda T: _last(T, T[-1][-1][0]), False, None),
    "width1-rows": (lambda T: [row[0] for row in T], False, None),
    "true": (lambda T: _last(T, [True, 0]), False,
             ": expected a number or [re, im] pair, got [True, 0]"),
    "null": (lambda T: _last(T, [None, 0]), False,
             ": expected a number or [re, im] pair, got [None, 0]"),
    "string": (lambda T: _last(T, ["1.5", 0]), False,
               ": expected a number or [re, im] pair, got ['1.5', 0]"),
    "triple": (lambda T: _last(T, [3, 0, 0]), False,
               ": expected a number or [re, im] pair, got [3, 0, 0]"),
    "empty-entry": (lambda T: _last(T, []), False,
                    ": expected a number or [re, im] pair, got []"),
    "nan": (lambda T: _last(T, [float("nan"), 0]), False, ": [nan, 0] is not a finite number"),
    "inf": (lambda T: _last(T, [float("inf"), 0]), False, ": [inf, 0] is not a finite number"),
    "huge-int": (lambda T: _last(T, [10**400, 0]), False, ": an integer beyond the float range"),
    "ragged": (lambda T: [*T[:-1], T[-1][:-1]], False, None),
}


def _outcome(read, value, on=True):
    """What ``read(value)`` gives, as the bits of what it returns or the text
    of the schema error it raises, and per matrix read whether the array
    read took it."""
    with _array_reads(on) as taken:
        try:
            got = _bits(read(value))
        except SchemaError as exc:
            got = str(exc)
    return got, taken


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("document", list(DOCUMENTS))
def test_every_matrix_document_reads_alike_on_both_paths(document, variant):
    # tau matrices, residues, ideal vectors, measure weights and the mass at
    # infinity are read as one array exactly when every entry is a pair, and
    # to the same values or the same located message as entry by entry
    T, read, last, ragged = DOCUMENTS[document]
    make, all_pairs, message = VARIANTS[variant]
    if variant == "ragged":
        all_pairs, message = ragged
    elif message is not None:
        message = last + message
    got, taken = _outcome(read, make(T))
    assert all(taken) == all_pairs
    assert got == _outcome(read, make(T), on=False)[0]
    if message is not None:
        assert got == message


@pytest.mark.parametrize(
    "matrices, N, message",
    [
        ([np.eye(2), np.eye(3)], None, "moment 1: expected shape (2, 2), got (3, 3)"),
        ([], None, "a moment sequence needs at least S_0"),
        ([[[1.0]]], 0, "block size N must be >= 1"),
    ],
    ids=["shape", "empty", "N-zero"],
)
def test_moment_sequence_refusals(matrices, N, message):
    with pytest.raises(SchemaError) as info:
        moment_sequence(matrices, N=N)
    assert str(info.value) == message


def test_small_asymmetry_is_symmetrized_with_warning():
    S0 = np.array([[1.0, 0.1 + 1e-14j], [0.1, 1.0]])
    with pytest.warns(UserWarning):
        seq = moment_sequence([S0], N=2)
    assert np.abs(seq.moments[0] - seq.moments[0].conj().T).max() == 0.0


# ---------------------------------------------------------------------------
# block Hankel construction


def test_gamma_two_atoms():
    G = build_gamma(seq1(2, 3, 5), 1)
    assert np.allclose(G, [[2, 3], [3, 5]])


def test_gamma_dirac_zero():
    G = build_gamma(seq1(1, 0, 0), 1)
    assert np.allclose(G, [[1, 0], [0, 0]])


def test_gamma_block_structure_n2():
    mats = [np.diag([1.0, 2.0**j]) for j in range(3)]
    G = build_gamma(moment_sequence(mats, N=2), 1)
    assert G.shape == (4, 4)
    assert np.allclose(G[:2, 2:], np.diag([1.0, 2.0]))
    assert np.allclose(G[2:, 2:], np.diag([1.0, 4.0]))


def test_gamma_order_too_high():
    with pytest.raises(OrderTooHigh):
        build_gamma(seq1(2, 3, 5), 2)


def test_gamma_tilde_examples():
    assert np.allclose(
        build_gamma_tilde(seq1(2, 3, 5, 9), 1), [[3, 5], [5, 9]]
    )
    assert np.allclose(build_gamma_tilde(seq1(1, 0, 0, 0), 1), 0.0)
    assert np.allclose(build_gamma_tilde(seq1(1, 1, 1, 1), 1), 1.0)
    with pytest.raises(OrderTooHigh):
        build_gamma_tilde(seq1(2, 3, 5), 1)


# ---------------------------------------------------------------------------
# scalarization


def test_scalarize_scalar_case_is_hankel():
    g = scalarize(seq1(2, 3, 5))
    assert g.size == 2
    assert np.allclose(g.gamma, [[2, 3], [3, 5]])


def test_scalarize_index_map_n2():
    mats = [np.diag([1.0, 2.0**j]) for j in range(3)]
    g = scalarize(moment_sequence(mats, N=2)).gamma
    assert g[0, 0] == 1 and g[1, 1] == 1
    assert g[0, 2] == 1 and g[1, 3] == 2
    assert g[2, 2] == 1 and g[3, 3] == 4
    assert g[0, 1] == 0 and g[2, 3] == 0


@pytest.mark.parametrize("seed", range(6))
def test_scalarize_shift_symmetry_bit_equal(seed):
    N = seed % 3 + 1
    meas = random_discrete_measure(seed, N, 3, min_sep=0.2)
    seq = moments_of_measure(meas, 4)
    g = scalarize(seq)
    size = g.size
    for a in range(size - N):
        for b in range(size - N):
            assert g.gamma[a + N, b] == g.gamma[a, b + N]


@pytest.mark.parametrize("seed", range(4))
def test_gamma_is_principal_submatrix_of_scalarization(seed):
    N = seed % 2 + 1
    seq = moments_of_measure(random_discrete_measure(seed, N, 2, min_sep=0.2), 4)
    g = scalarize(seq).gamma
    for k in range(seq.n + 1):
        sub = build_gamma(seq, k)
        assert np.array_equal(sub, g[: (k + 1) * N, : (k + 1) * N])
    # check_solvable reads every order off one factor of the maximal Hankel of
    # its family: its minima are, bit for bit, the running minima of that
    # factor's relative pivots at each order's last column.  A fresh factor
    # of a leading block keeps and drops the same columns, and its minimum
    # agrees to 1e-13 (the row products run over shorter rows, and a BLAS
    # matrix-vector product rounds its last elements by row length; 1.2e-14
    # measured over 8 seeds)
    for N, m in product((1, 4, 32), (3, 9, 13)):
        seq = moments_of_measure(random_discrete_measure(seed, N, m // 2 + 2), m)
        rep = check_solvable(seq)
        for build, top, pivots in (
            (build_gamma, m // 2, rep.plain_min_pivots),
            (build_gamma_tilde, (m - 1) // 2, rep.shifted_min_pivots),
        ):
            full = build(seq, top)
            R, rel, _ = natural_factor(full, rep.psd_tol)
            assert pivots == tuple(np.minimum.accumulate(rel)[N - 1 :: N].tolist())
            kept = (R != 0).argmax(axis=1)
            for k in range(top + 1):
                size = (k + 1) * N
                G = build(seq, k)
                assert np.array_equal(G, full[:size, :size])
                R_k, rel_k, _ = natural_factor(G, rep.psd_tol)
                assert R_k.shape[0] == (kept < size).sum()
                assert abs(rel_k.min() - pivots[k]) <= 1e-13


# ---------------------------------------------------------------------------
# solvability


def test_solvable_two_atoms():
    assert check_solvable(seq1(2, 3, 5, 9)).verdict == "solvable"


def test_solvable_short_sequence():
    # each pivot is relative to max(G_kk, 1)
    rep = check_solvable(seq1(1, 2))
    assert rep.verdict == "solvable"
    assert rep.plain_min_pivots == (1.0,)
    assert rep.shifted_min_pivots == (1.0,)
    rep = check_solvable(seq1(0.5, 0.25))
    assert rep.verdict == "solvable"
    assert rep.plain_min_pivots == (0.5,)
    assert rep.shifted_min_pivots == (0.25,)


def test_not_solvable_negative_shifted_moment():
    rep = check_solvable(seq1(1, -1))
    assert rep.verdict == "not solvable"


def test_not_solvable_when_a_dropped_column_has_a_live_schur_row():
    # S_0 = S_1 = S_2 drops column 1 (pivot 0), but its Schur-complement row
    # against column 2 is S_3 - S_1 S_2 / S_0 = 1: the Hankel is indefinite
    # while every pivot it keeps is positive
    seq = seq1(1, 1, 1, 2, 5)
    rep = check_solvable(seq)
    assert min(rep.plain_min_pivots) == 0.0
    assert rep.verdict == "not solvable" == eigen_solvability(seq)[2]


@pytest.mark.parametrize(
    "values, prefix",
    [
        ((1, -1, 1), "shifted Hankel: Gram pivot 0 is -1.000e+00"),
        ((-1, 0, 1), "plain Hankel: Gram pivot 0 is -1.000e+00"),
        ((1, 1, 1, 2, 5), "plain Hankel: Gram column 1 is dropped"),
    ],
)
def test_a_factor_fault_names_its_hankel(values, prefix):
    # the same pivot reads alike in either family, so the fault says which
    assert check_solvable(seq1(*values)).fault.startswith(prefix)


def test_solvers_refuse_data_that_fail_the_range_condition():
    # [1, 0, 0, 1] alone is determinate; summed with the indeterminate
    # two-atom problem [2, 3, 5, 9] it is not.  check_solvable reads the
    # range condition on both, and analyze refuses both before any solver
    # runs, naming the failed condition
    for seq in (
        seq1(1, 0, 0, 1),
        moment_sequence([np.diag([x, y]) for x, y in zip((1, 0, 0, 1), (2, 3, 5, 9))]),
    ):
        assert check_solvable(seq).verdict == "not solvable"
        with pytest.raises(CompletionInfeasible, match="not solvable: range condition"):
            analyze(seq)


@pytest.mark.parametrize(
    "lam",
    [
        1.5,
        pytest.param(
            0.15,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=(
                    "the range test floors each scale at 1 (c = max(., 1)), so "
                    "its bound is absolute on small moments: at lam = 0.15 the "
                    "data read marginal, and analyze exits 4 with a shift "
                    "residual of 1.07e-3 (ROADMAP item 6)"
                ),
            ),
        ),
    ],
)
def test_a_failed_range_condition_is_seen_at_every_scale(lam):
    # one atom at lam, with S_8 raised by 10%: the shifted Hankel of order 3
    # has rank one, and [S_5; ..; S_8] leaves its range at any scale
    seq = seq1(*[lam**p for p in range(8)], 1.1 * lam**8)
    assert check_solvable(seq).verdict == "not solvable"
    with pytest.raises(CompletionInfeasible, match="not solvable: range condition"):
        analyze(seq)


def test_loose_tolerance_never_keeps_a_negative_pivot():
    # at psd_tol >= 1 a negative diagonal used to clear tol * G_kk; such a
    # column is dropped (marginal), never kept with a NaN row (solvable)
    assert check_solvable(seq1(-0.5), psd_tol=2.0).verdict == "marginal"
    assert eigen_solvability(seq1(-0.5), psd_tol=2.0)[2] == "marginal"


def test_marginal_when_rank_deficient():
    # a single atom makes the order-1 Hankel exactly singular
    assert check_solvable(seq1(1, 1, 1)).verdict == "marginal"


@pytest.mark.parametrize("seed", range(10))
def test_generated_measures_are_solvable_up_to_roundoff(seed):
    N = seed % 3 + 1
    count = seed % 3 + 1
    meas = random_discrete_measure(seed, N, count, min_sep=0.3)
    seq = moments_of_measure(meas, 2 * count)
    rep = check_solvable(seq)
    assert min(rep.plain_min_pivots + rep.shifted_min_pivots) >= -1e-12
    assert rep.verdict != "not solvable"


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_relative_pivots_agree_with_exact_input_oracle(N):
    # separated atoms, full rank: the double-precision per-order minima agree
    # with the mpmath factor of the same rounded Hankels to a relative 1e-8
    # (worst 3.2e-9 measured over 200 seeds, N <= 4, m <= 7)
    for seed, m in product(range(4), range(1, 8)):
        meas = random_discrete_measure(seed, N, m // 2 + 2, (0.1, 4.0), min_sep=0.3)
        seq = moments_of_measure(meas, m)
        rep = check_solvable(seq)
        assert rep.verdict == "solvable"
        for build, top, pivots in (
            (build_gamma, m // 2, rep.plain_min_pivots),
            (build_gamma_tilde, (m - 1) // 2, rep.shifted_min_pivots),
        ):
            if top < 0:
                continue
            exact = mp_relative_pivots(build(seq, top))
            exact = np.minimum.accumulate(exact)[N - 1 :: N]
            assert (np.abs(np.array(pivots) - exact) <= 1e-8 * np.abs(exact)).all()


@pytest.mark.parametrize("seed", range(3))
def test_moments_of_measures_are_solvable_at_every_order(seed):
    # every m <= 9, weights of rank r <= N, as many atoms as the order can
    # see or fewer, and an atom at 0 in every other draw
    rng = np.random.default_rng([seed, 25])
    for m, draw in product(range(10), range(4)):
        N = int(rng.choice([1, 2, 3]))
        r = int(rng.integers(1, N + 1))
        lam = rng.uniform(0.1, 4.0, size=int(rng.integers(1, m // 2 + 3)))
        if draw % 2:
            lam[0] = 0.0
        atoms = []
        for x in lam:
            G = rng.standard_normal((r, N)) + 1j * rng.standard_normal((r, N))
            atoms.append((x, G.conj().T @ G / N))
        seq = moments_of_measure(solution_measure(N, atoms), m)
        rep = check_solvable(seq)
        assert rep.verdict != "not solvable", (m, N, lam, rep.fault)


def _refuse(*args, **kwargs):
    raise AssertionError("eigen-solver called")


def test_check_solvable_calls_no_eigensolver(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    for seed, m in product(range(3), (0, 3, 9, 13)):
        meas = random_discrete_measure(seed, seed + 1, m // 2 + 2, (0.1, 4.0))
        check_solvable(moments_of_measure(meas, m))
    assert check_solvable(seq1(1, -1)).verdict == "not solvable"


def test_analyze_eigensolver_calls_do_not_grow_with_order(monkeypatch):
    calls = []
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for m in (5, 13):
        meas = random_discrete_measure(0, 1, m // 2 + 2, (0.1, 4.0), min_sep=0.3)
        seq = moments_of_measure(meas, m)
        calls.clear()
        analyze(seq)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _stress_measure(rng):
    """A rank-deficient stress problem: ``N in {1, 2, 4}``, odd ``m`` from 3 to
    15, weights of one rank ``r <= N``, 1 to ``n + 3`` atoms in ``[0.1, 4]``
    and an atom at 0 in 30% of the problems."""
    N = int(rng.choice([1, 2, 4]))
    m = int(rng.choice(range(3, 16, 2)))
    count = int(rng.integers(1, m // 2 + 4))
    r = int(rng.integers(1, N + 1))
    lam = rng.uniform(0.1, 4.0, size=count)
    if rng.uniform() < 0.3:
        lam[0] = 0.0
    atoms = []
    for x in lam:
        G = rng.standard_normal((r, N)) + 1j * rng.standard_normal((r, N))
        atoms.append((x, G.conj().T @ G / N))
    return solution_measure(N, atoms), m


@pytest.mark.parametrize("seed", range(4))
def test_moments_of_measures_are_never_called_not_solvable(seed):
    rng = np.random.default_rng([seed, 17])
    for _ in range(40):
        meas, m = _stress_measure(rng)
        assert check_solvable(moments_of_measure(meas, m)).verdict != "not solvable"
    # n + 2 full-rank atoms (truly indeterminate)
    for N, m in product((1, 2, 4), (3, 5, 9, 13, 15)):
        meas = random_discrete_measure(seed, N, m // 2 + 2, (0.1, 4.0))
        assert check_solvable(moments_of_measure(meas, m)).verdict != "not solvable"
