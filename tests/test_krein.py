import numpy as np
import pytest
from oracles import DEFAULT_CLASS_POINTS, measure_distance, perron_invert, sampled_class_test

from stieltjesmp import (
    BadPoint,
    NotStieltjesClass,
    ParameterDegenerate,
    SchemaError,
    build_gamma_weyl,
    check_stieltjes_class,
    PropertyViolated,
    constant_tau_of_extension,
    exit_space_extension,
    extension_of_constant_tau,
    krein_resolvent,
    make_tau,
    resolvent_from_contraction,
    solution_transform,
    solve_tau_grid,
)
from stieltjesmp.krein import CONDITION_LIMIT
from stieltjesmp.solutions import transform_of_measure
from stieltjesmp.extensions import spectral_solution

UPPER = (1j, 2j, 1 + 1j, -1 + 1j, 0.5 + 1.5j)


def herm(M):
    return 0.5 * (M + M.conj().T)


def min_eig(M):
    return float(np.linalg.eigvalsh(herm(M)).min())


# ---------------------------------------------------------------------------
# gamma field / Weyl function


def test_two_atom_boundary_data(two_atom):
    gw = two_atom.gamma_weyl
    assert gw is not None and gw.q == 1
    assert np.abs(gw.J.conj().T @ gw.J - np.eye(1)).max() <= 1e-12


def test_weyl_limit_matches_frozen_value(two_atom):
    # M(0) = 40/39 for S = [2, 3, 5] (explicit rank-2 factorization)
    gw = two_atom.gamma_weyl
    assert np.isclose(gw.M0[0, 0], 40.0 / 39.0, atol=1e-9)


def test_weyl_limit_is_the_limit(two_atom):
    gw = two_atom.gamma_weyl
    for x in (-1e-5, -1e-7):
        assert np.abs(gw.M(x) - gw.M0).max() <= 1e-3 * abs(x) ** 0.5 + 1e-4


def test_weyl_function_increasing_on_gap(two_atom):
    gw = two_atom.gamma_weyl
    vals = [gw.M(x)[0, 0].real for x in (-3.0, -2.0, -1.0, -0.5, -0.1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_weyl_symmetry_and_nevanlinna(two_atom):
    gw = two_atom.gamma_weyl
    for z in UPPER:
        assert np.abs(gw.M(z).conj().T - gw.M(np.conj(z))).max() <= 1e-10
        imM = (gw.M(z) - gw.M(z).conj().T) / 2j
        assert min_eig(imM / z.imag) >= -1e-9


def test_gamma_columns_live_in_defect_space(two_atom):
    gw = two_atom.gamma_weyl
    op = two_atom.shift
    d = op.dim
    for z in (1j, -2 + 3j, 0.4 + 0.9j):
        # N_z is the orthogonal complement of (A - conj(z)) D(A)
        rng = (op.matrix - np.conj(z) * np.eye(d))[:, : op.domain_dim]
        overlap = np.abs(rng.conj().T @ gw.gamma(z)).max()
        assert overlap <= 1e-8 * max(1.0, np.abs(gw.gamma(z)).max())


def test_gamma_at_base_point_is_J(two_atom):
    gw = two_atom.gamma_weyl
    assert np.abs(gw.gamma(-1.0) - gw.J).max() <= 1e-12


def test_determinate_boundary_data_have_a_trivial_defect(delta1):
    # q = 0: J is d x 0, M(0) is 0 x 0, and the ideal parameter's formula is
    # the resolvent of t_mu, the unique solution's; the analysis itself keeps
    # no boundary data
    gw = build_gamma_weyl(delta1.picture, delta1.rep)
    d = delta1.rep.dim
    assert gw.q == 0 and gw.J.shape == (d, 0) and gw.M0.shape == (0, 0)
    assert delta1.gamma_weyl is None
    ideal = make_tau({"type": "infinite"})
    Xi0 = delta1.rep.vectors[:, :1]
    for z in UPPER + (-2.0,):
        ref = Xi0.conj().T @ resolvent_from_contraction(delta1.picture.t_mu, z) @ Xi0
        got = solution_transform(gw, ideal, delta1.rep, 1, z)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    with pytest.raises(SchemaError, match="the defect space is C\\^0"):
        solution_transform(gw, make_tau({"type": "constant", "matrix": [[-1]]}), delta1.rep, 1, 1j)


def test_pipeline_weyl_limit_always_finite(battery):
    # structural consequence of a positive definite gap: ker(1 - t_mu) lies
    # inside D(T), so M(0) converges on every battery instance
    for name, a in battery.items():
        if a.verdict.determinate:
            continue
        assert a.gamma_weyl is not None, name


# ---------------------------------------------------------------------------
# parameters and the class test


def test_make_tau_infinite():
    tau = make_tau({"type": "infinite"})
    assert tau.is_ideal and check_stieltjes_class(tau)[0]
    assert tau.finite_dim == 0
    for q in (1, 3):
        assert tau.inclusion(q).shape == (q, 0)


@pytest.mark.parametrize("X", [[[-1.0]], [[1.0]], [[-2.0, 0.5], [0.5, -1.0]]])
def test_make_tau_constant_is_rational_without_poles(X):
    # "constant" is sugar for a rational finite part with no poles
    const = make_tau({"type": "constant", "matrix": X})
    rat = make_tau({"type": "rational", "tau0": X})
    q = len(X)
    assert check_stieltjes_class(const) == check_stieltjes_class(rat)
    assert np.array_equal(const.inclusion(q), rat.inclusion(q))
    for z in UPPER + (-2.0,):
        assert np.array_equal(const.value(z), rat.value(z))


def test_make_tau_constant_psd_returned_but_out_of_class():
    tau = make_tau({"type": "constant", "matrix": [[1.0]]})
    assert tau.poles == () and tau.finite_dim == 1
    assert check_stieltjes_class(tau)[0] is False


def test_make_tau_constant_nsd_in_class():
    tau = make_tau({"type": "constant", "matrix": [[-1.0]]})
    assert check_stieltjes_class(tau)[0] is True
    with np.errstate(all="ignore"):
        ok, worst = sampled_class_test(tau, UPPER)
    assert ok and worst >= -1e-9


def test_make_tau_rational_matches_documented_evaluation():
    # tau(z) = 2 / (-1 - z), evaluated at z = -2
    tau = make_tau({"type": "rational", "tau0": [[0.0]], "poles": [{"p": -1.0, "W": [[2.0]]}]})
    assert np.isclose(tau.value(-2.0)[0, 0], 2.0)
    # a pole inside the spectral gap is not admissible
    assert check_stieltjes_class(tau)[0] is False


def test_make_tau_rational_positive_pole_in_class():
    tau = make_tau(
        {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]}
    )
    assert check_stieltjes_class(tau)[0] is True


def test_make_tau_require_class():
    with pytest.raises(NotStieltjesClass):
        make_tau({"type": "constant", "matrix": [[1.0]]}, require_class=True)


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "nope"},
        {"type": "mixed", "ideal_subspace": [[[1, 0], [0, 0]], [[1, 0]]], "tau0": [[-1.0]]},
        {"type": "constant"},
        {"type": "constant", "matrix": [[0.0, 1.0], [0.0, 0.0]]},  # not Hermitian
        {"type": "rational"},
        {"type": "rational", "poles": [{"p": 0.0, "W": [[1.0]]}]},
        {"type": "rational", "poles": [{"p": 1.0, "W": [[-1.0]]}]},  # residue not PSD
        {"type": "mixed", "tau0": [[1.0]]},
    ],
)
def test_make_tau_schema_errors(doc):
    with pytest.raises(SchemaError):
        make_tau(doc)


def _tau_with(value, where):
    """A valid parameter description with ``value`` placed at ``where``."""
    docs = {
        "constant": {"type": "constant", "matrix": [[value]]},
        "tau0": {"type": "rational", "tau0": [[value]], "poles": [{"p": 1.5, "W": [[0.5]]}]},
        "residue": {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[value]]}]},
        "pole": {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": value, "W": [[0.5]]}]},
        "ideal": {"type": "mixed", "ideal_subspace": [[[1, 0], [value, 0]]], "tau0": [[-1.0]]},
    }
    return docs[where]


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize("where", ["constant", "tau0", "residue", "pole", "ideal"])
def test_make_tau_refuses_non_finite_numbers(value, where):
    # matrices and pole positions alike; each valid with a finite value
    finite = {"ideal": 0.25, "residue": 0.5, "pole": 1.5}.get(where, -1.0)
    assert make_tau(_tau_with(finite, where)) is not None
    with pytest.raises(SchemaError, match="not a finite number|beyond the float range"):
        make_tau(_tau_with(value, where))


I2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: make_tau([]), "tau description must be an object with a 'type'"),
        (lambda: make_tau({"type": "rational", "tau0": [[-1]], "poles": {}}),
         "'poles' must be an array"),
        (lambda: make_tau({"type": "rational", "poles": [{"p": 1}]}),
         "pole 0 must have keys 'p' and 'W'"),
        (lambda: make_tau({"type": "rational", "poles": [{"p": "1", "W": [[1]]}]}),
         "pole 0: 'p' must be a real number"),
        (lambda: make_tau({"type": "rational", "poles": [{"p": 1, "W": [[1]]}, {"p": 2, "W": I2}]}),
         "pole 1: residue size mismatch"),
        (lambda: make_tau({"type": "rational", "tau0": [[-1]], "poles": [{"p": 1, "W": I2}]}),
         "tau0 size mismatch"),
        (lambda: make_tau({"type": "constant", "matrix": [[-1, 0], [0, -1]]}).inclusion(1),
         "parameter lives on C^2, the defect space is C^1"),
        (lambda: make_tau({"type": "mixed", "ideal_subspace": [[1, 0, 0]], "tau0": I2}).inclusion(2),
         "parameter lives on C^3, the defect space is C^2"),
        (lambda: make_tau({"type": "constant", "matrix": [[-1]]}).inclusion(2),
         "parameter lives on C^1, the defect space is C^2"),
    ],
    ids=["not-an-object", "poles-not-an-array", "pole-keys", "pole-not-real",
         "residue-sizes", "tau0-size", "constant-size", "ideal-length", "inclusion"],
)
def test_parameter_refusals_name_their_condition(refused, message):
    with pytest.raises(SchemaError) as info:
        refused()
    assert str(info.value) == message


#: one parameter of each kind with a 1 x 1 finite part, every matrix written
#: with the entry ``x`` in the given form
ONE_BY_ONE = {
    "constant": lambda x: {"type": "constant", "matrix": x(-1.5)},
    "rational": lambda x: {"type": "rational", "tau0": x(-2.0),
                           "poles": [{"p": 1.5, "W": x(0.5)}, {"p": 4.0, "W": x(0.25)}]},
    "mixed": lambda x: {"type": "mixed", "ideal_subspace": [[1, 0]], "tau0": x(-1.0),
                        "poles": [{"p": 2.0, "W": x(0.75)}]},
}


@pytest.mark.parametrize("kind", sorted(ONE_BY_ONE))
def test_a_one_row_pair_is_a_one_by_one_matrix(kind):
    # [[re, im]] is re + i im, as in a moments document: the parameter is
    # bit-identical to the one written [[[re, im]]]
    row, nested = (make_tau(ONE_BY_ONE[kind](x)) for x in (
        lambda v: [[v, 0.0]], lambda v: [[[v, 0.0]]]))
    assert row.finite_basis.tobytes() == nested.finite_basis.tobytes()
    assert row.tau0.shape == (1, 1) and row.tau0.tobytes() == nested.tau0.tobytes()
    assert len(row.poles) == len(nested.poles)
    for (p, W), (p1, W1) in zip(row.poles, nested.poles):
        assert p == p1 and W.shape == (1, 1) and W.tobytes() == W1.tobytes()


def test_rational_tau_without_tau0_has_a_zero_constant_part():
    tau = make_tau({"type": "rational", "poles": [{"p": 2.0, "W": [[[1, 0]]]}]})
    assert tau.tau0.shape == (1, 1) and not tau.tau0.any()
    assert tau.value(0.0) == 0.5


def test_in_space_extension_refuses_a_parameter_with_poles(two_atom):
    tau = make_tau({"type": "rational", "tau0": [[-1]], "poles": [{"p": 2.0, "W": [[1]]}]})
    with pytest.raises(ValueError, match="only constant/ideal parameters"):
        extension_of_constant_tau(two_atom.require_gamma_weyl(), tau)


def test_mixed_parameter_compression(two_atom):
    # a 2-dim parameter space: ideal on one direction, constant on the other
    tau = make_tau(
        {
            "type": "mixed",
            "ideal_subspace": [[[1.0, 0.0], [0.0, 0.0]]],
            "tau0": [[-2.0]],
        }
    )
    assert tau.finite_basis.shape == (2, 1) and tau.finite_dim == 1
    inc = tau.inclusion(2)
    assert inc.shape == (2, 1)
    assert np.abs(inc[0, 0]) <= 1e-12  # complement of e_1 is e_2


def test_mixed_inclusion_is_isometry_onto_complement():
    from stieltjesmp.io import encode_matrix

    # the finite part acts in the trailing left singular vectors of the
    # ideal columns; pinned for a coordinate axis, so a change of basis (which
    # renames the parameter of a mixed file) fails here
    tau = make_tau(
        {"type": "mixed", "ideal_subspace": [[1, 0, 0]], "tau0": [[-1.0, 0.0], [0.0, -2.0]]}
    )
    assert np.array_equal(tau.inclusion(3), np.eye(3)[:, 1:])
    rng = np.random.default_rng(11)
    ideal = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    tau = make_tau(
        {
            "type": "mixed",
            "ideal_subspace": [encode_matrix(v)[0] for v in ideal],
            "tau0": encode_matrix(-np.eye(3)),
        }
    )
    inc = tau.inclusion(5)
    assert np.abs(inc.conj().T @ inc - np.eye(3)).max() <= 1e-14
    assert np.abs(ideal.conj() @ inc).max() <= 1e-14


@pytest.mark.parametrize(
    "ideal, accepted",
    [
        ([[1, 0], [0, 1], [1, 1]], False),  # more vectors than dimensions
        ([[1, 0, 0], [0, 1e-13, 0]], False),  # s_2 / s_1 = 1e-13
        ([[0, 0, 0]], False),
        ([[1, 0, 0], [0, 1e-11, 0]], True),  # s_2 / s_1 = 1e-11
    ],
    ids=["too-many", "near-dependent", "all-zero", "independent"],
)
def test_mixed_ideal_rank_rule(ideal, accepted):
    doc = {"type": "mixed", "ideal_subspace": ideal, "tau0": [[-1.0]]}
    if accepted:
        assert make_tau(doc).finite_dim == 1
    else:
        with pytest.raises(SchemaError, match="ideal_subspace vectors are linearly dependent"):
            make_tau(doc)


def test_negative_pole_is_refused_by_name():
    # the sampled kernel test admitted this pole: its share of the tau/z
    # kernel, (W/p) sum 1/|p - z_i|^2, is about -2e-10, inside CLASS_TOL
    doc = {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": -300.0, "W": [[1e-3]]}]}
    assert sampled_class_test(make_tau(doc))[0]
    with pytest.raises(NotStieltjesClass, match=r"pole p = -300 lies on the negative axis") as exc:
        make_tau(doc, require_class=True)
    assert exc.value.worst_eig == pytest.approx(1e-9 - 1e-3 / 300.0)


def test_class_conditions_read_off_the_normal_form():
    # tau(0) = tau0 + sum W_k / p_k decides; the margin is CLASS_TOL s less
    # the worst value, s = max(1, |tau0|, |W_k| / |p_k|)
    rat = lambda tau0, *poles: make_tau(
        {"type": "rational", "tau0": [[tau0]], "poles": [{"p": p, "W": [[W]]} for p, W in poles]}
    )
    ok, margin = check_stieltjes_class(rat(-0.5, (2.0, 0.5)))
    assert ok and margin == pytest.approx(0.25 + 1e-9)
    ok, margin = check_stieltjes_class(rat(-4.0, (0.5, 2.0)))
    assert ok and margin == pytest.approx(4e-9)  # tau(0) = 0 exactly
    ok, margin = check_stieltjes_class(rat(-4.0, (0.5, 2.0 + 1e-7)))
    assert not ok and margin == pytest.approx(4e-9 - 2e-7, rel=1e-6)
    with pytest.raises(NotStieltjesClass, match=r"tau\(0\) has eigenvalue 2\.000e-07 > 0"):
        make_tau({"type": "rational", "tau0": [[-4.0]], "poles": [{"p": 0.5, "W": [[2.0 + 1e-7]]}]},
                 require_class=True)
    # a zero residue on the negative axis is no pole at all
    assert check_stieltjes_class(rat(-1.0, (-2.0, 0.0)))[0]
    assert check_stieltjes_class(make_tau({"type": "infinite"})) == (True, 0.0)


def test_class_kernel_vacuous_for_ideal():
    ok, worst = sampled_class_test(make_tau({"type": "infinite"}), UPPER)
    assert ok and worst == 0.0


def test_class_kernel_callable_probe():
    # the pure Cauchy kernel of a positive point mass on the positive axis,
    # normalized to vanish at 0, is a class member
    fun = lambda z: np.array([[z / (1.5 * (1.5 - z))]])
    ok, worst = sampled_class_test(fun, UPPER)
    assert ok, worst


# ---------------------------------------------------------------------------
# the resolvent formula


def test_ideal_parameter_reproduces_friedrichs_resolvent(two_atom):
    gw = two_atom.gamma_weyl
    tau = make_tau({"type": "infinite"})
    for z in (1j, -1 + 1j, 2j, -2.0):
        R = krein_resolvent(gw, tau, z)
        assert np.abs(R - resolvent_from_contraction(gw.t_mu, z)).max() <= 1e-12


def _reference_taus(q):
    """Constant, rational, ideal and (for q >= 2) mixed parameters on C^q."""
    from stieltjesmp.io import encode_matrix

    const = -0.7 * np.eye(q) + 0.1 * (np.eye(q, k=1) + np.eye(q, k=-1))
    docs = [
        {"type": "infinite"},
        {"type": "constant", "matrix": encode_matrix(const)},
        {
            "type": "rational",
            "tau0": encode_matrix(-np.eye(q)),
            "poles": [{"p": 1.5, "W": encode_matrix(0.5 * np.eye(q))}],
        },
    ]
    if q >= 2:
        docs.append(
            {
                "type": "mixed",
                "ideal_subspace": [encode_matrix(np.eye(q)[0])[0]],
                "tau0": encode_matrix(-np.eye(q - 1)),
                "poles": [{"p": 0.8, "W": encode_matrix(np.eye(q - 1))}],
            }
        )
    return [make_tau(doc) for doc in docs]


def test_eigenbasis_formula_matches_dense_reference(indeterminate_battery):
    # gamma, M, the generalized resolvent and the transform, against the
    # same formulas written with dense resolvent solves of t_mu; two_atom's
    # t_mu has the eigenvalue -1 (mass at infinity)
    assert np.allclose(
        np.linalg.eigvalsh(indeterminate_battery["two_atom"].gamma_weyl.t_mu),
        [-1.0, -0.2],
    )
    for name, a in indeterminate_battery.items():
        gw = a.gamma_weyl
        J, Jh = gw.J, gw.J.conj().T
        Xi0 = a.rep.vectors[:, : a.N]
        for z in (1j, -2.0, -0.3 + 0.2j, 0.7 + 1e-4j, 0.05 + 1e-3j):
            Rz = resolvent_from_contraction(gw.t_mu, z)
            gam = J + (z + 1.0) * (Rz @ J)
            gam_star = Jh + (z + 1.0) * (Jh @ Rz)  # gamma(conj(z))*
            M = (z + 1.0) * (Jh @ gam)
            for got, ref in ((gw.gamma(z), gam), (gw.M(z), M)):
                assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), (name, z)
            for tau in _reference_taus(gw.q):
                inc = tau.inclusion(gw.q)
                R = Rz
                if not tau.is_ideal:
                    K1 = tau.value(z) + inc.conj().T @ (M - gw.M0) @ inc
                    R = Rz - gam @ inc @ np.linalg.inv(K1) @ inc.conj().T @ gam_star
                F = Xi0.conj().T @ R @ Xi0
                for got, ref in (
                    (krein_resolvent(gw, tau, z), R),
                    (solution_transform(gw, tau, a.rep, a.N, z), F),
                ):
                    err = np.abs(got - ref).max() / np.abs(ref).max()
                    assert err <= 1e-10, (name, tau.finite_dim, len(tau.poles), z, err)


# ---------------------------------------------------------------------------
# exit-space extensions of rational parameters

#: the z set of test_eigenbasis_formula_matches_dense_reference
REFERENCE_Z = (1j, -2.0, -0.3 + 0.2j, 0.7 + 1e-4j, 0.05 + 1e-3j)

RATIONAL = {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]}


def _random_rational(rng, q, poles):
    """Admissible ``tau0 + sum W_k / (p_k - z)`` with ``tau(0) < 0`` and
    residues of random rank (so the exit-space size ``r`` varies)."""
    from stieltjesmp.io import encode_matrix

    docs, total = [], np.zeros((q, q), dtype=complex)
    for _ in range(poles):
        k = int(rng.integers(1, q + 1))
        G = rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))
        W = G.conj().T @ G / q
        p = float(rng.uniform(0.3, 5.0))
        total += W / p
        docs.append({"p": p, "W": encode_matrix(W)})
    tau0 = -total - 0.3 * np.eye(q)
    return make_tau({"type": "rational", "tau0": encode_matrix(tau0), "poles": docs})


def _pole_taus(q, seed=0):
    """Admissible parameters with poles: the reference rational one, two
    random ones and (for q >= 2) a mixed one.  The reference mixed parameter
    has ``tau(0) > 0``, so it is not admissible and has no contraction."""
    from stieltjesmp.io import encode_matrix

    rng = np.random.default_rng(seed)
    taus = [tau for tau in _reference_taus(q) if tau.poles and tau.finite_dim == q]
    taus += [_random_rational(rng, q, k) for k in (1, 2)]
    if q >= 2:
        mixed = {
            "type": "mixed",
            "ideal_subspace": [encode_matrix(np.eye(q)[0])[0]],
            "tau0": encode_matrix(-2.0 * np.eye(q - 1)),
            "poles": [{"p": 0.8, "W": encode_matrix(np.eye(q - 1))}],
        }
        taus.append(make_tau(mixed))
    assert all(check_stieltjes_class(tau)[0] for tau in taus)
    return taus


def test_exit_space_measure_matches_the_formula(indeterminate_battery):
    # the exact measure's transform is the formula's, for rational and
    # mixed-with-poles parameters, on every indeterminate battery problem
    kinds = set()
    for name, a in indeterminate_battery.items():
        gw = a.gamma_weyl
        for tau in _pole_taus(gw.q):
            t = exit_space_extension(gw, tau)
            r = sum(np.linalg.matrix_rank(W) for _, W in tau.poles)
            assert t.shape == (gw.dim + r, gw.dim + r)
            meas = spectral_solution(t, a.rep, a.N)
            for z in REFERENCE_Z:
                ref = solution_transform(gw, tau, a.rep, a.N, z)
                got = transform_of_measure(meas, z)
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err <= 1e-10, (name, tau.finite_dim, len(tau.poles), z, err)
            kinds.add("mixed" if tau.finite_dim < gw.q else "rational")
    assert kinds == {"rational", "mixed"}


def test_rational_solutions_round_trip(indeterminate_battery):
    from stieltjesmp import solve_with_tau

    for name, a in indeterminate_battery.items():
        for tau in _pole_taus(a.gamma_weyl.q, seed=1):
            if tau.finite_dim < a.gamma_weyl.q:
                continue  # an ideal part puts mass at infinity
            entry = solve_with_tau(a, tau)
            assert entry["exact"] and entry["measure"].mass_at_infinity is None
            assert max(entry["verification"]["errors"]) <= 1e-8, name


def test_perron_inversion_agrees_with_exact_atoms(two_atom):
    gw = two_atom.gamma_weyl
    tau = make_tau(RATIONAL)
    exact = spectral_solution(exit_space_extension(gw, tau), two_atom.rep, 1)
    got = perron_invert(
        lambda z: solution_transform(gw, tau, two_atom.rep, 1, z), grid=(-0.5, 4.0)
    )
    assert len(got.atoms) == len(exact.atoms) == 3
    for (lam, W), (lam0, W0) in zip(got.atoms, exact.atoms):
        assert abs(lam - lam0) <= 1e-4
        assert np.abs(W - W0).max() <= 1e-3


def test_exit_space_without_poles_is_the_in_space_extension(battery):
    from stieltjesmp.io import encode_matrix

    a = battery["n3_rand"]
    gw = a.gamma_weyl
    for tau in _reference_taus(gw.q):
        if not tau.poles:
            t = exit_space_extension(gw, tau)
            assert np.array_equal(t, extension_of_constant_tau(gw, tau))
    # a zero residue has rank 0: no exit space either
    zero = make_tau(
        {
            "type": "rational",
            "tau0": encode_matrix(-np.eye(3)),
            "poles": [{"p": 2.0, "W": encode_matrix(np.zeros((3, 3)))}],
        }
    )
    const = make_tau({"type": "constant", "matrix": encode_matrix(-np.eye(3))})
    assert np.array_equal(
        exit_space_extension(gw, zero), extension_of_constant_tau(gw, const)
    )


def test_exit_space_run_time_checks(two_atom):
    from dataclasses import replace

    gw = two_atom.gamma_weyl
    tau = make_tau(RATIONAL)
    # a non-Hermitian tau0 makes the in-space part non-Hermitian
    with pytest.raises(PropertyViolated, match="not Hermitian"):
        exit_space_extension(gw, replace(tau, tau0=np.array([[-1.0 + 0.5j]])))
    # a pole on the negative axis: the pole block D' is not >= 0
    neg = make_tau(dict(RATIONAL, poles=[{"p": -0.5, "W": [[0.5]]}]))
    assert not check_stieltjes_class(neg)[0]
    with pytest.raises(PropertyViolated, match="pole block"):
        exit_space_extension(gw, neg)
    # tau(0) > 0: D' >= 0, yet the extension is not a contraction
    pos = make_tau(dict(RATIONAL, tau0=[[-0.1]]))
    assert not check_stieltjes_class(pos)[0]
    with pytest.raises(PropertyViolated, match="recovered extension is not a contraction"):
        exit_space_extension(gw, pos)
    # a non-Hermitian residue: the extension realizes its Hermitian part,
    # which the formula check at the check points tells apart
    skew = replace(tau, poles=((1.5, np.array([[0.5 + 0.2j]])),))
    with pytest.raises(PropertyViolated, match="mismatches the formula"):
        exit_space_extension(gw, skew)
    # a singular parameter block at the base point
    sing = make_tau(dict(RATIONAL, tau0=[[float(gw.M0[0, 0].real)]]))
    with pytest.raises(ParameterDegenerate, match="z = -1"):
        exit_space_extension(gw, sing)


def test_rational_solve_factors_the_extension_once(indeterminate_battery, monkeypatch):
    # one eigh of the (d + r) x (d + r) extension serves its checks and its
    # measure: no svd, 2-norm or solve of it, and no cond at the base point
    from stieltjesmp import solve_with_tau

    a = indeterminate_battery["n2_rand"]
    gw = a.gamma_weyl
    tau = _pole_taus(gw.q, seed=1)[1]
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "norm", "solve", "cond", "inv"):
        real = getattr(np.linalg, name)

        def counted(M, *args, _name=name, _real=real, **kwargs):
            ord_ = args[0] if args else kwargs.get("ord")
            calls.append((_name, np.shape(M), ord_ if _name == "norm" else None))
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    entry = solve_with_tau(a, tau)
    monkeypatch.undo()
    t = exit_space_extension(gw, tau)
    n = t.shape[0]
    assert n > gw.dim
    on_t = [(name, ord_) for name, shape, ord_ in calls if shape == (n, n)]
    assert on_t == [("eigh", None)]
    assert not [c for c in calls if c[0] == "cond" or (c[0], c[2]) == ("norm", 2)]
    got, ref = entry["measure"], spectral_solution(t, a.rep, a.N)
    assert len(got.atoms) == len(ref.atoms) > 0
    for (lam, W), (lam0, W0) in zip(got.atoms, ref.atoms):
        assert lam == lam0 and np.array_equal(W, W0)


@pytest.mark.parametrize(
    "kappa, refused", [(1e11, False), (8e11, False), (1e13, True)]
)
def test_base_point_certificate_near_the_limit(indeterminate_battery, kappa, refused):
    # tau0 = M(0) + delta makes Q = tau0 - M(0) = delta, of condition kappa
    # (q = 2; a 1 x 1 block always has condition 1): the Frobenius bound
    # accepts 1e11, the SVD accepts 8e11 and refuses 1e13, the verdicts of the
    # np.linalg.cond rule.  An accepted tau > 0 is no contraction; a later
    # run-time check refuses it.
    from stieltjesmp.io import encode_matrix

    gw = indeterminate_battery["n2_rand"].gamma_weyl
    assert gw.q == 2
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    delta = (U * [1.0, 1.0 / kappa]) @ U.conj().T
    tau = make_tau({"type": "constant", "matrix": encode_matrix(gw.M0 + delta)})
    assert (np.linalg.cond(tau.tau0 - gw.M0) > CONDITION_LIMIT) == refused
    if refused:
        with pytest.raises(ParameterDegenerate, match="z = -1 has condition above 1e"):
            exit_space_extension(gw, tau)
    else:
        with pytest.raises(PropertyViolated):
            exit_space_extension(gw, tau)


@pytest.mark.parametrize(
    "z", [0.0, 2.0, *map(complex, ["nan", "inf", "-inf", "nan+1j", "1+infj", "-1-infj"])]
)
def test_points_on_positive_axis_refused(two_atom, z):
    # a point that is not finite is refused the same way
    gw = two_atom.gamma_weyl
    tau = make_tau({"type": "constant", "matrix": [[-1.0]]})
    for call in (
        lambda: gw.M(z),
        lambda: gw.gamma(z),
        lambda: krein_resolvent(gw, tau, z),
        lambda: solution_transform(gw, tau, two_atom.rep, 1, z),
    ):
        with pytest.raises(BadPoint):
            call()


def test_krein_corner_is_tau_zero(two_atom):
    gw = two_atom.gamma_weyl
    pic = two_atom.picture
    tau0 = constant_tau_of_extension(gw, pic.t_M)
    assert np.abs(tau0).max() <= 1e-8
    t_back = extension_of_constant_tau(gw, make_tau({"type": "constant", "matrix": [[0.0]]}))
    assert np.abs(t_back - pic.t_M).max() <= 1e-8


def test_constant_parameter_cross_validation(two_atom):
    # solve for the parameter from direct resolvents, feed it back through
    # the formula, compare at fresh points
    gw = two_atom.gamma_weyl
    pic = two_atom.picture
    for s in (0.25, 0.5, 0.75, 1.0):
        t = herm(pic.t_mu + s * (pic.t_M - pic.t_mu))
        tau_mat = constant_tau_of_extension(gw, t)
        assert min_eig(tau_mat) <= 1e-10  # canonical constants are <= 0
        tau = make_tau({"type": "constant", "matrix": [[complex(tau_mat[0, 0]).real]]})
        for z in (1j, 2j, -1 + 1j, 0.5 + 0.25j, -2.0):
            err = np.abs(
                krein_resolvent(gw, tau, z) - resolvent_from_contraction(t, z)
            ).max()
            assert err <= 1e-8


def test_frozen_constant_of_midpoint(two_atom):
    # s = 1/2 extension corresponds to tau = -40/39 (frozen; equals -M(0))
    gw = two_atom.gamma_weyl
    pic = two_atom.picture
    t = herm(0.5 * (pic.t_mu + pic.t_M))
    tau_mat = constant_tau_of_extension(gw, t)
    assert np.isclose(tau_mat[0, 0], -40.0 / 39.0, atol=1e-8)


def test_extension_round_trip_via_parameter(two_atom):
    gw = two_atom.gamma_weyl
    pic = two_atom.picture
    for s in (0.3, 0.9):
        t = herm(pic.t_mu + s * (pic.t_M - pic.t_mu))
        tau_mat = constant_tau_of_extension(gw, t)
        tau = make_tau({"type": "constant", "matrix": [[complex(tau_mat[0, 0]).real]]})
        t_back = extension_of_constant_tau(gw, tau)
        assert np.abs(t_back - t).max() <= 1e-8


def test_constant_tau_of_friedrichs_corner_is_ideal(two_atom):
    gw = two_atom.gamma_weyl
    with pytest.raises(ParameterDegenerate, match="ideal element"):
        constant_tau_of_extension(gw, two_atom.picture.t_mu)


def test_constant_tau_refuses_change_off_the_defect_space(two_atom):
    # moving t_M on D(T) leaves the family of extensions of T
    gw = two_atom.gamma_weyl
    pic = two_atom.picture
    J = pic.defect_basis
    t = pic.t_M + 1e-3 * (np.eye(pic.dim) - J @ J.conj().T)
    with pytest.raises(ParameterDegenerate, match="not an in-space extension"):
        constant_tau_of_extension(gw, t)


def test_constant_tau_of_partial_gap_has_ideal_part(battery):
    # keep two of the three gap directions: the extension agrees with the
    # Friedrichs corner on the third, so the parameter is ideal there
    a = battery["n3_rand"]
    gw = a.gamma_weyl
    J = gw.J
    w, V = np.linalg.eigh(herm(J.conj().T @ a.picture.C @ J))
    X = (V[:, 1:] * w[1:]) @ V[:, 1:].conj().T
    t = a.picture.t_mu + J @ X @ J.conj().T
    with pytest.raises(ParameterDegenerate, match="ideal part"):
        constant_tau_of_extension(gw, t)


def test_constant_parameter_round_trip_n4_m9():
    # full deficiency q = N = 4 at d = 20, well past the acceptance battery
    from stieltjesmp import analyze, moments_of_measure
    from stieltjesmp.io import encode_matrix
    from stieltjesmp.solutions import random_discrete_measure

    meas = random_discrete_measure(1, 4, 7, lam_range=(0.2, 8.0), min_sep=0.5)
    a = analyze(moments_of_measure(meas, 9))
    gw = a.gamma_weyl
    assert gw is not None and gw.q == 4 and gw.dim == 20
    pic = a.picture
    for s in (0.3, 0.7, 1.0):
        t = herm(pic.t_mu + s * (pic.t_M - pic.t_mu))
        tau_mat = constant_tau_of_extension(gw, t)
        tau = make_tau({"type": "constant", "matrix": encode_matrix(tau_mat)})
        assert check_stieltjes_class(tau)[0]
        for z in (1j, -1 + 1j, 0.5 + 0.25j, -2.0):
            err = np.abs(
                krein_resolvent(gw, tau, z) - resolvent_from_contraction(t, z)
            ).max()
            assert err <= 1e-8, (s, z, err)
        assert np.abs(extension_of_constant_tau(gw, tau) - t).max() <= 1e-8


@pytest.fixture(scope="module")
def grid_analyses(indeterminate_battery):
    """Analyses with boundary data: the indeterminate battery, seeded
    rank-deficient stress problems (an atom at 0 in 30% of them) and a
    partially determinate direct sum, whose determinate summand adds no
    defect (``q < N``)."""
    from test_extensions import _direct_sum
    from test_hankel import _stress_measure

    from stieltjesmp import MomentProblemError, analyze, moment_sequence
    from stieltjesmp.solutions import moments_of_measure

    out = dict(indeterminate_battery)
    rng = np.random.default_rng([18, 1])
    for i in range(120):
        meas, m = _stress_measure(rng)
        try:
            a = analyze(moments_of_measure(meas, m))
        except MomentProblemError:
            continue
        if a.gamma_weyl is not None:
            out[f"stress{i}"] = a
    one_atom = moment_sequence([[[1.0]], [[1.0]], [[1.0]]])
    a = _direct_sum(one_atom, indeterminate_battery["two_atom"].seq)
    assert a.picture.defect_dim < a.N and a.gamma_weyl is not None
    out["partial"] = a
    return out


def _weyl_limit_oracle(gw):
    """``M(0)`` as the limit of ``M(z)`` at 0, ``sum_i 2 |(V* J)_i|^2 / (1 - w_i)``
    over the eigenpairs of ``t_mu``, and a bound on its distance from the
    library's ``2 G^{-1}``: the sum's roundoff grows as ``1/(1 - w)`` when
    the Friedrichs corner has an atom near 0 (the worst of 574 stress and
    full-rank problems needs 1.3e-15 in place of 1e-13)."""
    w, ov = gw.w, gw.ov
    M0 = ov.conj().T @ ((2.0 / (1.0 - w))[:, None] * ov)
    return M0, 1e-13 * max(1.0, np.linalg.norm(M0)) / (1.0 - w.max())


def test_weyl_limit_is_twice_the_inverse_gap(grid_analyses):
    # the Krein corner is tau = 0: t_M = t_mu + 2 J M(0)^{-1} J*, so the
    # library's M(0) = 2 G^{-1} is the limit of M(z) at 0
    for name, a in grid_analyses.items():
        gw = a.gamma_weyl
        ref, bound = _weyl_limit_oracle(gw)
        err = np.linalg.norm(gw.M0 - ref)
        assert err <= bound, (name, err)


def test_grid_parameters_match_the_oracle(grid_analyses):
    # the grid's closed form against constant_tau_of_extension on the same
    # extension: never None (the oracle refuses none of these extensions),
    # the same matrix to roundoff, and the extension given back by the formula
    from stieltjesmp.io import encode_matrix

    assert len(grid_analyses) >= 30
    for name, a in grid_analyses.items():
        gw, pic = a.gamma_weyl, a.picture
        for e in solve_tau_grid(a, 4):
            t = pic.t_mu + e["s"] * pic.C
            ref = constant_tau_of_extension(gw, t)
            tau = e["tau_constant"]
            scale = max(1.0, np.linalg.norm(tau))
            assert np.linalg.norm(tau - ref) <= 1e-12 * scale, (name, e["s"])
            spec = {"type": "constant", "matrix": encode_matrix(tau)}
            back = extension_of_constant_tau(gw, make_tau(spec))
            assert np.abs(back - t).max() <= 1e-10, (name, e["s"])
        # the Krein corner's parameter is exactly 0
        assert e["s"] == 1.0 and not e["tau_constant"].any(), name


def test_resolvent_symmetry_any_parameter(two_atom):
    gw = two_atom.gamma_weyl
    taus = [
        make_tau({"type": "infinite"}),
        make_tau({"type": "constant", "matrix": [[-0.7]]}),
        make_tau({"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]}),
    ]
    for tau in taus:
        for z in (1j, -1 + 2j):
            R = krein_resolvent(gw, tau, z)
            Rc = krein_resolvent(gw, tau, np.conj(z))
            assert np.abs(R.conj().T - Rc).max() <= 1e-10


def test_resolvent_identity_for_constant_parameters(two_atom):
    gw = two_atom.gamma_weyl
    tau = make_tau({"type": "constant", "matrix": [[-0.5]]})
    z, w = 1j, -0.5 + 0.75j
    Rz = krein_resolvent(gw, tau, z)
    Rw = krein_resolvent(gw, tau, w)
    assert np.abs(Rz - Rw - (z - w) * Rz @ Rw).max() <= 1e-8


def test_parameter_degenerate_guard(two_atom):
    gw = two_atom.gamma_weyl
    x = -1.0
    sing = -(gw.M(x) - gw.M0)
    tau = make_tau({"type": "constant", "matrix": [[complex(sing[0, 0]).real]]})
    with pytest.raises(ParameterDegenerate):
        krein_resolvent(gw, tau, x)


# ---------------------------------------------------------------------------
# transforms


def _unique_transform(a, z):
    Xi0 = a.rep.vectors[:, :1]
    return Xi0.conj().T @ resolvent_from_contraction(a.picture.t_mu, z) @ Xi0


def test_transform_delta1_closed_form(delta1):
    for z in UPPER:
        assert np.isclose(_unique_transform(delta1, z)[0, 0], 1.0 / (1.0 - z))


def test_transform_dirac0_closed_form(dirac0):
    for z in UPPER:
        assert np.isclose(_unique_transform(dirac0, z)[0, 0], -1.0 / z)


def test_transform_herglotz_and_stieltjes_positivity(two_atom):
    gw = two_atom.gamma_weyl
    taus = [
        make_tau({"type": "infinite"}),
        make_tau({"type": "constant", "matrix": [[0.0]]}),
        make_tau({"type": "constant", "matrix": [[-2.0]]}),
        make_tau({"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]}),
    ]
    for tau in taus:
        for z in UPPER:
            F = solution_transform(gw, tau, two_atom.rep, 1, z)
            imF = (F - F.conj().T) / 2j
            imzF = (z * F - np.conj(z) * F.conj().T) / 2j
            assert min_eig(imF) >= -1e-9
            assert min_eig(imzF) >= -1e-9


def test_mixed_parameter_is_limit_of_constants(battery):
    # ideal part on one defect direction = constant part pushed to -infinity
    a = battery["n3_rand"]
    gw = a.gamma_weyl
    assert gw.q == 3
    from stieltjesmp.io import encode_matrix

    mixed = make_tau(
        {
            "type": "mixed",
            "ideal_subspace": [encode_matrix(np.eye(3)[0])[0]],
            "tau0": encode_matrix(-np.eye(2)),
        }
    )
    assert check_stieltjes_class(mixed)[0] and mixed.finite_dim == 2
    inc = mixed.inclusion(3)
    P1 = np.eye(3) - inc @ inc.conj().T
    z = 0.7j
    R_mixed = krein_resolvent(gw, mixed, z)
    prev = np.inf
    for c in (-1e3, -1e6, -1e9):
        const = herm(c * P1 + inc @ (-np.eye(2)) @ inc.conj().T)
        tau_c = make_tau({"type": "constant", "matrix": encode_matrix(const)})
        err = np.abs(R_mixed - krein_resolvent(gw, tau_c, z)).max()
        assert err < prev / 100.0  # converges like 1/|c|
        prev = err
    assert prev <= 1e-9


def test_mixed_parameter_extension_carries_mass_at_infinity(battery):
    # the ideal direction pins the extension to the Friedrichs corner there,
    # so the measure is honestly flagged and fails only the top moment
    from stieltjesmp.io import encode_matrix
    from stieltjesmp.solutions import verify_moments

    a = battery["n3_rand"]
    gw = a.gamma_weyl
    mixed = make_tau(
        {
            "type": "mixed",
            "ideal_subspace": [encode_matrix(np.eye(3)[0])[0]],
            "tau0": encode_matrix(-np.eye(2)),
        }
    )
    t = extension_of_constant_tau(gw, mixed)
    m = spectral_solution(t, a.rep, a.N)
    assert m.mass_at_infinity is not None
    rep = verify_moments(m, a.seq, upto=2 * a.seq.n, rtol=1e-8)
    assert not rep["pass"]
    assert max(rep["errors"][:-1]) <= 1e-10  # only the top moment is short
    assert rep["errors"][-1] > 1e-6


def test_far_interval_constants_round_trip(two_atom):
    # a large negative constant corresponds to an extension close to the
    # Friedrichs corner: its measure has a far-out atom whose tiny weight
    # carries an order-one share of the top moment.  The weight must be
    # formed from eigenvector overlaps (not projector sandwiches) to survive.
    from stieltjesmp import solve_with_tau

    for c, gate in ((-1e3, 1e-12), (-1e6, 1e-9)):
        tau = make_tau({"type": "constant", "matrix": [[c]]})
        entry = solve_with_tau(two_atom, tau)
        assert entry["verification"]["pass"]
        assert max(entry["verification"]["errors"]) <= gate
        assert max(lam for lam, _ in entry["measure"].atoms) > abs(c)


def test_extreme_constants_are_gated_not_silent(two_atom):
    # past the float64 envelope (atoms at ~1e12 need |1 + t| resolved to
    # ~1e-17) the round-trip gate must refuse rather than emit silently
    from stieltjesmp import solve_with_tau

    tau = make_tau({"type": "constant", "matrix": [[-1e12]]})
    entry = solve_with_tau(two_atom, tau)
    assert not entry["verification"]["pass"]
    assert max(entry["verification"]["errors"]) < 1e-3  # still close, just not 1e-8


def test_distinct_constants_give_distinct_measures(two_atom):
    gw = two_atom.gamma_weyl
    measures = []
    for c in (-3.0, -1.0, 0.0):
        t = extension_of_constant_tau(gw, make_tau({"type": "constant", "matrix": [[c]]}))
        measures.append(spectral_solution(t, two_atom.rep, 1))
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            assert measure_distance(measures[i], measures[j]) >= 1e-6


def test_default_class_points_in_upper_half_plane():
    assert all(complex(z).imag > 0 for z in DEFAULT_CLASS_POINTS)


def test_pipeline_resolvent_helper(two_atom, delta1):
    from stieltjesmp.errors import NotIndeterminate

    tau = make_tau({"type": "infinite"})
    R = krein_resolvent(two_atom.require_gamma_weyl(), tau, 1j)
    assert np.abs(R - resolvent_from_contraction(two_atom.picture.t_mu, 1j)).max() <= 1e-12
    with pytest.raises(NotIndeterminate, match="determinate problem"):
        delta1.require_gamma_weyl()  # determinate: no boundary data
