"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Two sub-claims of the class-kernel criterion are recorded as
strict expected failures: a positive-definite constant cannot pass the
z^{-1}-kernel (its kernel is -c/|z|^2), and a pure linear parameter passes
both kernels; the admissible constants are the non-positive ones, which is
exactly what the resolvent ordering of the extremal extensions forces.
"""

import json

import numpy as np
import pytest
from corner_reference import assemble_completion, cayley_reference
from oracles import (
    defect_subspace,
    measure_distance,
    perron_invert,
    sample_sc_extensions,
    sampled_class_test,
)

from stieltjesmp import (
    check_stieltjes_class,
    constant_tau_of_extension,
    krein_resolvent,
    make_tau,
    moments_of_measure,
    resolvent_from_contraction,
    solution_measure,
    solution_transform,
    transform_of_measure,
)
from stieltjesmp.cli import main
from stieltjesmp.extensions import spectral_solution
from stieltjesmp.io import encode_matrix, moments_to_dict, write_json
from stieltjesmp.solutions import random_discrete_measure

UPPER_10 = (
    1j,
    2j,
    0.5j,
    1 + 1j,
    -1 + 1j,
    0.5 + 1.5j,
    -2 + 0.5j,
    3 + 2j,
    -0.3 + 0.9j,
    0.1 + 0.1j,
)

Z5 = (1j, 2j, -1 + 1j, 0.5 + 0.25j, -2.0)


def herm(M):
    return 0.5 * (M + M.conj().T)


def min_eig(M):
    return float(np.linalg.eigvalsh(herm(M)).min())


def im(M):
    return (M - M.conj().T) / 2j


# ---------------------------------------------------------------------------


def test_criterion_01_solvability_equivalence(tmp_path):
    """200 generated measures check solvable; 50 perturbed check not solvable."""
    for seed in range(200):
        N = seed % 3 + 1
        count = (seed // 3) % 4 + 1
        meas = random_discrete_measure(
            seed, N, count, lam_range=(0.3, 6.0), min_sep=0.8
        )
        seq = moments_of_measure(meas, min(2 * count - 1, 5))
        f = tmp_path / f"ok_{seed}.json"
        write_json(f, moments_to_dict(seq))
        assert main(["check", str(f)]) == 0, f"seed {seed} not solvable"

    broken = 0
    for seed in range(200, 250):
        N = seed % 3 + 1
        count = seed % 2 + 1
        meas = random_discrete_measure(
            seed, N, count, lam_range=(0.3, 3.0), min_sep=0.5
        )
        seq = moments_of_measure(meas, 2 * count)
        mats = [S.copy() for S in seq.moments]
        delta = 1e-6
        top = len(mats) - 1
        while True:
            mats[top] = mats[top] - delta * np.eye(N)
            worst = min(
                np.linalg.eigvalsh(
                    np.block(
                        [[mats[i + j] for j in range(count + 1)] for i in range(count + 1)]
                    )
                ).min(),
                np.inf,
            )
            if worst < -1e-6:
                break
            delta *= 2.0
        doc = {
            "N": N,
            "moments": [
                [[[v.real, v.imag] for v in row] for row in S] for S in mats
            ],
        }
        f = tmp_path / f"bad_{seed}.json"
        f.write_text(json.dumps(doc))
        assert main(["check", str(f)]) == 2, f"seed {seed} misclassified"
        broken += 1
    assert broken == 50
    print("ACCEPTANCE criterion 1: PASS (200/200 solvable, 50/50 not solvable)")


def test_criterion_02_gram_realization(battery):
    for name, a in battery.items():
        g = a.gram.gamma
        scale = max(1.0, float(np.abs(g).max()))
        X = a.rep.vectors
        err = np.abs(X.conj().T @ X - g).max()
        assert err <= 1e-9 * scale, name
    print("ACCEPTANCE criterion 2: PASS (Gram reproduced on all instances)")


def test_criterion_03_deficiency_bound(battery):
    for name, a in battery.items():
        indices = []
        for z in (1j, -1.0, -2 + 3j):
            dd = defect_subspace(a.shift, z)
            assert dd.index <= a.N, name
            indices.append(dd.index)
        assert len(set(indices)) == 1, name
    print("ACCEPTANCE criterion 3: PASS (index <= N and point-independent)")


def test_criterion_04_sandwich_and_resolvent_ordering(indeterminate_battery):
    for name, a in indeterminate_battery.items():
        pic = a.picture
        samples = sample_sc_extensions(pic, 20, seed=42)
        for t in samples:
            assert min_eig(t - pic.t_mu) >= -1e-10, name
            assert min_eig(pic.t_M - t) >= -1e-10, name
        for x in (0.1, 1.0, 10.0):
            R_mu = resolvent_from_contraction(pic.t_mu, -x)
            R_M = resolvent_from_contraction(pic.t_M, -x)
            for t in samples:
                R = resolvent_from_contraction(t, -x)
                assert min_eig(R - R_mu) >= -1e-9, name
                assert min_eig(R_M - R) >= -1e-9, name
    print("ACCEPTANCE criterion 4: PASS (extension sandwich and resolvent ordering)")


def test_criterion_05_extremality_oracle(battery):
    rng = np.random.default_rng(2024)
    checked = 0
    for name, a in battery.items():
        pic = a.picture
        if a.rep.dim > 3 or pic.defect_dim == 0:
            continue
        q = pic.defect_dim
        # completions from the reference bases, bounds from the corners
        J = cayley_reference(a.shift)[2]
        X_min = herm(J.conj().T @ pic.t_mu @ J)
        X_max = herm(J.conj().T @ pic.t_M @ J)
        I = np.eye(pic.dim)
        feasible = 0
        for _ in range(10_000):
            G = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            X = herm(G) * rng.uniform(0.2, 1.5)
            t = assemble_completion(a.shift, X)
            if min_eig(I - t) >= -1e-10 and min_eig(I + t) >= -1e-10:
                feasible += 1
                assert min_eig(X - X_min) >= -1e-8, name
                assert min_eig(X_max - X) >= -1e-8, name
        assert feasible > 200, (name, feasible)
        checked += 1
    assert checked >= 2
    print(
        f"ACCEPTANCE criterion 5: PASS (no feasible completion escapes the "
        f"interval; {checked} instances x 10^4 samples)"
    )


def _solve_json(path, *args):
    out = str(path) + ".out.json"
    code = main(["solve", str(path), *args, "--out", out])
    with open(out) as fh:
        return code, json.load(fh)


def _emit_battery_solutions(battery, tmp_path):
    """Run the solve command over the battery; returns (name, result) pairs."""
    results = []
    for name, a in battery.items():
        f = tmp_path / f"{name}.json"
        write_json(f, moments_to_dict(a.seq))
        if a.verdict.determinate:
            code, doc = _solve_json(f)
        else:
            code, doc = _solve_json(f, "--tau-grid", "4")
        assert code == 0, name
        results.append((name, a, doc))
    return results


def test_criterion_06_round_trip_gate(battery, tmp_path):
    checked = 0
    for name, a, doc in _emit_battery_solutions(battery, tmp_path):
        seq = a.seq
        for r in doc["results"]:
            assert r["status"] == "ok", (name, r)
            assert r["verification"]["pass"], (name, r["verification"])
            # independent re-verification by direct summation on the wire data
            atoms = [
                (
                    atom["position"],
                    np.array(
                        [[complex(re, imag) for re, imag in row] for row in atom["weight"]]
                    ),
                )
                for atom in r["measure"]["atoms"]
            ]
            for p in range(2 * seq.n + 1):
                got = sum(w * lam**p for lam, w in atoms)
                ref = seq.moments[p]
                err = np.linalg.norm(got - ref) / max(1.0, np.linalg.norm(ref))
                assert err <= 1e-8, (name, p, err)
            checked += 1
    assert checked >= len(battery)
    print(
        f"ACCEPTANCE criterion 6: PASS ({checked} emitted measures reproduce "
        f"moments at 1e-8)"
    )


def test_criterion_07_determinacy_and_multiplicity(battery, tmp_path):
    assert battery["delta1"].verdict.determinate
    assert battery["dirac0"].verdict.determinate
    for name in ("two_atom", "two_atom_m3"):
        v = battery[name].verdict
        assert not v.determinate and v.defect_dim == 1, name
    distinct_checked = 0
    for name, a in battery.items():
        if a.verdict.determinate:
            continue
        f = tmp_path / f"{name}_c7.json"
        write_json(f, moments_to_dict(a.seq))
        code, doc = _solve_json(f, "--tau-grid", "3")
        assert code == 0
        measures = []
        for r in doc["results"]:
            assert r["status"] == "ok", (name, r)
            atoms = [
                (
                    atom["position"],
                    np.array(
                        [[complex(re, imag) for re, imag in row] for row in atom["weight"]]
                    ),
                )
                for atom in r["measure"]["atoms"]
            ]
            measures.append(solution_measure(a.N, atoms))
        assert len(measures) >= 3, name
        for i in range(len(measures)):
            for j in range(i + 1, len(measures)):
                assert measure_distance(measures[i], measures[j]) >= 1e-6, name
        distinct_checked += 1
    assert distinct_checked >= 2
    print(
        "ACCEPTANCE criterion 7: PASS (determinate verdicts correct; >= 3 "
        "distinct solutions per indeterminate instance)"
    )


def test_criterion_08_krein_formula_cross_validation(indeterminate_battery):
    validated = 0
    for name, a in indeterminate_battery.items():
        gw = a.gamma_weyl
        if gw is None:
            continue
        pic = a.picture
        for s in (0.2, 0.4, 0.6, 0.8, 1.0):
            t = herm(pic.t_mu + s * (pic.t_M - pic.t_mu))
            tau_mat = constant_tau_of_extension(gw, t)
            tau = make_tau({"type": "constant", "matrix": encode_matrix(tau_mat)})
            for z in Z5:
                err = np.abs(
                    krein_resolvent(gw, tau, z) - resolvent_from_contraction(t, z)
                ).max()
                assert err <= 1e-8, (name, s, z, err)
        tau_inf = make_tau({"type": "infinite"})
        for z in Z5:
            err = np.abs(
                krein_resolvent(gw, tau_inf, z)
                - resolvent_from_contraction(pic.t_mu, z)
            ).max()
            assert err <= 1e-12, (name, z, err)
        validated += 1
    assert validated >= 2
    print(
        f"ACCEPTANCE criterion 8: PASS (formula matches direct resolvents on "
        f"{validated} instances x 5 parameters x 5 points)"
    )


def test_criterion_09_transform_validity(battery):
    count = 0
    for name, a in battery.items():
        transforms = []
        if a.verdict.determinate:
            meas = spectral_solution(a.picture.t_mu, a.rep, a.N)
            transforms.append(lambda z, m=meas: transform_of_measure(m, z))
        else:
            gw = a.gamma_weyl
            if gw is None:
                continue
            for spec in (
                {"type": "infinite"},
                {"type": "constant", "matrix": [[0.0]] if gw.q == 1 else (-np.eye(gw.q)).tolist()},
            ):
                tau = make_tau(spec)
                transforms.append(
                    lambda z, t=tau: solution_transform(gw, t, a.rep, a.N, z)
                )
        for F in transforms:
            for z in UPPER_10:
                Fz = F(z)
                assert np.abs(F(np.conj(z)) - Fz.conj().T).max() <= 1e-10, name
                assert min_eig(im(Fz)) >= -1e-9, name
                assert min_eig(im(z * Fz)) >= -1e-9, name
            count += 1
    print(
        f"ACCEPTANCE criterion 9: PASS ({count} transforms Herglotz and "
        f"Stieltjes-positive on 10 points)"
    )


def test_criterion_10_stieltjes_perron_inversion():
    meas = solution_measure(1, [(1.0, [[1.0]]), (2.0, [[1.0]])])
    got = perron_invert(
        lambda z: transform_of_measure(meas, z),
        grid=(-0.5, 4.0),
        eps_schedule=(1e-2, 1e-3, 1e-4),
    )
    assert len(got.atoms) == 2
    for (lam, W), (lam0, W0) in zip(got.atoms, meas.atoms):
        assert abs(lam - lam0) <= 1e-4
        assert abs(W[0, 0] - W0[0, 0]) <= 1e-3
    print("ACCEPTANCE criterion 10: PASS (two-pole recovery at 1e-4 / 1e-3)")


def test_criterion_11a_rational_stieltjes_passes_kernel():
    tau = make_tau(
        {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]}
    )
    ok, worst = check_stieltjes_class(tau)
    assert ok and worst >= -1e-9
    print("ACCEPTANCE criterion 11 (rational): PASS (kernel min eig >= -1e-9)")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "a positive-definite constant c has z^{-1}-kernel -c/|z|^2, which is "
        "negative definite; only constants c <= 0 are admissible (they are "
        "the parameters of the canonical extensions, forced by the resolvent "
        "ordering of the extremal pair)"
    ),
)
def test_criterion_11b_constant_psd_passes_kernel():
    ok, worst = check_stieltjes_class(make_tau({"type": "constant", "matrix": [[1.0]]}))
    print(
        f"ACCEPTANCE criterion 11 (constant PSD): FAIL as stated (kernel min "
        f"eig {worst:.3e}; expected failure, see xfail reason)"
    )
    assert ok and worst >= -1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "tau(z) = z has z^{-1}-kernel identically zero and Nevanlinna kernel "
        "identically one, so the sampled test accepts it; a non-negative "
        "linear slope is a genuine class member (relation-type behaviour of "
        "the parameter at infinity)"
    ),
)
def test_criterion_11c_linear_parameter_fails_kernel():
    ok, worst = sampled_class_test(lambda z: np.array([[z]]))
    print(
        f"ACCEPTANCE criterion 11 (linear): FAIL as stated (the kernel "
        f"accepts tau(z) = z, min eig {worst:.3e}; expected failure, see "
        f"xfail reason)"
    )
    assert not ok
