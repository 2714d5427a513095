import json

import numpy as np
import pytest

from stieltjesmp.cli import main
from stieltjesmp.io import dumps_canonical, measure_from_dict, parse_complex, read_json
from stieltjesmp.errors import SchemaError


def run(*args):
    return main([str(a) for a in args])


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_atom_file(tmp_path):
    return write(
        tmp_path / "m.json",
        {"N": 1, "moments": [[[2, 0]], [[3, 0]], [[5, 0]]]},
    )


# ---------------------------------------------------------------------------
# wire format


def test_parse_complex_forms():
    assert parse_complex(2) == 2.0 + 0j
    assert parse_complex([1, -2]) == 1.0 - 2j
    with pytest.raises(SchemaError):
        parse_complex("x")
    with pytest.raises(SchemaError):
        parse_complex([1, 2, 3])


def test_canonical_json_is_deterministic_and_sorted():
    doc = {"b": 1.5, "a": [0.1 + 0.2]}
    s1 = dumps_canonical(doc)
    s2 = dumps_canonical(json.loads(s1))
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"')
    # 17 significant digits
    assert "0.30000000000000004" in s1


# ---------------------------------------------------------------------------
# check


def test_check_solvable_exit_zero(two_atom_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run("check", two_atom_file, "--out", out) == 0
    rep = read_json(out)
    assert rep["verdict"] == "solvable"
    assert len(rep["plain_min_eigs"]) == 2


def test_check_not_solvable_exit_two(tmp_path):
    f = write(tmp_path / "bad.json", {"N": 1, "moments": [[[1, 0]], [[-1, 0]]]})
    assert run("check", f) == 2


def test_check_marginal_exit_three(tmp_path):
    f = write(
        tmp_path / "marg.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]}
    )
    assert run("check", f) == 3


def test_check_zero_tolerance_is_kept(two_atom_file, capsys):
    # an explicit 0 is a tolerance, not "use the default"
    assert run("check", two_atom_file, "--psd-tol", 0) == 0
    assert json.loads(capsys.readouterr().out)["psd_tol"] == 0


def test_check_malformed_exit_usage(tmp_path):
    f = write(tmp_path / "x.json", {"N": 1})
    assert run("check", f) == 64


# ---------------------------------------------------------------------------
# determinacy


def test_determinacy_delta1(tmp_path, capsys):
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("determinacy", f) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinate"] is True


def test_determinacy_two_atom(two_atom_file, capsys):
    assert run("determinacy", two_atom_file) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinate"] is False
    assert doc["completely_indeterminate"] is True
    assert doc["deficiency_index"] == 1


def test_determinacy_dirac0(tmp_path, capsys):
    f = write(tmp_path / "d0.json", {"N": 1, "moments": [[[1, 0]], [[0, 0]], [[0, 0]]]})
    assert run("determinacy", f) == 0
    assert json.loads(capsys.readouterr().out)["determinate"] is True


def test_determinacy_inconsistent_truncation_exit_four(tmp_path):
    f = write(
        tmp_path / "inc.json",
        {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]], [[1, 0]], [[2, 0]]]},
    )
    assert run("determinacy", f) == 4


# ---------------------------------------------------------------------------
# solve


def test_solve_determinate_unique(tmp_path, capsys):
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("solve", f) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinate"] is True
    (res,) = doc["results"]
    assert res["status"] == "ok"
    atoms = res["measure"]["atoms"]
    assert len(atoms) == 1
    assert abs(atoms[0]["position"] - 1.0) <= 1e-9


def test_solve_tau_grid_three_distinct_verified(two_atom_file, capsys):
    assert run("solve", two_atom_file, "--tau-grid", 3) == 0
    doc = json.loads(capsys.readouterr().out)
    oks = [r for r in doc["results"] if r["status"] == "ok"]
    assert len(oks) == 3
    # independent re-verification by direct summation
    for r in oks:
        assert r["exact"] is True and r["verification"]["pass"]
        atoms = [(a["position"], a["weight"][0][0][0]) for a in r["measure"]["atoms"]]
        for p, ref in enumerate([2.0, 3.0, 5.0]):
            got = sum(w * lam**p for lam, w in atoms)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))
    # pairwise distinct measures
    pos = [tuple(round(a["position"], 6) for a in r["measure"]["atoms"]) for r in oks]
    assert len(set(pos)) == 3


def test_solve_ideal_tau_gated_as_mass_at_infinity(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "infinite"})
    code = run("solve", two_atom_file, "--tau", tau)
    doc = json.loads(capsys.readouterr().out)
    (res,) = doc["results"]
    assert code == 70
    assert res["status"] == "error"
    assert res["error"]["type"] == "RoundTripGate"
    assert "mass at infinity" in res["error"]["message"]


def test_solve_ideal_tau_allow_unverified_emits_flagged(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "infinite"})
    assert run("solve", two_atom_file, "--tau", tau, "--allow-unverified") == 0
    doc = json.loads(capsys.readouterr().out)
    (res,) = doc["results"]
    assert res["status"] == "ok"
    assert res["measure"].get("mass_at_infinity") is not None
    assert res["verification"]["pass"] is False


def test_solve_constant_tau_file(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[0.0]]})
    assert run("solve", two_atom_file, "--tau", tau) == 0
    doc = json.loads(capsys.readouterr().out)
    (res,) = doc["results"]
    assert res["status"] == "ok" and res["exact"] is True
    # tau = 0 is the Krein corner: one atom sits at the origin
    assert min(a["position"] for a in res["measure"]["atoms"]) <= 1e-9


def test_solve_rational_tau_exact(two_atom_file, tmp_path, capsys):
    # the spectral measure of the exit-space extension, gated at 1e-8
    tau = write(
        tmp_path / "tau.json",
        {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]},
    )
    assert run("solve", two_atom_file, "--tau", tau) == 0
    doc = json.loads(capsys.readouterr().out)
    (res,) = doc["results"]
    assert res["status"] == "ok" and res["exact"] is True
    assert res["verification"]["pass"] and res["verification"]["rtol"] == 1e-8
    positions = [a["position"] for a in res["measure"]["atoms"]]
    assert np.allclose(positions, [0.46366, 1.5, 2.24300], atol=1e-5)


def test_solve_rational_tau_out_of_class_is_a_result_entry(two_atom_file, tmp_path, capsys):
    # tau(0) = -0.1 + 0.5/1.5 > 0: the exit-space extension is not a
    # contraction, reported like an out-of-class constant (no traceback)
    tau = write(
        tmp_path / "tau.json",
        {"type": "rational", "tau0": [[-0.1]], "poles": [{"p": 1.5, "W": [[0.5]]}]},
    )
    assert run("solve", two_atom_file, "--tau", tau, "--allow-unverified") == 70
    (res,) = json.loads(capsys.readouterr().out)["results"]
    assert res["status"] == "error"
    assert res["error"]["type"] == "PropertyViolated"


def test_solve_out_of_class_tau_refused(two_atom_file, tmp_path):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[1.0]]})
    assert run("solve", two_atom_file, "--tau", tau) == 70


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "mixed", "ideal_subspace": [[[1, 0], [0, 0]], [[1, 0]]], "tau0": [[-1.0]]},
        {"type": "nope"},
    ],
)
def test_solve_malformed_tau_exit_usage(two_atom_file, tmp_path, doc):
    tau = write(tmp_path / "tau.json", doc)
    assert run("solve", two_atom_file, "--tau", tau) == 64


def test_solve_cumulative_csv(two_atom_file, tmp_path):
    prefix = str(tmp_path / "cum")
    out = tmp_path / "sol.json"
    assert run(
        "solve", two_atom_file, "--tau-grid", 2, "--cumulative-csv", prefix,
        "--out", out,
    ) == 0
    for i in range(2):
        lines = (tmp_path / f"cum{i}.csv").read_text().splitlines()
        assert lines[0].startswith("lambda,re_M[0][0],im_M[0][0]")
        # cumulative reaches the total mass S_0 = 2 at the right edge
        assert abs(float(lines[-1].split(",")[1]) - 2.0) <= 1e-8


def test_solve_deterministic_output(two_atom_file, tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", two_atom_file, "--tau-grid", 3, "--out", o1) == 0
    assert run("solve", two_atom_file, "--tau-grid", 3, "--out", o2) == 0
    assert o1.read_bytes() == o2.read_bytes()


# ---------------------------------------------------------------------------
# transform / invert / verify


def test_transform_determinate_direct(tmp_path, capsys):
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("transform", f, "--z", "1j,2j") == 0
    doc = json.loads(capsys.readouterr().out)
    z0 = complex(*doc["samples"][0]["z"])
    F0 = complex(*doc["samples"][0]["F"][0][0])
    assert abs(F0 - 1.0 / (1.0 - z0)) <= 1e-10


def test_transform_requires_tau_when_indeterminate(two_atom_file):
    assert run("transform", two_atom_file, "--z", "1j") == 64


def test_transform_bad_z_exit_usage(two_atom_file, tmp_path):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("transform", two_atom_file, "--tau", tau, "--z", "abc") == 64


def test_transform_empty_z_exit_usage(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    csv = tmp_path / "scan.csv"
    assert run("transform", two_atom_file, "--tau", tau, "--z", "", "--csv", csv) == 64
    assert "empty z list" in capsys.readouterr().err
    assert not csv.exists()


def test_transform_point_on_positive_axis_exit_software(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("transform", two_atom_file, "--tau", tau, "--z", "2.0") == 70
    assert "lies on [0, inf)" in capsys.readouterr().err


def test_transform_with_tau_and_csv(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    csv = tmp_path / "scan.csv"
    assert run("transform", two_atom_file, "--tau", tau, "--z", "1j,2j,-1+1j", "--csv", csv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["samples"]) == 3
    header = csv.read_text().splitlines()[0]
    assert header.startswith("x,eps")


def test_invert_from_measure_round_trip(tmp_path, capsys):
    meas_doc = {
        "N": 1,
        "atoms": [
            {"position": 1.0, "weight": [[[1.0, 0.0]]]},
            {"position": 2.0, "weight": [[[1.0, 0.0]]]},
        ],
    }
    f = write(tmp_path / "meas.json", meas_doc)
    scan = tmp_path / "scan.csv"
    assert run(
        "invert", "--from-measure", f, "--lo", -0.5, "--hi", 4.0, "--scan-csv", scan
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    got = measure_from_dict(doc)
    assert len(got.atoms) == 2
    assert abs(got.atoms[0][0] - 1.0) <= 1e-4
    assert scan.exists() and scan.read_text().startswith("x,eps")


def test_invert_from_moments_determinate(tmp_path, capsys):
    # delta at 1: the unique solution's transform needs no --tau
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("invert", "--moments", f, "--lo", -0.5, "--hi", 4.0) == 0
    got = measure_from_dict(json.loads(capsys.readouterr().out))
    ((lam, W),) = got.atoms
    assert abs(lam - 1.0) <= 1e-4
    assert abs(W[0, 0] - 1.0) <= 1e-3


@pytest.mark.parametrize("eps", ["abc", "1e-2,x", "", ","])
def test_invert_bad_eps_exit_usage(tmp_path, eps):
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("invert", "--moments", f, "--eps", eps) == 64


def test_invert_from_moments_and_tau(two_atom_file, tmp_path, capsys):
    tau = write(
        tmp_path / "tau.json",
        {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]},
    )
    assert run(
        "invert", "--moments", two_atom_file, "--tau", tau, "--lo", -0.5, "--hi", 6.0
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    got = measure_from_dict(doc)
    # the generalized solution for this parameter has three atoms, and its
    # inverted approximation still reproduces the data well
    assert len(got.atoms) == 3
    moments = [
        sum(w[0, 0].real * lam**p for lam, w in got.atoms) for p in range(3)
    ]
    for val, ref in zip(moments, (2.0, 3.0, 5.0)):
        assert abs(val - ref) <= 1e-6 * max(1.0, ref)


def test_verify_pass_and_fail(two_atom_file, tmp_path, capsys):
    good = write(
        tmp_path / "good.json",
        {
            "N": 1,
            "atoms": [
                {"position": 1.0, "weight": [[[1.0, 0.0]]]},
                {"position": 2.0, "weight": [[[1.0, 0.0]]]},
            ],
        },
    )
    assert run("verify", good, two_atom_file) == 0
    bad = write(
        tmp_path / "bad.json",
        {"N": 1, "atoms": [{"position": 1.5, "weight": [[[2.0, 0.0]]]}]},
    )
    assert run("verify", bad, two_atom_file) == 2


# ---------------------------------------------------------------------------
# gen


def test_gen_atoms_matches_documented_moments(tmp_path):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--atoms", "1:1,2:1", "--out-moments", m, "--out-measure", g) == 0
    doc = read_json(m)
    vals = [parse_complex(doc["moments"][p][0][0]).real for p in range(4)]
    assert vals == [2.0, 3.0, 5.0, 9.0]


def test_gen_seed_deterministic(tmp_path):
    files = []
    for tag in ("a", "b"):
        m, g = tmp_path / f"m{tag}.json", tmp_path / f"g{tag}.json"
        assert run(
            "gen", "--count", 2, "--N", 2, "--seed", 7, "--out-moments", m,
            "--out-measure", g,
        ) == 0
        files.append((m.read_bytes(), g.read_bytes()))
    assert files[0] == files[1]


def test_gen_random_is_solvable(tmp_path):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run(
        "gen", "--count", 2, "--N", 2, "--seed", 3, "--min-sep", 0.5,
        "--out-moments", m, "--out-measure", g,
    ) == 0
    assert run("check", m) == 0


def test_env_seed_override(tmp_path, monkeypatch):
    m1, g1 = tmp_path / "m1.json", tmp_path / "g1.json"
    m2, g2 = tmp_path / "m2.json", tmp_path / "g2.json"
    monkeypatch.setenv("STIELTJES_MP_SEED", "5")
    run("gen", "--count", 2, "--N", 1, "--out-moments", m1, "--out-measure", g1)
    monkeypatch.delenv("STIELTJES_MP_SEED")
    run("gen", "--count", 2, "--N", 1, "--seed", 5, "--out-moments", m2, "--out-measure", g2)
    assert m1.read_bytes() == m2.read_bytes()


def test_env_seed_not_an_integer_exit_usage(tmp_path, monkeypatch):
    monkeypatch.setenv("STIELTJES_MP_SEED", "x1")
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--count", 2, "--N", 1, "--out-moments", m, "--out-measure", g) == 64
