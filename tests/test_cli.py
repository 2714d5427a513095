import json

import numpy as np
import pytest

from stieltjesmp.cli import main
from stieltjesmp.io import dumps_canonical, measure_from_dict, parse_complex, read_json
from stieltjesmp.errors import InconsistentTruncation, SchemaError


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
    # the shortest string that reads back to the same double
    assert "0.30000000000000004" in s1


# ---------------------------------------------------------------------------
# check


def test_check_solvable_exit_zero(two_atom_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run("check", two_atom_file, "--out", out) == 0
    rep = read_json(out)
    assert rep["verdict"] == "solvable"
    assert len(rep["plain_min_pivots"]) == 2


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


@pytest.mark.parametrize("position", ["NaN", "1e400", "1" + "0" * 400])
def test_non_finite_atom_position_exit_usage(tmp_path, two_atom_file, position):
    # a measure document read by verify
    f = tmp_path / "g.json"
    atom = '{"position": %s, "weight": [[[1, 0]]]}'
    f.write_text('{"N": 1, "atoms": [%s, %s]}' % (atom % 1, atom % position))
    with pytest.raises(SchemaError, match="atom 1 position"):
        measure_from_dict(read_json(f))
    assert run("verify", f, two_atom_file) == 64


@pytest.mark.parametrize(
    "entry", ["NaN", "1e400", "-Infinity", "1" + "0" * 400, "[3, NaN]", "[1e400, 0]"],
    ids=["nan", "1e400", "-inf", "huge-int", "pair-nan", "pair-1e400"],
)
@pytest.mark.parametrize("cmd", ["check", "determinacy", "solve"])
def test_non_finite_moment_exit_usage(tmp_path, capsys, cmd, entry):
    # JSON text as a user writes it, on both reads of the moments
    last = entry if entry.startswith("[") else f"[{entry}, 0]"
    f = tmp_path / "m.json"
    f.write_text(f'{{"N": 1, "moments": [[[2, 0]], [[3, 0]], [{last}]]}}')
    assert run(cmd, f) == 64
    assert "error: moments[2][0]" in capsys.readouterr().err
    f.write_text(f'{{"N": 1, "moments": [[[2]], [[3]], [[{entry}]]]}}')
    assert run(cmd, f) == 64


@pytest.mark.parametrize(
    "doc",
    [
        '{"type": "constant", "matrix": [[NaN]]}',
        '{"type": "rational", "tau0": [[-1]], "poles": [{"p": 1e400, "W": [[0.5]]}]}',
        '{"type": "rational", "tau0": [[-1]], "poles": [{"p": NaN, "W": [[0.5]]}]}',
        '{"type": "rational", "tau0": [[-1]], "poles": [{"p": 1.5, "W": [[Infinity]]}]}',
    ],
    ids=["matrix-nan", "pole-1e400", "pole-nan", "residue-inf"],
)
@pytest.mark.parametrize("cmd", ["solve", "transform"])
def test_non_finite_tau_exit_usage(two_atom_file, tmp_path, cmd, doc):
    tau = tmp_path / "tau.json"
    tau.write_text(doc)
    extra = ("--z", "1j") if cmd == "transform" else ()
    assert run(cmd, two_atom_file, "--tau", tau, *extra) == 64


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
    assert doc["defect_dim"] == 1 and "deficiency_index" not in doc
    assert doc["gap_norm"] > 0
    retired = {"upsilon_dim", "completely_indeterminate", "regularized_defect_dim"}
    assert not retired & doc.keys()


def test_determinacy_dirac0(tmp_path, capsys):
    f = write(tmp_path / "d0.json", {"N": 1, "moments": [[[1, 0]], [[0, 0]], [[0, 0]]]})
    assert run("determinacy", f) == 0
    assert json.loads(capsys.readouterr().out)["determinate"] is True


def test_determinacy_inconsistent_truncation_exit_four(two_atom_file, monkeypatch):
    # every input that reaches build_shift's refusal through the CLI is
    # consistent data refused by roundoff (ROADMAP item 2), so the exit code
    # is pinned on a stand-in refusal, not on such an input
    def refuse(rep):
        raise InconsistentTruncation("stand-in refusal")

    monkeypatch.setattr("stieltjesmp.pipeline.build_shift", refuse)
    assert run("determinacy", two_atom_file) == 4


def test_tiny_gap_has_a_finite_weyl_limit(tmp_path, capsys):
    # [1, 1e-12, 1] is exactly indeterminate with a gap of 4e-12, so
    # M(0) = 2 G^{-1} is huge but finite: the transform of tau = -1 is 2 at
    # -0.5 up to S_1 = 1e-12, and its measure is refused only by the gate
    f = write(tmp_path / "m.json", {"N": 1, "moments": [[[1, 0]], [[1e-12, 0]], [[1, 0]]]})
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("determinacy", f) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinate"] is False and set(doc) == {
        "defect_dim", "determinate", "gap_norm",
        "shift_residual", "solvability", "space_dim",
    }
    assert run("transform", f, "--tau", tau, "--z", "1j,-0.5") == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    F = [parse_complex(s["F"][0][0]) for s in samples]
    assert abs(F[0] - 1j) <= 1e-12 and abs(F[1] - 2.0) <= 1e-11
    assert run("solve", f, "--tau", tau) == 70
    (res,) = json.loads(capsys.readouterr().out)["results"]
    assert res["status"] == "error" and res["error"]["type"] == "RoundTripGate"


@pytest.mark.parametrize(
    "values, code",
    [
        ([1, 0, 1], 2),
        ([2, 1, 1, 1, 2], 2),
        ([1, 0, 0, 1], 2),
        ([0, 1], 2),
        ([1, 0, 0], 3),
        ([2, 1, 1, 1, 1], 3),
    ],
)
def test_check_reads_the_range_condition(tmp_path, capsys, values, code):
    # the next block column [S_{n+1}; ..; S_m] must lie in the range of the
    # maximal Hankel that stops at S_{m-1}: S_1 = 0 or S_2 = 0 puts all mass
    # at 0, and [2, 1, 1, 1] puts it at 0 and 1.  delta_0 and delta_0 +
    # delta_1 keep the condition and stay marginal; the report's keys stay
    f = write(tmp_path / "m.json", {"N": 1, "moments": [[[v]] for v in values]})
    assert run("check", f) == code
    assert set(json.loads(capsys.readouterr().out)) == {
        "max_plain_order", "max_shifted_order", "note", "plain_min_pivots",
        "psd_tol", "shifted_min_pivots", "verdict",
    }


#: not solvable by each condition check reads: the range condition (the
#: first four), a negative pivot of the shifted or plain Hankel ([1, -1, 1],
#: [-1, 0, 1]; [1, -1] is too short for the shift as well), and a dropped
#: column with a live Schur-complement row ([1, 1, 1, 2, 5])
NOT_SOLVABLE = [
    [1, 0, 0, 1], [1, 0, 1], [2, 1, 1, 1, 2], [1, 1, 1, 1, 2],
    [1, -1, 1], [1, 1, 1, 2, 5], [-1, 0, 1], [1, -1],
]


@pytest.mark.parametrize("values", NOT_SOLVABLE, ids=lambda v: ",".join(map(str, v)))
@pytest.mark.parametrize(
    "cmd", [["solve"], ["determinacy"], ["transform", "--z", "1j"]], ids=lambda c: c[0]
)
def test_commands_refuse_not_solvable_data(tmp_path, capsys, cmd, values):
    # check's verdict is the one rule: every command past it exits 70 on
    # not solvable data, prints nothing and names the failed condition
    f = write(tmp_path / "m.json", {"N": 1, "moments": [[[v]] for v in values]})
    assert run("check", f) == 2
    capsys.readouterr()
    assert run(cmd[0], f, *cmd[1:]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the data are not solvable:")


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


NEGATIVE_POLE = {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": -300.0, "W": [[1e-3]]}]}


@pytest.fixture
def three_atom_file(tmp_path):
    # atoms 0.5, 1.5, 3.0 with weights 0.3, 0.5, 0.2, up to S_3: indeterminate
    return write(
        tmp_path / "m3.json",
        {"N": 1, "moments": [[[1, 0]], [[1.5, 0]], [[3, 0]], [[7.125, 0]]]},
    )


def test_solve_negative_pole_refused_as_out_of_class(three_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", NEGATIVE_POLE)
    assert run("solve", three_atom_file, "--tau", tau) == 70
    (res,) = json.loads(capsys.readouterr().out)["results"]
    assert res["status"] == "error"
    assert res["error"]["type"] == "NotStieltjesClass"
    assert "pole p = -300" in res["error"]["message"]


def test_transform_negative_pole_refused(three_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", NEGATIVE_POLE)
    assert run("transform", three_atom_file, "--tau", tau, "--z", "1j") == 70
    out = capsys.readouterr()
    assert out.out == "" and "pole p = -300 lies on the negative axis" in out.err


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
# transform / verify


def test_transform_determinate_direct(tmp_path, capsys):
    f = write(tmp_path / "d.json", {"N": 1, "moments": [[[1, 0]], [[1, 0]], [[1, 0]]]})
    assert run("transform", f, "--z", "1j,2j") == 0
    doc = json.loads(capsys.readouterr().out)
    z0 = complex(*doc["samples"][0]["z"])
    F0 = complex(*doc["samples"][0]["F"][0][0])
    assert abs(F0 - 1.0 / (1.0 - z0)) <= 1e-10


def test_transform_determinate_matches_the_dense_resolvent(tmp_path, capsys):
    # the stored eigenpairs of t_mu against one LU of the Cayley resolvent
    from stieltjesmp import analyze, resolvent_from_contraction
    from stieltjesmp.hankel import load_moments

    moments = [[[2, 0]], [[3, 0]], [[5, 0]], [[9, 0]], [[17, 0]]]  # atoms 1, 2
    f = write(tmp_path / "d.json", {"N": 1, "moments": moments})
    zs = (1j, -2.0, -1 + 0.5j, 3 + 1e-3j)
    assert run("transform", f, "--z=" + ",".join(map(str, zs))) == 0
    a = analyze(load_moments(read_json(f)))
    assert a.verdict.determinate
    Xi0 = a.rep.vectors[:, :1]
    for z, sample in zip(zs, json.loads(capsys.readouterr().out)["samples"]):
        want = (Xi0.conj().T @ resolvent_from_contraction(a.picture.t_mu, z) @ Xi0)[0, 0]
        assert abs(complex(*sample["F"][0][0]) - want) <= 1e-13 * abs(want)
    assert run("transform", f, "--z", "1j,2.0") == 70
    assert "lies on [0, inf)" in capsys.readouterr().err


def test_transform_z_list_with_a_leading_minus(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("transform", two_atom_file, "--tau", tau, "--z", "-1+1j,1j") == 0
    separate = capsys.readouterr().out
    assert run("transform", two_atom_file, "--tau", tau, "--z=-1+1j,1j") == 0
    assert capsys.readouterr().out == separate
    assert [s["z"] for s in json.loads(separate)["samples"]] == [[-1, 1], [0, 1]]
    # a --z without its value is still a usage error
    assert run("transform", two_atom_file, "--tau", tau, "--z") == 64
    assert run("transform", two_atom_file, "--z", "--tau", tau) == 64


def test_transform_requires_tau_when_indeterminate(two_atom_file):
    assert run("transform", two_atom_file, "--z", "1j") == 64


def test_transform_bad_z_exit_usage(two_atom_file, tmp_path):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("transform", two_atom_file, "--tau", tau, "--z", "abc") == 64


@pytest.mark.parametrize("z", ["nan", "nan+1j", "1e400j", "1+infj", "inf", "-1,inf"])
def test_transform_non_finite_z_exit_usage(two_atom_file, tmp_path, capsys, z):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    assert run("transform", two_atom_file, "--tau", tau, f"--z={z}") == 64
    assert "is not finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("tau", [
    lambda x: {"type": "constant", "matrix": x(-1.0)},
    lambda x: {"type": "rational", "tau0": x(-1.0), "poles": [{"p": 1.5, "W": x(0.5)}]},
], ids=["constant", "rational"])
def test_tau_written_with_one_row_pairs(two_atom_file, tmp_path, capsys, tau):
    # [[re, im]] reads as the 1 x 1 matrix re + i im: solve and transform
    # print what the [[[re, im]]] form prints, but for the echoed document
    def without_tau(doc):
        out = json.loads(capsys.readouterr().out)
        for holder in (out, *out.get("results", ())):
            assert holder.pop("tau", doc) == doc
        return out

    outs = []
    for name, x in (("row", lambda v: [[v, 0]]), ("nested", lambda v: [[[v, 0]]])):
        doc = tau(x)
        path = write(tmp_path / f"{name}.json", doc)
        assert run("solve", two_atom_file, "--tau", path) == 0
        solved = without_tau(doc)
        assert run("transform", two_atom_file, "--tau", path, "--z", "1j,-0.5,2+1e-3j") == 0
        outs.append((solved, without_tau(doc)))
    assert outs[0] == outs[1]
    assert outs[0][0]["results"][0]["status"] == "ok" and len(outs[0][1]["samples"]) == 3


def test_transform_with_tau_and_csv(two_atom_file, tmp_path, capsys):
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    csv = tmp_path / "scan.csv"
    assert run("transform", two_atom_file, "--tau", tau, "--z", "1j,2j,-1+1j", "--csv", csv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["samples"]) == 3
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,eps,im_F[0][0]"
    # each row names its own point, and the value there
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 0.0, -1.0]
    assert [r[1] for r in rows] == [1.0, 2.0, 1.0]
    assert [r[2] for r in rows] == [s["F"][0][0][1] for s in doc["samples"]]


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


def test_gen_atoms_merges_atoms_at_one_position(tmp_path):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--atoms", "1:1,1:2", "--out-moments", m, "--out-measure", g) == 0
    assert read_json(g)["atoms"] == [{"position": 1.0, "weight": [[[3.0, 0.0]]]}]
    assert read_json(m)["moments"][0] == [[[3.0, 0.0]]]


def test_gen_atoms_skips_empty_parts(tmp_path):
    out = []
    for atoms in ("1:1,2:1", " ,1:1,,2:1, "):
        m, g = tmp_path / "m.json", tmp_path / "g.json"
        assert run("gen", "--atoms", atoms, "--out-moments", m, "--out-measure", g) == 0
        out.append((m.read_bytes(), g.read_bytes()))
    assert out[0] == out[1]


@pytest.mark.parametrize(
    "atoms, message",
    [
        ("1-1", "error: cannot parse atom '1-1' (want pos:weight)"),
        ("1:1:1", "error: cannot parse atom '1:1:1' (want pos:weight)"),
        ("1:x", "error: cannot parse atom '1:x' (want pos:weight)"),
        (" , ", "error: empty atoms specification"),
    ],
)
def test_gen_malformed_atoms_exit_usage(tmp_path, capsys, atoms, message):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--atoms", atoms, "--out-moments", m, "--out-measure", g) == 64
    assert capsys.readouterr().err.strip() == message
    assert not m.exists()


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


@pytest.mark.parametrize("N", [1, 2])
def test_gen_one_atom_writes_moments_every_command_reads(tmp_path, N):
    # the default order is at least 2: S_0..S_2 define the shift
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--count", 1, "--N", N, "--out-moments", m, "--out-measure", g) == 0
    assert len(read_json(m)["moments"]) == 3
    assert run("determinacy", m) == 0
    assert run("solve", m) == 0


def test_gen_default_seed_is_zero_whatever_the_environment(tmp_path, monkeypatch):
    # the seed comes from --seed alone: a variable of the retired override
    # changes nothing
    m1, g1 = tmp_path / "m1.json", tmp_path / "g1.json"
    m2, g2 = tmp_path / "m2.json", tmp_path / "g2.json"
    monkeypatch.setenv("STIELTJES_MP_SEED", "5")
    assert run("gen", "--count", 2, "--N", 2, "--out-moments", m1, "--out-measure", g1) == 0
    monkeypatch.delenv("STIELTJES_MP_SEED")
    assert run(
        "gen", "--count", 2, "--N", 2, "--seed", 0, "--out-moments", m2, "--out-measure", g2
    ) == 0
    assert (m1.read_bytes(), g1.read_bytes()) == (m2.read_bytes(), g2.read_bytes())


# ---------------------------------------------------------------------------
# arguments and paths that must be refused as usage errors


@pytest.fixture
def gen_two_atom(tmp_path):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--atoms", "1:1,2:1", "--out-moments", m, "--out-measure", g) == 0
    return str(m), str(g)


def assert_usage_error(capsys, *args):
    capsys.readouterr()
    assert run(*args) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("error:"), captured.err


def test_verify_upto_past_the_data_exit_usage(gen_two_atom, capsys):
    m, g = gen_two_atom
    assert_usage_error(capsys, "verify", g, m, "--upto", 9)


@pytest.mark.parametrize(
    "extra", [("--N", 0, "--count", 2), ("--count", 3, "--min-sep", 100), ("--count", -1)]
)
def test_gen_impossible_random_measure_exit_usage(tmp_path, capsys, extra):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert_usage_error(capsys, "gen", *extra, "--out-moments", m, "--out-measure", g)
    assert not m.exists()


@pytest.mark.parametrize("extra", [("--N", 3), ("--seed", 1), ("--min-sep", 0.5)])
def test_gen_atoms_refuses_the_random_measure_flags(tmp_path, capsys, extra):
    # --atoms fixes N = 1 and every atom, so it reads none of these flags
    # (--N 3 used to exit 0 and write "N": 1); --count keeps their defaults
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    out = ("--out-moments", m, "--out-measure", g)
    assert_usage_error(capsys, "gen", "--atoms", "1:1,2:1", *extra, *out)
    assert not m.exists()
    assert run("gen", "--count", 3, *out) == 0
    default = m.read_bytes()
    assert read_json(m)["N"] == 1
    assert run("gen", "--count", 3, "--N", 1, "--seed", 0, "--min-sep", 0, *out) == 0
    assert m.read_bytes() == default


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("min_sep", ["-1", "nan", "inf"])
def test_gen_refuses_a_negative_or_non_finite_min_sep(tmp_path, capsys, monkeypatch, count, min_sep):
    # -1 passed every separation test and was ignored (exit 0); it is
    # refused before any atom is drawn, as the tolerance flags are
    import stieltjesmp.cli as cli

    def draw(*args, **kwargs):
        raise AssertionError("an atom was drawn")

    monkeypatch.setattr(cli, "random_discrete_measure", draw)
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    out = ("--out-moments", m, "--out-measure", g)
    assert_usage_error(capsys, "gen", "--count", count, "--min-sep", min_sep, *out)
    assert not m.exists()


def test_gen_negative_order_exit_usage(tmp_path, capsys):
    # --order -1 used to die in moments_of_measure (exit 1); 0 is S_0 alone
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    args = ("--count", 2, "--out-moments", m, "--out-measure", g)
    assert_usage_error(capsys, "gen", "--order", -1, *args)
    assert not m.exists()
    assert run("gen", "--order", 0, *args) == 0
    assert len(read_json(m)["moments"]) == 1


def test_gen_negative_weight_exit_usage(tmp_path, capsys):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert_usage_error(capsys, "gen", "--atoms", "1:-1", "--out-moments", m, "--out-measure", g)
    assert not m.exists()


@pytest.mark.parametrize("atoms", ["1e400:1", "1:inf"])
def test_gen_non_finite_atom_exit_usage(tmp_path, capsys, atoms):
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    assert run("gen", "--atoms", atoms, "--out-moments", m, "--out-measure", g) == 64
    assert "is not finite" in capsys.readouterr().err
    assert not m.exists()


@pytest.mark.parametrize("command", ["solve", "transform"])
@pytest.mark.parametrize("tau", ["bogus", "missing"])
def test_tau_on_determinate_data_exit_usage(tmp_path, capsys, command, tau):
    # the unique solution reads no parameter, so --tau is refused like any
    # flag nothing reads; the file is never opened
    m, g = tmp_path / "m.json", tmp_path / "g.json"
    gen = ("gen", "--atoms", "1:1,2:1", "--order", 5)
    assert run(*gen, "--out-moments", m, "--out-measure", g) == 0
    path = tmp_path / "tau.json"
    if tau == "bogus":
        write(path, {"type": "bogus"})
    extra = ("--z", "1j") if command == "transform" else ()
    assert run(command, m, *extra) == 0
    capsys.readouterr()
    assert run(command, m, "--tau", path, *extra) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "--tau" in captured.err
    # --tau-grid keeps its meaning: the grid of a determinate problem is its
    # unique solution
    if command == "solve":
        assert run("solve", m, "--tau-grid", 3) == 0


def test_solve_tau_grid_zero_exit_usage(gen_two_atom, capsys):
    m, _ = gen_two_atom
    assert_usage_error(capsys, "solve", m, "--tau-grid", 0)


@pytest.mark.parametrize("flag", ["--out", "--cumulative-csv", "--csv", "--out-moments"])
def test_unwritable_output_path_exit_usage(gen_two_atom, tmp_path, capsys, flag):
    m, g = gen_two_atom
    bad = tmp_path / "missing" / "x.json"
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    args = {
        "--out": ("check", m, "--out", bad),
        "--cumulative-csv": ("solve", m, "--cumulative-csv", bad),
        "--csv": ("transform", m, "--tau", tau, "--z", "1j", "--csv", bad),
        "--out-moments": ("gen", "--atoms", "1:1", "--out-moments", bad, "--out-measure", g),
    }[flag]
    assert_usage_error(capsys, *args)


@pytest.mark.parametrize(
    "args",
    [
        ("determinacy", "--psd-tol", "nan"),
        ("determinacy", "--psd-tol", "inf"),
        ("determinacy", "--psd-tol", -1),
        ("check", "--psd-tol", "nan"),
        ("solve", "--rtol", "nan"),
    ],
    ids=[
        "determinacy-psd-tol-nan",
        "determinacy-psd-tol-inf",
        "determinacy-psd-tol-negative",
        "psd-tol-nan",
        "rtol-nan",
    ],
)
def test_non_finite_or_negative_tolerance_exit_usage(gen_two_atom, capsys, args):
    # nan used to pass every comparison (a wrong determinate verdict, or a
    # traceback from non-finite JSON output); a negative rank tolerance exited 70
    m, _ = gen_two_atom
    assert_usage_error(capsys, args[0], m, *args[1:])


NEGATIVE_ATOM = {
    "N": 1,
    "atoms": [
        {"position": -1.0, "weight": [[[1.0, 0.0]]]},
        {"position": 2.0, "weight": [[[1.0, 0.0]]]},
    ],
}


@pytest.mark.parametrize("command", ["check", "determinacy", "solve", "transform", "verify"])
def test_non_hermitian_moments_exit_usage(tmp_path, capsys, command):
    # malformed input, as a non-Hermitian measure weight or tau matrix is;
    # every command exited 70 ("numeric failure") on it
    m = write(tmp_path / "m.json", {
        "N": 2, "moments": [[[1, 0.5], [0.4, 1]], [[1, 0], [0, 1]], [[2, 0], [0, 2]]],
    })
    g = write(tmp_path / "g.json", {
        "N": 2, "atoms": [{"position": 1.0, "weight": [[1, 0], [0, 1]]}],
    })
    args = {"transform": (m, "--z", "1j"), "verify": (g, m)}.get(command, (m,))
    capsys.readouterr()
    assert run(command, *args) == 64
    assert capsys.readouterr().err.startswith(
        "error: moment 0 deviates from Hermitian symmetry by 1.000e-01"
    )


def test_verify_negative_position_exit_usage(two_atom_file, tmp_path, capsys):
    g = write(tmp_path / "g.json", NEGATIVE_ATOM)
    assert_usage_error(capsys, "verify", g, two_atom_file)


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 1, "atoms": 5},
        {"N": 1, "atoms": None},
        {"N": True, "atoms": []},
        {"N": 1, "atoms": [{"position": 1, "weight": [[-1]]}]},
        {"N": 2, "atoms": [{"position": 1, "weight": [[[1, 1], 0], [0, 1]]}]},
    ],
    ids=[
        "verify-atoms-number",
        "verify-atoms-null",
        "verify-N-bool",
        "verify-weight-not-psd",
        "verify-weight-not-hermitian",
    ],
)
def test_malformed_measure_exit_usage(two_atom_file, tmp_path, capsys, doc):
    # the first three used to die with a TypeError traceback (exit 1); a
    # negative weight was an ordinary round-trip failure (exit 2), and the
    # non-Hermitian one (diagonal 1 + 1j) passed as its Hermitian part (exit 0)
    g = write(tmp_path / "g.json", doc)
    m = two_atom_file
    if doc["N"] == 2:
        m = write(tmp_path / "m2.json", {"N": 2, "moments": [np.eye(2).tolist()] * 3})
    assert_usage_error(capsys, "verify", g, m)


def test_emitted_measures_pass_verify(two_atom_file, tmp_path, capsys):
    # every measure solve emits is read back by the strict measure parser
    tau = write(
        tmp_path / "tau.json",
        {"type": "rational", "tau0": [[-1.0]], "poles": [{"p": 1.5, "W": [[0.5]]}]},
    )
    for args in (("--tau-grid", 3), ("--tau", tau)):
        capsys.readouterr()
        assert run("solve", two_atom_file, *args) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["status"] for r in results] == ["ok"] * len(results)
        for res in results:
            g = write(tmp_path / "g.json", res["measure"])
            assert run("verify", g, two_atom_file) == 0


def test_retired_invert_command_exit_usage(gen_two_atom):
    _, g = gen_two_atom
    assert run("invert", "--from-measure", g) == 64


def test_verify_block_size_mismatch_exit_usage(gen_two_atom, tmp_path, capsys):
    _, g = gen_two_atom
    m2, g2 = tmp_path / "m2.json", tmp_path / "g2.json"
    assert run(
        "gen", "--count", 2, "--N", 2, "--seed", 1, "--out-moments", m2,
        "--out-measure", g2,
    ) == 0
    assert_usage_error(capsys, "verify", g, m2)


def test_unread_tolerance_flag_exit_usage(two_atom_file, tmp_path):
    # check reads only --psd-tol; a flag nothing reads is refused, not ignored.
    # --rank-tol is gone: --psd-tol makes every rank decision; so are
    # --consistency-tol and --det-tol: the shift residual and the gap norm are
    # decided at constants
    assert run("check", two_atom_file, "--rank-tol", 1e-6) == 64
    tau = write(tmp_path / "tau.json", {"type": "constant", "matrix": [[-1.0]]})
    transform = ("transform", "--tau", tau, "--z", "1j")
    for command, *rest in (("determinacy",), transform, ("solve",)):
        assert run(command, two_atom_file, *rest) == 0
        for flag in ("--rank-tol", "--consistency-tol", "--det-tol"):
            assert run(command, two_atom_file, *rest, flag, 1e-6) == 64
    assert run("verify", two_atom_file, two_atom_file, "--det-tol", 1e-6) == 64


@pytest.mark.parametrize("moments", [[1.0], [1.0, 2.0]], ids=["S0", "S0-S1"])
@pytest.mark.parametrize("command", ["determinacy", "solve", "transform"])
def test_too_short_for_the_shift_exit_usage(tmp_path, capsys, moments, command):
    # the shift needs S_2: data that stop at S_0 or S_1 are too short for the
    # command, a usage error (they exited 70, "numeric failure"); check only
    # reads the Hankels and still decides them
    m = write(tmp_path / "m.json", {"N": 1, "moments": [[[v]] for v in moments]})
    assert run("check", m) == 0
    args = ("--z", "1j") if command == "transform" else ()
    capsys.readouterr()
    assert run(command, m, *args) == 64
    assert capsys.readouterr().err == "error: need moments through S_2 to define the shift\n"
