"""Byte census of the command line across two source trees.

Runs the same CLI invocations against two ``src`` trees and prints every
invocation whose stdout, stderr, exit code or written files differ, then a
summary.  The inputs are seeded ``gen`` data (``N`` in 1, 2, 4), the README
examples, and ``tau`` documents written in every matrix form the wire format
has (``[[[re, im]]]`` pairs and, for ``1 x 1`` matrices, ``[[re, im]]`` rows);
the commands are ``gen``, ``check``, ``determinacy``, ``solve`` (grid,
constant and rational ``tau``, ``--cumulative-csv``), ``transform``
(``--csv``) and ``verify``.

Usage, comparing the parent commit with the working tree::

    git archive HEAD~1 src | tar -x -C /tmp/parent
    python3 tools/cli_census.py /tmp/parent/src src [--seeds 3]

Each tree runs in one worker process (``OPENBLAS_NUM_THREADS=1``), which
calls ``stieltjesmp.cli.main`` once per invocation in a fresh directory
holding that invocation's input files.  The inputs of the commands after
``gen`` are the first tree's ``gen`` outputs, so both trees read the same
bytes.  Where two JSON or CSV outputs differ only in their numbers, the
largest relative change of one matrix or CSV row is printed with them.
The summary counts apart the invocations that differ in spelling only
(``same values``): the same exit code, and every differing channel reads
its numbers with a largest relative change of 0, as ``1`` and ``1.0`` do.
The exit code is 1 when any invocation differs, spelling included, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

Z = "1j,-0.5,2+1e-3j,-1+0.5j"
SAME_VALUES = "numbers only, largest relative change 0.00e+00"


# ---------------------------------------------------------------------------
# the worker: one tree, many invocations


def _run_case(main, case):
    """``(code, stdout, stderr, written files)`` of one invocation."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case["files"].items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        cwd, env = os.getcwd(), dict(os.environ)
        os.environ.update(case["env"])
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(case["argv"])
        finally:
            os.chdir(cwd)
            os.environ.clear()
            os.environ.update(env)
        written = {}
        for name in sorted(set(os.listdir(tmp)) - set(case["files"])):
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                written[name] = fh.read()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "written": written}


def _worker(src, plan_path, out_path):
    sys.path.insert(0, os.path.abspath(src))
    from stieltjesmp.cli import main

    with open(plan_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump([_run_case(main, case) for case in cases], fh)


def _run_tree(src, cases):
    """Every case's result on the tree at ``src``, from one worker."""
    with tempfile.TemporaryDirectory() as tmp:
        plan, out = os.path.join(tmp, "plan.json"), os.path.join(tmp, "out.json")
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        env = {k: v for k, v in os.environ.items() if k != "STIELTJES_MP_SEED"}
        env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH="")
        subprocess.run([sys.executable, __file__, "--worker", src, plan, out],
                       check=True, env=env)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# the plan


def _case(argv, files=None, env=None):
    return {"argv": [str(a) for a in argv], "files": files or {}, "env": env or {}}


def _gen_cases(seeds):
    """``(label, case)`` of every seeded ``gen`` input, plus the README's."""
    out = [("readme", _case(["gen", "--atoms", "1:1,2:1", "--out-moments", "m.json",
                             "--out-measure", "truth.json"]))]
    for N in (1, 2, 4):
        for seed in range(seeds):
            for count, order in ((1, None), (1, 2), (2, None), (2, 2), (2, 4), (N + 2, 3),
                                 (N + 2, 5)):
                argv = ["gen", "--count", count, "--N", N, "--seed", seed,
                        "--min-sep", 0.05, "--out-moments", "m.json",
                        "--out-measure", "truth.json"]
                if order is not None:
                    argv += ["--order", order]
                out.append((f"N{N}-s{seed}-c{count}-m{order}", _case(argv)))
    return out


def _matrix(q, value, one_row):
    """``value`` times the identity on ``C^q`` in the wire format; with
    ``one_row`` a ``1 x 1`` matrix is written as the row ``[[re, im]]``."""
    if q == 1 and one_row:
        return [[value, 0]]
    return [[[value if i == j else 0, 0] for j in range(q)] for i in range(q)]


def _taus(q):
    """Named ``tau`` documents on ``C^q``: constant and rational, in both
    forms for ``q = 1``, and a mixed one for ``q >= 2``."""
    out = {}
    for one_row in (False, True) if q == 1 else (False,):
        tag = "row" if one_row else "pairs"
        out[f"constant-{tag}"] = {"type": "constant", "matrix": _matrix(q, -1.0, one_row)}
        out[f"rational-{tag}"] = {
            "type": "rational", "tau0": _matrix(q, -1.0, one_row),
            "poles": [{"p": 1.5, "W": _matrix(q, 0.5, one_row)}],
        }
    if q >= 2:
        out["mixed"] = {
            "type": "mixed", "ideal_subspace": [[[1, 0]] + [[0, 0]] * (q - 1)],
            "tau0": _matrix(q - 1, -2.0, False),
            "poles": [{"p": 0.8, "W": _matrix(q - 1, 1.0, False)}],
        }
    return out


def _refused_taus():
    """``tau`` documents every tree must refuse, read on ``C^1`` data."""
    return {
        "not-square": {"type": "constant", "matrix": [[1, 2, 3]]},
        "not-hermitian": {"type": "constant", "matrix": [[[0, 1]]]},
        "residue-sizes": {"type": "rational", "poles": [
            {"p": 1, "W": [[[1, 0]]]}, {"p": 2, "W": _matrix(2, 1.0, False)}]},
        "tau0-size": {"type": "rational", "tau0": [[[-1, 0]]],
                      "poles": [{"p": 1, "W": _matrix(2, 1.0, False)}]},
        "defect-space": {"type": "constant", "matrix": _matrix(2, -1.0, False)},
        "not-stieltjes": {"type": "constant", "matrix": [[[1, 0]]]},
    }


def _command_cases(label, files, q):
    """``(label, case)`` of every command on one input; ``q`` is the defect
    dimension (``None`` when the input was refused)."""
    m = {"m.json": files["m.json"]}
    cases = [
        ("check", _case(["check", "m.json"], m)),
        ("determinacy", _case(["determinacy", "m.json"], m)),
        ("solve-grid", _case(["solve", "m.json"], m)),
        ("solve-grid-csv", _case(["solve", "m.json", "--tau-grid", 2,
                                  "--cumulative-csv", "cum"], m)),
        ("verify", _case(["verify", "truth.json", "m.json"], files)),
        ("verify-upto", _case(["verify", "truth.json", "m.json", "--upto", 1], files)),
    ]
    if q == 0:
        cases.append(("transform", _case(["transform", "m.json", "--z", Z,
                                          "--csv", "scan.csv"], m)))
    taus = _taus(q) if q else {}
    if q == 1:
        taus.update(_refused_taus())
    for name, doc in taus.items():
        with_tau = dict(m, **{"tau.json": json.dumps(doc)})
        cases += [
            (f"solve-{name}", _case(["solve", "m.json", "--tau", "tau.json",
                                     "--cumulative-csv", "cum"], with_tau)),
            (f"transform-{name}", _case(["transform", "m.json", "--tau", "tau.json",
                                         "--z", Z, "--csv", "scan.csv"], with_tau)),
        ]
    return [(f"{label}/{name}", case) for name, case in cases]


def _other_cases():
    """The README's own moments, the retired seed variable, and usage errors."""
    readme = {
        "m.json": json.dumps({"N": 1, "moments": [[[2, 0]], [[3, 0]], [[5, 0]]]}),
        "truth.json": json.dumps({"N": 1, "atoms": [
            {"position": 1.0, "weight": [[[1, 0]]]}, {"position": 2.0, "weight": [[[1, 0]]]}]}),
    }
    m = {"m.json": readme["m.json"]}
    gen = ["gen", "--count", 3, "--N", 2, "--out-moments", "m.json", "--out-measure", "t.json"]
    determinate = dict(readme, **{"m.json": json.dumps(
        {"N": 1, "moments": [[[2, 0]], [[3, 0]], [[5, 0]], [[9, 0]], [[17, 0]]]})})
    cases = _command_cases("readme-moments", readme, 1)
    cases += _command_cases("atoms-1-2", determinate, 0)
    return cases + [
        ("gen-default-seed", _case(gen)),
        ("gen-seed-variable", _case(gen, env={"STIELTJES_MP_SEED": "5"})),
        ("gen-atoms-with-seed", _case(["gen", "--atoms", "1:1", "--seed", 1, "--out-moments",
                                       "m.json", "--out-measure", "t.json"])),
        ("transform-on-axis", _case(["transform", "m.json", "--z", "1j,2.0"], m)),
        ("transform-no-tau", _case(["transform", "m.json", "--z", "1j"], m)),
    ]


# ---------------------------------------------------------------------------
# comparison


def _flatten(x):
    """The numbers of a number or nested list of numbers, else ``None``."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return [x]
    if not isinstance(x, list):
        return None
    parts = [_flatten(v) for v in x]
    return None if None in parts else [n for p in parts for n in p]


def _change(a, b):
    """Largest relative change from ``a`` to ``b``, taken per numeric array
    (a matrix, an ``[re, im]`` pair, a list of numbers) against its largest
    entry, when the two differ only in numbers; else ``None``."""
    fa, fb = _flatten(a), _flatten(b)
    if fa is not None and fb is not None:
        if len(fa) != len(fb):
            return None
        scale = max(map(abs, fa), default=0.0)
        diff = max((abs(x - y) for x, y in zip(fa, fb)), default=0.0)
        return diff / scale if scale else float(diff != 0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = list(zip(a, b))
    else:
        return 0.0 if a == b else None
    parts = [_change(x, y) for x, y in pairs]
    return None if None in parts else max(parts, default=0.0)


def _text_change(a, b):
    """:func:`_change` of two JSON texts, or of two CSV texts row by row
    under the same header; ``None`` for any other text."""
    try:
        return _change(json.loads(a), json.loads(b))
    except ValueError:
        pass
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return None
    try:
        parts = [_change([float(v) for v in x.split(",")], [float(v) for v in y.split(",")])
                 for x, y in zip(rows_a[1:], rows_b[1:])]
    except ValueError:
        return None
    return None if None in parts else max(parts, default=0.0)


def _differences(old, new):
    """``[(channel, detail)]`` of every channel on which two results differ."""
    out = []
    if old["code"] != new["code"]:
        out.append(("exit", f"{old['code']} -> {new['code']}"))
    for channel in ("stdout", "stderr"):
        if old[channel] != new[channel]:
            out.append((channel, _detail(old[channel], new[channel])))
    for name in sorted(old["written"].keys() | new["written"].keys()):
        a, b = old["written"].get(name), new["written"].get(name)
        if a != b:
            detail = "written only by one tree" if a is None or b is None else _detail(a, b)
            out.append((f"file {name}", detail))
    return out


def _detail(a, b):
    """The largest relative change of two texts that differ only in
    numbers, else the start of each."""
    rel = _text_change(a, b)
    if rel is not None:
        return f"numbers only, largest relative change {rel:.2e}"
    return f"{a.strip()[:160]!r} -> {b.strip()[:160]!r}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", help="src directory of the reference tree")
    p.add_argument("new_src", help="src directory of the tree under test")
    p.add_argument("--seeds", type=int, default=3, help="gen seeds per (N, count, order)")
    args = p.parse_args(argv)

    gens = _gen_cases(args.seeds)
    cases = [(f"{label}/gen", case) for label, case in gens]
    results = [_run_tree(src, [c for _, c in cases]) for src in (args.old_src, args.new_src)]
    inputs = [(label, r["written"]) for (label, _), r in zip(gens, results[0])]
    probes = [_case(["determinacy", "m.json"], {"m.json": files["m.json"]})
              for _, files in inputs]
    defect = []
    for r in _run_tree(args.old_src, probes):
        defect.append(json.loads(r["stdout"])["defect_dim"] if r["code"] == 0 else None)
    later = [c for (label, files), q in zip(inputs, defect)
             for c in _command_cases(label, files, q)] + _other_cases()
    cases += later
    for k, src in enumerate((args.old_src, args.new_src)):
        results[k] += _run_tree(src, [c for _, c in later])

    differing = same_values = 0
    for (label, case), old, new in zip(cases, *results):
        diffs = _differences(old, new)
        if diffs:
            differing += 1
            same_values += all(detail == SAME_VALUES for _, detail in diffs)
            print(f"{label}: stieltjesmp {' '.join(case['argv'])}"
                  + "".join(f" [{k}={v}]" for k, v in case["env"].items()))
            for channel, detail in diffs:
                print(f"    {channel}: {detail}")
    exits = {}
    for old, new in zip(*results):
        exits[(old["code"], new["code"])] = exits.get((old["code"], new["code"]), 0) + 1
    print(f"{len(cases)} invocations on {len(inputs)} generated inputs: "
          f"{len(cases) - differing} identical, {same_values} same values, "
          f"{differing - same_values} differ")
    print("exit codes (old -> new: count): " + ", ".join(
        f"{a} -> {b}: {n}" for (a, b), n in sorted(exits.items())))
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
    else:
        sys.exit(main())
