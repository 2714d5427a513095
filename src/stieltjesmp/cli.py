"""Batch command-line interface.

Subcommands::

    check        solvability report from a moments file
    determinacy  full pipeline through the determinacy decision
    solve        solution measures (unique, parameter grid, or given tau)
    transform    sampled matrix Stieltjes transform for a parameter
    gen          deterministic test data (moments + ground-truth measure)
    verify       moment round-trip check of a measure against moments

Exit codes: 0 success, 2 negative mathematical verdict, 3 marginal verdict,
4 inconsistent truncation, 64 usage or schema error (an unread flag,
non-Hermitian moments and data too short for the command included), 70
internal numeric failure.  JSON output is deterministic (sorted keys, every
float the shortest string that reads back to the same double); complex
numbers serialize as ``[re, im]`` and matrices as row-major nested arrays.
``gen --count`` draws from ``--seed``, else 0.  ``transform`` evaluates
Krein's formula for every problem: a determinate one through the ideal
parameter on its trivial-defect boundary data.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import io
from .errors import InconsistentTruncation, MomentProblemError, NotHermitian
from .errors import OrderTooLow, SchemaError
from .hankel import check_solvable, load_moments
from .krein import build_gamma_weyl, make_tau, solution_transform
from .pipeline import Tolerances, analyze, solve_tau_grid, solve_with_tau, unique_solution
from .solutions import (
    moments_of_measure,
    random_discrete_measure,
    solution_measure,
    verify_moments,
)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_MARGINAL = 3
EXIT_INCONSISTENT = 4
EXIT_USAGE = 64
EXIT_NUMERIC = 70


def _output(doc, out_path):
    text = io.dumps_canonical(doc)
    if out_path:
        io.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _check(ok, message):
    """Refuse a bad command-line argument as a usage error."""
    if not ok:
        raise SchemaError(message)


def _read_moments(path):
    return load_moments(io.read_json(path))


def _parse_list(text, conv, what):
    """Comma-separated values through ``conv``; a bad, non-finite or empty
    list is a schema error."""
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(conv(part))
        except ValueError as exc:
            raise SchemaError(f"cannot parse {what} value {part!r}") from exc
        _check(np.isfinite(vals[-1]), f"{what} value {part!r} is not finite")
    if not vals:
        raise SchemaError(f"empty {what} list")
    return tuple(vals)


def _tols_from_args(args):
    """Tolerances from the flags given (zero included); defaults elsewhere.
    A given value must be finite and non-negative."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Tolerances)}
    given = {k: v for k, v in given.items() if v is not None}
    for name, value in given.items():
        flag = "--" + name.replace("_", "-")
        _check(np.isfinite(value) and value >= 0.0, f"{flag} must be finite and non-negative")
    return Tolerances(**given)


# ---------------------------------------------------------------------------
# commands


def cmd_check(args):
    seq = _read_moments(args.moments)
    report = check_solvable(seq, psd_tol=args.tols.psd_tol)
    _output(report.to_dict(), args.out)
    if report.verdict == "not solvable":
        return EXIT_NEGATIVE
    if report.verdict == "marginal":
        return EXIT_MARGINAL
    return EXIT_OK


def cmd_determinacy(args):
    seq = _read_moments(args.moments)
    analysis = analyze(seq, args.tols)
    doc = dict(analysis.verdict.to_dict(), solvability=analysis.solvability.verdict,
               space_dim=analysis.rep.dim, shift_residual=analysis.shift.consistency_residual)
    _output(doc, args.out)
    return EXIT_OK


def _result(entry, tau_doc, allow_unverified):
    """Result document of one measure; one that fails the round-trip gate
    becomes an error entry unless ``allow_unverified`` is set."""
    rep = entry["verification"]
    if not (rep["pass"] or allow_unverified):
        inf = " (mass at infinity)" if rep.get("has_mass_at_infinity") else ""
        message = "measure fails the moment round trip" + inf
        return _error(tau_doc, "RoundTripGate", message, verification=rep)
    doc = {
        "status": "ok",
        "exact": entry["exact"],
        "verification": rep,
        "measure": io.measure_to_dict(entry["measure"]),
        "tau": tau_doc,
    }
    if "s" in entry:
        doc["s"] = entry["s"]
    if entry.get("tau_constant") is not None:
        doc["tau_constant"] = entry["tau_constant"]
    return doc


def _error(tau_doc, kind, message, **extra):
    error = {"type": kind, "message": message, **extra}
    return {"status": "error", "tau": tau_doc, "error": error}


def cmd_solve(args):
    tau_grid = 3 if args.tau is None and args.tau_grid is None else args.tau_grid
    _check(tau_grid is None or tau_grid >= 1, "--tau-grid must be at least 1")
    seq = _read_moments(args.moments)
    analysis = analyze(seq, args.tols)
    allow = args.allow_unverified
    error = None
    if analysis.verdict.determinate:
        entries, tau_doc = [unique_solution(analysis)], {"type": "unique"}
        _check(args.tau is None, "determinate problem: --tau is not read")
    elif tau_grid is not None:
        entries = solve_tau_grid(analysis, tau_grid)
        tau_doc = {"type": "constant-grid"}
    else:
        tau_doc = io.read_json(args.tau)
        try:
            tau = make_tau(tau_doc, require_class=not allow)
            entries = [solve_with_tau(analysis, tau)]
        except SchemaError:
            raise
        except MomentProblemError as exc:
            entries, error = [], _error(tau_doc, type(exc).__name__, str(exc))
    results = [_result(e, tau_doc, allow) for e in entries] if error is None else [error]
    doc = {
        "N": seq.N,
        "determinate": analysis.verdict.determinate,
        "results": results,
    }
    _output(doc, args.out)
    ok = [e["measure"] for e, r in zip(entries, results) if r["status"] == "ok"]
    if args.cumulative_csv:
        for idx, meas in enumerate(ok):
            top = float(meas.positions.max()) if meas.atoms else 1.0
            grid = np.linspace(-0.25, top + 1.0, 201)
            io.write_cumulative_csv(f"{args.cumulative_csv}{idx}.csv", meas, grid)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_transform(args):
    """Transform of the solution attached to the ``--tau`` parameter, or of
    the unique solution of a determinate problem (which refuses ``--tau``):
    the ideal parameter on its ``q = 0`` boundary data."""
    z_points = _parse_list(args.z, complex, "z")
    seq = _read_moments(args.moments)
    analysis = analyze(seq, args.tols)
    N, rep = seq.N, analysis.rep
    if analysis.verdict.determinate:
        _check(args.tau is None, "determinate problem: --tau is not read")
        tau_doc, tau = {"type": "unique"}, make_tau({"type": "infinite"})
        gw = build_gamma_weyl(analysis.picture, rep)
    else:
        _check(args.tau is not None, "indeterminate problem: provide --tau")
        tau_doc = io.read_json(args.tau)
        tau, gw = make_tau(tau_doc, require_class=True), analysis.require_gamma_weyl()
    samples = [(z, solution_transform(gw, tau, rep, N, z)) for z in z_points]
    doc = io.transform_samples_to_dict(N, samples)
    doc["tau"] = tau_doc
    _output(doc, args.out)
    if args.csv:
        io.write_scan_csv(args.csv, samples)
    return EXIT_OK


def _parse_atoms_spec(text):
    atoms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pos, weight = (float(v) for v in part.split(":"))
        except ValueError as exc:
            raise SchemaError(f"cannot parse atom {part!r} (want pos:weight)") from exc
        _check(np.isfinite([pos, weight]).all(), f"atom {part!r} is not finite")
        _check(pos >= 0.0 and weight >= 0.0, f"atom {part!r} is negative")
        atoms.append((pos, np.array([[weight]], dtype=complex)))
    if not atoms:
        raise SchemaError("empty atoms specification")
    return atoms


def cmd_gen(args):
    if args.atoms:
        given = (args.N, args.seed, args.min_sep) != (None, None, None)
        _check(not given, "--atoms takes no --N, --seed or --min-sep")
        meas = solution_measure(1, _parse_atoms_spec(args.atoms))
        count = len(meas.atoms)
    else:
        N = 1 if args.N is None else args.N
        count, min_sep = args.count, args.min_sep or 0.0
        _check(N >= 1 and count >= 1, "--N and --count must be at least 1")
        _check(np.isfinite(min_sep) and min_sep >= 0, "--min-sep must be finite and non-negative")
        try:
            meas = random_discrete_measure(args.seed or 0, N, count, min_sep=min_sep)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    order = args.order if args.order is not None else max(2 * count - 1, 2)
    _check(order >= 0, "--order must be at least 0")
    seq = moments_of_measure(meas, order)
    io.write_json(args.out_moments, io.moments_to_dict(seq))
    io.write_json(args.out_measure, io.measure_to_dict(meas))
    return EXIT_OK


def cmd_verify(args):
    meas = io.measure_from_dict(io.read_json(args.measure))
    seq = _read_moments(args.moments)
    try:
        report = verify_moments(meas, seq, upto=args.upto, rtol=args.tols.rtol)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _output(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


COMMANDS = {
    "check": cmd_check,
    "determinacy": cmd_determinacy,
    "solve": cmd_solve,
    "transform": cmd_transform,
    "gen": cmd_gen,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    p = argparse.ArgumentParser(
        prog="stieltjesmp",
        description="Truncated matrix Stieltjes moment problem toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each command takes only the tolerance flags it reads
    def add_tols(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, type=float, default=None)
        sp.add_argument("--out", default=None, help="write JSON here (default stdout)")

    sp = sub.add_parser("check", help="solvability report")
    sp.add_argument("moments")
    add_tols(sp, "--psd-tol")

    sp = sub.add_parser("determinacy", help="determinacy verdict")
    sp.add_argument("moments")
    add_tols(sp, "--psd-tol")

    sp = sub.add_parser("solve", help="solution measures")
    sp.add_argument("moments")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--tau", default=None, help="parameter JSON file")
    g.add_argument(
        "--tau-grid",
        type=int,
        default=None,
        metavar="K",
        help="K canonical solutions spanning the extension segment",
    )
    sp.add_argument(
        "--allow-unverified",
        action="store_true",
        help="emit measures even when the round-trip gate fails",
    )
    sp.add_argument(
        "--cumulative-csv",
        default=None,
        metavar="PREFIX",
        help="write (lambda, M(lambda)) CSV per emitted measure as PREFIX<i>.csv",
    )
    add_tols(sp, "--psd-tol", "--rtol")

    sp = sub.add_parser("transform", help="sampled Stieltjes transform")
    sp.add_argument("moments")
    sp.add_argument("--tau", default=None)
    sp.add_argument("--z", required=True, help="comma-separated complex points")
    sp.add_argument("--csv", default=None, help="also write a CSV of the samples")
    add_tols(sp, "--psd-tol")

    sp = sub.add_parser("gen", help="deterministic test data")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--atoms", help='e.g. "1:1,2:1" (N = 1; no --N, --seed or --min-sep)')
    src.add_argument("--count", type=int, default=None, help="random atoms")
    sp.add_argument("--N", type=int, default=None, help="with --count (default 1)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--min-sep", type=float, default=None, help="with --count (default 0)")
    sp.add_argument("--out-moments", required=True)
    sp.add_argument("--out-measure", required=True)

    sp = sub.add_parser("verify", help="moment round trip of a measure")
    sp.add_argument("measure")
    sp.add_argument("moments")
    sp.add_argument("--upto", type=int, default=None)
    add_tols(sp, "--rtol")

    return p


def main(argv=None):
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads "-1+1j" as a flag
        if argv[i] == "--z" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--z={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        args.tols = _tols_from_args(args)
        return COMMANDS[args.command](args)
    except MomentProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (SchemaError, OrderTooLow, NotHermitian)):
            return EXIT_USAGE
        return EXIT_INCONSISTENT if isinstance(exc, InconsistentTruncation) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
