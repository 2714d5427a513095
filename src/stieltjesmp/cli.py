"""Batch command-line interface.

Subcommands::

    check        solvability report from a moments file
    determinacy  full pipeline through the determinacy decision
    solve        solution measures (unique, parameter grid, or given tau)
    transform    sampled matrix Stieltjes transform for a parameter
    invert       Stieltjes-Perron inversion of a transform
    gen          deterministic test data (moments + ground-truth measure)
    verify       moment round-trip check of a measure against moments

Exit codes: 0 success, 2 negative mathematical verdict, 3 marginal verdict,
4 inconsistent truncation, 64 usage or schema error, 70 internal numeric
failure.  JSON output is deterministic (sorted keys, 17 significant digits);
complex numbers serialize as ``[re, im]`` and matrices as row-major nested
arrays.  The environment variable ``STIELTJES_MP_SEED`` overrides the default
seed of ``gen``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import io
from .errors import (
    InconsistentTruncation,
    MomentProblemError,
    NotStieltjesClass,
    SchemaError,
)
from .extensions import transform_from_contraction
from .hankel import check_solvable, load_moments
from .krein import make_tau, solution_transform
from .pipeline import Tolerances, analyze, solve_tau_grid, solve_with_tau, unique_solution
from .solutions import (
    moments_of_measure,
    perron_invert,
    random_discrete_measure,
    solution_measure,
    transform_of_measure,
    verify_moments,
)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_MARGINAL = 3
EXIT_INCONSISTENT = 4
EXIT_USAGE = 64
EXIT_NUMERIC = 70


def _jsonable(obj):
    """Recursively convert domain values into wire-encodable structures."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return io.encode_matrix(obj)
    if isinstance(obj, complex):
        return io.encode_complex(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _output(doc, out_path):
    text = io.dumps_canonical(_jsonable(doc))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_moments(path):
    return load_moments(io.read_json(path))


def _parse_list(text, conv, what):
    """Comma-separated values through ``conv``; a bad or empty list is a
    schema error."""
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(conv(part))
        except ValueError as exc:
            raise SchemaError(f"cannot parse {what} value {part!r}") from exc
    if not vals:
        raise SchemaError(f"empty {what} list")
    return tuple(vals)


def _tols_from_args(args):
    """Tolerances from the flags given (zero included); defaults elsewhere."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Tolerances)}
    return Tolerances(**{k: v for k, v in given.items() if v is not None})


def _gen_seed(args):
    """``--seed``, else ``STIELTJES_MP_SEED``, else 0."""
    if args.seed is not None:
        return args.seed
    env_seed = os.environ.get("STIELTJES_MP_SEED") or "0"
    try:
        return int(env_seed)
    except ValueError as exc:
        raise SchemaError(
            f"STIELTJES_MP_SEED must be an integer, got {env_seed!r}"
        ) from exc


def _moments_sampler(args):
    """``(N, sampler, tau_doc)`` for the transform of the moments' solution.

    The solution is the unique one when the problem is determinate and the
    one attached to the ``--tau`` parameter otherwise.
    """
    seq = _read_moments(args.moments)
    analysis = analyze(seq, args.tols)
    N, rep = seq.N, analysis.rep
    if analysis.verdict.determinate:
        t_mu = analysis.picture.t_mu
        return N, lambda z: transform_from_contraction(t_mu, rep, N, z), {"type": "unique"}
    if args.tau is None:
        raise SchemaError("indeterminate problem: provide --tau")
    tau_doc = io.read_json(args.tau)
    tau = make_tau(tau_doc, require_class=True)
    gw = analysis.require_gamma_weyl()
    return N, lambda z: solution_transform(gw, tau, rep, N, z), tau_doc


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
    defect = analysis.extended.defect_dim if analysis.extended else 0
    doc = analysis.verdict.to_dict()
    doc.update(
        {
            "solvability": analysis.solvability.verdict,
            "space_dim": analysis.rep.dim,
            "shift_residual": analysis.shift.consistency_residual,
            "deficiency_index": analysis.picture.defect_dim,
            "regularized_defect_dim": defect,
        }
    )
    if analysis.gamma_weyl_error:
        doc["gamma_weyl_error"] = analysis.gamma_weyl_error
    _output(doc, args.out)
    return EXIT_OK


def _measure_entry(entry):
    doc = {
        "status": "ok",
        "exact": entry["exact"],
        "verification": _jsonable(entry["verification"]),
        "measure": io.measure_to_dict(entry["measure"]),
    }
    if "s" in entry:
        doc["s"] = entry["s"]
    if entry.get("tau_constant") is not None:
        doc["tau_constant"] = io.encode_matrix(entry["tau_constant"])
    return doc


def cmd_solve(args):
    tau_grid = 3 if args.tau is None and args.tau_grid is None else args.tau_grid
    seq = _read_moments(args.moments)
    analysis = analyze(seq, args.tols)
    results = []
    if analysis.verdict.determinate:
        entry = unique_solution(analysis, args.tols)
        entry_doc = _measure_entry(entry)
        entry_doc["tau"] = {"type": "unique"}
        results.append(entry_doc)
    elif tau_grid is not None:
        for entry in solve_tau_grid(analysis, tau_grid, args.tols):
            doc = _measure_entry(entry)
            doc["tau"] = {"type": "constant-grid"}
            results.append(doc)
    else:
        tau_doc = io.read_json(args.tau)
        try:
            tau = make_tau(tau_doc, require_class=not args.allow_unverified)
            entry = solve_with_tau(analysis, tau, args.tols)
            doc = _measure_entry(entry)
            doc["tau"] = tau_doc
            results.append(doc)
        except SchemaError:
            raise
        except MomentProblemError as exc:
            results.append(
                {
                    "status": "error",
                    "tau": tau_doc,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            )

    emitted = []
    for rdoc in results:
        if rdoc.get("status") != "ok":
            emitted.append(rdoc)
            continue
        if rdoc["verification"]["pass"] or args.allow_unverified:
            emitted.append(rdoc)
        else:
            emitted.append(
                {
                    "status": "error",
                    "tau": rdoc.get("tau"),
                    "error": {
                        "type": "RoundTripGate",
                        "message": (
                            "measure fails the moment round trip"
                            + (
                                " (mass at infinity)"
                                if rdoc["verification"].get("has_mass_at_infinity")
                                else ""
                            )
                        ),
                        "verification": rdoc["verification"],
                    },
                }
            )
    doc = {
        "N": seq.N,
        "determinate": analysis.verdict.determinate,
        "results": emitted,
    }
    _output(doc, args.out)
    if args.cumulative_csv:
        idx = 0
        for rdoc in emitted:
            if rdoc.get("status") != "ok":
                continue
            meas = io.measure_from_dict(rdoc["measure"])
            top = float(meas.positions.max()) if meas.atoms else 1.0
            grid = np.linspace(-0.25, top + 1.0, 201)
            io.write_cumulative_csv(f"{args.cumulative_csv}{idx}.csv", meas, grid)
            idx += 1
    if any(r.get("status") == "ok" for r in emitted):
        return EXIT_OK
    return EXIT_NUMERIC


def cmd_transform(args):
    z_points = _parse_list(args.z, complex, "z")
    N, sampler, tau_doc = _moments_sampler(args)
    samples = [(z, sampler(z)) for z in z_points]
    doc = io.transform_samples_to_dict(N, samples)
    doc["tau"] = tau_doc
    _output(doc, args.out)
    if args.csv:
        xs = [z.real for z, _ in samples]
        io.write_scan_csv(
            args.csv, xs, float(np.mean([z.imag for z, _ in samples])), [F for _, F in samples]
        )
    return EXIT_OK


def cmd_invert(args):
    eps = _parse_list(args.eps, float, "eps")
    if args.from_measure:
        meas = io.measure_from_dict(io.read_json(args.from_measure))

        def sampler(z):
            return transform_of_measure(meas, z)

    else:
        _, sampler, _ = _moments_sampler(args)
    meas_out = perron_invert(
        sampler,
        grid=(args.lo, args.hi),
        eps_schedule=eps,
        atom_tol=args.atom_tol,
        n_grid=args.grid_points,
    )
    doc = io.measure_to_dict(meas_out)
    doc["approximate"] = True
    _output(doc, args.out)
    if args.scan_csv:
        xs = np.linspace(args.lo, args.hi, args.grid_points)
        vals = [sampler(x + 1j * eps[-1]) for x in xs]
        io.write_scan_csv(args.scan_csv, xs, eps[-1], vals)
    return EXIT_OK


def _parse_atoms_spec(text):
    atoms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            pos, weight = part.split(":")
            atoms.append((float(pos), np.array([[float(weight)]], dtype=complex)))
        except ValueError as exc:
            raise SchemaError(f"cannot parse atom {part!r} (want pos:weight)") from exc
    if not atoms:
        raise SchemaError("empty atoms specification")
    return atoms


def cmd_gen(args):
    if args.atoms:
        meas = solution_measure(1, _parse_atoms_spec(args.atoms))
        count = len(meas.atoms)
    else:
        count = args.count
        meas = random_discrete_measure(
            _gen_seed(args), args.N, count, min_sep=args.min_sep
        )
    order = args.order if args.order is not None else max(2 * count - 1, 1)
    seq = moments_of_measure(meas, order)
    io.write_json(args.out_moments, io.moments_to_dict(seq))
    io.write_json(args.out_measure, io.measure_to_dict(meas))
    return EXIT_OK


def cmd_verify(args):
    meas = io.measure_from_dict(io.read_json(args.measure))
    seq = _read_moments(args.moments)
    report = verify_moments(meas, seq, upto=args.upto, rtol=args.tols.rtol)
    _output(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_NEGATIVE


COMMANDS = {
    "check": cmd_check,
    "determinacy": cmd_determinacy,
    "solve": cmd_solve,
    "transform": cmd_transform,
    "invert": cmd_invert,
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

    def add_tols(sp):
        sp.add_argument("--psd-tol", type=float, default=None)
        sp.add_argument("--rank-tol", type=float, default=None)
        sp.add_argument("--consistency-tol", type=float, default=None)
        sp.add_argument("--det-tol", type=float, default=None)
        sp.add_argument("--rtol", type=float, default=None)
        sp.add_argument("--out", default=None, help="write JSON here (default stdout)")

    sp = sub.add_parser("check", help="solvability report")
    sp.add_argument("moments")
    add_tols(sp)

    sp = sub.add_parser("determinacy", help="determinacy verdict")
    sp.add_argument("moments")
    add_tols(sp)

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
    add_tols(sp)

    sp = sub.add_parser("transform", help="sampled Stieltjes transform")
    sp.add_argument("moments")
    sp.add_argument("--tau", default=None)
    sp.add_argument("--z", required=True, help="comma-separated complex points")
    sp.add_argument("--csv", default=None, help="also write a CSV of the samples")
    add_tols(sp)

    sp = sub.add_parser("invert", help="Stieltjes-Perron inversion")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-measure", default=None, help="measure JSON file")
    src.add_argument("--moments", default=None)
    sp.add_argument("--tau", default=None)
    sp.add_argument("--lo", type=float, default=-0.5)
    sp.add_argument("--hi", type=float, default=10.5)
    sp.add_argument("--grid-points", type=int, default=2001)
    sp.add_argument("--eps", default="1e-2,1e-3,1e-4")
    sp.add_argument("--atom-tol", type=float, default=1e-3)
    sp.add_argument("--scan-csv", default=None)
    add_tols(sp)

    sp = sub.add_parser("gen", help="deterministic test data")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--atoms", default=None, help='e.g. "1:1,2:1" (N = 1)')
    src.add_argument("--count", type=int, default=None, help="random atoms")
    sp.add_argument("--N", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--min-sep", type=float, default=0.0)
    sp.add_argument("--out-moments", required=True)
    sp.add_argument("--out-measure", required=True)

    sp = sub.add_parser("verify", help="moment round trip of a measure")
    sp.add_argument("measure")
    sp.add_argument("moments")
    sp.add_argument("--upto", type=int, default=None)
    add_tols(sp)

    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0

    args.tols = _tols_from_args(args)
    try:
        return COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistentTruncation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NotStieltjesClass as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MomentProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
