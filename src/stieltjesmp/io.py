"""Wire formats: JSON documents and CSV exports.

Conventions (shared by every file this package reads or writes):

* complex numbers serialize as two-element arrays ``[re, im]``; bare JSON
  numbers are accepted on input and mean ``re + 0j``;
* matrices are row-major nested arrays;
* emitted JSON is deterministic: keys sorted, floats printed with 17
  significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._linalg import asymmetry, herm, min_eigh
from .errors import SchemaError

__all__ = [
    "parse_complex",
    "parse_matrix",
    "parse_hermitian",
    "encode_complex",
    "encode_matrix",
    "dumps_canonical",
    "read_json",
    "write_text",
    "write_json",
    "measure_to_dict",
    "measure_from_dict",
    "moments_to_dict",
    "transform_samples_to_dict",
    "write_cumulative_csv",
    "write_scan_csv",
]


# ---------------------------------------------------------------------------
# scalars and matrices


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(row):
    return isinstance(row, (list, tuple)) and len(row) == 2 and all(map(_is_real, row))


def parse_complex(obj, where="value"):
    """Parse a wire complex number: [re, im] or a bare real number.  A
    non-finite part, or an integer beyond the float range, is refused."""
    pair = _is_pair(obj)
    if not (pair or _is_real(obj)):
        raise SchemaError(f"{where}: expected a number or [re, im] pair, got {obj!r}")
    try:
        z = complex(*obj) if pair else complex(obj)
    except OverflowError:
        raise SchemaError(f"{where}: an integer beyond the float range") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError(f"{where}: {obj!r} is not a finite number")
    return z


def parse_matrix(obj, shape=None, where="matrix"):
    """Parse a row-major nested array of wire complex numbers.

    When the expected ``shape`` is given it disambiguates width-1 rows: a row
    ``[re, im]`` of a one-column matrix is a single complex entry, not two
    bare reals.
    """
    if not isinstance(obj, (list, tuple)) or not obj:
        raise SchemaError(f"{where}: expected a non-empty nested array")
    want_width = shape[1] if shape is not None else None
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or not row:
            raise SchemaError(f"{where}: row {i} is not a non-empty array")
        if want_width == 1 and _is_pair(row):
            parsed = [parse_complex(row, where=f"{where}[{i}]")]
        else:
            parsed = [
                parse_complex(v, where=f"{where}[{i}][{j}]")
                for j, v in enumerate(row)
            ]
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise SchemaError(f"{where}: ragged rows")
        rows.append(parsed)
    M = np.array(rows, dtype=complex)
    if shape is not None and M.shape != shape:
        raise SchemaError(f"{where}: expected shape {shape}, got {M.shape}")
    return M


def parse_hermitian(obj, where, psd=False, shape=None):
    """Parse a square matrix that must be Hermitian, and with ``psd`` also
    positive semi-definite, both within ``1e-12`` of its largest entry (at
    least 1); returns its Hermitian part."""
    M = parse_matrix(obj, shape=shape, where=where)
    if M.shape[0] != M.shape[1]:
        raise SchemaError(f"{where}: must be square")
    scale = max(1.0, float(np.abs(M).max()))
    if asymmetry(M) > 1e-12 * scale:
        raise SchemaError(f"{where}: not Hermitian within tolerance")
    M = herm(M)
    if psd and min_eigh(M) < -1e-12 * scale:
        raise SchemaError(f"{where}: not positive semi-definite within tolerance")
    return M


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[encode_complex(v) for v in row] for row in M]


# ---------------------------------------------------------------------------
# deterministic JSON text

def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in JSON output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _emit(obj, out):
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, v in enumerate(obj):
            if k:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, complex):
        _emit(encode_complex(obj), out)
    elif isinstance(obj, np.ndarray):
        _emit(encode_matrix(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj):
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out = []
    _emit(obj, out)
    return "".join(out) + "\n"


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read JSON document {path}: {exc}") from exc


def write_text(path, text):
    """Write ``text`` to ``path``; an unwritable path is a schema error, like
    an unreadable input document."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj):
    write_text(path, dumps_canonical(obj))


# ---------------------------------------------------------------------------
# document builders (dict <-> domain objects; imports deferred to avoid cycles)


def moments_to_dict(seq):
    return {"N": int(seq.N), "moments": [encode_matrix(S) for S in seq.moments]}


def measure_to_dict(meas):
    doc = {
        "N": int(meas.N),
        "atoms": [
            {"position": float(lam), "weight": encode_matrix(W)}
            for lam, W in meas.atoms
        ],
    }
    if meas.mass_at_infinity is not None:
        doc["mass_at_infinity"] = encode_matrix(meas.mass_at_infinity)
    return doc


def measure_from_dict(doc):
    from .solutions import SolutionMeasure

    if not isinstance(doc, dict) or "N" not in doc or "atoms" not in doc:
        raise SchemaError("measure document must have keys 'N' and 'atoms'")
    N = doc["N"]
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise SchemaError("measure 'N' must be a positive integer")
    if not isinstance(doc["atoms"], list):
        raise SchemaError("measure 'atoms' must be an array")
    atoms = []
    for i, a in enumerate(doc["atoms"]):
        if not isinstance(a, dict) or "position" not in a or "weight" not in a:
            raise SchemaError(f"atom {i} must have 'position' and 'weight'")
        lam = a["position"]
        if not _is_real(lam) or parse_complex(lam, f"atom {i} position").real < 0:
            raise SchemaError(f"atom {i}: position must be a non-negative real number")
        W = parse_hermitian(a["weight"], f"atom {i} weight", psd=True, shape=(N, N))
        atoms.append((float(lam), W))
    inf = None
    if doc.get("mass_at_infinity") is not None:
        inf = parse_hermitian(
            doc["mass_at_infinity"], "mass_at_infinity", psd=True, shape=(N, N)
        )
    return SolutionMeasure(N=N, atoms=tuple(atoms), mass_at_infinity=inf)


def transform_samples_to_dict(N, samples):
    """Document of sampled transform values, given as ``(z, F(z))`` pairs."""
    return {
        "N": int(N),
        "samples": [{"z": encode_complex(z), "F": encode_matrix(F)} for z, F in samples],
    }


# ---------------------------------------------------------------------------
# CSV exports


def write_cumulative_csv(path, meas, grid):
    """(lambda, M(lambda)) samples of the cumulative matrix function.

    The cumulative is left-continuous with M(0) = 0: the jump at an atom
    enters only strictly above it.
    """
    N = meas.N
    header = ["lambda"]
    for k in range(N):
        for j in range(N):
            header += [f"re_M[{k}][{j}]", f"im_M[{k}][{j}]"]
    lines = [",".join(header)]
    for lam in grid:
        M = meas.cumulative(lam)
        row = [_fmt_float(float(lam))]
        for k in range(N):
            for j in range(N):
                row += [_fmt_float(M[k, j].real), _fmt_float(M[k, j].imag)]
        lines.append(",".join(row))
    write_text(path, "\n".join(lines) + "\n")


def write_scan_csv(path, samples):
    """``(x, eps, Im F(x + i eps))`` rows, one per ``(z, F(z))`` pair, each
    with its own ``x = Re z`` and ``eps = Im z``."""
    N = samples[0][1].shape[0] if samples else 0
    header = ["x", "eps"]
    for k in range(N):
        for j in range(N):
            header.append(f"im_F[{k}][{j}]")
    lines = [",".join(header)]
    for z, V in samples:
        row = [_fmt_float(z.real), _fmt_float(z.imag)]
        for k in range(N):
            for j in range(N):
                row.append(_fmt_float(V[k, j].imag))
        lines.append(",".join(row))
    write_text(path, "\n".join(lines) + "\n")
