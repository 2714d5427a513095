"""Wire formats: JSON documents and CSV exports.

Conventions (shared by every file this package reads or writes):

* complex numbers serialize as two-element arrays ``[re, im]``; bare JSON
  numbers are accepted on input and mean ``re + 0j``;
* matrices are row-major nested arrays, every one read by :func:`parse_matrix`;
* emitted JSON is deterministic: keys sorted, and every float (in CSV too)
  written as the shortest string that reads back to the same double.
"""

from __future__ import annotations

import json
import math
from itertools import chain

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

#: relative asymmetry (and, where asked, negativity) tolerated on an input
#: matrix, against its largest entry (at least 1)
HERMITIAN_TOL = 1e-12


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


def _pair_array(obj, shape):
    """The matrix of a nested array of ``[re, im]`` pairs, read at once, or
    ``None`` for any other, which :func:`parse_matrix` reads entry by entry.
    It takes only exact lists and tuples of the expected lengths (``shape``,
    or the row count and the first row's length) and exact ints and floats,
    finite and within the float range: what the loop reads, to equal values."""
    level = [obj]
    for width in (*(shape or (len(obj), None)), 2):
        if set(map(type, level)) - {list, tuple}:
            return None
        if set(map(len, level)) != {len(level[0]) if width is None else width}:
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) - {int, float}:
        return None
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return arr.view(complex).reshape(len(obj), -1) if np.isfinite(arr).all() else None


def parse_matrix(obj, shape=None, where="matrix"):
    """Parse a row-major nested array of wire complex numbers, at once when
    every entry is an ``[re, im]`` pair (:func:`_pair_array`).

    When the expected ``shape`` is given it disambiguates width-1 rows: a row
    ``[re, im]`` of a one-column matrix is a single complex entry, not two
    bare reals.
    """
    M = _read_matrix(obj, shape, where)
    if shape is not None and M.shape != shape:
        raise SchemaError(f"{where}: expected shape {shape}, got {M.shape}")
    return M


def _read_matrix(obj, shape, where):
    """:func:`parse_matrix` before its shape check."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise SchemaError(f"{where}: expected a non-empty nested array")
    M = _pair_array(obj, shape)
    if M is not None:
        return M
    want_width = shape[1] if shape is not None else None
    rows = []
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
        if rows and len(parsed) != len(rows[0]):
            raise SchemaError(f"{where}: ragged rows")
        rows.append(parsed)
    return np.array(rows, dtype=complex)


def parse_hermitian(obj, where, psd=False, shape=None):
    """Parse a square matrix that must be Hermitian, and with ``psd`` also
    positive semi-definite, both within ``HERMITIAN_TOL``; returns its
    Hermitian part.  Without an expected ``shape`` it is read at its square
    shape, the row count by the row count, so a one-row ``[[re, im]]`` is the
    ``1 x 1`` matrix ``re + i im``, as in a moments document."""
    n = len(obj) if isinstance(obj, (list, tuple)) else None
    M = parse_matrix(obj, shape, where) if shape else _read_matrix(obj, (n, n), where)
    if M.shape[0] != M.shape[1]:
        raise SchemaError(f"{where}: must be square")
    scale = max(1.0, float(np.abs(M).max()))
    if asymmetry(M) > HERMITIAN_TOL * scale:
        raise SchemaError(f"{where}: not Hermitian within tolerance")
    M = herm(M)
    if psd and min_eigh(M) < -HERMITIAN_TOL * scale:
        raise SchemaError(f"{where}: not positive semi-definite within tolerance")
    return M


def encode_complex(z):
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]  # -0.0 + 0.0 is 0.0


def encode_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[encode_complex(v) for v in row] for row in M]


# ---------------------------------------------------------------------------
# deterministic text

def _fmt_float(x):
    """A CSV value: the shortest string that reads back to ``x``, as JSON
    writes it, with -0.0 written as 0.0."""
    if not math.isfinite(x):
        raise ValueError("non-finite float in CSV output")
    return float.__repr__(x + 0.0)


def _plain(obj):
    """The JSON form of a value ``json`` does not know: complex numbers and
    arrays in the wire format, numpy scalars as Python numbers."""
    if isinstance(obj, complex):
        return encode_complex(obj)
    if isinstance(obj, np.ndarray):
        return encode_matrix(obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj):
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_plain) + "\n"


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


def _write_csv(path, head, names, N, rows):
    """A CSV with the ``head`` columns, then ``name[k][j]`` for every entry
    of an ``N x N`` matrix in row-major order and, within an entry, every
    ``name`` in turn; each of ``rows`` lists its values in that order."""
    cols = [f"{name}[{k}][{j}]" for k in range(N) for j in range(N) for name in names]
    lines = [",".join([*head, *cols])]
    lines += [",".join(map(_fmt_float, row)) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_cumulative_csv(path, meas, grid):
    """(lambda, M(lambda)) samples of the cumulative matrix function.

    The cumulative is left-continuous with M(0) = 0: the jump at an atom
    enters only strictly above it.
    """
    def row(lam):
        M = meas.cumulative(lam)
        return [float(lam), *np.stack([M.real, M.imag], axis=-1).ravel().tolist()]

    _write_csv(path, ["lambda"], ["re_M", "im_M"], meas.N, map(row, grid))


def write_scan_csv(path, samples):
    """``(x, eps, Im F(x + i eps))`` rows, one per ``(z, F(z))`` pair, each
    with its own ``x = Re z`` and ``eps = Im z``."""
    N = samples[0][1].shape[0] if samples else 0
    rows = ([z.real, z.imag, *F.imag.ravel().tolist()] for z, F in samples)
    _write_csv(path, ["x", "eps"], ["im_F"], N, rows)
