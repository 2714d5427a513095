import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stieltjesmp._linalg import herm, min_eigh
from stieltjesmp.errors import SchemaError
from stieltjesmp.io import (
    _fmt_float,
    dumps_canonical,
    measure_from_dict,
    measure_to_dict,
    parse_hermitian,
    read_json,
    write_cumulative_csv,
    write_scan_csv,
)
from stieltjesmp.solutions import SolutionMeasure


def test_canonical_json_encodes_complex_numbers_and_arrays():
    doc = {"z": 1.5 - 2j, "M": np.array([[1, 0.5j], [-0.5j, 2]])}
    want = '{"M":[[[1.0,0.0],[0.0,0.5]],[[0.0,-0.5],[2.0,0.0]]],"z":[1.5,-2.0]}\n'
    assert dumps_canonical(doc) == want


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
#: subnormals, the largest doubles, integral values, -0.0 and 0.1
EDGES = [5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308,
         1.0, -3.0, 2.0 ** 53, 1e22, -0.0, 0.1]
EDGE_DOC = {"floats": EDGES, "z": [complex(x, -x) for x in EDGES],
            "M": np.array([EDGES[:5], EDGES[5:]]) * (1 - 1j), "nested": {"x": [EDGES]}}
ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _arrays():
    rows = st.integers(1, 3).flatmap(
        lambda c: st.lists(st.lists(COMPLEX, min_size=c, max_size=c), min_size=1, max_size=3))
    return rows.map(lambda r: np.array(r, dtype=complex))


def _documents():
    leaves = st.sampled_from(EDGES) | FLOATS | COMPLEX | _arrays()
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)


def _bits(x):
    """``x`` with every float as its type and bit pattern, so that ``==``
    tells -0.0 from 0.0 and 1 from 1.0."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_bits(v) for v in x]
    return x


def _read_back(x):
    """What reading the canonical JSON of ``x`` must give: every float bit
    for bit, but -0.0 in a complex number or an array entry reads 0.0."""
    if isinstance(x, np.ndarray):
        return [[_read_back(complex(v)) for v in row] for row in x]
    if isinstance(x, complex):
        return [v if v else 0.0 for v in (x.real, x.imag)]
    if isinstance(x, dict):
        return {k: _read_back(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_read_back(v) for v in x]
    return x


@ROUND_TRIP
@given(_documents())
@example(EDGE_DOC)
def test_canonical_json_reads_back_every_float_bit_for_bit(doc):
    text = dumps_canonical(doc)
    assert _bits(json.loads(text)) == _bits(_read_back(doc))
    assert dumps_canonical(json.loads(text)) == text


@ROUND_TRIP
@given(st.lists(st.tuples(COMPLEX, COMPLEX), min_size=1, max_size=4))
@example([(complex(x, -x), complex(-x, x)) for x in EDGES])
def test_csv_rows_read_back_every_float_bit_for_bit(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    write_scan_csv(path, [(z, np.array([[F]])) for z, F in points])
    got = [[float(v) for v in row.split(",")] for row in path.read_text().splitlines()[1:]]
    want = [[v if v else 0.0 for v in (z.real, z.imag, F.imag)] for z, F in points]
    assert _bits(got) == _bits(want)


def test_measure_document_carries_a_mass_at_infinity():
    doc = {
        "N": 1,
        "atoms": [{"position": 1.0, "weight": [[[2.0, 0.0]]]}],
        "mass_at_infinity": [[[0.5, 0.0]]],
    }
    meas = measure_from_dict(doc)
    assert meas.mass_at_infinity.tolist() == [[0.5 + 0j]]
    assert measure_to_dict(meas) == doc


def test_measure_document_reads_back_sorted_and_merged():
    # atoms listed out of order, one position twice: the measure keeps its
    # invariant, strictly increasing positions, by summing the repeated weight
    doc = {
        "N": 1,
        "atoms": [
            {"position": 2.0, "weight": [[[0.25, 0.0]]]},
            {"position": 1.0, "weight": [[[1.0, 0.0]]]},
            {"position": 2.0, "weight": [[[0.5, 0.0]]]},
        ],
    }
    meas = measure_from_dict(doc)
    assert tuple(meas.positions) == (1.0, 2.0)
    assert meas.atoms[1][1].tolist() == [[0.75 + 0j]]


def test_smallest_eigenvalue_of_an_empty_matrix_is_zero():
    assert min_eigh(np.zeros((0, 0))) == 0.0


def _unreadable(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    return read_json(path)


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda tmp: parse_hermitian([[1, 2, 3]], "weight"), SchemaError, "weight: must be square"),
        (lambda tmp: dumps_canonical([float("nan")]), ValueError,
         "Out of range float values are not JSON compliant"),
        (lambda tmp: dumps_canonical({"s": {1}}), TypeError, "cannot serialize <class 'set'>"),
        (lambda tmp: read_json(tmp / "missing.json"), SchemaError, "cannot read JSON document"),
        (_unreadable, SchemaError, "cannot read JSON document"),
        (lambda tmp: measure_from_dict({"N": 1}), SchemaError,
         "measure document must have keys 'N' and 'atoms'"),
        (lambda tmp: measure_from_dict({"N": 1, "atoms": [{"position": 1}]}), SchemaError,
         "atom 0 must have 'position' and 'weight'"),
    ],
    ids=["not-square", "non-finite-output", "not-serializable", "missing-file",
         "broken-json", "measure-keys", "atom-keys"],
)
def test_wire_refusals(tmp_path, refused, error, message):
    with pytest.raises(error) as info:
        refused(tmp_path)
    assert str(info.value).startswith(message)


def _loop_csv(head, names, N, rows):
    """The CSV exports written entry by entry, as ``io`` once wrote them."""
    header = list(head)
    for k in range(N):
        for j in range(N):
            header += [f"{name}[{k}][{j}]" for name, _ in names]
    lines = [",".join(header)]
    for values, M in rows:
        row = [_fmt_float(float(v)) for v in values]
        for k in range(N):
            for j in range(N):
                row += [_fmt_float(part(M[k, j])) for _, part in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N", [1, 3])
def test_csv_exports_match_the_entry_loop(tmp_path, N):
    # the shared row formatter writes the bytes the per-entry loops wrote,
    # -0.0 and tiny parts included
    rng = np.random.default_rng(N)
    Ms = [rng.standard_normal((N, N)) * 10.0 ** rng.integers(-20, 20, (N, N))
          + 1j * rng.standard_normal((N, N)) for _ in range(4)]
    Ms[0][0, 0] = complex(-0.0, -0.0)
    meas = SolutionMeasure(N=N, atoms=((0.5, herm(Ms[1] @ Ms[1].conj().T)),
                                       (2.0, herm(Ms[2] @ Ms[2].conj().T))))
    grid = np.linspace(-0.25, 3.0, 7)
    write_cumulative_csv(tmp_path / "cum.csv", meas, grid)
    parts = [("re_M", lambda v: v.real), ("im_M", lambda v: v.imag)]
    rows = [((lam,), meas.cumulative(lam)) for lam in grid]
    assert (tmp_path / "cum.csv").read_text() == _loop_csv(["lambda"], parts, N, rows)
    samples = [(complex(x, 10.0 ** -k), M) for k, (x, M) in enumerate(zip((-1.0, 0.5, 2.0, 3.0), Ms))]
    write_scan_csv(tmp_path / "scan.csv", samples)
    rows = [((z.real, z.imag), F) for z, F in samples]
    want = _loop_csv(["x", "eps"], [("im_F", lambda v: v.imag)], N, rows)
    assert (tmp_path / "scan.csv").read_text() == want
    assert want.count("\n") == 5
