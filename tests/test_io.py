import numpy as np
import pytest

from stieltjesmp._linalg import min_eigh
from stieltjesmp.errors import SchemaError
from stieltjesmp.io import (
    dumps_canonical,
    measure_from_dict,
    measure_to_dict,
    parse_hermitian,
    read_json,
)


def test_canonical_json_encodes_complex_numbers_and_arrays():
    doc = {"z": 1.5 - 2j, "M": np.array([[1, 0.5j], [-0.5j, 2]])}
    assert dumps_canonical(doc) == '{"M":[[[1,0],[0,0.5]],[[0,-0.5],[2,0]]],"z":[1.5,-2]}\n'


def test_measure_document_carries_a_mass_at_infinity():
    doc = {
        "N": 1,
        "atoms": [{"position": 1.0, "weight": [[[2.0, 0.0]]]}],
        "mass_at_infinity": [[[0.5, 0.0]]],
    }
    meas = measure_from_dict(doc)
    assert meas.mass_at_infinity.tolist() == [[0.5 + 0j]]
    assert measure_to_dict(meas) == doc


def test_smallest_eigenvalue_of_an_empty_matrix_is_zero():
    assert min_eigh(np.zeros((0, 0))) == 0.0


def _unreadable(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    return read_json(path)


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda tmp: parse_hermitian([[1, 2]], "weight"), SchemaError, "weight: must be square"),
        (lambda tmp: dumps_canonical([float("nan")]), ValueError,
         "non-finite float in JSON output"),
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
