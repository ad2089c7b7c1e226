import numpy as np
import pytest

from qcorr.bipartite import make_bell, make_werner
from qcorr.errors import ParseError
from qcorr.measures import Ensemble
from qcorr.posmaps import is_unital, reduction_map
from qcorr import serialize

from helpers import werner_third_product_ensemble


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0], [3, -1j]])
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(back, m)


def test_state_roundtrip():
    s = make_werner(0.3)
    back = serialize.state_from_json(serialize.state_to_json(s))
    assert back.space == s.space
    assert np.allclose(back.rho, s.rho, atol=0)


def test_map_roundtrip():
    alpha = reduction_map(3)
    back = serialize.map_from_json(serialize.map_to_json(alpha))
    assert back.d == 3
    assert back.name == "reduction"
    assert is_unital(back)
    assert np.allclose(back.choi, alpha.choi, atol=0)


def test_ensemble_roundtrip():
    e = werner_third_product_ensemble()
    back = serialize.ensemble_from_json(serialize.ensemble_to_json(e))
    assert isinstance(back, Ensemble)
    assert np.allclose(back.weights, e.weights)
    assert np.allclose(back.barycenter.rho, e.barycenter.rho, atol=1e-12)


def test_missing_field_names_offender():
    with pytest.raises(ParseError, match="d1"):
        serialize.state_from_json({"d2": 2, "re": [[1]], "im": [[0]]})
    with pytest.raises(ParseError, match="im"):
        serialize.matrix_from_json({"re": [[1]]})
    with pytest.raises(ParseError, match="weights"):
        serialize.ensemble_from_json({"members": []})


def test_bad_shapes_rejected():
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"re": [[1, 0]], "im": [[0]]})
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"re": "x", "im": "y"})
    with pytest.raises(ParseError):
        serialize.state_from_json({"d1": 0, "d2": 2, "re": [[1]], "im": [[0]]})


def test_load_json_missing_file_names_path(tmp_path):
    with pytest.raises(ParseError, match="nope.json"):
        serialize.load_json(str(tmp_path / "nope.json"))


def test_load_json_invalid_content(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError, match="bad.json"):
        serialize.load_json(str(p))


def test_dump_then_load(tmp_path):
    p = tmp_path / "bell.json"
    serialize.dump_json(str(p), serialize.state_to_json(make_bell()))
    back = serialize.state_from_json(serialize.load_json(str(p)), str(p))
    assert np.allclose(back.rho, make_bell().rho, atol=0)
