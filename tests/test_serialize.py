import numpy as np
import pytest

import qcorr.bipartite
import qcorr.measures
from qcorr.bipartite import BipartiteSpace, BipartiteState, make_bell, make_werner
from qcorr.errors import InvalidDensityMatrix, ParseError
from qcorr.measures import Ensemble
from qcorr.posmaps import reduction_map
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
    assert back.unital
    assert np.allclose(back.choi, alpha.choi, atol=0)


def test_ensemble_roundtrip():
    e = werner_third_product_ensemble()
    back = serialize.ensemble_from_json(serialize.ensemble_to_json(e))
    assert isinstance(back, Ensemble)
    assert np.allclose(back.weights, e.weights)
    assert np.allclose(back.barycenter.rho, e.barycenter.rho, atol=1e-12)


def _basis_ensemble() -> Ensemble:
    """The maximally mixed 2x2 state as four computational-basis members."""
    space = BipartiteSpace(2, 2)
    members = tuple(np.diag(np.eye(4)[k]).astype(complex) for k in range(4))
    return Ensemble(space, np.full(4, 0.25), members, BipartiteState(space, np.eye(4) / 4))


def _count_validations(monkeypatch) -> list:
    calls = []
    orig = qcorr.bipartite.validate_density

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for module in (qcorr.bipartite, qcorr.measures):
        monkeypatch.setattr(module, "validate_density", counted)
    return calls


def test_ensemble_members_validated_once(monkeypatch):
    # writing validates nothing; reading validates the member stack in one
    # call (in Ensemble), then the barycenter formed from it, and the written
    # JSON keeps the state format
    e = _basis_ensemble()
    as_states = [serialize.state_to_json(BipartiteState(e.space, m)) for m in e.members]
    calls = _count_validations(monkeypatch)
    obj = serialize.ensemble_to_json(e)
    assert len(calls) == 0
    assert obj["members"] == as_states
    back = serialize.ensemble_from_json(obj)
    assert [np.ndim(args[0]) for args in calls] == [3, 2]
    assert all(np.array_equal(a, b) for a, b in zip(back.members, e.members))


def test_invalid_ensemble_member_named_by_index():
    obj = serialize.ensemble_to_json(_basis_ensemble())
    # Hermitian, unit trace, eigenvalue -0.01; the mixture stays a state
    obj["members"][2].update(serialize.matrix_to_json(np.diag([0, 0, 1.01, -0.01])))
    with pytest.raises(InvalidDensityMatrix, match="member 2 min eigenvalue"):
        serialize.ensemble_from_json(obj)
    obj["members"][1].update(serialize.matrix_to_json(np.eye(2) / 2))
    with pytest.raises(InvalidDensityMatrix, match=r"members\[1\] has shape \(2, 2\)"):
        serialize.ensemble_from_json(obj)


def test_bad_member_named_before_its_barycenter():
    # with one member the barycenter is that member; the member stack is
    # checked first, so the message names the member, not the mixture
    obj = {"weights": [1.0], "members": [{"d1": 2, "d2": 2, **serialize.matrix_to_json(
        np.diag([0.51, 0.25, 0.25, -0.01]))}]}
    with pytest.raises(InvalidDensityMatrix, match="member 0 min eigenvalue") as info:
        serialize.ensemble_from_json(obj)
    assert info.value.exit_code == 3


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
