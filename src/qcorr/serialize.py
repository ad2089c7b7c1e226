"""JSON formats for states, observables, maps and ensembles.

All matrices are encoded as separate row-major real/imaginary parts:
{"re": [[...]], "im": [[...]]}. States add factor dimensions {"d1", "d2"};
maps are {"d", "choi", "name"}; ensembles are {"weights", "members"} with
state-encoded members.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .bipartite import BipartiteSpace, BipartiteState
from .errors import InvalidDensityMatrix, ParseError
from .measures import Ensemble
from .posmaps import PositiveMapSpec


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read ({exc})") from exc


def dump_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _field(obj, key, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{where}: missing field '{key}'")
    return obj[key]


def _finite_number(x) -> bool:
    """A JSON int or float, not a bool, of finite double value."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    re = np.asarray(_field(obj, "re", where), dtype=object)
    im = np.asarray(_field(obj, "im", where), dtype=object)
    if not all(_finite_number(x) for x in (*re.flat, *im.flat)):
        raise ParseError(f"{where}: fields 're'/'im' must be arrays of finite numbers")
    if re.ndim != 2 or re.shape != im.shape:
        raise ParseError(f"{where}: 're' and 'im' must be equal-shape 2-D arrays")
    return re.astype(float) + 1j * im.astype(float)


def state_to_json(s: BipartiteState) -> dict:
    return {"d1": s.space.d1, "d2": s.space.d2, **matrix_to_json(s.rho)}


def state_from_json(obj, where: str = "state") -> BipartiteState:
    return BipartiteState(_space(obj, where), matrix_from_json(obj, where))


def _space(obj, where: str) -> BipartiteSpace:
    """Declared factor dimensions of a state."""
    d1 = _field(obj, "d1", where)
    d2 = _field(obj, "d2", where)
    if type(d1) is not int or type(d2) is not int or d1 < 1 or d2 < 1:
        raise ParseError(f"{where}: fields 'd1'/'d2' must be positive integers")
    return BipartiteSpace(d1, d2)


def _member(obj, where: str, space: BipartiteSpace) -> np.ndarray:
    """The unvalidated matrix of an ensemble member on the ensemble's space."""
    if _space(obj, where) != space:
        raise ParseError(f"{where}: inconsistent factor dimensions")
    m = matrix_from_json(obj, where)
    if m.shape != (space.dim, space.dim):
        raise InvalidDensityMatrix(f"{where} has shape {m.shape}, expected ({space.dim}, {space.dim})")
    return m


def map_to_json(alpha: PositiveMapSpec) -> dict:
    return {"d": alpha.d, "choi": matrix_to_json(alpha.choi), "name": alpha.name}


def map_from_json(obj, where: str = "map") -> PositiveMapSpec:
    d = _field(obj, "d", where)
    if type(d) is not int or d < 1:
        raise ParseError(f"{where}: field 'd' must be a positive integer")
    choi = matrix_from_json(_field(obj, "choi", where), f"{where}.choi")
    return PositiveMapSpec(d, choi, str(obj.get("name", "")))


def ensemble_to_json(e: Ensemble) -> dict:
    members = [{"d1": e.space.d1, "d2": e.space.d2, "re": re, "im": im}
               for re, im in zip(e.members.real.tolist(), e.members.imag.tolist())]
    return {"weights": list(map(float, e.weights)), "members": members}


def ensemble_from_json(obj, where: str = "ensemble") -> Ensemble:
    """Members are parsed into one stack, which ``Ensemble`` validates once
    before it forms their barycenter."""
    weights = _field(obj, "weights", where)
    members_json = _field(obj, "members", where)
    if not isinstance(weights, list) or not isinstance(members_json, list):
        raise ParseError(f"{where}: 'weights' and 'members' must be lists")
    if not members_json:
        raise ParseError(f"{where}: 'members' must be non-empty")
    space = _space(members_json[0], f"{where}.members[0]")
    members = np.stack([_member(m, f"{where}.members[{i}]", space) for i, m in enumerate(members_json)])
    if not all(_finite_number(x) for x in weights):
        raise ParseError(f"{where}: 'weights' must be finite numbers")
    return Ensemble(space, np.asarray(weights, dtype=float), members)
