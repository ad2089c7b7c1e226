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
from .errors import ParseError
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
    out = {"d1": s.space.d1, "d2": s.space.d2}
    out.update(matrix_to_json(s.rho))
    return out


def state_from_json(obj, where: str = "state") -> BipartiteState:
    d1 = _field(obj, "d1", where)
    d2 = _field(obj, "d2", where)
    if type(d1) is not int or type(d2) is not int or d1 < 1 or d2 < 1:
        raise ParseError(f"{where}: fields 'd1'/'d2' must be positive integers")
    rho = matrix_from_json(obj, where)
    return BipartiteState(BipartiteSpace(d1, d2), rho)


def map_to_json(alpha: PositiveMapSpec) -> dict:
    return {"d": alpha.d, "choi": matrix_to_json(alpha.choi), "name": alpha.name}


def map_from_json(obj, where: str = "map") -> PositiveMapSpec:
    d = _field(obj, "d", where)
    if type(d) is not int or d < 1:
        raise ParseError(f"{where}: field 'd' must be a positive integer")
    choi = matrix_from_json(_field(obj, "choi", where), f"{where}.choi")
    return PositiveMapSpec(d, choi, str(obj.get("name", "")))


def ensemble_to_json(e: Ensemble) -> dict:
    members = [state_to_json(BipartiteState(e.space, m)) for m in e.members]
    return {"weights": list(map(float, e.weights)), "members": members}


def ensemble_from_json(obj, where: str = "ensemble") -> Ensemble:
    weights = _field(obj, "weights", where)
    members_json = _field(obj, "members", where)
    if not isinstance(weights, list) or not isinstance(members_json, list):
        raise ParseError(f"{where}: 'weights' and 'members' must be lists")
    if not members_json:
        raise ParseError(f"{where}: 'members' must be non-empty")
    states = [state_from_json(m, f"{where}.members[{i}]") for i, m in enumerate(members_json)]
    space = states[0].space
    for i, s in enumerate(states):
        if s.space != space:
            raise ParseError(f"{where}.members[{i}]: inconsistent factor dimensions")
    if not all(_finite_number(x) for x in weights):
        raise ParseError(f"{where}: 'weights' must be finite numbers")
    w = np.asarray(weights, dtype=float)
    bary = sum(wi * s.rho for wi, s in zip(w, states))
    return Ensemble(space, w, tuple(s.rho for s in states), BipartiteState(space, bary))
