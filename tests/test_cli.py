import json

import numpy as np
import pytest

from qcorr.bipartite import make_bell, make_product, make_werner
from qcorr import cli, errors, serialize
from qcorr.cli import main
from qcorr.posmaps import transpose_map

from helpers import random_density, singlet_proj, werner_third_product_ensemble


@pytest.fixture
def bell_path(tmp_path):
    p = tmp_path / "bell.json"
    serialize.dump_json(str(p), serialize.state_to_json(make_bell()))
    return str(p)


@pytest.fixture
def proj_path(tmp_path):
    p = tmp_path / "proj.json"
    serialize.dump_json(str(p), serialize.matrix_to_json(singlet_proj()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_d0_bell(capsys, bell_path, proj_path):
    code, out, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "4", "--max-iters", "300")
    assert code == 0
    value = float(out.splitlines()[0].split(": ")[1])
    assert abs(value - 0.75) <= 1e-6


def test_d0_product_state(tmp_path, capsys):
    rng = np.random.default_rng(0)
    s = make_product(random_density(2, rng), random_density(2, rng))
    sp = tmp_path / "prod.json"
    serialize.dump_json(str(sp), serialize.state_to_json(s))
    a = tmp_path / "a.json"
    h = rng.standard_normal((4, 4))
    serialize.dump_json(str(a), serialize.matrix_to_json((h + h.T) / 2))
    code, out, _ = run(capsys, "d0", str(sp), str(a), "--starts", "2", "--max-iters", "200")
    assert code == 0
    assert float(out.splitlines()[0].split(": ")[1]) <= 1e-9


def test_d0_dump_ensemble_then_boxtimes(tmp_path, capsys, bell_path, proj_path):
    dump = tmp_path / "ens.json"
    code, _, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "2", "--max-iters", "100",
                     "--dump-ensemble", str(dump))
    assert code == 0
    code, out, _ = run(capsys, "boxtimes", str(dump), proj_path)
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert abs(float(lines["barycenter_term"]) - 1.0) <= 1e-9
    assert abs(float(lines["boxtimes_term"]) - 0.25) <= 1e-9


def test_boxtimes_of_known_ensemble(tmp_path, capsys, proj_path):
    ens = tmp_path / "wt.json"
    serialize.dump_json(str(ens), serialize.ensemble_to_json(werner_third_product_ensemble()))
    code, out, _ = run(capsys, "boxtimes", str(ens), proj_path)
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert abs(float(lines["gap"])) <= 1e-9


def test_boxtimes_non_psd_member_exits_3_naming_it(tmp_path, capsys, proj_path):
    obj = serialize.ensemble_to_json(werner_third_product_ensemble())
    # Hermitian, unit trace, eigenvalue -0.01; the mixture stays a state
    obj["members"][3].update(serialize.matrix_to_json(np.diag([0.51, 0.25, 0.25, -0.01])))
    ens = tmp_path / "bad.json"
    serialize.dump_json(str(ens), obj)
    code, out, err = run(capsys, "boxtimes", str(ens), proj_path)
    assert code == 3
    assert out == ""
    assert "member 3" in err


def test_d_command(tmp_path, capsys, bell_path):
    za = tmp_path / "sz.json"
    serialize.dump_json(str(za), serialize.matrix_to_json(np.diag([1.0, -1.0])))
    code, out, _ = run(capsys, "d", bell_path, str(za), str(za), "--starts", "2", "--max-iters", "200")
    assert code == 0
    assert abs(float(out.splitlines()[0].split(": ")[1]) - 1.0) <= 1e-6


def test_verdict_json(tmp_path, capsys):
    mixed = tmp_path / "mixed.json"
    serialize.dump_json(str(mixed), serialize.state_to_json(
        make_werner(0.0)))
    code, out, _ = run(capsys, "verdict", str(mixed), "--n-observables", "2",
                       "--starts", "2", "--max-iters", "200", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Separable"
    assert data["max_d0"] <= 1e-4
    witness = serialize.matrix_from_json(data["witness"])
    assert witness.shape == (4, 4)


def test_ppt_werner(tmp_path, capsys):
    w = tmp_path / "w05.json"
    serialize.dump_json(str(w), serialize.state_to_json(make_werner(0.5)))
    code, out, _ = run(capsys, "ppt", str(w))
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert abs(float(lines["ppt_min_eig"]) - (-0.125)) <= 1e-10
    assert lines["psd"] == "no"


def test_gns_verify_pass(capsys, tmp_path):
    rho = tmp_path / "rho.json"
    serialize.dump_json(str(rho), serialize.matrix_to_json(np.diag([0.75, 0.25])))
    code, out, _ = run(capsys, "gns-verify", "transpose", str(rho))
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert lines["verdict"] == "PASS"
    assert float(lines["v_norm"]) <= 1.41422
    code, out, _ = run(capsys, "gns-verify", "identity", "random:2:3", "--single")
    assert code == 0
    assert "PASS" in out


def test_gns_verify_nonpositive_map_exits_4(tmp_path, capsys):
    # unital but non-positive map stored as JSON
    from qcorr.posmaps import map_from_function
    sharp = map_from_function(2, lambda x: 2 * x - np.trace(x) * np.eye(2) / 2, "sharpen")
    mp = tmp_path / "sharp.json"
    serialize.dump_json(str(mp), serialize.map_to_json(sharp))
    rho = tmp_path / "rho.json"
    serialize.dump_json(str(rho), serialize.matrix_to_json(np.diag([0.95, 0.05])))
    code, _, err = run(capsys, "gns-verify", str(mp), str(rho))
    assert code == 4
    assert "not positive" in err or "not a state" in err


def test_kadison_command(capsys):
    code, out, _ = run(capsys, "kadison", "transpose", "-d", "2", "--samples", "50", "--seed", "0")
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert float(lines["min_defect"]) >= -1e-10


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_kadison_nonpositive_samples_exit_3(capsys, samples, fmt):
    code, out, err = run(capsys, "kadison", "transpose", "-d", "2", "--samples", samples,
                         "--format", fmt)
    assert code == 3
    assert out == ""
    assert "samples" in err


def test_werner_sweep_small(capsys):
    code, out, _ = run(capsys, "werner-sweep", "--p-min", "0.0", "--p-max", "0.2",
                       "--steps", "3", "--starts", "2", "--max-iters", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,d0_witness,ppt_min_eig,verdict"
    assert len(lines) == 4
    for line in lines[1:]:
        p, d0, ppt, verdict = line.split(",")
        assert abs(float(ppt) - (1 - 3 * float(p)) / 4) <= 1e-10
        assert verdict == "Separable"
    assert "\r" not in out


def test_exit_code_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "ppt", str(bad))
    assert code == 2
    assert "broken.json" in err


def test_exit_code_2_on_missing_field(tmp_path, capsys, proj_path):
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"d1": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "d0", str(incomplete), proj_path)
    assert code == 2
    assert "d2" in err


def test_exit_code_3_on_dimension_mismatch(tmp_path, capsys, bell_path):
    small = tmp_path / "small.json"
    serialize.dump_json(str(small), serialize.matrix_to_json(np.eye(2)))
    code, _, _ = run(capsys, "d0", bell_path, str(small), "--starts", "1", "--max-iters", "10")
    assert code == 3


def test_exit_code_3_on_bad_range(capsys):
    code, _, _ = run(capsys, "werner-sweep", "--p-min", "0.5", "--p-max", "0.2", "--steps", "3")
    assert code == 3


# The exit code README documents for each error class: 2 input parse error,
# 3 domain/range error, 4 construction failure (any other qcorr error).
DOCUMENTED_EXIT = {
    "ParseError": 2,
    "DomainError": 3, "InvalidMatrix": 3, "NotHermitian": 3, "NotPSD": 3,
    "DimensionMismatch": 3, "OutOfRange": 3, "InvalidDensityMatrix": 3,
    "RankTooSmall": 3, "BadPartition": 3, "ConfigInvalid": 3,
    "QcorrError": 4, "ConvergenceFailure": 4, "MapNotUnital": 4, "WellDefinednessFailure": 4,
}
ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, errors.QcorrError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_documented_code(monkeypatch, capsys, cls):
    # a class missing from DOCUMENTED_EXIT fails here until its code is documented
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_ppt", fail)
    code, out, err = run(capsys, "ppt", "state.json")
    assert code == DOCUMENTED_EXIT[cls.__name__]
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["boxtimes", "{ensemble}", "{observable_3x3}"],
    ["kadison", "transpose", "-d", "-1"],
    ["kadison", "depolarizing:0.5", "-d", "-1"],
    ["gns-verify", "transpose", "random:-2:1"],
    ["verdict", "{state}", "--n-observables", "-3", "--starts", "1", "--max-iters", "10"],
], ids=["boxtimes-3x3-observable", "kadison-transpose-d-1", "kadison-depolarizing-d-1",
        "gns-verify-random-d-2", "verdict-negative-probes"])
def test_malformed_arguments_exit_3(tmp_path, capsys, argv):
    # negative sizes and a mis-shaped observable are domain errors, reported on stderr
    paths = {"ensemble": tmp_path / "ens.json", "observable_3x3": tmp_path / "obs.json",
             "state": tmp_path / "state.json"}
    serialize.dump_json(str(paths["ensemble"]),
                        serialize.ensemble_to_json(werner_third_product_ensemble()))
    serialize.dump_json(str(paths["observable_3x3"]), serialize.matrix_to_json(np.eye(3)))
    serialize.dump_json(str(paths["state"]), serialize.state_to_json(make_werner(0.2)))
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv,kind,edit", [
    (["boxtimes", "{path}", "{observable}"], "ensemble", {"weights": ["a"] + [1 / 6] * 5}),
    (["boxtimes", "{path}", "{observable}"], "ensemble", {"weights": [None] + [1 / 6] * 5}),
    (["boxtimes", "{path}", "{observable}"], "ensemble", {"weights": [float("nan")] + [1 / 6] * 5}),
    (["ppt", "{path}"], "state", {"d1": True}),
    (["boxtimes", "{path}", "{observable}"], "ensemble-member", {"d2": True}),
    (["kadison", "{path}"], "map", {"d": True}),
    (["ppt", "{path}"], "state", {"d1": 1, "d2": 1, "re": [["1"]], "im": [[0]]}),
    (["ppt", "{path}"], "state", {"d1": 1, "d2": 1, "re": [[1]], "im": [[False]]}),
    (["ppt", "{path}"], "state", {"d1": 1, "d2": 1, "re": [[10 ** 400]], "im": [[0]]}),
    (["ppt", "{path}"], "state", {"d1": 1, "d2": 1, "re": [[float("inf")]], "im": [[0]]}),
], ids=["boxtimes-string-weight", "boxtimes-null-weight", "boxtimes-nan-weight", "ppt-bool-d1",
        "boxtimes-bool-member-d2", "kadison-bool-map-d", "ppt-string-entry", "ppt-bool-entry",
        "ppt-huge-int-entry", "ppt-infinite-entry"])
def test_malformed_json_exit_2(tmp_path, capsys, argv, kind, edit):
    # non-numeric or non-finite weights and matrix entries and boolean dimensions
    # are parse errors, reported on stderr
    obj = {"ensemble": serialize.ensemble_to_json(werner_third_product_ensemble()),
           "ensemble-member": serialize.ensemble_to_json(werner_third_product_ensemble()),
           "state": serialize.state_to_json(make_werner(0.2)),
           "map": serialize.map_to_json(transpose_map(2))}[kind]
    (obj["members"][0] if kind == "ensemble-member" else obj).update(edit)
    paths = {"path": tmp_path / "input.json", "observable": tmp_path / "obs.json"}
    serialize.dump_json(str(paths["path"]), obj)
    serialize.dump_json(str(paths["observable"]), serialize.matrix_to_json(singlet_proj()))
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"d1": "\xff"}')
    code, out, err = run(capsys, "ppt", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "input.json" in err


def test_determinism_byte_identical(capsys, bell_path, proj_path):
    args = ["d0", bell_path, proj_path, "--starts", "3", "--max-iters", "150", "--seed", "11"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ["werner-sweep", "--p-min", "0.0", "--p-max", "0.3", "--steps", "3",
            "--starts", "2", "--max-iters", "150", "--seed", "5"]
    _, s1, _ = run(capsys, *args)
    _, s2, _ = run(capsys, *args)
    assert s1 == s2


def test_env_seed_fallback(monkeypatch, capsys, bell_path, proj_path):
    monkeypatch.setenv("QCORR_SEED", "17")
    _, out_env, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "2", "--max-iters", "150")
    _, out_explicit, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "2",
                             "--max-iters", "150", "--seed", "17")
    assert out_env == out_explicit
    # explicit flag wins over the environment
    monkeypatch.setenv("QCORR_SEED", "not-an-int")
    code, _, _ = run(capsys, "d0", bell_path, proj_path, "--seed", "3",
                     "--starts", "2", "--max-iters", "150")
    assert code == 0
    code, _, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "2", "--max-iters", "150")
    assert code == 2


def test_json_format_output(capsys, bell_path, proj_path):
    code, out, _ = run(capsys, "d0", bell_path, proj_path, "--starts", "2",
                       "--max-iters", "150", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 0.75) <= 1e-6
    assert set(data) == {"value", "starts_used", "ensemble"}
    assert set(data["ensemble"]) == {"weights", "members"}
    # witness ensemble round-trips and matches the reported value
    ens = serialize.ensemble_from_json(data["ensemble"])
    from qcorr.correlation import d0_objective
    assert abs(d0_objective(ens, singlet_proj()) - data["value"]) <= 1e-9
