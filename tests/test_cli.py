import argparse
import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qcorr.bipartite import make_bell, make_product, make_werner
from qcorr import cli, errors, gns, serialize
from qcorr.cli import main
from qcorr.posmaps import PPT_ATOL, transpose_map

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


def test_werner_sweep_verdict_is_the_ppt_test(capsys):
    # the verdict reads the certified bound, not d0_witness: with one
    # evaluation per start no row is Inconclusive, and Entangled is exactly
    # NPT, from p = 0.334 on
    code, out, _ = run(capsys, "werner-sweep", "--p-min", "0.3", "--p-max", "0.4", "--steps", "101",
                       "--starts", "1", "--max-iters", "1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 101
    for p, _, ppt, verdict in rows:
        assert verdict == ("Entangled" if float(ppt) < -PPT_ATOL else "Separable"), p
    assert [p for p, *_, verdict in rows if verdict == "Entangled"][0] == "0.334"


def test_verdict_short_search_on_a_separable_state_is_separable(tmp_path, capsys):
    # three evaluations leave d0 upper bounds far from 0 on Werner p = 0.2;
    # they decide nothing: the state is PPT at 2x2, no probe has a bound
    # above 0, and the witness is the identity
    path = tmp_path / "werner.json"
    serialize.dump_json(str(path), serialize.state_to_json(make_werner(0.2)))
    argv = ["verdict", str(path), "--starts", "1", "--max-iters", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == "verdict: Separable"
    _, out, _ = run(capsys, *argv, "--format", "json")
    record = json.loads(out)
    assert record["verdict"] == "Separable" and record["max_d0"] > 1e-3
    assert record["lower"] == 0.0 and all(probe["lower"] == 0.0 for probe in record["probes"])
    assert np.array_equal(serialize.matrix_from_json(record["witness"]), np.eye(4))


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


FAST = ["--starts", "1", "--max-iters", "10"]


@pytest.mark.parametrize("argv,env", [
    (["boxtimes", "{ensemble}", "{observable_3x3}"], {}),
    (["kadison", "transpose", "-d", "-1"], {}),
    (["kadison", "depolarizing:0.5", "-d", "-1"], {}),
    (["gns-verify", "transpose", "random:-2:1"], {}),
    (["verdict", "{state}", "--n-observables", "-3", *FAST], {}),
    (["d0", "{state}", "{observable}", *FAST, "--seed", "-1"], {}),
    (["verdict", "{state}", *FAST, "--seed", "-1"], {}),
    (["werner-sweep", *FAST, "--seed", "-1"], {}),
    (["werner-sweep", *FAST], {"QCORR_SEED": "-3"}),
    (["kadison", "identity", "--seed", "-5"], {}),
    (["gns-verify", "identity", "random:2:-1"], {}),
], ids=["boxtimes-3x3-observable", "kadison-transpose-d-1", "kadison-depolarizing-d-1",
        "gns-verify-random-d-2", "verdict-negative-probes", "d0-negative-seed",
        "verdict-negative-seed", "werner-sweep-negative-seed", "werner-sweep-negative-env-seed",
        "kadison-negative-seed", "gns-verify-random-negative-seed"])
def test_malformed_arguments_exit_3(tmp_path, monkeypatch, capsys, argv, env):
    # negative sizes and seeds and a mis-shaped observable are domain errors,
    # reported on stderr
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    paths = {"ensemble": tmp_path / "ens.json", "observable_3x3": tmp_path / "obs.json",
             "state": tmp_path / "state.json", "observable": tmp_path / "proj.json"}
    serialize.dump_json(str(paths["ensemble"]),
                        serialize.ensemble_to_json(werner_third_product_ensemble()))
    serialize.dump_json(str(paths["observable_3x3"]), serialize.matrix_to_json(np.eye(3)))
    serialize.dump_json(str(paths["state"]), serialize.state_to_json(make_werner(0.2)))
    serialize.dump_json(str(paths["observable"]), serialize.matrix_to_json(singlet_proj()))
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


@pytest.mark.parametrize("spec,code", [
    ("depolarizing0.5", 2), ("depolarizingX", 2), ("bogus", 2), ("depolarizing:", 2),
    ("depolarizing:2", 3), ("depolarizing", 0), ("depolarizing:0.5", 0), ("depolarizing_t.json", 0),
])
def test_map_names_follow_the_strict_grammar(tmp_path, monkeypatch, capsys, spec, code):
    # a builtin name is matched whole; any other name is a JSON path, here a
    # file whose name starts with "depolarizing" but which holds the transpose map
    monkeypatch.chdir(tmp_path)
    serialize.dump_json("depolarizing_t.json", serialize.map_to_json(transpose_map(2)))
    got, out, err = run(capsys, "kadison", spec, "--samples", "2")
    assert got == code
    if code == 2 and ":" not in spec:
        assert "unknown map" in err
    if spec.endswith(".json"):
        assert out.splitlines()[0] == "map: transpose"


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


@pytest.mark.parametrize("command,target", [
    ("d0", "missing-dir"), ("d", "directory"), ("verdict", "missing-dir"), ("verdict", "directory")])
def test_unwritable_output_exits_4(tmp_path, capsys, bell_path, proj_path, command, target):
    # a dump path that cannot be opened for writing is a construction
    # failure: one error line naming the path, nothing on stdout
    path = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path
    sz = tmp_path / "sz.json"
    serialize.dump_json(str(sz), serialize.matrix_to_json(np.diag([1.0, -1.0])))
    argv = {"d0": ["d0", bell_path, proj_path, "--dump-ensemble"],
            "d": ["d", bell_path, str(sz), str(sz), "--dump-ensemble"],
            "verdict": ["verdict", bell_path, "--n-observables", "1", "--dump-witness"]}[command]
    code, out, err = run(capsys, *argv, str(path), *FAST)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


class _Solved(Exception):
    pass


@pytest.mark.parametrize("command", ["d0", "d", "verdict"])
@pytest.mark.parametrize("target", ["missing-dir", "directory", "file-as-dir", "writable"])
def test_dump_path_is_checked_before_the_solve(monkeypatch, tmp_path, capsys, bell_path, proj_path,
                                              command, target):
    # an unwritable dump path fails before any solve starts and creates no
    # file; a writable one reaches the solve, still with no file made
    def solve(*args, **kwargs):
        raise _Solved
    for name in ("minimize_d0", "minimize_d_simple", "separability_verdict"):
        monkeypatch.setattr(cli, name, solve)
    path = {"missing-dir": tmp_path / "missing" / "out.json", "directory": tmp_path,
            "file-as-dir": Path(bell_path) / "out.json", "writable": tmp_path / "out.json"}[target]
    flag = "--dump-witness" if command == "verdict" else "--dump-ensemble"
    argv = {"d0": ["d0", bell_path, proj_path], "d": ["d", bell_path, proj_path, proj_path],
            "verdict": ["verdict", bell_path]}[command]
    before = sorted(tmp_path.rglob("*"))
    if target == "writable":
        with pytest.raises(_Solved):
            main([*argv, flag, str(path)])
    else:
        code, out, err = run(capsys, *argv, flag, str(path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["d0", "d", "verdict", "werner-sweep"])
def test_tol_is_not_an_option(capsys, bell_path, proj_path, command):
    # the search stops at the fixed TOL; asking for another is a usage error
    argv = {"d0": ["d0", bell_path, proj_path], "d": ["d", bell_path, proj_path, proj_path],
            "verdict": ["verdict", bell_path], "werner-sweep": ["werner-sweep"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-3", *FAST])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_readme_lists_the_optimizer_flags():
    # README's "Common optimizer flags" line names exactly the options
    # _add_optimizer_args adds, in order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (line,) = [ln for ln in readme.splitlines() if ln.startswith("Common optimizer flags:")]
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_optimizer_args(parser)
    flags = [opt for action in parser._actions for opt in action.option_strings]
    assert re.findall(r"`(--[\w-]+)`", line) == flags


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
    assert set(data) == {"value", "lower", "starts_used", "ensemble"}
    assert set(data["ensemble"]) == {"weights", "members"}
    # witness ensemble round-trips and matches the reported value
    ens = serialize.ensemble_from_json(data["ensemble"])
    from qcorr.correlation import d0_objective
    assert abs(d0_objective(ens, singlet_proj()) - data["value"]) <= 1e-9


@pytest.fixture
def output_inputs(tmp_path, bell_path, proj_path):
    """The arguments of every record-printing command, on small inputs."""
    werner = tmp_path / "werner.json"
    serialize.dump_json(str(werner), serialize.state_to_json(make_werner(0.5)))
    sz = tmp_path / "sz.json"
    serialize.dump_json(str(sz), serialize.matrix_to_json(np.diag([1.0, -1.0])))
    ens = tmp_path / "ens.json"
    serialize.dump_json(str(ens), serialize.ensemble_to_json(werner_third_product_ensemble()))
    return {"d0": ["d0", bell_path, proj_path, *FAST],
            "d": ["d", bell_path, str(sz), str(sz), *FAST],
            "verdict": ["verdict", str(werner), "--n-observables", "2", *FAST],
            "ppt": ["ppt", str(werner)],
            "boxtimes": ["boxtimes", str(ens), proj_path],
            "gns-verify": ["gns-verify", "transpose", "random:2:3"],
            "kadison": ["kadison", "transpose", "--samples", "3"]}


# Per command: the table keys in order and the JSON record's key set.
OUTPUT_KEYS = {
    "d0": (["value", "lower", "starts_used"], {"value", "lower", "starts_used", "ensemble"}),
    "d": (["value", "lower", "starts_used"], {"value", "lower", "starts_used", "ensemble"}),
    "verdict": (["verdict", "max_d0", "lower", "probe pt-witness", "probe random-0", "probe random-1"],
                {"verdict", "max_d0", "lower", "witness", "probes"}),
    "ppt": (["ppt_min_eig", "psd"], {"ppt_min_eig", "psd"}),
    "boxtimes": (["barycenter_term", "boxtimes_term", "gap"],
                 {"barycenter_term", "boxtimes_term", "gap"}),
    "gns-verify": (["map", "dim_gns", "residual_max", "v_norm", "bound", "omega_residual", "verdict"],
                   {"map", "residual_max", "v_norm", "dim_gns", "bound", "omega_residual", "verdict"}),
    "kadison": (["map", "samples", "min_defect"], {"map", "min_defect", "samples"}),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", list(OUTPUT_KEYS))
def test_output_keys_of_every_command(capsys, output_inputs, command, fmt):
    code, out, err = run(capsys, *output_inputs[command], "--format", fmt)
    assert (code, err) == (0, "")
    table_keys, json_keys = OUTPUT_KEYS[command]
    if fmt == "json":
        assert out.count("\n") == 1
        record = json.loads(out)
        assert set(record) == json_keys
        assert all(set(probe) == {"label", "lower", "value"} for probe in record.get("probes", []))
    else:
        assert [line.split(": ")[0] for line in out.splitlines()] == table_keys


@pytest.mark.parametrize("command", list(OUTPUT_KEYS))
def test_every_table_row_is_read_from_the_json_record(capsys, output_inputs, command):
    # each table row prints a key of the JSON record with its value
    # formatted (a "probe LABEL" row an entry of "probes"), so the two
    # outputs cannot drift apart
    _, table, _ = run(capsys, *output_inputs[command])
    _, out, _ = run(capsys, *output_inputs[command], "--format", "json")
    record = json.loads(out)
    probes = {p["label"]: p["value"] for p in record.get("probes", [])}
    for line in table.splitlines():
        key, text = line.split(": ")
        val = probes[key.removeprefix("probe ")] if key.startswith("probe ") else record[key]
        expected = {True: "yes", False: "no"}[val] if isinstance(val, bool) else (
            f"{val:.12g}" if isinstance(val, float) else str(val))
        assert text == expected, line


@pytest.mark.parametrize("check", [None, "RESIDUAL_TOL", "NORM_SLACK", "OMEGA_TOL"])
@pytest.mark.parametrize("single", [False, True])
def test_gns_verify_exits_1_iff_its_verdict_is_fail(monkeypatch, capsys, check, single):
    # the library's verdict decides the exit code; a negative tolerance
    # makes its check fail on any certificate
    if check:
        monkeypatch.setattr(gns, check, -1.0)
    argv = ["gns-verify", "transpose", "random:2:3", *(["--single"] if single else [])]
    code, out, _ = run(capsys, *argv, "--format", "json")
    verdict = json.loads(out)["verdict"]
    assert verdict == ("FAIL" if check else "PASS")
    assert code == (1 if verdict == "FAIL" else 0)
    table_code, table, _ = run(capsys, *argv)
    assert table_code == code and table.splitlines()[-1] == f"verdict: {verdict}"


def test_cli_holds_no_tolerance():
    # every tolerance belongs to the library: cli.py holds no nonzero
    # numeric literal below 1e-6 in magnitude and reads no *_ATOL constant
    tree = ast.parse(Path(cli.__file__).read_text())
    small = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and type(node.value) in (int, float) and 0 < abs(node.value) < 1e-6]
    names = {getattr(node, key) for node in ast.walk(tree) for key in ("id", "attr", "name")
             if isinstance(getattr(node, key, None), str)}
    assert small == []
    assert sorted(name for name in names if name.endswith("_ATOL")) == []


def test_json_is_printed_only_by_the_emitter_and_the_sweep():
    # every record goes through _emit; werner-sweep's list of rows is the one
    # output that is not a record
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = sorted(getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "dumps" and getattr(node.func.value, "id", None) == "json")
    assert callers == ["_emit", "cmd_werner_sweep"]


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    # the parser is built once per process; two verdicts with different
    # options print the same, in either order, as each does alone from a
    # freshly built parser
    path = tmp_path / "werner.json"
    serialize.dump_json(str(path), serialize.state_to_json(make_werner(0.2)))
    first = ["verdict", str(path), "--starts", "2", "--max-iters", "5", "--n-observables", "1",
             "--format", "json"]
    second = ["verdict", str(path)]
    alone = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert alone[0] != alone[1] and all(code == 0 for code, _, _ in alone)
    for order in ((0, 1), (1, 0)):
        cli.build_parser.cache_clear()
        assert [run(capsys, *(first, second)[k]) for k in order] == [alone[k] for k in order]
    assert cli.build_parser() is cli.build_parser()
