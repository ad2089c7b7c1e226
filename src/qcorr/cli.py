"""Command-line surface: ingest states/observables/maps from JSON, run the
toolkit's computations, emit tables, JSON or CSV.

Exit codes: 0 success, 1 a verification command reported FAIL, otherwise
the ``exit_code`` of the qcorr error raised (2 parse error, 3 domain/range
error, 4 construction failure). Floats are printed with 12 significant
digits; identical command lines with identical seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bipartite import BipartiteState, make_bell, make_werner, random_full_rank_density
from .correlation import (
    N_RANDOM_PROBES,
    OptimizerConfig,
    classify,
    decomposition_terms,
    minimize_d0,
    minimize_d_simple,
    separability_verdict,
)
from .errors import OutOfRange, ParseError, QcorrError
from .gns import build_intertwiner_single, build_intertwiner_doubled, verification_report
from .posmaps import (
    PositiveMapSpec,
    depolarizing_map,
    identity_map,
    is_ppt,
    kadison_defect,
    ppt_min_eigenvalue,
    reduction_map,
    transpose_map,
)
from . import serialize

EXIT_OK = 0


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _default_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("QCORR_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise ParseError(f"QCORR_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    return seed


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(m=args.m, starts=args.starts, max_iters=args.max_iters, seed=_default_seed(args))


def _add_optimizer_args(p: argparse.ArgumentParser, starts: int = OptimizerConfig.starts,
                        max_iters: int = OptimizerConfig.max_iters):
    p.add_argument("--m", type=int, default=None, help="ensemble cardinality (default (d1*d2)^2)")
    p.add_argument("--starts", type=int, default=starts)
    p.add_argument("--max-iters", type=int, default=max_iters)
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (falls back to QCORR_SEED)")


def _cell(val) -> str:
    if isinstance(val, bool):
        return "yes" if val else "no"
    return _fmt(val) if isinstance(val, float) else str(val)


def _emit(args, record: dict) -> None:
    """Print a command's one result: ``record`` as one sorted JSON object
    under ``--format json``, otherwise its table, one ``key: value`` line
    per scalar in record order (floats to 12 digits, booleans as yes/no),
    one ``probe LABEL`` line per entry of ``probes``, and nested values
    (ensemble, witness) left to JSON."""
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
        return
    for key, val in record.items():
        if key == "probes":
            for probe in val:
                print(f"probe {probe['label']}: {_cell(probe['value'])}")
        elif not isinstance(val, (dict, list)):
            print(f"{key}: {_cell(val)}")


def _load_state(path: str) -> BipartiteState:
    return serialize.state_from_json(serialize.load_json(path), path)


def _load_matrix(path: str) -> np.ndarray:
    return serialize.matrix_from_json(serialize.load_json(path), path)


# Builtin maps by name; depolarizing:LAM names the depolarizing map of
# parameter LAM as well.
BUILTIN_MAPS = {"identity": identity_map, "transpose": transpose_map, "reduction": reduction_map,
                "depolarizing": lambda d: depolarizing_map(d, 0.0)}
MAP_NAMES = "|".join(BUILTIN_MAPS) + "[:lam]"


def _resolve_map(spec: str, d: int) -> PositiveMapSpec:
    if spec in BUILTIN_MAPS:
        return BUILTIN_MAPS[spec](d)
    if spec.startswith("depolarizing:"):
        try:
            lam = float(spec.removeprefix("depolarizing:"))
        except ValueError as exc:
            raise ParseError(f"bad depolarizing parameter in {spec!r}") from exc
        return depolarizing_map(d, lam)
    if os.path.exists(spec) or spec.endswith(".json"):
        return serialize.map_from_json(serialize.load_json(spec), spec)
    raise ParseError(f"unknown map {spec!r}: expected a JSON path or one of {MAP_NAMES}")


def _resolve_density(spec: str) -> np.ndarray:
    if spec.startswith("random:"):
        try:
            d, seed = map(int, spec.removeprefix("random:").split(":"))
        except ValueError as exc:
            raise ParseError(f"random state spec must be 'random:D:SEED', got {spec!r}") from exc
        return random_full_rank_density(d, seed)
    return _load_matrix(spec)


def _require_writable(path: str | None) -> None:
    """Fail as ``dump_json`` would, but before any solve and creating nothing."""
    folder = os.path.dirname(os.path.abspath(path or "."))
    if path and (os.path.isdir(path) or not os.path.isdir(folder)
                 or not os.access(path if os.path.exists(path) else folder, os.W_OK)):
        raise QcorrError(f"{path}: cannot write (not a writable file path in an existing directory)")


def _emit_result(res, args) -> None:
    ensemble = serialize.ensemble_to_json(res.ensemble)
    if args.dump:
        serialize.dump_json(args.dump, ensemble)
    _emit(args, {"value": res.value, "lower": res.lower, "starts_used": res.starts_used, "ensemble": ensemble})


def cmd_d0(args) -> int:
    state = _load_state(args.state)
    observable = _load_matrix(args.observable)
    res = minimize_d0(state, observable, _optimizer_config(args))
    _emit_result(res, args)
    return EXIT_OK


def cmd_d(args) -> int:
    state = _load_state(args.state)
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    res = minimize_d_simple(state, a, b, _optimizer_config(args))
    _emit_result(res, args)
    return EXIT_OK


def cmd_verdict(args) -> int:
    state = _load_state(args.state)
    cfg = _optimizer_config(args)
    res = separability_verdict(state, cfg, n_observables=args.n_observables)
    witness = serialize.matrix_to_json(res.witness)
    if args.dump:
        serialize.dump_json(args.dump, witness)
    _emit(args, {"verdict": res.verdict, "max_d0": res.max_d0, "lower": res.lower, "witness": witness,
                 "probes": [{"label": lbl, "lower": low, "value": val} for lbl, low, val in res.probes]})
    return EXIT_OK


def cmd_ppt(args) -> int:
    state = _load_state(args.state)
    min_eig = ppt_min_eigenvalue(state)
    _emit(args, {"ppt_min_eig": min_eig, "psd": is_ppt(min_eig)})
    return EXIT_OK


def cmd_boxtimes(args) -> int:
    ensemble = serialize.ensemble_from_json(serialize.load_json(args.ensemble), args.ensemble)
    observable = _load_matrix(args.observable)
    # checks the observable's shape and Hermiticity
    barycenter_term, boxtimes_term = decomposition_terms(ensemble, observable)
    _emit(args, {"barycenter_term": barycenter_term.real, "boxtimes_term": boxtimes_term.real,
                 "gap": abs(barycenter_term - boxtimes_term)})
    return EXIT_OK


def cmd_gns_verify(args) -> int:
    rho = _resolve_density(args.state)
    alpha = _resolve_map(args.map, rho.shape[0])
    build = build_intertwiner_single if args.single else build_intertwiner_doubled
    report = verification_report(build(alpha, rho))
    _emit(args, {"map": alpha.name or args.map, **report})
    return EXIT_OK if report["verdict"] == "PASS" else 1


def cmd_kadison(args) -> int:
    if args.samples < 1:
        raise OutOfRange(f"samples must be >= 1, got {args.samples}")
    alpha = _resolve_map(args.map, args.d)
    rng = np.random.default_rng(_default_seed(args))
    worst = np.inf
    for _ in range(args.samples):
        a = rng.standard_normal((alpha.d, alpha.d)) + 1j * rng.standard_normal((alpha.d, alpha.d))
        worst = min(worst, kadison_defect(alpha, a))
    _emit(args, {"map": alpha.name or args.map, "samples": args.samples, "min_defect": worst})
    return EXIT_OK


def cmd_werner_sweep(args) -> int:
    if not (0.0 <= args.p_min <= args.p_max <= 1.0):
        raise OutOfRange(f"need 0 <= p_min <= p_max <= 1, got [{args.p_min}, {args.p_max}]")
    if args.steps < 2:
        raise OutOfRange(f"steps must be >= 2, got {args.steps}")
    witness = 0.5 * np.eye(4) - make_bell().rho
    cfg = _optimizer_config(args)
    grid = np.linspace(args.p_min, args.p_max, args.steps)
    warm: tuple = ()
    rows = []
    for p in grid:
        state = make_werner(float(p))
        res = minimize_d0(state, witness, cfg, extra_starts=warm)
        warm = ((res.argmin_isometry, res.argmin_partition),)
        ppt = ppt_min_eigenvalue(state)
        rows.append((float(p), res.value, ppt, classify(res.lower, ppt, (2, 2))))

    if args.format == "json":
        print(json.dumps([{"p": p, "d0_witness": v, "ppt_min_eig": e, "verdict": verdict}
                          for p, v, e, verdict in rows], sort_keys=True))
    else:
        print("p,d0_witness,ppt_min_eig,verdict")
        for p, v, e, verdict in rows:
            print(f"{_fmt(p)},{_fmt(v)},{_fmt(e)},{verdict}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. A command runs the
    module's ``cmd_<command>`` function, looked up by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Decomposition-based correlation coefficients and positive-map tools "
                    "for small bipartite systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *positionals, formats=("table", "json")):
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    for p in (command("d0", "general correlation coefficient for one observable", "state", "observable"),
              command("d", "simple-tensor correlation coefficient", "state", "a", "b")):
        _add_optimizer_args(p)
        p.add_argument("--dump-ensemble", dest="dump", metavar="PATH")

    p = command("verdict", "separability verdict over a probe set", "state")
    p.add_argument("--n-observables", type=int, default=N_RANDOM_PROBES)
    _add_optimizer_args(p)
    p.add_argument("--dump-witness", dest="dump", metavar="PATH")

    command("ppt", "partial-transpose spectrum check", "state")
    command("boxtimes", "evaluate both sides of the decomposition gap", "ensemble", "observable")

    p = command("gns-verify", "build and certify the intertwiner construction")
    p.add_argument("map", help=f"JSON path or {MAP_NAMES}")
    p.add_argument("state", help="matrix JSON path or random:D:SEED")
    p.add_argument("--single", action="store_true",
                   help="single-representation variant (bound 1, self-adjoint span)")

    p = command("kadison", "minimum Kadison-type defect over random elements", "map")
    p.add_argument("-d", type=int, default=2, help="dimension for builtin map names")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    p = command("werner-sweep", "scan the Werner family boundary", formats=("csv", "json"))
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=51)
    _add_optimizer_args(p, starts=6, max_iters=600)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_writable(vars(args).get("dump"))
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
