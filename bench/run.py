"""qcorr benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload werner-witness --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workload's inputs are generated from ``--seed``. Untraced runs (``--trace
0``) install nothing and report end-to-end metrics; traced runs wrap the
public functions of the qcorr modules (see ``tracing.py``) and report
per-layer metrics per round, a fixed prefix of the workload's items. Every
item is checked against independent oracles; the last stdout line is the
JSON result. Spans and a full result record (environment, per-item values
and times) are written under ``.bench_out/``. BLAS threads are left at their defaults and no worker
processes are started.

End-to-end metrics (untraced): ``setup_s`` is the median of several
set-ups, each a fresh qcorr import, input generation and one warm item per
input shape; ``items_per_s`` is items completed per second of program time;
``item_s.p50`` is the median item latency; ``peak_rss_mb`` is the process's
peak resident set. An item is one solve, one verdict or one certified build.
Per-layer metrics (traced) are ``<module>.<function>.calls|total_s|self_s``
per round plus derived ratios; ``correlation.evals`` counts gap-kernel
evaluations and must repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS, Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
QCORR_MODULES = ("linalg", "bipartite", "measures", "posmaps", "correlation", "gns",
                 "serialize", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_qcorr():
    """Import qcorr afresh from this checkout's src/ only."""
    for key in [k for k in sys.modules if k == "qcorr" or k.startswith("qcorr.")]:
        del sys.modules[key]
    pkg = importlib.import_module("qcorr")
    for name in QCORR_MODULES:
        setattr(pkg, name, importlib.import_module(f"qcorr.{name}"))
    if Path(pkg.__file__).resolve().parent != SRC / "qcorr":
        raise SystemExit(f"error: imported qcorr from {pkg.__file__}, not {SRC}")
    return pkg


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    cfg = np.show_config(mode="dicts")
    deps = cfg.get("Build Dependencies", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: deps.get(k, {}).get(f) for f in ("name", "version")}
                 for k in ("blas", "lapack")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def setup(workload: str, seed: int, workdir: str):
    """Import qcorr, generate the inputs and run one warm item per input
    shape, several times; returns (workload, items, median set-up seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = WORKLOADS[workload](import_qcorr())
        items = wl.generate(seed, workdir)
        wl.warm_up(items)
        times.append(perf_counter() - t0)
    return wl, items, statistics.median(times)


def run_item(wl, item, tracer=None):
    """Time one program call, then check it (untimed). Returns (seconds, Check)."""
    try:
        t0 = perf_counter()
        out = tracer.span("item", wl.call, item) if tracer else wl.call(item)
        dt = perf_counter() - t0
    except Exception as exc:  # a failing item is counted and reported, not fatal
        return perf_counter() - t0, Check(False, f"raised {type(exc).__name__}", None, repr(exc))
    return dt, wl.check(item, out)


class Tally:
    """Per-item outcomes plus the determinism check on repeated items."""

    def __init__(self):
        self.times: list[float] = []
        self.keys: list[str] = []
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.nondeterministic: list[str] = []
        self.notes: list[str] = []
        self.excess: list[float] = []

    def add(self, item, dt, chk):
        self.times.append(dt)
        self.keys.append(item.key)
        if not chk.ok:
            self.failed += 1
            self.notes.append(f"{item.key}: {chk.note}")
        if chk.excess is not None:
            self.excess.append(chk.excess)
        prev = self.digests.setdefault(item.key, chk.digest)
        if prev != chk.digest:
            self.nondeterministic.append(f"{item.key}: {prev} != {chk.digest}")


def measure_untraced(wl, items, seconds: float) -> Tally:
    tally = Tally()
    t_start = perf_counter()
    i = 0
    while True:
        item = items[i % len(items)]
        tally.add(item, *run_item(wl, item))
        i += 1
        if perf_counter() - t_start >= seconds:
            return tally


def measure_traced(wl, items, seconds: float, tracer) -> tuple[Tally, dict]:
    """The round is the first ``wl.trace_items`` items. Untraced and traced
    rounds alternate until the time is up, so the overhead ratio compares
    neighbouring rounds; counts must repeat exactly from round to round."""
    items = items[:wl.trace_items]
    tally = Tally()
    t_start = perf_counter()
    untraced, traced, rounds, per_round_calls = 0.0, 0.0, 0, []
    while not rounds or perf_counter() - t_start < seconds:
        for item in items:
            dt, chk = run_item(wl, item)
            tally.add(item, dt, chk)
            untraced += dt
        before = tracer.snapshot()
        tracer.install()
        try:
            for k, item in enumerate(items):
                tracer.item = f"r{rounds}i{k}"
                dt, chk = run_item(wl, item, tracer)
                tally.add(item, dt, chk)
                traced += dt
        finally:
            tracer.uninstall()
        after = tracer.snapshot()
        per_round_calls.append({n: after[n][0] - before.get(n, (0,))[0] for n in after})
        rounds += 1
        tracer.keep_spans = False  # raw spans of the first traced round only
    for k, calls in enumerate(per_round_calls[1:], 1):
        if calls != per_round_calls[0]:
            tally.nondeterministic.append(f"round {k} call counts differ from round 0")
    return tally, {"rounds": rounds, "overhead_ratio": traced / untraced}


def layer_metrics(tracer, info: dict, tally: Tally) -> dict:
    rounds = info["rounds"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    stats = tracer.stats
    for module, attr in tracing.TRACED:
        name = tracing.span_name(module, attr)
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        put(f"{name}.calls", calls / rounds, "count")
        put(f"{name}.total_s", total / rounds, "s")
        put(f"{name}.self_s", self_s / rounds, "s")
    gap_calls, gap_total, _ = stats.get("correlation.signed_gap", (0, 0.0, 0.0))
    expm_calls, expm_total, _ = stats.get("measures.expm_antihermitian", (0, 0.0, 0.0))
    solves = stats.get("correlation.minimize_d0", (0,))[0]
    put("correlation.evals", gap_calls / rounds, "count")
    put("correlation.signed_gap.us_per_call", 1e6 * gap_total / gap_calls if gap_calls else 0.0, "us")
    put("measures.expm_antihermitian.us_per_call",
        1e6 * expm_total / expm_calls if expm_calls else 0.0, "us")
    put("correlation.starts_used", tracer.starts_used / rounds, "count")
    put("correlation.evals_per_solve", gap_calls / solves if solves else 0.0, "count")
    put("correlation.excess_over_oracle.max", max(tally.excess) if tally.excess else 0.0, "d0")
    put("trace.overhead_ratio", info["overhead_ratio"], "ratio")
    return out


def inputs_digest(items) -> str:
    """Hash of the numeric inputs of every item."""
    h = hashlib.sha256()
    for item in items:
        for key, val in sorted(item.data.items()):
            if isinstance(val, (float, np.ndarray)):
                h.update(key.encode())
                h.update(np.asarray(val).tobytes())
    return h.hexdigest()


def check_seed_sensitivity(wl, seed: int, items, workdir) -> bool:
    """A different seed must change the generated inputs."""
    other = wl.generate(seed + 1, os.path.join(workdir, "other-seed"))
    return inputs_digest(items) != inputs_digest(other)


def check_across_runs(path: Path, record: dict) -> list[str]:
    """Per-item values (and, when traced, call counts) must match an earlier
    run of the same source, workload and seed."""
    prev = json.loads(path.read_text()) if path.is_file() else {}
    drift = [f"{k}: earlier run {prev[k]} != {v}" for k, v in record.items()
             if k in prev and prev[k] != v]
    path.write_text(json.dumps({**record, **prev}, indent=1, sort_keys=True))
    return drift


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (SRC / "qcorr" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'qcorr'} not found; run from a qcorr checkout")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-inputs-seed{args.seed}"

    wl, items, setup_s = setup(args.workload, args.seed, str(workdir))
    env = environment(args.seed)
    seed_ok = check_seed_sensitivity(wl, args.seed, items, str(workdir))

    if args.trace:
        tracer = tracing.Tracer()
        tally, info = measure_traced(wl, items, args.seconds, tracer)
        metrics = layer_metrics(tracer, info, tally)
        tracer.write_spans(OUT / f"{args.workload}.spans.tsv")
        counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    else:
        tally = measure_untraced(wl, items, args.seconds)
        n = len(tally.times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": n / sum(tally.times), "unit": "1/s"},
            "item_s.p50": {"value": statistics.median(tally.times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        counts = {}

    record = {"inputs": inputs_digest(items)}
    record.update({f"item {k}": v for k, v in tally.digests.items()})
    record.update({f"count {k}": v for k, v in counts.items()})
    drift = check_across_runs(OUT / f"{args.workload}-seed{args.seed}-{env['source_sha256']}.json",
                              record)
    attempted = len(tally.times)
    correct = tally.failed == 0 and not tally.nondeterministic and not drift and seed_ok

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# items attempted {attempted} failed {tally.failed} "
          f"fail_ratio {tally.failed / attempted:.6g} (inputs {len(items)})")
    if not args.trace and attempted >= 100:
        p90 = statistics.quantiles(tally.times, n=10)[-1]
        print(f"# item_s.p90 {p90:.6g} s (n={attempted}, not gated)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in tally.notes[:20] + tally.nondeterministic + drift:
        print(f"# FAIL {note}")
    if not seed_ok:
        print("# FAIL a different seed generated the same inputs")

    result = {"correct": correct, "attempted": attempted, "failed": tally.failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json").write_text(
        json.dumps({"env": env, "result": result, "items": tally.digests,
                    "item_seconds": list(zip(tally.keys, tally.times)),
                    "failures": tally.notes}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
