"""Benchmark workloads: seeded inputs, the program call per item, and the
correctness gate per item.

A workload generates a fixed list of items from the seed. An untraced run
cycles through the list; a traced run replays its first ``trace_items``
items as one round, so that per-round counts repeat exactly. Each ``call``
is the timed program work; ``check`` runs outside the timing and compares
against ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles


@dataclass
class Check:
    ok: bool
    digest: str  # per-item values to 12 significant digits, for determinism checks
    excess: float | None = None  # value above the oracle value, where one exists
    note: str = ""


@dataclass
class Item:
    key: str
    data: dict = field(default_factory=dict)


def _g(x: float) -> str:
    return f"{float(x):.12g}"


class WernerWitness:
    """minimize_d0 on entangled Werner states with the canonical witness at
    the default OptimizerConfig. Every solve spends its whole evaluation
    budget, so the 2x2 gap kernel and the expm parametrization dominate."""

    name = "werner-witness"
    n_items = 3
    trace_items = 1

    def __init__(self, qcorr):
        self.q = qcorr

    def generate(self, seed: int, workdir) -> list[Item]:
        rng = np.random.default_rng((seed, 1))
        q = self.q
        witness = oracles.canonical_witness()
        items = []
        for _ in range(self.n_items):
            p = float(rng.uniform(0.4, 0.9))
            rho = oracles.werner_rho(p)
            state = q.bipartite.BipartiteState(q.bipartite.BipartiteSpace(2, 2), rho)
            items.append(Item(f"p={p:.6f}", {
                "p": p, "rho": rho, "state": state, "witness": witness,
                "oracle": oracles.werner_twirl_value(p)}))
        return items

    def warm_up(self, items: list[Item]) -> None:
        cfg = self.q.correlation.OptimizerConfig(starts=1, max_iters=200)
        it = items[0]
        self.q.correlation.minimize_d0(it.data["state"], it.data["witness"], cfg)

    def call(self, item: Item):
        return self.q.correlation.minimize_d0(item.data["state"], item.data["witness"])

    def check(self, item: Item, res) -> Check:
        d = item.data
        p, value = d["p"], float(res.value)
        lower = (3.0 * p - 1.0) / 4.0
        e = res.ensemble
        recomputed = oracles.decomposition_gap(d["rho"], e.weights, e.members, d["witness"], 2, 2)
        valid = oracles.decomposition_residual(d["rho"], e.weights, e.members) <= 1e-8
        ok = (value >= lower - 1e-9 and value <= d["oracle"] + 5e-2 and valid
              and abs(value - recomputed) <= 1e-12 * max(1.0, value))
        note = "" if ok else (f"value={value!r} lower={lower!r} oracle={d['oracle']!r} "
                              f"recomputed={recomputed!r} valid={valid}")
        return Check(ok, f"{_g(value)} starts={res.starts_used}", value - d["oracle"], note)


class VerdictMixed:
    """In-process ``qcorr verdict --format json`` on seeded 2x2 and 2x3 states
    written to files during set-up. Separable mixtures of products run at the
    default budget and resolve early by sign-straddle bisection; random
    entangled (NPT) states run at a reduced budget. Many short solves, so
    spectral prep, PPT, probes, witness recompute and CLI/JSON parsing carry
    a real share of the time.

    Items come in blocks of separable 2x2, separable 2x3, entangled 2x2,
    entangled 2x3, each a distinct state. Verdict cost varies several-fold
    from state to state, so a run covers many distinct states rather than
    repeating a few. Entangled verdicts use only the partial-transpose
    witness probe: it decides an NPT state and spends its budget in full,
    where random probes on such states add cost that varies with the state.
    """

    name = "verdict-mixed"
    blocks = 24
    trace_items = 8
    entangled_flags = ["--starts", "4", "--max-iters", "300", "--n-observables", "0"]
    warm_flags = ["--starts", "1", "--max-iters", "100", "--n-observables", "0"]
    layout = (("sep", 2, 2), ("sep", 2, 3), ("ent", 2, 2), ("ent", 2, 3))

    def __init__(self, qcorr):
        self.q = qcorr

    @staticmethod
    def _density(d: int, rank: int, rng) -> np.ndarray:
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        x = g @ g.conj().T
        return x / np.trace(x).real

    def _state(self, kind: str, d1: int, d2: int, rng) -> np.ndarray:
        if kind == "sep":
            k = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(k))
            return sum(w[i] * np.kron(self._density(d1, d1, rng), self._density(d2, d2, rng))
                       for i in range(k))
        while True:  # rank-2 random state, drawn until its partial transpose is not PSD
            rho = self._density(d1 * d2, 2, rng)
            if oracles.pt_min_eig(rho, d1, d2) < 0.0:
                return rho

    def generate(self, seed: int, workdir) -> list[Item]:
        rng = np.random.default_rng((seed, 2))
        ser = self.q.serialize
        bp = self.q.bipartite
        os.makedirs(workdir, exist_ok=True)
        items = []
        for i, (kind, d1, d2) in enumerate(self.layout * self.blocks):
            rho = self._state(kind, d1, d2, rng)
            path = os.path.join(workdir, f"state{i}.json")
            ser.dump_json(path, ser.state_to_json(bp.BipartiteState(bp.BipartiteSpace(d1, d2), rho)))
            argv = ["verdict", path, "--format", "json", "--seed", str(int(rng.integers(1 << 30)))]
            if kind == "ent":
                argv += self.entangled_flags
            items.append(Item(f"{kind}{d1}x{d2}#{i}", {
                "argv": argv, "rho": rho, "expected": "Separable" if kind == "sep" else "Entangled",
                "pt_min": oracles.pt_min_eig(rho, d1, d2), "kind": kind}))
        return items

    def warm_up(self, items: list[Item]) -> None:
        for it in items[:len(self.layout)]:
            if it.data["kind"] == "ent":
                self._run(it.data["argv"][:6] + self.warm_flags)

    def _run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.q.cli.main(argv)
        return code, buf.getvalue()

    def call(self, item: Item):
        return self._run(item.data["argv"])

    def check(self, item: Item, out) -> Check:
        code, text = out
        try:
            res = json.loads(text)
            verdict, max_d0 = res["verdict"], float(res["max_d0"])
            values = {p["label"]: float(p["value"]) for p in res["probes"]}
        except (ValueError, KeyError, TypeError) as exc:
            return Check(False, f"unparsed exit={code}", None, f"bad output: {exc}")
        d = item.data
        ok = code == 0 and verdict == d["expected"] and max_d0 == max(values.values())
        if d["kind"] == "ent":
            # d0 of the partially transposed projector is at least |pt_min|
            ok = ok and values.get("pt-witness", -1.0) >= -d["pt_min"] - 1e-9
        note = "" if ok else f"verdict={verdict} expected={d['expected']} max_d0={max_d0!r}"
        excess = max_d0 if d["kind"] == "sep" else None
        return Check(ok, f"{verdict} {_g(max_d0)}", excess, note)


class GnsVerify:
    """build_intertwiner_doubled and build_intertwiner_single for every
    builtin_maps(d) entry at d = 2, 3, 4 on seeded full-rank densities; each
    doubled build also samples the Kadison-type defect of its map, the
    inequality its well-definedness rests on. Exercises only gns, posmaps
    and linalg: the control where optimizer changes predict no change."""

    name = "gns-verify"
    dims = (2, 3, 4)
    densities = 4
    trace_items = 36  # every map and variant at each d on the first density
    kadison_samples = 4

    def __init__(self, qcorr):
        self.q = qcorr

    def generate(self, seed: int, workdir) -> list[Item]:
        rng = np.random.default_rng((seed, 3))
        maps = {d: self.q.posmaps.builtin_maps(d) for d in self.dims}
        items = []
        for k in range(self.densities):
            for d in self.dims:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = g @ g.conj().T
                rho = 0.9 * rho / np.trace(rho).real + 0.1 * np.eye(d) / d
                for alpha in maps[d]:
                    elements = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                                for _ in range(self.kadison_samples)]
                    for doubled in (True, False):
                        variant = "doubled" if doubled else "single"
                        items.append(Item(f"{alpha.name}@{d}#{k}/{variant}", {
                            "alpha": alpha, "rho": rho, "doubled": doubled,
                            "elements": elements if doubled else []}))
        return items

    def warm_up(self, items: list[Item]) -> None:
        seen = set()
        for it in items:
            shape = (it.data["rho"].shape, it.data["doubled"])
            if shape not in seen:
                seen.add(shape)
                self.call(it)

    def call(self, item: Item):
        d = item.data
        gns, posmaps = self.q.gns, self.q.posmaps
        build = gns.build_intertwiner_doubled if d["doubled"] else gns.build_intertwiner_single
        ld = build(d["alpha"], d["rho"])
        defects = [posmaps.kadison_defect(d["alpha"], a) for a in d["elements"]]
        return ld, defects

    def check(self, item: Item, out) -> Check:
        ld, defects = out
        d = item.data
        cert = oracles.intertwiner_certificate(ld.v, ld.tilde_omega, np.asarray(d["alpha"].choi),
                                               d["rho"], d["doubled"])
        min_defect = min(defects) if defects else 0.0
        ok = (cert["residual"] <= 1e-9 and cert["v_norm"] <= cert["bound"] + 1e-9
              and cert["unit_residual"] <= 1e-10 and min_defect >= -1e-10
              and float(ld.residual_max) <= 1e-9 and float(ld.v_norm) <= cert["bound"] + 1e-9)
        note = "" if ok else f"certificate={cert} reported=({ld.residual_max!r}, {ld.v_norm!r}) defect={min_defect!r}"
        digest = f"{_g(ld.residual_max)} {_g(ld.v_norm)} {_g(min_defect)}"
        return Check(ok, digest, None, note)


WORKLOADS = {cls.name: cls for cls in (WernerWitness, VerdictMixed, GnsVerify)}
