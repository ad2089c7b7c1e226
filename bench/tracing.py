"""Span tracing installed from outside the program.

``Tracer.install`` replaces each traced public function of the ``qcorr``
modules with a timing wrapper in every namespace that holds it, so a caller
that imported the name (``from .measures import expm_antihermitian``) sees
the wrapper too. Nothing is installed unless the run is traced.

A span is (id, name, start, end, parent id, item id). Self time is a span's
duration minus the time its child spans cover; calls are strictly nested in
one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Traced layer boundaries: (module, attribute). "_Engine.signed_gap" is the
# gap kernel method the optimizer calls once per objective evaluation.
TRACED = (
    ("cli", "main"),
    ("serialize", "load_json"),
    ("serialize", "state_from_json"),
    ("serialize", "matrix_to_json"),
    ("correlation", "separability_verdict"),
    ("correlation", "minimize_d0"),
    ("correlation", "_Engine.signed_gap"),
    ("correlation", "d0_objective"),
    ("measures", "expm_antihermitian"),
    ("measures", "state_spectral_data"),
    ("measures", "hjw_ensemble"),
    ("measures", "boxtimes"),
    ("measures", "evaluate_boxtimes"),
    ("bipartite", "validate_density"),
    ("posmaps", "partial_transpose"),
    ("posmaps", "ppt_min_eig_and_vector"),
    ("posmaps", "apply_map"),
    ("posmaps", "kadison_defect"),
    ("gns", "build_intertwiner_doubled"),
    ("gns", "build_intertwiner_single"),
    ("gns", "gns_left"),
    ("gns", "gns_right"),
    ("linalg", "psd_sqrt"),
    ("linalg", "operator_norm"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.item = None
        self.starts_used = 0
        self._stack: list[list] = []  # open spans: [id, child_s]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        count_starts = name == "correlation.minimize_d0"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if self.keep_spans:
                    self.spans.append((sid, name, t0, t1, parent[0] if parent else -1, self.item))
            if count_starts:
                self.starts_used += out.starts_used
            return out

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span of its own (the benchmark's item root)."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qcorr" or k.startswith("qcorr.")]
        for module, attr in TRACED:
            owner = sys.modules[f"qcorr.{module}"]
            if "." in attr:  # method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name(module, attr), orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, attr), orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def snapshot(self) -> dict[str, tuple]:
        return {k: tuple(v) for k, v in self.stats.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\n")
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{item}\n")
