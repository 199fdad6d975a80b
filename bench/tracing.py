"""In-memory span tracer that wraps tfglass public functions from outside.

Each traced function is replaced, in every ``tfglass`` module namespace that
holds it, by a wrapper that records a span (id, name, start, end, parent,
thread).  Spans are kept in a list and written once, after the timed phase,
as numpy arrays in one .npz file: span ids start at 1, ``parent`` is 0 for a
root span, and ``stochastic`` holds span id, probes, degree and error bar of
each stochastic_pressure call.  A span opened in a thread with no open span
(a replica in a driver's pool thread) takes the active driver span as parent.

Nothing under ``src/`` is modified: the wrappers are installed by rebinding
module attributes and removed again by ``uninstall``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time

# (module, public function) pairs wrapped in the traced run.
TRACED = (
    ("model", "paramagnetic_pressure"),
    ("classical", "partial_pressures"),
    ("classical", "crem_truncated_pressure"),
    ("quantum", "qgrem_pressure"),
    ("quantum", "qcrem_pressure"),
    ("quantum", "magnetization"),
    ("quantum", "transition_scan"),
    ("nonhier", "chain_grem"),
    ("nonhier", "greedy_chain"),
    ("nonhier", "classical_nonhier_pressure"),
    ("nonhier", "quantum_nonhier_pressure"),
    ("verify", "sample_instance"),
    ("verify", "exact_pressure"),
    ("verify", "stochastic_pressure"),
    ("verify", "convergence_study"),
    ("verify", "concentration_check"),
)
DRIVERS = frozenset({"verify.convergence_study", "verify.concentration_check"})
REPLICA_WORK = ("verify.sample_instance", "verify.exact_pressure", "verify.stochastic_pressure")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.stochastic: list[tuple] = []  # (span id, probes, degree, error)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver = None
        self._patched: list[tuple] = []  # (module, attr, original)

    def _wrap(self, name, fn):
        is_driver = name in DRIVERS
        is_stochastic = name == "verify.stochastic_pressure"

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._driver or 0
            sid = next(self._ids)
            stack.append(sid)
            if is_driver:
                self._driver = sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_driver:
                    self._driver = None
                self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if is_stochastic:
                self.stochastic.append((sid, result.probes, result.degree, result.error))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every tfglass module attribute that holds a traced function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "tfglass" or n.startswith("tfglass.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"tfglass.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path, env):
        """Write the spans, with the run environment, as a compressed .npz."""
        import numpy as np

        names = sorted({f"{m}.{f}" for m, f in TRACED})
        code = {name: i for i, name in enumerate(names)}
        ids, span_names, starts, ends, parents, threads = zip(*self.spans) if self.spans else ((),) * 6
        np.savez_compressed(
            path,
            env=json.dumps(env),
            names=np.array(names),
            id=np.array(ids, dtype=np.int64),
            name=np.array([code[n] for n in span_names], dtype=np.int16),
            start=np.array(starts, dtype=float),
            end=np.array(ends, dtype=float),
            parent=np.array(parents, dtype=np.int64),
            thread=np.array(threads, dtype=np.uint64),
            stochastic=np.array(self.stochastic, dtype=float).reshape(-1, 4),
        )

    def layer_metrics(self, ops: int, workers: int) -> dict[str, float]:
        """Per-layer figures of the traced phase, normalised per op."""
        by_name: dict[str, list[float]] = {f"{m}.{f}": [] for m, f in TRACED}
        for _sid, name, t0, t1, _parent, _thread in self.spans:
            by_name[name].append(t1 - t0)
        out = {}
        for name, durs in by_name.items():
            if name in DRIVERS:
                continue
            out[f"{name}.calls"] = len(durs) / ops
            out[f"{name}.s"] = sum(durs) / ops
        for name in ("verify.exact_pressure", "verify.stochastic_pressure"):
            durs = by_name[name]
            out[f"{name}.p50_s"] = statistics.median(durs) if durs else 0.0

        col_matvecs = sum(probes * degree for _sid, probes, degree, _err in self.stochastic)
        stoch_busy = sum(by_name["verify.stochastic_pressure"])
        out["verify.stochastic_pressure.matvecs"] = col_matvecs / ops
        out["verify.stochastic_pressure.ns_per_col_matvec"] = (
            1e9 * stoch_busy / col_matvecs if col_matvecs else 0.0
        )
        out["verify.stochastic_pressure.degree_max"] = float(max((d for _s, _p, d, _e in self.stochastic), default=0))
        out["verify.stochastic_pressure.err_max"] = max((e for _s, _p, _d, e in self.stochastic), default=0.0)

        drivers = {sid for sid, name, *_ in self.spans if name in DRIVERS}
        driver_wall = sum(t1 - t0 for sid, name, t0, t1, _p, _t in self.spans if sid in drivers)
        replica_busy = sum(
            t1 - t0 for _sid, name, t0, t1, parent, _t in self.spans
            if name in REPLICA_WORK and parent in drivers
        )
        out["verify.replica_busy_ratio"] = replica_busy / (workers * driver_wall) if driver_wall else 0.0
        return out
