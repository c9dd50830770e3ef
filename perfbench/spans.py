"""Benchmark-side spans around calls into each layer's public functions.

Installed only for the traced pass of a ``--trace 1`` run.  Nothing in
the program changes: :func:`install` swaps module and class attributes
for timing wrappers and returns a function that puts the originals
back.  ``SimConfig(trace=True)`` and the CLI's ``--trace`` are never
used, because both turn the simulator's fast path off.

A span's self time is its duration minus the durations of the spans it
directly encloses on the same thread.  The program's own tracer
(``repro.obs.spans``) is not used: turning it on also turns on the
program's internal spans, and it snapshots the whole metrics registry
at every span boundary.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: (span name, owner module or class path, attribute)
TARGETS = (
    ("graph.build_ddg", "repro.experiments.pipeline", "build_ddg"),
    ("sched.sms", "repro.sched.sms.SwingModuloScheduler", "schedule"),
    ("sched.tms", "repro.experiments.pipeline", "schedule_with_degradation"),
    ("sched.postpass", "repro.experiments.pipeline", "run_postpass"),
    ("spmt.sim", "repro.spmt.sim.SpMTSimulator", "run"),
    ("spmt.template", "repro.spmt.channels.KernelTimingTemplate", "__init__"),
    ("session.compile", "repro.session.session.Session", "compile"),
    ("session.compile_many", "repro.session.session.Session", "compile_many"),
    ("session.simulate_many", "repro.session.session.Session",
     "simulate_many"),
    ("session.fingerprint", "repro.session.session", "artifact_key"),
    ("serve.execute", "repro.serve.broker", "execute_request"),
)


def _resolve(path: str):
    import importlib

    module_path, _, cls = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module_path), cls)


class SpanRecorder:
    """Per-name totals of self seconds, and the edges of every DDG
    built."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.ddg_edges = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)  # child seconds of this span
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[name] += elapsed - children
            if name == "graph.build_ddg":
                with self._lock:
                    self.ddg_edges += len(result.edges)
            return result
        return wrapper

    def install(self):
        """Wrap every target; returns the function that unwraps them."""
        saved = []
        for name, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

        def restore() -> None:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        return restore

    def to_dict(self) -> dict:
        return {"self": dict(self.self_s), "ddg_edges": self.ddg_edges}
