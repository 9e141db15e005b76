"""Span tracing from outside the package, and self-time accounting.

The tracer replaces public functions at the module attribute through which
their callers look them up (``mtunmix.em.run_filter`` is what ``em_iterate``
calls, ``mtunmix.pipeline.run_filter`` is what ``run_kalman_em`` calls), so
nothing inside ``src/`` changes. Every wrapped call records one span: name,
start, end, parent, the operation it belongs to, and an optional measured
value (bytes written, matrix order). Spans stay in memory until the run ends.
Times come from ``time.monotonic`` so spans written by child processes share
the clock of the process that launched them.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

CAP_WARNING = "iteration cap"
ID_RANGE = 10**9  # span ids per process


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float
    value: float = 0.0


class Tracer:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self, default_op: str = "", first_id: int = 0):
        self.default_op = default_op
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        # processes whose spans are merged later get disjoint id ranges
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs, measure=None, op: str | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, parent_op = stack[-1]
        else:
            parent, parent_op = None, self.default_op
        op = parent_op if op is None else op
        stack.append((sid, op))
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            value = float(measure(args, kwargs)) if measure is not None else 0.0
            self.spans.append(Span(sid, name, op, parent, start, end, value))

    def record(self, name: str, op: str, parent: int | None, start: float, end: float) -> int:
        """Add a span timed by the caller; returns its id."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, op, parent, start, end))
        return sid

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counters": self.counters}, fh
            )


def load_spans(path) -> tuple[list[Span], dict[str, int]]:
    with open(path) as fh:
        data = json.load(fh)
    return [Span(**s) for s in data["spans"]], data["counters"]


def _matrix_order(args, kwargs):
    return args[0].shape[0]


def _matrix_bytes(args, kwargs):
    return 8 * args[1].size


#: (module the caller looks the function up in, attribute, span name, measure)
LIBRARY_TARGETS = [
    ("mtunmix.synth", "generate", "synth.generate", None),
    ("mtunmix.vca", "vca_extract", "vca.vca_extract", None),
    ("mtunmix.fcls", "fcls_refine_frame", "fcls.frame", None),
    ("mtunmix.fcls", "fcls_solve", "fcls.solve", None),
    ("mtunmix.pipeline", "run_kalman_em", "pipeline.run_kalman_em", None),
    ("mtunmix.pipeline", "em_iterate", "em.em_iterate", None),
    ("mtunmix.pipeline", "run_filter", "kalman.run_filter", None),
    ("mtunmix.pipeline", "rts_smooth", "kalman.rts_smooth", None),
    ("mtunmix.pipeline", "fcls_refine_frame", "fcls.refine", None),
    ("mtunmix.em", "run_filter", "kalman.run_filter", None),
    ("mtunmix.em", "rts_smooth", "kalman.rts_smooth", None),
    ("mtunmix.em", "accumulate_stats", "em.accumulate_stats", None),
    ("mtunmix.em", "m_step_p00", "em.mstep", None),
    ("mtunmix.em", "m_step_psi00", "em.mstep", None),
    ("mtunmix.em", "m_step_q", "em.mstep", None),
    ("mtunmix.em", "m_step_abundance", "em.mstep", None),
    ("mtunmix.em", "m_step_sigma", "em.mstep", None),
    ("mtunmix.em", "q_function", "em.mstep", None),
    ("mtunmix.kalman", "cho_factor_jittered", "kronops.cho_factor_jittered", None),
    ("mtunmix.em", "cho_factor_jittered", "kronops.cho_factor_jittered", None),
    ("mtunmix.kronops", "cho_factor_jittered", "kronops.cho_factor_jittered", None),
    # kronops looks the factorization up as ``scipy.linalg.cho_factor``; each
    # attempt, jitter retries included, is one span whose value is the order
    ("scipy.linalg", "cho_factor", "kronops.cholesky", _matrix_order),
]

#: What the ``mtunmix`` command looks up in ``mtunmix.cli`` on top of the above.
CLI_TARGETS = [
    ("mtunmix.cli", "generate", "synth.generate", None),
    ("mtunmix.cli", "vca_extract", "vca.vca_extract", None),
    ("mtunmix.cli", "fcls_refine_frame", "fcls.frame", None),
    ("mtunmix.cli", "run_kalman_em", "pipeline.run_kalman_em", None),
    ("mtunmix.cli", "read_hseq", "hseq.read", None),
    ("mtunmix.cli", "read_manifest", "hseq.read", None),
    ("mtunmix.cli", "read_matrix", "hseq.read", None),
    ("mtunmix.cli", "read_result_dir", "hseq.read", None),
    ("mtunmix.cli", "write_hseq", "hseq.write", None),
    ("mtunmix.cli", "write_result_dir", "hseq.write", None),
    ("mtunmix.cli", "write_matrix", "hseq.write", _matrix_bytes),
    # write_hseq and write_result_dir store every array through this one
    ("mtunmix.hseq", "write_matrix", "hseq.write_matrix", _matrix_bytes),
]


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``mtunmix.fcls``."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is RuntimeWarning and CAP_WARNING in str(message):
            self._tracer.count("fcls.cap_hits")
        self._real.warn(message, category, stacklevel=stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _wrapper(tracer: Tracer, fn, name: str, measure):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, measure)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Installation:
    """Wrappers put in place by :func:`install`; ``remove`` restores the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def install(tracer: Tracer, targets) -> Installation:
    inst = Installation()
    for module_name, attr, name, measure in targets:
        module = importlib.import_module(module_name)
        inst._replace(module, attr, _wrapper(tracer, getattr(module, attr), name, measure))
    fcls = importlib.import_module("mtunmix.fcls")
    inst._replace(fcls, "warnings", _CountingWarnings(fcls.warnings, tracer))
    return inst


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def subtree_self_sum(spans, root: int) -> float:
    """Self times summed over ``root`` and every span below it."""
    children: dict[int, list[int]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s.sid)
    selfs = self_times(spans)
    total, todo = 0.0, [root]
    while todo:
        sid = todo.pop()
        total += selfs[sid]
        todo += children.get(sid, [])
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.sid, [])
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.sid] = (s.end - s.start) - covered(inside)
    return out
