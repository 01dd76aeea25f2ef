"""Spans and counts at gsqc's module boundaries, for the traced run only.

Each wrapper replaces a public function at every ``gsqc`` module attribute
that holds it, which is where its callers look it up (``gsqc.cli.run_program``,
``gsqc.semantics.assemble``, ...); methods are wrapped on their class and the
LU factorization at ``scipy.sparse.linalg.splu``.  Nothing under ``src/``
changes, and wrappers record only while a benchmark call is open, so the
output checks that follow a pass are not traced.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import gsqc.basis
import gsqc.bounds
import gsqc.cli
import gsqc.detection
import gsqc.eigensolve
import gsqc.hamiltonian
import gsqc.program
import gsqc.semantics
import gsqc.sparse


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "call", "attrs")

    def __init__(self, id_, name, parent, call, attrs):
        self.id, self.name, self.parent, self.call, self.attrs = id_, name, parent, call, attrs
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory spans (name, start, end, parent, call id) and counters.

    A span opened on a thread with no open span (a gap-scan row runs in the
    sweep's worker thread) takes the current call's root span as parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.call_id = None
        self.missing: list[str] = []
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def call(self, call_id):
        """Root span of one benchmark call; wrappers record only inside one."""
        self.call_id = call_id
        try:
            with self.span("call") as root:
                self._root = root.id
                yield root
        finally:
            self.call_id = self._root = None

    @contextmanager
    def span(self, name, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(len(self.spans), name, stack[-1] if stack else self._root,
                        self.call_id, attrs)
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it covered by the union of child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0.0 if hi is None else hi - lo
        out[s.id] = s.duration - covered
    return out


class _CountingLU:
    """SuperLU stand-in that counts right-hand sides solved with the factors."""

    def __init__(self, lu, tracer: Tracer):
        self._lu, self._tracer = lu, tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count("eigensolve.lu_solves", rhs.shape[1] if rhs.ndim == 2 else 1)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _gsqc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gsqc" or name.startswith("gsqc."))]


def instrument(tracer: Tracer, only=None):
    """Install the wrappers (all, or the span names in ``only``); returns the undo.

    A hook whose target no longer exists is listed in ``tracer.missing`` and
    its metrics read zero.
    """
    undo = []

    def wrap(fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.call_id is None:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                if before:
                    before(span, args)
                result = fn(*args, **kwargs)
            if after:
                after(result)
            return result
        return wrapper

    def function(name, module, attr, **hooks):
        if only is not None and name not in only:
            return
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = wrap(original, name, **hooks)
        for mod in _gsqc_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def method(name, cls, attr, wrapper_for=None):
        if only is not None and name not in only:
            return
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__qualname__}.{attr}")
            return
        undo.append((cls, attr, original))
        setattr(cls, attr, (wrapper_for or (lambda fn: wrap(fn, name)))(original))

    def count_builds(init):
        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            if tracer.call_id is not None:
                tracer.count("sparse.hermitian_builds")
            return init(self, *args, **kwargs)
        return counted

    def dim_max(basis):
        with tracer._lock:
            tracer.counts["basis.dim_max"] = max(tracer.counts["basis.dim_max"], basis.dim)

    def assembled(result):
        terms, H = result
        tracer.count("hamiltonian.terms", len(terms.terms))
        tracer.count("hamiltonian.nnz", H.nnz)

    def command(span, args):
        argv = args[0] if args else None
        span.attrs["command"] = argv[0] if argv else None

    function("cli.main", gsqc.cli, "main", before=command)
    function("cli.gap_row", gsqc.cli, "_gap_row")
    function("program.load", gsqc.program, "load_program")
    function("program.validate", gsqc.program, "validate_program")
    function("basis.enumerate", gsqc.basis, "enumerate_basis", after=dim_max)
    function("hamiltonian.assemble", gsqc.hamiltonian, "assemble", after=assembled)
    method("sparse.total", gsqc.sparse.TermSet, "total")
    method("sparse.to_csr", gsqc.sparse.SparseHermitian, "to_csr")
    method("sparse.build", gsqc.sparse.SparseHermitian, "__init__", count_builds)
    function("eigensolve.solve", gsqc.eigensolve, "solve_spectrum")
    function("eigensolve.dense", gsqc.eigensolve, "dense_spectrum")
    function("eigensolve.iter", gsqc.eigensolve, "low_lying")
    function("semantics.run_program", gsqc.semantics, "run_program")
    function("semantics.verify_development", gsqc.semantics, "verify_development")
    function("detection.build_report", gsqc.detection, "build_report")
    function("detection.infer_readout", gsqc.detection, "infer_output_from_readout")
    function("bounds.upper_bound", gsqc.bounds, "upper_bound")
    function("bounds.scaling_fit", gsqc.bounds, "scaling_fit")

    if only is None or "eigensolve.factor" in only:
        splu = spla.splu

        @functools.wraps(splu)
        def factor(A, *args, **kwargs):
            if tracer.call_id is None:
                return splu(A, *args, **kwargs)
            with tracer.span("eigensolve.factor"):
                lu = splu(A, *args, **kwargs)
            tracer.count("eigensolve.lu_nnz", lu.L.nnz + lu.U.nnz)
            tracer.count("eigensolve.factored_nnz", A.nnz)
            return _CountingLU(lu, tracer)

        undo.append((spla, "splu", splu))
        spla.splu = factor

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return restore


# metric name -> (span name, self time instead of duration)
SPAN_SECONDS = {
    "cli.main_s": ("cli.main", False),
    "program.load_s": ("program.load", False),
    "program.validate_s": ("program.validate", False),
    "basis.enumerate_s": ("basis.enumerate", False),
    "hamiltonian.assemble_s": ("hamiltonian.assemble", True),
    "sparse.total_s": ("sparse.total", False),
    "sparse.to_csr_s": ("sparse.to_csr", False),
    "eigensolve.dense_s": ("eigensolve.dense", False),
    "eigensolve.iter_s": ("eigensolve.iter", False),
    "eigensolve.factor_s": ("eigensolve.factor", False),
    "semantics.run_program_s": ("semantics.run_program", True),
    "semantics.verify_development_s": ("semantics.verify_development", False),
    "detection.build_report_s": ("detection.build_report", False),
    "detection.infer_readout_s": ("detection.infer_readout", False),
    "bounds.upper_bound_s": ("bounds.upper_bound", False),
    "bounds.scaling_fit_s": ("bounds.scaling_fit", False),
}
SPAN_CALLS = {
    "cli.sweep_rows": "cli.gap_row",
    "eigensolve.dense_calls": "eigensolve.dense",
    "eigensolve.iter_calls": "eigensolve.iter",
    "eigensolve.factorizations": "eigensolve.factor",
}
COUNTS = ("basis.dim_max", "hamiltonian.terms", "hamiltonian.nnz",
          "sparse.hermitian_builds", "eigensolve.lu_solves")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over the traced pass (traced-run metrics except the
    BLAS-1 solve time and the tracing overhead, which need other passes)."""
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)
    out = {}
    for metric, (name, self_only) in SPAN_SECONDS.items():
        out[metric] = sum(own[s.id] if self_only else s.duration for s in by_name[name])
    for metric, name in SPAN_CALLS.items():
        out[metric] = len(by_name[name])
    for name in COUNTS:
        out[name] = tracer.counts[name]
    out["eigensolve.conv_failures"] = sum(
        s.attrs.get("error") == "ConvergenceError" for s in by_name["eigensolve.solve"])
    lu_nnz, factored = tracer.counts["eigensolve.lu_nnz"], tracer.counts["eigensolve.factored_nnz"]
    out["eigensolve.lu_fill"] = lu_nnz / factored if factored else 0.0

    # solve_spectrum calls per `gsqc run`, attributed to the nearest cli.main span
    runs = {s.id for s in by_name["cli.main"] if s.attrs.get("command") == "run"}
    solves = 0
    for s in by_name["eigensolve.solve"]:
        p = s.parent
        while p is not None and spans[p].name != "cli.main":
            p = spans[p].parent
        solves += p in runs
    out["cli.solves_per_run"] = solves / len(runs) if runs else 0.0
    return out
