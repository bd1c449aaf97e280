"""Outside-in spans and counters around actimetrics' public functions.

The benchmark records spans from its own files: `Tracer.install` replaces
functions at the sites where the CLI and the pipeline look them up, so no
code under src/ knows about tracing. A span holds a name, start, end,
parent, thread and one run id; spans stay in memory and are written out
when the run ends. Counters are taken at the same boundaries.

Kernel calls are counted where `combine` (catalog) and `analysis` (sweeps)
look the `*_values` kernels up. A call is distinct when its kernel, input
content and scalar arguments are new; input content is identified by a
digest of a strided sample of the epoch matrix, which separates the
(metric, kind, squared input, threshold, integration) evaluations of the
catalog without hashing whole recordings.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import os
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

_KERNELS = (
    "pim_corrected_values",
    "zcm_values",
    "tat_values",
    "mad_values",
    "enmo_values",
    "hfen_values",
    "ai_values",
)
_WRITERS = ("write_activity_csv", "write_matrix_csv", "write_matrix_json", "write_sweep_csv")
_METRICS = ("PIM", "ZCM", "TAT", "MAD", "ENMO", "HFEN", "AI")

# Span name -> per-layer self-time metric it adds to.
_SELF_METRIC = {
    "bundle": "cli.self_s",
    "formats.read": "formats.read_s",
    "formats.write": "formats.write_s",
    "core.validate": "core.validate_s",
    "preprocess": "preprocess.s",
    "metrics.noise": "metrics.noise_s",
    "analysis.sweep": "analysis.sweep_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "pipeline.process_subject": "pipeline.self_s",
}

_MB = 1024.0 * 1024.0

# Every per-layer metric `layer_metrics` reports, in BENCHMARK.json order.
LAYER_METRICS = (
    "formats.read_s", "formats.read_mb_per_s", "formats.write_s", "formats.files_written",
    "formats.bytes_written", "core.validate_s", "preprocess.s", "preprocess.calls",
    "preprocess.sweep_calls", "preprocess.peak_alloc_mb", "metrics.noise_s",
    "metrics.kernel_calls", "metrics.kernel_calls_distinct", "metrics.sweep_kernel_calls",
    "combine.s", "combine.variants", *(f"combine.{metric}_s" for metric in _METRICS),
    "analysis.corr_time_s", "analysis.corr_freq_s", "analysis.excluded_pairs",
    "analysis.sweep_s", "analysis.sweep_thresholds", "pipeline.self_s",
    "pipeline.subject_busy_s", "pipeline.subject_wall_s", "pipeline.worker_utilization",
    "cli.self_s", "trace.bundle_s", "trace.self_sum_s",
)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, thread, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = None
        self.attrs = attrs

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _fingerprint(value) -> str:
    """Cheap content digest of an array argument (shape + strided sample)."""
    arr = np.asarray(value)
    flat = arr.reshape(-1)
    step = max(1, flat.size // 4096)
    h = hashlib.blake2b(digest_size=12)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    h.update(np.ascontiguousarray(flat[::step]).tobytes())
    return h.hexdigest()


def _call_key(name, args, kwargs) -> tuple:
    parts = [name]
    for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        parts.append(_fingerprint(value) if isinstance(value, np.ndarray) else repr(value))
    return tuple(parts)


class Tracer:
    """Span recorder for one traced `correlate` run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._distinct: set = set()
        self._stacks: dict[int, list[Span]] = defaultdict(list)
        self._lock = threading.Lock()
        self._next_id = 0
        self._tm_active = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> Span:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1].id
        else:
            # a pool thread's first span hangs under whatever the main
            # thread has open (run_pipeline while it waits on futures)
            main = self._stacks.get(threading.main_thread().ident)
            parent = main[-1].id if main else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, parent, thread, attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    def span(self, name: str, **attrs):
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.span = tracer._open(name, attrs)
                return self.span

            def __exit__(self, exc_type, exc, tb):
                if exc_type is not None:
                    self.span.attrs["error"] = exc_type.__name__
                tracer._close(self.span)
                return False

        return _Ctx()

    # -- wrapping --------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _spanned(self, name, attrs_of=None, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                attrs = attrs_of(args, kwargs) if attrs_of else {}
                with self.span(name, **attrs) as span:
                    result = original(*args, **kwargs)
                    if after:
                        after(span, args, kwargs, result)
                    return result

            return wrapper

        return make

    def _counted_kernel(self, site: str, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                key = _call_key(name, args, kwargs)
                with self._lock:
                    self.counters[f"kernel_calls.{site}"] += 1
                    if (site, key) not in self._distinct:
                        self._distinct.add((site, key))
                        self.counters[f"kernel_calls_distinct.{site}"] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _preprocess(self, site: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self._lock:
                    if self._tm_active == 0:
                        tracemalloc.start()
                    self._tm_active += 1
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                # with jobs > 1 calls overlap and each peak also holds the
                # other thread's allocations: an upper bound per call
                with self.span("preprocess", site=site) as span:
                    try:
                        return original(*args, **kwargs)
                    finally:
                        with self._lock:
                            peak = tracemalloc.get_traced_memory()[1]
                            span.attrs["peak_alloc_mb"] = (peak - base) / _MB
                            self._tm_active -= 1
                            if self._tm_active == 0:
                                tracemalloc.stop()

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every layer boundary of the `correlate` path."""

        def _read_size(span, args, kwargs, result):
            span.attrs["bytes"] = os.path.getsize(args[0])

        def _written_size(span, args, kwargs, result):
            span.attrs["bytes"] = os.path.getsize(args[1])

        def _sweep_size(span, args, kwargs, result):
            span.attrs["thresholds"] = int(np.asarray(result.thresholds).size)

        def _excluded(span, args, kwargs, result):
            span.attrs["excluded_pairs"] = int(np.count_nonzero(result.excluded))

        def _domain(args, kwargs):
            domain = kwargs.get("domain", args[1] if len(args) > 1 else None)
            return {"domain": "freq" if getattr(domain, "value", "") == "frequency" else "time"}

        def _metric(args, kwargs):
            return {"metric": getattr(args[0].metric, "value", str(args[0].metric))}

        p = self._patch
        p("actimetrics.formats", "read_recording", self._spanned("formats.read", after=_read_size))
        for writer in _WRITERS:
            p("actimetrics.formats", writer, self._spanned("formats.write", after=_written_size))
        p("actimetrics.cli", "run_pipeline", self._spanned("pipeline.run_pipeline"))
        p("actimetrics.pipeline", "process_subject", self._spanned("pipeline.process_subject"))
        p("actimetrics.pipeline", "validate_recording", self._spanned("core.validate"))
        p("actimetrics.pipeline", "preprocess_all", self._preprocess("pipeline"))
        p("actimetrics.analysis", "preprocess_all", self._preprocess("sweep"))
        p("actimetrics.pipeline", "estimate_noise_variance", self._spanned("metrics.noise"))
        p("actimetrics.pipeline", "compute_activity", self._spanned("combine", attrs_of=_metric))
        p("actimetrics.pipeline", "correlation_matrix",
          self._spanned("analysis.corr", attrs_of=_domain, after=_excluded))
        p("actimetrics.pipeline", "threshold_sweep", self._spanned("analysis.sweep", after=_sweep_size))
        for kernel in _KERNELS:
            p("actimetrics.combine", kernel, self._counted_kernel("catalog", kernel))
        for kernel in ("zcm_values", "tat_values", "enmo_values", "hfen_values"):
            p("actimetrics.analysis", kernel, self._counted_kernel("sweep", kernel))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [s.as_dict() for s in self.spans],
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("utilization"):
        return "ratio"
    return "count"


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(trace: dict, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json `per_layer`)."""
    spans = [s for s in trace["spans"] if s["end"] is not None]
    counters = trace["counters"]
    selfs = self_times(spans)
    m = dict.fromkeys(LAYER_METRICS, 0.0)

    read_bytes = 0
    subject_spans = []
    peak_alloc = 0.0
    for s in spans:
        name, attrs, own = s["name"], s["attrs"], selfs[s["id"]]
        if name in _SELF_METRIC:
            m[_SELF_METRIC[name]] += own
        if name == "formats.read":
            read_bytes += attrs.get("bytes", 0)
        elif name == "formats.write":
            m["formats.files_written"] += 1
            m["formats.bytes_written"] += attrs.get("bytes", 0)
        elif name == "preprocess":
            m["preprocess.calls"] += 1
            m["preprocess.sweep_calls"] += attrs.get("site") == "sweep"
            peak_alloc = max(peak_alloc, attrs.get("peak_alloc_mb", 0.0))
        elif name == "combine":
            m["combine.s"] += own
            key = f"combine.{attrs['metric']}_s"
            m[key] = m.get(key, 0.0) + own
            m["combine.variants"] += 1
        elif name == "analysis.corr":
            m[f"analysis.corr_{attrs['domain']}_s"] += own  # time or freq
            m["analysis.excluded_pairs"] += attrs.get("excluded_pairs", 0)
        elif name == "analysis.sweep":
            m["analysis.sweep_thresholds"] += attrs.get("thresholds", 0)
        elif name == "pipeline.process_subject":
            subject_spans.append(s)

    m["formats.read_mb_per_s"] = (
        read_bytes / _MB / m["formats.read_s"] if m["formats.read_s"] > 0 else 0.0
    )
    m["preprocess.peak_alloc_mb"] = peak_alloc
    m["metrics.kernel_calls"] = counters.get("kernel_calls.catalog", 0)
    m["metrics.kernel_calls_distinct"] = counters.get("kernel_calls_distinct.catalog", 0)
    m["metrics.sweep_kernel_calls"] = counters.get("kernel_calls.sweep", 0)

    busy = sum(s["end"] - s["start"] for s in subject_spans)
    wall = _union_length((s["start"], s["end"]) for s in subject_spans)
    m["pipeline.subject_busy_s"] = busy
    m["pipeline.subject_wall_s"] = wall
    m["pipeline.worker_utilization"] = busy / (wall * jobs) if wall > 0 else 0.0

    roots = [s for s in spans if s["name"] == "bundle"]
    m["trace.bundle_s"] = sum(s["end"] - s["start"] for s in roots)
    m["trace.self_sum_s"] = sum(selfs.values())
    return m
