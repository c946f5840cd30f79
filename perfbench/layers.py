"""Per-layer attribution for the traced run, applied from outside ``src/``.

The benchmark adds no tracing to the program.  Instead, :func:`install`
wraps the public functions and methods each layer exposes — replacing the
module attribute the calling layer looks up, or the method on the class —
with a :mod:`repro.obs` span, and installs a :class:`StreamingTracer`.
The program's own spans (``circuit.compile``, ``newton.loop``,
``engine.fastpath``...) nest under the wrappers as usual.

Self time is what a span covered minus what its child spans covered.  The
tracer folds every finished span into process-global registry counters
(:data:`MAIN` and :data:`WORKER` prefixes), so:

* in the harness process the counters are read as snapshot deltas;
* pool workers inherit the wrappers at fork, record under their own
  prefix, and ship the counters home with the metric deltas the pool
  already returns after every task;
* the gateway server process exposes them on ``GET /metrics``.

:data:`LAYER_OF` maps each span name to the layer it is attributed to;
names mapped to ``None`` (the harness roots and the dispatch glue of the
service and engine) count as *unattributed*.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import threading
import types

from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, current_tracer, span, use_tracer

#: Span name -> layer metric prefix (``None``: unattributed).
LAYER_OF = {
    "circuit.parse": "circuit.parse",
    "requests.fingerprint": "requests.fingerprint",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "serialize": "serialize",
    "circuit.compile": "compiled.compile",
    "circuit.restamp": "compiled.restamp",
    "circuit.restamp_batch": "compiled.restamp_batch",
    "circuit.linearize_batch": "compiled.linearize_batch",
    "op.newton": "op.newton",
    "newton.loop": "op.newton",
    "newton.strategy": "op.newton",
    "newton.batch": "op.newton_batch",
    "ac.stacked": "ac.stacked",
    "ac.stacked_batch": "ac.stacked_batch",
    "analysis.ac_batch": "ac.batch",
    "linalg.factorize": "linalg",
    "linalg.solve_batch": "linalg",
    "core.impedance": "core.impedance",
    "core.stability_plot": "core.stability_plot",
    "core.peaks": "core.peaks",
    "core.loops": "core.loops",
    "core.report": "core.report",
    "core.all_nodes": "core.all_nodes",
    "core.single_node": "core.single_node",
    "scenarios": "scenarios",
    "engine.fastpath": "engine.fastpath",
    "engine.pool": "engine.pool",
    "job.run": "jobs.run",
    "gateway.http": "gateway.http",
    "gateway.stream_wait": "gateway.stream_wait",
    # Roots and dispatch glue: time here is time no layer claims.
    "harness.op": None,
    "harness.root": None,
    "service.submit": None,
    "service.submit_batch": None,
    "service.screen": None,
    "engine.run": None,
    "request.execute": None,
    "pool.task": None,
    "jobs.execute": None,
}

#: Every layer that gets a ``<layer>.self_ms`` metric, in report order.
LAYERS = sorted({layer for layer in LAYER_OF.values() if layer})

#: Counter prefixes: the harness (or gateway server) process records under
#: ``MAIN``, forked pool workers under ``WORKER``; each side keeps
#: ``self_ns.<span>``, ``calls.<span>`` and ``root_ns`` (the summed
#: duration of root spans — the traced wall time of that side).
MAIN = "perfbench.main."
WORKER = "perfbench.worker."
FASTPATH_GROUPS = "perfbench.fastpath_group_total"


class StreamingTracer(Tracer):
    """A :class:`~repro.obs.trace.Tracer` that also folds finished spans
    into self-time counters as they close.

    Children close before their parent, so each span's child time is
    summed under its id until the parent itself closes.  The span ring is
    kept (small) because the program reads it for per-request telemetry.
    """

    def __init__(self, main_pid: int, capacity: int = 2048):
        super().__init__(capacity=capacity)
        self.main_pid = main_pid
        self._child_ns = {}
        self._agg_lock = threading.Lock()

    def _record(self, finished) -> None:
        super()._record(finished)
        duration_ns = int(finished.duration * 1e9)
        with self._agg_lock:
            self_ns = duration_ns - self._child_ns.pop(finished.span_id, 0)
            if finished.parent_id is not None:
                self._child_ns[finished.parent_id] = \
                    self._child_ns.get(finished.parent_id, 0) + duration_ns
        registry = global_registry()
        prefix = MAIN if os.getpid() == self.main_pid else WORKER
        registry.counter(prefix + "self_ns." + finished.name).inc(
            max(self_ns, 0))
        registry.counter(prefix + "calls." + finished.name).inc()
        if finished.parent_id is None:
            registry.counter(prefix + "root_ns").inc(duration_ns)
        if finished.name == "engine.fastpath":
            registry.counter(FASTPATH_GROUPS).inc(
                int(finished.attrs.get("group_size", 0)))


_TRACER = None


def tracer():
    """The process's streaming tracer (``None`` until :func:`install`)."""
    return _TRACER


def _spanned(fn, name, entry=False):
    """``fn`` under a span called ``name``.

    A thread that reaches a wrapper with no tracer installed (the
    gateway's handler and dispatcher threads) installs the process tracer
    for the call and opens a ``harness.root`` span, so its work is
    attributed too.  ``entry`` marks a pool worker's task entry point:
    a forked worker inherits the forking thread's open span, so the task
    runs in a fresh context and gets a root of its own.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if current_tracer() is None:
            if _TRACER is None:
                return fn(*args, **kwargs)
            with use_tracer(_TRACER), _TRACER.span("harness.root"), \
                    _TRACER.span(name):
                return fn(*args, **kwargs)
        with span(name):
            return fn(*args, **kwargs)

    if entry:
        plain = wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return contextvars.Context().run(plain, *args, **kwargs)

    return wrapper


def _wrap_function(module_name, attr, name, entry=False):
    """Replace ``module.attr`` in every loaded ``repro`` module that
    imported it by name, so each caller's lookup finds the wrapper."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = _spanned(original, name, entry)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _wrap_method(cls, attr, name):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_spanned(raw.__func__, name)))
    else:
        setattr(cls, attr, _spanned(raw, name))


def _json_proxy():
    """A stand-in for the ``json`` module whose (de)serializers are
    spanned as ``serialize``; every other attribute is the real one."""
    proxy = types.SimpleNamespace(**vars(json))
    for attr in ("dumps", "loads", "dump", "load"):
        setattr(proxy, attr, _spanned(getattr(json, attr), "serialize"))
    return proxy


def install() -> StreamingTracer:
    """Wrap every layer boundary and create the process tracer.

    Call before the service builds its worker pool: forked workers
    inherit the wrappers and record their own self time.  Idempotent.
    """
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    import repro.core.report  # noqa: F401 - loaded before its lookups
    import repro.service.engine as engine
    import repro.service.gateway as gateway
    import repro.service.cache as cache
    from repro.analysis.results import ACResult, OPResult
    from repro.core.all_nodes import AllNodesResult
    from repro.core.impedance import BatchImpedanceSweeper, ImpedanceSweeper
    from repro.service.jobs import Job, JobManager
    from repro.service.requests import AnalysisRequest, AnalysisResponse

    functions = [
        ("repro.circuit.parser", "parse_netlist", "circuit.parse"),
        ("repro.analysis.op", "operating_point", "op.newton"),
        ("repro.analysis.ac", "solve_ac_stacked", "ac.stacked"),
        ("repro.analysis.ac", "solve_ac_stacked_batch", "ac.stacked_batch"),
        ("repro.analysis.ac", "solve_ac_batch", "analysis.ac_batch"),
        ("repro.core.all_nodes", "analyze_all_nodes", "core.all_nodes"),
        ("repro.core.all_nodes", "analyze_all_nodes_batch", "core.all_nodes"),
        ("repro.core.single_node", "build_node_result", "core.single_node"),
        ("repro.core.single_node", "analyze_node", "core.single_node"),
        ("repro.core.single_node", "analyze_node_batch", "core.single_node"),
        ("repro.core.stability_plot", "stability_plot", "core.stability_plot"),
        ("repro.core.stability_plot", "stability_plot_grid",
         "core.stability_plot"),
        ("repro.core.stability_plot", "stability_plot_arrays",
         "core.stability_plot"),
        ("repro.core.peaks", "find_peaks", "core.peaks"),
        ("repro.core.peaks", "find_peaks_grid", "core.peaks"),
        ("repro.core.loops", "identify_loops", "core.loops"),
        ("repro.core.report", "format_all_nodes_report", "core.report"),
        ("repro.core.report", "format_single_node_report", "core.report"),
        ("repro.core.report", "format_op_report", "core.report"),
        ("repro.core.report", "format_ac_report", "core.report"),
        ("repro.service.scenarios", "scenario_requests", "scenarios"),
        ("repro.service.scenarios", "stability_yield", "scenarios"),
    ]
    for module_name, attr, name in functions:
        _wrap_function(module_name, attr, name)
    for attr in ("execute_solve_task", "execute_request_chunk"):
        _wrap_function("repro.service.engine", attr, "pool.task", entry=True)
    methods = [
        (ImpedanceSweeper, "__init__", "core.impedance"),
        (ImpedanceSweeper, "impedances", "core.impedance"),
        (ImpedanceSweeper, "impedance_waveforms", "core.impedance"),
        (BatchImpedanceSweeper, "__init__", "core.impedance"),
        (BatchImpedanceSweeper, "impedance_cube", "core.impedance"),
        (BatchImpedanceSweeper, "sample_impedances", "core.impedance"),
        (AnalysisRequest, "fingerprint", "requests.fingerprint"),
        (AnalysisRequest, "structure_fingerprint", "requests.fingerprint"),
        (cache.ResultCache, "get", "cache.get"),
        (cache.ResultCache, "put", "cache.put"),
        (AnalysisResponse, "to_dict", "serialize"),
        (AnalysisResponse, "from_dict", "serialize"),
        (AllNodesResult, "to_dict", "serialize"),
        (OPResult, "to_dict", "serialize"),
        (ACResult, "to_dict", "serialize"),
        (Job, "to_dict", "serialize"),
        (Job, "wait_result", "gateway.stream_wait"),
        (Job, "wait", "gateway.stream_wait"),
        (engine.BatchEngine, "_run_pool", "engine.pool"),
        (JobManager, "_execute", "jobs.execute"),
        (gateway._GatewayHandler, "do_GET", "gateway.http"),
        (gateway._GatewayHandler, "do_POST", "gateway.http"),
    ]
    for cls, attr, name in methods:
        _wrap_method(cls, attr, name)
    for module in (gateway, cache):
        module.json = _json_proxy()
    _TRACER = StreamingTracer(main_pid=os.getpid())
    return _TRACER


# ----------------------------------------------------------------------
# Reduction of counter deltas to per-layer metrics
# ----------------------------------------------------------------------
def attribute(counters: dict, prefix: str = MAIN) -> tuple:
    """``({layer: self ns}, unattributed ns)`` for one process side."""
    layers = {layer: 0 for layer in LAYERS}
    unattributed = 0
    head = prefix + "self_ns."
    for name, value in counters.items():
        if not name.startswith(head):
            continue
        layer = LAYER_OF.get(name[len(head):])
        if layer is None:
            unattributed += value
        else:
            layers[layer] += value
    return layers, unattributed
