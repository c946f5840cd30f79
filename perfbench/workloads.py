"""The four benchmark workloads: inputs from a seed, timed runs, gates.

Each workload follows one protocol, driven by :mod:`run`:

``setup()``
    construct the service (and pool or server process) and finish the
    first warm-up operation — this is what ``setup_s`` times;
``prewarm()``
    untimed work that fills caches users would have warm;
``run(seconds)``
    the timed region; returns one :class:`Op` per client operation;
``verify()``
    the correctness gate, computed outside the timed region; returns the
    number of mismatched items;
``counters()``
    the metric-registry counters the per-layer counts are read from, plus
    the result cache's own counters as ``cache.<field>``;
``close()``
    stop everything the workload started.

A workload built with ``traced=True`` runs under the per-layer tracing of
:mod:`layers`, which must be installed first.  The program receives only
the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.circuit.builder import CircuitBuilder
from repro.circuits import opamp_buffer, opamp_buffer_netlist, opamp_with_bias
from repro.obs.metrics import global_registry
from repro.obs.trace import use_tracer
from repro.service import (AnalysisRequest, BatchEngine, Distribution,
                           ScenarioSpec, StabilityService)
from repro.service.engine import execute_request

MAX_WORKERS = 2
STABILITY_FIELDS = ("performance_index", "natural_frequency_hz",
                    "damping_ratio", "phase_margin_deg",
                    "overshoot_percent", "peak_type")
TOLERANCE = 1e-9


@dataclass
class Op:
    """One client operation of a timed run."""

    due: float                   #: when it was scheduled to start
    start: float                 #: when the client issued it
    end: float                   #: when its last result arrived
    items: int                   #: analysis requests (samples) it carried
    #: latency of each job the op carried, from ``due`` to its result,
    #: seconds: one per request in a closed loop (a Monte Carlo sample's
    #: result is in hand when the progress callback sees it), one per
    #: gateway job
    item_latencies: List[float] = field(default_factory=list)
    failed: int = 0              #: items that failed or were refused
    #: the client call's round trip: from the call (or the gateway's
    #: ``POST /jobs``) to the response (the final line of the job's stream)
    request_seconds: Optional[float] = None
    #: a gateway job's ``created``/``started``/``finished`` server times
    extra: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.due


def field_error(want, got) -> float:
    """Relative error of one stability field (exact for strings/None)."""
    if want is None or isinstance(want, str):
        return 0.0 if want == got else math.inf
    if got is None or isinstance(got, str):
        return math.inf
    return abs(want - got) / max(abs(want), 1.0)


def vector_error(want, got) -> float:
    """Worst elementwise relative error between two result vectors."""
    want, got = np.asarray(want, dtype=float), np.asarray(got, dtype=float)
    if want.shape != got.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0),
                        initial=0.0))


def stability_fields(response) -> Optional[dict]:
    """``{node: {field: value}}`` of an all-nodes response (``None`` when
    it failed) — all the gate compares, so the rest can be dropped."""
    if not response.ok:
        return None
    return {entry["node"]: {name: entry[name] for name in STABILITY_FIELDS}
            for entry in response.result["results"]}


def stability_mismatch(reference, served) -> float:
    """Worst stability-field error between two :func:`stability_fields`."""
    if reference is None or served is None or set(reference) != set(served):
        return math.inf
    return max((field_error(reference[node][name], served[node][name])
                for node in reference for name in STABILITY_FIELDS),
               default=0.0)


class _InProcess:
    """Shared plumbing of the three workloads that call the service
    directly: one service, closed loop, one client."""

    name = ""
    open_loop = False
    #: Most outputs the gate re-runs per timed run: re-running every one
    #: would cost as long as the run itself.
    CHECKS = 24

    def __init__(self, seed: int, scratch: str, traced: bool = False):
        self.rng = random.Random(seed)
        #: Picks the outputs a sampled gate re-checks, apart from the
        #: input stream so the checks never change the inputs.
        self.check_rng = random.Random(seed + 1)
        self.scratch = scratch
        self.traced = traced
        self.service: Optional[StabilityService] = None
        self.tracer = None
        #: What the gate needs of each timed operation, nothing more.
        self.issued = []

    def prewarm(self) -> None:
        """Nothing to warm: every operation is meant to miss the cache."""

    def _checked(self) -> list:
        """A seed-picked sample of at most :attr:`CHECKS` of the issued
        outputs, drawn from the whole run; empties the issued list."""
        issued, self.issued = self.issued, []
        return self.check_rng.sample(issued, min(self.CHECKS, len(issued)))

    def counters(self) -> dict:
        cache = self.service.cache.stats.snapshot()["counters"]
        return dict(global_registry().snapshot()["counters"], **cache)

    def _timed(self, call):
        """Run ``call`` under the tracer's ``harness.op`` root, if any."""
        if self.tracer is None:
            return call()
        with use_tracer(self.tracer), self.tracer.span("harness.op"):
            return call()

    def run(self, seconds: float, between=None) -> List[Op]:
        """Operations back to back for ``seconds``; ``between()``, if
        given, is called untimed before each one."""
        if self.traced:
            from layers import tracer
            self.tracer = tracer()
        ops = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if between is not None:
                between()
            ops.append(self._op())
        self.tracer = None
        return ops

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# ----------------------------------------------------------------------
class InteractiveAllNodes(_InProcess):
    """One designer: edit a design variable, re-run the all-nodes screen
    of the full Table-2 circuit (op-amp + bias cell), read the verdict."""

    name = "interactive_all_nodes"
    #: The design points a designer steps through: load, Miller capacitor
    #: and zero resistor around the Table-2 values.  Cycling them keeps
    #: every run's mix of easy and hard screens the same.
    EDITS = tuple({"cload": cload, "c1": c1, "rzero": rzero}
                  for cload in (0.5e-9, 1e-9, 2e-9)
                  for c1 in (15.5e-12, 17e-12, 18.5e-12)
                  for rzero in (110.0, 150.0))

    def setup(self) -> None:
        self.circuit = opamp_with_bias().circuit
        self.service = StabilityService(max_workers=MAX_WORKERS)
        self.position = self.rng.randrange(len(self.EDITS))
        self._submit({})

    def _variant(self) -> dict:
        """The next design edit: a point of :data:`EDITS`, cycled from a
        seed-drawn offset, moved by a seed-drawn 1% so that it is new."""
        edit = self.EDITS[self.position % len(self.EDITS)]
        self.position += 1
        return {name: value * self.rng.uniform(0.99, 1.01)
                for name, value in edit.items()}

    def _submit(self, variables: dict):
        request = AnalysisRequest(mode="all-nodes", circuit=self.circuit,
                                  variables=variables)
        return self.service.submit(request)

    def _op(self) -> Op:
        variables = self._variant()
        start = time.perf_counter()
        response = self._timed(lambda: self._submit(variables))
        end = time.perf_counter()
        self.issued.append((variables, stability_fields(response)))
        failed = int(not response.ok or response.cached)
        return Op(due=start, start=start, end=end, items=1,
                  item_latencies=[end - start], failed=failed,
                  request_seconds=end - start)

    def verify(self) -> int:
        mismatched = 0
        for variables, served in self._checked():
            reference = execute_request(AnalysisRequest(
                mode="all-nodes", circuit=self.circuit, variables=variables))
            mismatched += stability_mismatch(stability_fields(reference),
                                             served) > TOLERANCE
        return mismatched


# ----------------------------------------------------------------------
class MonteCarloScreen(_InProcess):
    """Repeated 64-sample all-nodes Monte Carlo screens of the op-amp
    buffer, each at one temperature corner with ``vcm``/``cload``
    scattered."""

    name = "mc_screen"
    SAMPLES = 64
    #: Temperature corners, cycled from a seed-drawn offset so that every
    #: run screens each corner about equally often.
    CORNERS = (-40.0, 0.0, 27.0, 85.0, 125.0)
    #: Samples per screen offered to the gate, which re-runs
    #: :attr:`CHECKS` of them through the scalar path.
    CHECKED_PER_SCREEN = 4
    CHECKS = 32

    def setup(self) -> None:
        self.circuit = opamp_buffer().circuit
        self.service = StabilityService(max_workers=MAX_WORKERS)
        self.position = self.rng.randrange(len(self.CORNERS))
        self._screen(self._spec(), None)

    def _spec(self) -> ScenarioSpec:
        corner = self.CORNERS[self.position % len(self.CORNERS)]
        self.position += 1
        return ScenarioSpec(
            variables={"vcm": Distribution.uniform(2.45, 2.55),
                       "cload": Distribution.loguniform(0.8e-9, 1.25e-9)},
            base_temperature=corner,
            samples=self.SAMPLES, seed=self.rng.randrange(2 ** 31))

    def _screen(self, spec, progress):
        return self.service.screen(spec, circuit=self.circuit,
                                   progress=progress)

    def _op(self) -> Op:
        spec = self._spec()
        arrivals = []
        start = time.perf_counter()
        report = self._timed(lambda: self._screen(
            spec, lambda _done, _total, _r: arrivals.append(
                time.perf_counter())))
        end = time.perf_counter()
        picks = self.check_rng.sample(range(len(report.responses)),
                                      self.CHECKED_PER_SCREEN)
        self.issued.extend((report.scenarios[index],
                            stability_fields(report.responses[index]))
                           for index in picks)
        failed = sum(1 for r in report.responses if not r.ok or r.cached)
        return Op(due=start, start=start, end=end, items=len(arrivals),
                  item_latencies=[t - start for t in arrivals],
                  failed=failed, request_seconds=end - start)

    def verify(self) -> int:
        mismatched = 0
        for scenario, served in self._checked():
            reference = execute_request(AnalysisRequest(
                mode="all-nodes", circuit=self.circuit,
                temperature=scenario.temperature, gmin=scenario.gmin,
                variables=scenario.variables))
            mismatched += stability_mismatch(stability_fields(reference),
                                             served) > TOLERANCE
        return mismatched


# ----------------------------------------------------------------------
def tc_ladder(sections: int):
    """RC ladder whose resistors drift with temperature (``tc1 != 0``)."""
    builder = CircuitBuilder(f"tc ladder {sections}")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="V1")
    previous = "in"
    for index in range(1, sections + 1):
        node = f"n{index}"
        builder.resistor(previous, node, 1e3, name=f"R{index}", tc1=2e-4)
        builder.capacitor(node, "0", 1e-12, name=f"C{index}")
        previous = node
    return builder.build()


def ac_planes(response) -> Optional[tuple]:
    """The real and imaginary response planes of an ``ac`` response as
    arrays (``None`` when it failed)."""
    if not response.ok:
        return None
    return (np.asarray(response.result["data_real"], dtype=float),
            np.asarray(response.result["data_imag"], dtype=float))


class SparsePoolAC(_InProcess):
    """Repeated 64-request ``ac`` batches — a temperature scatter on a
    1000-section tc ladder, sparse backend — on the warm worker pool over
    the shared-memory value-plane route."""

    name = "sparse_pool_ac"
    SECTIONS = 1000
    BATCH = 64
    SWEEP = dict(sweep_start=1e3, sweep_stop=1e9, sweep_points_per_decade=4)
    #: Requests per batch offered to the gate, which re-runs
    #: :attr:`CHECKS` of them through the serial engine.
    CHECKED_PER_BATCH = 8
    CHECKS = 32

    def setup(self) -> None:
        self.circuit = tc_ladder(self.SECTIONS)
        self.service = StabilityService(max_workers=MAX_WORKERS)
        self.service.submit_batch(self._requests())

    def _requests(self) -> List[AnalysisRequest]:
        return [AnalysisRequest(mode="ac", circuit=self.circuit,
                                temperature=self.rng.uniform(-40.0, 125.0),
                                backend="sparse", node=f"n{self.SECTIONS}",
                                label=f"s{index}", **self.SWEEP)
                for index in range(self.BATCH)]

    def _op(self) -> Op:
        requests = self._requests()
        arrivals = []
        start = time.perf_counter()
        responses = self._timed(lambda: self.service.submit_batch(
            requests, progress=lambda _d, _t, _r: arrivals.append(
                time.perf_counter())))
        end = time.perf_counter()
        picks = self.check_rng.sample(range(len(requests)),
                                      self.CHECKED_PER_BATCH)
        self.issued.extend((requests[index], ac_planes(responses[index]))
                           for index in picks)
        failed = sum(1 for r in responses if not r.ok or r.cached)
        return Op(due=start, start=start, end=end, items=len(arrivals),
                  item_latencies=[t - start for t in arrivals],
                  failed=failed, request_seconds=end - start)

    def verify(self) -> int:
        mismatched = 0
        issued = self._checked()
        references = BatchEngine(backend="serial", persistent=False).run(
            [request for request, _ in issued])
        for (_, served), reference in zip(issued, references):
            want = ac_planes(reference)
            if want is None or served is None:
                mismatched += 1
                continue
            mismatched += max(vector_error(w, g)
                              for w, g in zip(want, served)) > TOLERANCE
        return mismatched


# ----------------------------------------------------------------------
def strip_volatile(payload: dict) -> dict:
    """A response payload without its timing/cache/label fields (the
    all-nodes report prints its elapsed time too)."""
    payload = dict(payload)
    for key in ("elapsed_seconds", "created", "cached", "telemetry", "label"):
        payload.pop(key, None)
    if isinstance(payload.get("report"), str):
        payload["report"] = re.sub(r"Elapsed: [0-9.]+ s", "Elapsed: - s",
                                   payload["report"])
    result = payload.get("result")
    if isinstance(result, dict):
        result = dict(result)
        result.pop("elapsed_seconds", None)
        payload["result"] = result
    return payload


class _Connection:
    """One persistent keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode()
        self.conn.request(method, path, body=payload,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class GatewayMixed:
    """Open-loop traffic at a fixed rate against ``python -m repro.service
    serve`` in its own process, over two persistent connections."""

    name = "gateway_mixed"
    open_loop = True
    #: Offered load (jobs/s): a quarter of the capacity measured with
    #: ``python3 perfbench/reports.py ladder`` on a 2-core x86_64 box.  The
    #: 250 ms between jobs keeps a heavy job (~150 ms) from running into
    #: the next one; at 6 jobs/s (167 ms) a slightly slow host makes them
    #: overlap, and the overlaps swing both percentiles from run to run.
    RATE = 4.0
    #: p90 job-latency limit (ms) the rate ladder holds the gateway to.
    P90_LIMIT_MS = 250.0
    CONNECTIONS = 2
    REPEAT_VARIANTS = 4
    #: The traffic mix, cycled from a seed-drawn offset: 60% repeats of
    #: a few ``op`` variants (cache reads), 30% fresh lists of 2-4 ``op``
    #: variants (cache writes, batched groups), 10% fresh all-nodes jobs.
    #: A fixed cycle keeps every run's composition identical, and spaces
    #: the heavy jobs apart; the seed draws the order offset and values.
    PATTERN = ("repeat", "list2", "repeat", "screen", "repeat", "list3",
               "repeat", "repeat", "list4", "repeat")
    #: Jobs still running this long after the schedule ends are failed.
    GRACE_SECONDS = 30.0
    #: ``run``'s ``between()`` is called only when no job is in flight and
    #: none is due for this long, so that it never delays or slows a job.
    QUIET_SECONDS = 0.05

    def __init__(self, seed: int, scratch: str, traced: bool = False):
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.traced = traced
        self.rate = self.RATE
        self.position = self.rng.randrange(len(self.PATTERN))
        self.engine = BatchEngine(backend="serial", persistent=False)
        self.netlist = opamp_buffer_netlist()
        self.repeats = [{"cload": 1e-9 * (0.5 + 0.5 * k)}
                        for k in range(self.REPEAT_VARIANTS)]
        self.server = None
        self.connections: List[_Connection] = []
        self.references = {}
        self.finished_jobs = []

    # -- server lifecycle ----------------------------------------------
    def setup(self) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cache_dir = os.path.join(self.scratch, "gateway-cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.makedirs(cache_dir)
        entry = ([sys.executable, os.path.join(root, "perfbench",
                                               "traced_serve.py")]
                 if self.traced else [sys.executable, "-m", "repro.service"])
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.server = subprocess.Popen(
            entry + ["serve", "--host", "127.0.0.1", "--port", "0",
                     "--cache-dir", cache_dir,
                     "--workers", str(MAX_WORKERS)],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        banner = self.server.stderr.readline()
        match = re.search(r"serving on http://[^:]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"gateway did not start: {banner!r}")
        self.port = int(match.group(1))
        threading.Thread(target=self.server.stderr.read, daemon=True).start()
        self.connections = [_Connection(self.port)
                            for _ in range(self.CONNECTIONS)]
        self._job(self.connections[0], self._repeat_body(0), time.perf_counter())

    def prewarm(self) -> None:
        for index in range(1, self.REPEAT_VARIANTS):
            self._job(self.connections[0], self._repeat_body(index),
                      time.perf_counter())
        self.finished_jobs = []

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None

    def counters(self) -> dict:
        status, body = self.connections[0].call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        body = json.loads(body)
        cache = {f"cache.{name}": value
                 for name, value in body["cache"].items()
                 if isinstance(value, int)}
        return dict(body["metrics"]["counters"], **cache)

    # -- traffic ---------------------------------------------------------
    def _op_request(self, variables: dict) -> dict:
        return {"mode": "op", "netlist": self.netlist, "variables": variables}

    def _repeat_body(self, index: int) -> dict:
        return dict(self._op_request(self.repeats[index]), label="repeat")

    def _fresh_variables(self) -> dict:
        """A variant no earlier job asked for.  ``cload`` makes it fresh
        without moving the bias point, and ``vcm`` moves it slightly, so
        fresh jobs cost about the same from seed to seed."""
        return {"vcm": self.rng.uniform(2.495, 2.505),
                "cload": math.exp(self.rng.uniform(math.log(0.5e-9),
                                                   math.log(2e-9)))}

    def _next_body(self) -> dict:
        kind = self.PATTERN[self.position % len(self.PATTERN)]
        self.position += 1
        if kind == "repeat":
            return self._repeat_body(self.rng.randrange(self.REPEAT_VARIANTS))
        if kind == "screen":
            return {"mode": "all-nodes", "netlist": self.netlist,
                    "variables": self._fresh_variables(), "label": "screen"}
        return {"requests": [self._op_request(self._fresh_variables())
                             for _ in range(int(kind[-1]))],
                "label": "batch"}

    @staticmethod
    def _entries(body: dict) -> list:
        if "requests" in body:
            return body["requests"]
        return [{k: v for k, v in body.items() if k != "label"}]

    def _job(self, connection: _Connection, body: dict, due: float) -> Op:
        items = len(self._entries(body))
        start = time.perf_counter()
        status, raw = connection.call("POST", "/jobs", body)
        if status != 202:
            return Op(due=due, start=start, end=time.perf_counter(),
                      items=items, failed=items)
        job_id = json.loads(raw)["id"]
        status, raw = connection.call("GET", f"/jobs/{job_id}/stream")
        end = time.perf_counter()
        lines = [json.loads(line) for line in raw.splitlines() if line]
        summary = lines[-1] if lines else {}
        results = {line["index"]: line["response"] for line in lines[:-1]
                   if "index" in line}
        self.finished_jobs.append((body, results))
        failed = items if summary.get("status") != "done" else sum(
            1 for index in range(items)
            if (results.get(index) or {}).get("status") != "done")
        # The request is timed from when it was sent, the job from when
        # it was due: the difference is the wait for a free connection.
        return Op(due=due, start=start, end=end, items=items,
                  item_latencies=[end - due], failed=failed,
                  request_seconds=end - start,
                  extra={"created": summary.get("created"),
                         "started": summary.get("started"),
                         "finished": summary.get("finished")})

    def run(self, seconds: float, between=None) -> List[Op]:
        """The schedule for ``seconds``; ``between()``, if given, is called
        in quiet gaps (see :data:`QUIET_SECONDS`), at most once per job."""
        count = max(1, int(seconds * self.rate))
        bodies = [self._next_body() for _ in range(count)]
        origin = time.perf_counter() + 0.05
        dues = [origin + k / self.rate for k in range(count)]
        ops: List[Optional[Op]] = [None] * count
        cursor = iter(range(count))
        lock = threading.Lock()
        cutoff = dues[-1] + self.GRACE_SECONDS
        pending = set()      # dues of jobs a client holds but has not sent
        in_flight = 0

        def client(connection: _Connection) -> None:
            nonlocal in_flight
            while True:
                with lock:
                    index = next(cursor, None)
                    if index is not None:
                        pending.add(dues[index])
                if index is None:
                    return
                due = dues[index]
                items = len(self._entries(bodies[index]))
                if time.perf_counter() > cutoff:
                    with lock:
                        pending.discard(due)
                    ops[index] = Op(due=due, start=due, end=due, items=items,
                                    failed=items)
                    continue
                if between is not None:
                    with lock:
                        if not in_flight and min(pending) - \
                                time.perf_counter() > self.QUIET_SECONDS:
                            between()
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    pending.discard(due)
                    in_flight += 1
                ops[index] = self._job(connection, bodies[index], due)
                with lock:
                    in_flight -= 1

        threads = [threading.Thread(target=client, args=(connection,))
                   for connection in self.connections]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ops  # type: ignore[return-value]

    # -- gate ------------------------------------------------------------
    def _references(self, body: dict) -> list:
        """Stripped reference payloads for every request of a job.

        A single request is run by a direct ``execute_request``, the
        scalar path the gateway takes for it.  A list is run by an
        in-process serial engine, the batched fast path the gateway takes
        for it (``newton-batch`` agrees with scalar Newton only to the
        Newton tolerance, so the scalar path is not its reference).
        """
        key = json.dumps(body, sort_keys=True)
        if key not in self.references:
            requests = [AnalysisRequest.from_dict(entry)
                        for entry in self._entries(body)]
            responses = (self.engine.run(requests) if "requests" in body
                         else [execute_request(requests[0])])
            self.references[key] = [strip_volatile(response.to_dict())
                                    for response in responses]
        return self.references[key]

    def verify(self) -> int:
        """Every served result must be bit-equal to its reference once
        volatile fields are stripped."""
        mismatched = 0
        for body, results in self.finished_jobs:
            for index, reference in enumerate(self._references(body)):
                served = results.get(index)
                mismatched += served is None or \
                    strip_volatile(served) != reference
        self.finished_jobs = []
        return mismatched


WORKLOADS = {cls.name: cls for cls in (InteractiveAllNodes, MonteCarloScreen,
                                       GatewayMixed, SparsePoolAC)}
