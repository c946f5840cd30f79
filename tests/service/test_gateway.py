"""End-to-end tests of the HTTP job gateway — real server, real sockets.

Every test here talks to a live :class:`StabilityGateway` through the
harness (:mod:`tests.service.gateway_harness`): the full job lifecycle
with result parity against the direct engine, the error paths (404, 400,
413, 429 + Retry-After, 503 after shutdown), cancellation, chunked
streaming, graceful-shutdown drain, and the acceptance soak — 200
concurrent submissions of the bundled op-amp all-nodes screen with
bit-equal results, reconciled metrics and a leak-free shutdown.
"""

import json
import os
import re
import threading

from repro.circuits import opamp_buffer_netlist
from repro.obs.metrics import global_registry
from repro.service import AnalysisRequest, AnalysisResponse
from repro.service.engine import execute_request
from repro.service.shm import active_block_names

from tests.service.gateway_harness import GatewayClient, running_gateway

RLC_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""

OP_NETLIST = """divider
.param rtop=1k
V1 in 0 5
R1 in out {rtop}
R2 out 0 1k
.end
"""

PARITY_TOLERANCE = 1e-9

STABILITY_FIELDS = ("performance_index", "natural_frequency_hz",
                    "damping_ratio", "phase_margin_deg", "peak_type")


def _strip_volatile(payload: dict) -> dict:
    """Response dict minus per-invocation fields (timing, cache origin).

    Everything that remains — every voltage, frequency point, verdict —
    must then compare exactly (bit-equal), not just within tolerance.
    """
    cleaned = dict(payload)
    for key in ("elapsed_seconds", "created", "cached", "telemetry", "label"):
        cleaned.pop(key, None)
    if isinstance(cleaned.get("result"), dict):
        cleaned["result"] = dict(cleaned["result"])
        cleaned["result"].pop("elapsed_seconds", None)
    if isinstance(cleaned.get("report"), str):
        cleaned["report"] = re.sub(r"Elapsed: [0-9.]+ s", "Elapsed: - s",
                                   cleaned["report"])
    return cleaned


def _relative_error(a, b) -> float:
    if a is None or isinstance(a, str) or isinstance(a, bool):
        return 0.0 if a == b else float("inf")
    return abs(a - b) / max(abs(a), 1.0)


class TestLifecycle:
    def test_healthz(self):
        with running_gateway(persistent=False) as (gateway, client):
            status, _, payload = client.get("/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["uptime_seconds"] >= 0.0

    def test_submit_poll_results_parity(self):
        """The full loop: POST → 202 → poll → done, and the served result
        equals the direct ``execute_request`` answer."""
        request = AnalysisRequest(mode="all-nodes", netlist=RLC_NETLIST)
        direct = execute_request(request)
        assert direct.ok
        with running_gateway(persistent=False) as (gateway, client):
            job = client.submit(dict(request.to_dict(), label="tank"))
            assert job["status"] in ("queued", "running", "done")
            assert job["requests"] == 1
            final = client.wait(job["id"])
            assert final["status"] == "done"
            assert final["completed"] == 1
            assert final["failed_requests"] == 0
            [served] = final["results"]
            assert served["fingerprint"] == direct.fingerprint
            assert _strip_volatile(served) == _strip_volatile(direct.to_dict())
            # And numerically: every stability field within 1e-9.
            direct_by = {e["node"]: e for e in direct.result["results"]}
            served_by = {e["node"]: e for e in served["result"]["results"]}
            assert set(direct_by) == set(served_by)
            for node, entry in direct_by.items():
                for field in STABILITY_FIELDS:
                    assert _relative_error(
                        entry[field],
                        served_by[node][field]) <= PARITY_TOLERANCE

    def test_montecarlo_scenarios_expand_server_side(self):
        """A base request + scenarios spec fans out into one request per
        sample, each matching the direct engine at 1e-9."""
        with running_gateway(persistent=False) as (gateway, client):
            job = client.submit({
                "mode": "op", "netlist": OP_NETLIST, "label": "mc",
                "scenarios": {
                    "samples": 6, "seed": 11,
                    "variables": {
                        "rtop": {"kind": "uniform", "params": [500.0, 2000.0]},
                    },
                },
            })
            final = client.wait(job["id"])
            assert final["status"] == "done"
            assert final["requests"] == final["completed"] == 6
            # The expansion is deterministic (seed): rebuild the exact
            # request list locally, run it through the direct engine, and
            # demand 1e-9 parity sample by sample.
            from repro.service import Distribution, ScenarioSpec, \
                scenario_requests
            spec = ScenarioSpec(
                variables={"rtop": Distribution.uniform(500.0, 2000.0)},
                samples=6, seed=11)
            base = AnalysisRequest(mode="op", netlist=OP_NETLIST)
            _, expected_requests = scenario_requests(spec, base=base)
            distinct = set()
            for served, expected in zip(final["results"], expected_requests):
                response = AnalysisResponse.from_dict(served)
                direct = execute_request(expected)
                assert response.ok and direct.ok
                assert response.fingerprint == direct.fingerprint
                served_v = response.op_result().voltages()
                direct_v = direct.op_result().voltages()
                assert set(served_v) == set(direct_v)
                for node in direct_v:
                    assert _relative_error(direct_v[node],
                                           served_v[node]) <= PARITY_TOLERANCE
                distinct.add(json.dumps(served_v, sort_keys=True))
            assert len(distinct) == 6              # distinct samples

    def test_poll_partial_results_flag(self):
        """?results=1 embeds partial payloads on a live job; the summary
        form carries only counts."""
        with running_gateway(persistent=False, dispatchers=0) as \
                (gateway, client):
            job = client.submit({"mode": "op", "netlist": OP_NETLIST})
            status, _, summary = client.get(f"/jobs/{job['id']}")
            assert status == 200 and "results" not in summary
            status, _, partial = client.get(f"/jobs/{job['id']}?results=1")
            assert status == 200
            assert partial["results"] == [None]

    def test_jobs_listing(self):
        with running_gateway(persistent=False, dispatchers=0) as \
                (gateway, client):
            first = client.submit({"mode": "op", "netlist": OP_NETLIST})
            second = client.submit({"mode": "op", "netlist": OP_NETLIST,
                                    "priority": "high"})
            status, _, listing = client.get("/jobs")
            assert status == 200
            ids = [entry["id"] for entry in listing["jobs"]]
            assert ids == [first["id"], second["id"]]


class TestErrorPaths:
    def test_unknown_job_404(self):
        with running_gateway(persistent=False) as (gateway, client):
            for method, path in (("GET", "/jobs/deadbeef"),
                                 ("GET", "/jobs/deadbeef/stream"),
                                 ("DELETE", "/jobs/deadbeef")):
                status, _, payload = client.request(method, path)
                assert status == 404, (method, path)
                assert "unknown job" in payload["error"]

    def test_unknown_route_404(self):
        with running_gateway(persistent=False) as (gateway, client):
            assert client.get("/nope")[0] == 404
            assert client.post("/jobs/extra/path", {})[0] == 404

    def test_bad_bodies_400(self):
        with running_gateway(persistent=False) as (gateway, client):
            bad = [
                {},                                      # no netlist
                {"requests": []},                        # empty batch
                {"requests": [{"mode": "op"}]},          # request sans netlist
                {"mode": "op", "netlist": OP_NETLIST,
                 "priority": "urgent"},                  # unknown priority
                {"mode": "op", "netlist": OP_NETLIST,
                 "scenarios": {"samples": 0}},           # bad sample count
                {"mode": "op", "netlist": OP_NETLIST,
                 "scenarios": {"variables":
                               {"rval": {"kind": "normal"}}}},  # no params
            ]
            for body in bad:
                status, _, payload = client.post("/jobs", body)
                assert status == 400, body
                assert "error" in payload
            # Not-JSON body and empty body are 400 too.
            import http.client
            connection = http.client.HTTPConnection(*gateway.address,
                                                    timeout=10)
            try:
                connection.request("POST", "/jobs", b"not json{",
                                   {"Content-Type": "application/json"})
                assert connection.getresponse().status == 400
            finally:
                connection.close()

    def test_type_errors_are_400_with_cause(self):
        """Wrongly typed fields get a 400 naming the field, on a
        connection that stays open, and no job is created."""
        with running_gateway(persistent=False) as (gateway, client):
            cases = [
                ({"netlist": 5}, "netlist"),
                ({"variables": [1, 2]}, "netlist"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "variables": [1, 2]}, "variables"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "variables": {"rtop": "big"}}, "variables['rtop']"),
                ({"mode": "op", "netlist": OP_NETLIST, "gmin": -1},
                 "gmin"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "temperature": -400}, "temperature"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "sweep_start": [1]}, "sweep_start"),
                ({"requests": [5]}, "JSON object"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "scenarios": {"variables": [1, 2]}}, "scenarios"),
                ({"mode": "op", "netlist": OP_NETLIST,
                  "scenarios": [1]}, "scenarios"),
            ]
            import http.client
            connection = http.client.HTTPConnection(*gateway.address,
                                                    timeout=10)
            try:
                for body, cause in cases:
                    connection.request("POST", "/jobs", json.dumps(body),
                                       {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    assert response.status == 400, (body, payload)
                    assert cause in payload["error"], (body, payload)
            finally:
                connection.close()
            assert client.get("/jobs")[2]["jobs"] == []

    def test_queue_full_429_with_retry_after(self):
        """Past the admission watermark the gateway answers 429 and names
        the wait; dispatchers=0 makes the depth deterministic."""
        with running_gateway(persistent=False, dispatchers=0,
                             max_queue_depth=2,
                             retry_after_seconds=3.0) as (gateway, client):
            accepted = [client.submit({"mode": "op", "netlist": OP_NETLIST})
                        for _ in range(2)]
            status, headers, payload = client.post(
                "/jobs", {"mode": "op", "netlist": OP_NETLIST})
            assert status == 429
            assert headers.get("Retry-After") == "3"
            assert "full" in payload["error"]
            # Cancelling a queued job frees a slot: admission recovers.
            client.delete(f"/jobs/{accepted[0]['id']}")
            third = client.submit({"mode": "op", "netlist": OP_NETLIST})
            assert third["status"] == "queued"

    def test_submissions_during_drain_503(self):
        """While the gateway drains (shutdown begun, listener still up so
        pollers can fetch results) new submissions get 503."""
        with running_gateway(persistent=False) as (gateway, client):
            job = client.submit({"mode": "op", "netlist": OP_NETLIST})
            client.wait(job["id"])
            gateway.closing = True          # what close() sets first
            status, _, payload = client.post(
                "/jobs", {"mode": "op", "netlist": OP_NETLIST})
            assert status == 503
            assert "shutting down" in payload["error"]
            # Polling existing jobs still works through the drain window.
            assert client.wait(job["id"])["status"] == "done"


class TestCancellation:
    def test_cancel_queued_job(self):
        with running_gateway(persistent=False, dispatchers=0) as \
                (gateway, client):
            job = client.submit({"mode": "op", "netlist": OP_NETLIST})
            status, _, cancelled = client.delete(f"/jobs/{job['id']}")
            assert status == 200
            assert cancelled["status"] == "cancelled"
            # Cancellation is sticky: the poller sees it, the dispatcher
            # skips it, cancelling again stays cancelled.
            assert client.wait(job["id"])["status"] == "cancelled"
            gateway.jobs.run_next()
            assert client.wait(job["id"])["status"] == "cancelled"
            status, _, again = client.delete(f"/jobs/{job['id']}")
            assert status == 200 and again["status"] == "cancelled"

    def test_cancel_running_job_stops_at_slice_boundary(self):
        """A running job's cancel lands between execution slices: the job
        ends ``cancelled`` with partial results."""
        with running_gateway(persistent=False, dispatchers=0,
                             slice_size=1) as (gateway, client):
            request = AnalysisRequest(mode="op", netlist=OP_NETLIST)
            job = gateway.jobs.submit([request] * 4)
            claimed = gateway.jobs.queue.get(timeout=1.0)
            assert claimed is job and job.try_start()
            job.request_cancel()
            gateway.jobs._execute(job)
            assert job.status == "cancelled"
            client_view = client.wait(job.id)
            assert client_view["status"] == "cancelled"
            assert client_view["completed"] < 4


class TestStreaming:
    def test_stream_yields_per_request_lines_then_summary(self):
        with running_gateway(persistent=False) as (gateway, client):
            job = client.submit({
                "mode": "op", "netlist": OP_NETLIST,
                "scenarios": {"samples": 4, "seed": 3, "variables": {
                    "rtop": {"kind": "uniform", "params": [800.0, 1200.0]}}},
            })
            lines = client.stream(job["id"])
            *results, summary = lines
            assert [line["index"] for line in results] == [0, 1, 2, 3]
            assert all(line["response"]["status"] == "done"
                       for line in results)
            assert summary["status"] == "done"
            assert summary["completed"] == 4

    def test_stream_of_finished_job_replays_everything(self):
        with running_gateway(persistent=False) as (gateway, client):
            job = client.submit({"mode": "op", "netlist": OP_NETLIST})
            client.wait(job["id"])
            lines = client.stream(job["id"])
            assert len(lines) == 2
            assert lines[0]["index"] == 0
            assert lines[1]["status"] == "done"


class TestShutdown:
    def test_graceful_close_drains_queued_jobs(self):
        """close(drain=True) finishes the backlog before the pool dies."""
        with running_gateway(persistent=False, dispatchers=2) as \
                (gateway, client):
            jobs = [client.submit({"mode": "op", "netlist": OP_NETLIST,
                                   "label": f"drain{i}"})
                    for i in range(8)]
            assert gateway.close(drain=True) is True
            for job in jobs:
                final = gateway.jobs.get(job["id"])
                assert final is not None and final.status == "done"

    def test_close_without_drain_cancels_backlog(self):
        with running_gateway(persistent=False, dispatchers=0) as \
                (gateway, client):
            job = client.submit({"mode": "op", "netlist": OP_NETLIST})
            gateway.close(drain=False)
            assert gateway.jobs.get(job["id"]).status == "cancelled"

    def test_close_is_idempotent_and_safe_unstarted(self):
        from repro.service.gateway import StabilityGateway

        gateway = StabilityGateway(backend="serial", persistent=False)
        assert gateway.close() is True      # never started serving
        assert gateway.close() is True      # and again
        with running_gateway(persistent=False) as (gateway, client):
            assert gateway.close() is True
            assert gateway.close() is True  # context exit closes a third time


class TestMetrics:
    def test_metrics_reconcile_with_engine_report(self):
        with running_gateway(persistent=False) as (gateway, client):
            for i in range(3):
                client.wait(client.submit({"mode": "op",
                                           "netlist": OP_NETLIST,
                                           "label": f"m{i}"})["id"])
            status, _, metrics = client.get("/metrics")
            assert status == 200
            report = gateway.service.engine_report()
            assert metrics["cache"] == report["cache"]
            assert metrics["engine"] == report["engine"]
            # Counters only ever grow between the two snapshots, and the
            # job-lifecycle section must agree with the manager.
            for name, value in metrics["metrics"]["counters"].items():
                assert report["metrics"]["counters"].get(name, 0) >= value
            stats = gateway.jobs.stats()
            for key in ("submitted", "completed", "queued", "running"):
                assert metrics["gateway"][key] == stats[key]
            assert metrics["gateway"]["completed"] >= 3


class TestAcceptanceSoak:
    def test_200_concurrent_opamp_screens(self):
        """The ISSUE acceptance bar, end to end over real HTTP.

        200 concurrent submissions of the bundled op-amp all-nodes
        screen: zero dropped jobs (the watermark is above the burst),
        every served result bit-equal to the direct-engine answer,
        ``/metrics`` reconciling with ``engine_report()``, and a
        graceful shutdown that leaves no shm blocks and no orphan pool
        workers behind.
        """
        netlist = opamp_buffer_netlist()
        request = AnalysisRequest(mode="all-nodes", netlist=netlist)
        direct = execute_request(request)
        assert direct.ok
        direct_payload = _strip_volatile(direct.to_dict())

        jobs_total, submitters = 200, 16
        submitted_counter = global_registry().counter("jobs.submitted")
        submitted_before = submitted_counter.value
        with running_gateway(backend="process", max_workers=2,
                             dispatchers=2, max_queue_depth=500) as \
                (gateway, client):
            worker_pids = []
            job_ids = [[] for _ in range(submitters)]
            errors = []

            def submit_burst(slot: int, count: int) -> None:
                own = GatewayClient(*gateway.address)
                for i in range(count):
                    try:
                        job = own.submit(dict(request.to_dict(),
                                              label=f"soak{slot}-{i}"))
                        job_ids[slot].append(job["id"])
                    except Exception as exc:   # pragma: no cover - fail loud
                        errors.append(exc)

            share, extra = divmod(jobs_total, submitters)
            threads = [threading.Thread(target=submit_burst,
                                        args=(slot,
                                              share + (slot < extra)))
                       for slot in range(submitters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors[:3]

            all_ids = [job_id for slot in job_ids for job_id in slot]
            assert len(all_ids) == jobs_total      # zero dropped jobs

            for job_id in all_ids:
                final = client.wait(job_id, timeout=120.0)
                assert final["status"] == "done", final
                [served] = final["results"]
                assert _strip_volatile(served) == direct_payload  # bit-equal

            # /metrics reconciles with the service's own report.
            _, _, metrics = client.get("/metrics")
            report = gateway.service.engine_report()
            assert metrics["cache"] == report["cache"]
            assert submitted_counter.value - submitted_before == jobs_total
            assert metrics["gateway"]["completed"] >= jobs_total

            pool = gateway.service.engine.pool
            if pool is not None:
                worker_pids = pool.worker_pids()

            assert gateway.close(drain=True) is True

        # Leak contract: no shm blocks, no orphan workers.
        assert active_block_names() == []
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
                alive = True
            except (ProcessLookupError, PermissionError):
                alive = False
            assert not alive, f"orphan pool worker {pid}"
