"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload interactive_all_nodes --seed 1 \\
        --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  The
launcher (this process, which never imports the program) starts a fresh
child process per set-up sample: ``SETUP_SAMPLES - 1`` children only set
up and exit, the last one sets up and then runs the timed region, checks
every output against its reference and reports.  ``setup_s`` is the
median, over those children, of the time from process start to the end
of the first warm-up operation.  Every time is scaled to a reference host
speed measured by the launcher (:mod:`calibrate`).

``--trace 1`` reports the per-layer metrics: the child runs half of
``--seconds`` untraced, then wraps every layer boundary
(:mod:`layers`), rebuilds the workload and runs the other half traced.

Human-readable lines (metric, value, unit, sample count, failed ratio)
go to standard output first; the last line is the JSON result.  A failed
correctness gate prints the result with ``"correct": false`` and exits 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("interactive_all_nodes", "mc_screen", "gateway_mixed",
                  "sparse_pool_ac")
SETUP_SAMPLES = 3
READY = "PERFBENCH READY"
#: Whole-command budget; children still alive past it are killed.
BUDGET_SECONDS = 170.0


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
class _Child:
    """One child process in its own session (so the whole tree — pool
    workers, gateway server — can be stopped together)."""

    def __init__(self, args, role: str, deadline: float):
        self.deadline = deadline
        self.lines: "queue.Queue[object]" = queue.Queue()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--role", role,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(calibrate.REQUEST):
                try:
                    self.proc.stdin.write(calibrate.answer(line))
                    self.proc.stdin.flush()
                except OSError:      # the child is gone
                    pass
                continue
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark exceeded its time budget")
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("benchmark exceeded its time budget") from None

    def wait_ready(self) -> float:
        """Seconds from process start to the end of set-up."""
        while True:
            line = self.next_line()
            if line is None:
                raise RuntimeError("child exited before finishing set-up")
            if line == READY:
                return time.perf_counter() - self.started

    def finish(self) -> list:
        """Remaining output lines; raises unless the child exits 0."""
        out = []
        while True:
            line = self.next_line()
            if line is None:
                break
            out.append(line)
        code = self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        self.kill()
        if code != 0:
            raise ChildFailed(code, out)
        return out

    def kill(self) -> None:
        """Stop whatever is left of the child's process group."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()


class ChildFailed(RuntimeError):
    def __init__(self, code: int, out: list):
        super().__init__(f"child exited with code {code}")
        self.code = code
        self.out = out


def bracket() -> list:
    """Kernel samples taken just before a child starts."""
    return [calibrate.sample() for _ in range(calibrate.BRACKET)]


def launch(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_SECONDS
    setups = []      # (raw seconds, host-speed factor) per fresh process
    child = None
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                factor = calibrate.speed_factor(bracket())
                child = _Child(args, "setup", deadline)
                setups.append((child.wait_ready(), factor))
                child.finish()
        factor = calibrate.speed_factor(bracket())
        child = _Child(args, "run", deadline)
        ready = child.wait_ready()
        if not args.trace:
            setups.append((ready, factor))
        out = child.finish()
    except ChildFailed as exc:
        for line in exc.out[:-1]:
            print(line)
        if exc.out and exc.out[-1].startswith("{"):
            print(exc.out[-1])       # the failed gate's result
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, TimeoutError) as exc:
        if child is not None:
            child.kill()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out[-1])
    samples = result.pop("samples")
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(raw * factor for raw, factor in setups),
            "unit": "s"}
        samples["setup_s"] = (
            f"{len(setups)} fresh processes; raw "
            f"{statistics.median(raw for raw, _ in setups):.4g} s")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in out[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"({samples.get(name, '')})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':36s} {failed / attempted:14.6g} {'-':6s} "
          f"({failed} of {attempted} attempted)")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Child
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tree_peak_rss_mb() -> float:
    """Summed peak resident set (``VmHWM``) of this process and every
    live descendant: pool workers, the gateway server and its workers."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = set(), [os.getpid()]
    while frontier:
        pid = frontier.pop()
        tree.add(pid)
        frontier.extend(p for p, parent in parents.items()
                        if parent == pid and p not in tree)
    total_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def end_to_end(ops, rss_mb: float, open_loop: bool, factor: float) -> tuple:
    """The end-to-end metrics, wall times scaled to the reference host
    speed by ``factor`` (see :mod:`calibrate`).

    In the open loop only the server's share of a job (queue and compute,
    ``finished - created``) is scaled: the rest is network and the
    client's wait for a connection, which the host's speed does not set,
    and the offered rate is fixed by the schedule.
    """
    def scaled(op, seconds):
        if not open_loop:
            return seconds * factor
        server = op.extra.get("finished", 0.0) - op.extra.get("created", 0.0)
        return seconds + (factor - 1.0) * server

    requests = [scaled(op, op.request_seconds) for op in ops
                if op.request_seconds is not None]
    jobs = [scaled(op, latency) for op in ops
            for latency in op.item_latencies]
    completed = sum(op.items - op.failed for op in ops)
    wall = max(op.end for op in ops) - min(op.due for op in ops)
    if open_loop:
        # The schedule sets the pace: what completed over its span.
        rate = completed / wall
        rate_samples = f"{completed} samples in {wall:.2f} s"
    else:
        # One client waits on each operation: the median operation's
        # rate, so a few operations slowed by the host do not move it.
        rate = statistics.median((op.items - op.failed) / (op.end - op.start)
                                 for op in ops) / factor
        rate_samples = f"median of {len(ops)} operations"
    metrics = {
        "request_p50_ms": (percentile(requests, 50) * 1e3, "ms"),
        "request_p90_ms": (percentile(requests, 90) * 1e3, "ms"),
        "job_p50_ms": (percentile(jobs, 50) * 1e3, "ms"),
        "job_p90_ms": (percentile(jobs, 90) * 1e3, "ms"),
        "samples_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    samples = {
        "request_p50_ms": f"n={len(requests)} requests",
        "request_p90_ms": f"n={len(requests)} requests",
        "job_p50_ms": f"n={len(jobs)} jobs",
        "job_p90_ms": f"n={len(jobs)} jobs",
        "samples_per_s": rate_samples,
        "peak_rss_mb": "VmHWM summed over the process tree",
    }
    return metrics, samples


def per_layer(ops_untraced, ops, before: dict, after: dict) -> tuple:
    import layers

    delta = {name: value - before.get(name, 0)
             for name, value in after.items()}

    def get(name):
        return delta.get(name, 0)

    n = len(ops)
    layer_ns, unattributed_ns = layers.attribute(delta, layers.MAIN)
    worker_ns, worker_unattributed_ns = layers.attribute(delta,
                                                         layers.WORKER)
    self_total = sum(layer_ns.values()) + unattributed_ns
    calls = layers.MAIN + "calls."
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_ns[layer] / n / 1e6, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    def median_latency(batch):
        return statistics.median(op.end - op.start for op in batch)

    gateway = [op for op in ops if "started" in op.extra]
    metrics.update({
        "harness.unattributed_ms": (unattributed_ns / n / 1e6, "ms"),
        "harness.unattributed_share": (ratio(unattributed_ns, self_total),
                                       "ratio"),
        "harness.accounted_share": (ratio(self_total,
                                          get(layers.MAIN + "root_ns")),
                                    "ratio"),
        "harness.trace_overhead_ratio": (
            ratio(median_latency(ops), median_latency(ops_untraced)),
            "ratio"),
        "harness.lag_p90_ms": (percentile([op.start - op.due for op in ops],
                                          90) * 1e3, "ms"),
        "circuit.parse.calls": (get(calls + "circuit.parse") / n, "count"),
        "requests.fingerprint.calls": (
            get(calls + "requests.fingerprint") / n, "count"),
        "compiled.compile.calls": (get(calls + "circuit.compile") / n,
                                   "count"),
        "compiled.restamp.calls": (get(calls + "circuit.restamp") / n,
                                   "count"),
        "linalg.factorize.calls": (sum(
            value for name, value in delta.items()
            if name.startswith("linalg.")
            and name.endswith(".factorizations")) / n, "count"),
        "op.newton.iterations": ((get("newton.iterations")
                                  + get("newton.batch_iterations")) / n,
                                 "count"),
        "op.newton.strategy_failures": (get("newton.strategy_failures") / n,
                                        "count"),
        "op.newton.demotions": (get("newton.batch_demotions") / n, "count"),
        "engine.stability_batch.demotions": (
            get("engine.stability_batch.demotions") / n, "count"),
        "engine.fastpath.group_size": (
            ratio(get(layers.FASTPATH_GROUPS),
                  get(calls + "engine.fastpath")), "count"),
        "engine.compile_cache.hit_ratio": (
            ratio(get("engine.compile_cache.hits"),
                  get("engine.compile_cache.hits")
                  + get("engine.compile_cache.misses")), "ratio"),
        "cache.hit_ratio": (ratio(get("cache.hits"),
                                  get("cache.hits") + get("cache.misses")),
                            "ratio"),
        "jobs.queue_wait_ms": (statistics.median(
            op.extra["started"] - op.extra["created"] for op in gateway)
            * 1e3 if gateway else 0.0, "ms"),
        "jobs.rejected": (get("jobs.rejected"), "count"),
        "gateway.http_ms": (statistics.median(
            op.latency - (op.extra["finished"] - op.extra["started"])
            for op in gateway) * 1e3 if gateway else 0.0, "ms"),
        "service.inflight_waits": (get("service.inflight_waits") / n,
                                   "count"),
        "pool.worker_busy_ms": (get(layers.WORKER + "root_ns") / n / 1e6,
                                "ms"),
        "pool.worker.ac.batch.self_ms": (worker_ns["ac.batch"] / n / 1e6,
                                         "ms"),
        "pool.worker.ac.stacked.self_ms": (worker_ns["ac.stacked"] / n / 1e6,
                                           "ms"),
        "pool.worker.linalg.self_ms": (worker_ns["linalg"] / n / 1e6, "ms"),
        "pool.worker.unattributed_ms": (worker_unattributed_ns / n / 1e6,
                                        "ms"),
        "pool.chunks": (get("engine.chunks") / n, "count"),
        "pool.steals": (get("pool.steals") / n, "count"),
        "pool.redispatches": (get("pool.redispatches") / n, "count"),
        "pool.shm_mb": (get("transport.shm_bytes") / 1e6 / n, "MB"),
    })
    samples = {name: f"per op, n={n} ops" for name in metrics}
    samples["harness.trace_overhead_ratio"] = (
        f"median op {n} traced / {len(ops_untraced)} untraced")
    return metrics, samples


def child(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, scratch)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.role == "setup":
            return 0
        workload.prewarm()
        seconds = args.seconds / 2 if args.trace else args.seconds
        if args.trace:
            ops = workload.run(seconds)
        else:
            # Kernel samples (see calibrate) around the timed region and
            # between its operations.
            speed = calibrate.request(calibrate.BRACKET)
            ops = workload.run(seconds,
                               lambda: speed.extend(calibrate.request()))
            speed += calibrate.request(calibrate.BRACKET)
        rss = None if args.trace else tree_peak_rss_mb()
        mismatched = workload.verify()
        if args.trace:
            workload.close()
            import layers
            layers.install()
            untraced = ops
            workload = cls(args.seed, scratch, traced=True)
            workload.setup()
            workload.prewarm()
            before = workload.counters()
            ops = workload.run(seconds)
            after = workload.counters()
            mismatched += workload.verify()
            metrics, samples = per_layer(untraced, ops, before, after)
            ops = untraced + ops
        else:
            factor = calibrate.speed_factor(speed)
            metrics, samples = end_to_end(ops, rss, cls.open_loop, factor)
            raw, _ = end_to_end(ops, rss, cls.open_loop, 1.0)
            for name, (value, unit) in raw.items():
                if value != metrics[name][0]:
                    samples[name] += f"; raw {value:.4g} {unit}"
            print(f"  host speed x{factor:.4f} of the reference: kernel "
                  f"median {statistics.median(speed):.3f} ms "
                  f"of {len(speed)} samples, reference "
                  f"{calibrate.REFERENCE_MS} ms")
        attempted = sum(op.items for op in ops)
        failed = sum(op.failed for op in ops) + mismatched
        if mismatched:
            print(f"  correctness gate: {mismatched} output(s) disagree "
                  "with the reference")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted,
            "failed": failed, "samples": samples,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}),
            flush=True)
        return 0 if failed == 0 else 1
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is None:
        return launch(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
