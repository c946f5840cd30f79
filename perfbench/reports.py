"""Reports kept beside the gated benchmark; nothing here is gated.

Run from the root of a checkout::

    python3 perfbench/reports.py crossover [--seed 1]
    python3 perfbench/reports.py ladder [--seed 1] [--seconds 8]

``crossover``
    per-request milliseconds of ``execute_linear_batch`` (the engine's
    in-process batched fast path) against a per-request
    ``execute_request`` loop, for N in {1, 2, 4, ..., 64}, modes ``op``
    and ``all-nodes``, on the op-amp buffer.  This is the table a per-mode
    ``BATCH_FASTPATH_MIN`` should be derived from.
``ladder``
    the ``gateway_mixed`` traffic at a ladder of offered rates: closed-loop
    capacity first, then p50/p90 job latency, generator lag and backlog
    growth per rate, and the highest rate that meets the workload's p90
    limit without a growing backlog.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.circuits import opamp_buffer  # noqa: E402
from repro.service import AnalysisRequest  # noqa: E402
from repro.service.engine import execute_linear_batch, execute_request  # noqa: E402
from workloads import GatewayMixed  # noqa: E402

SIZES = (1, 2, 4, 8, 16, 32, 64)
MODES = ("op", "all-nodes")


def crossover(seed: int) -> None:
    rng = random.Random(seed)
    circuit = opamp_buffer().circuit

    def batch(mode, n):
        return [AnalysisRequest(mode=mode, circuit=circuit, variables={
            "vcm": rng.uniform(2.45, 2.55),
            "cload": 1e-9 * rng.uniform(0.8, 1.25)}) for _ in range(n)]

    for mode in MODES:                       # compile + first-call warm-up
        execute_linear_batch(batch(mode, 2))
        execute_request(batch(mode, 1)[0])
    print("per-request ms, op-amp buffer (median of 3 fresh batches)")
    print(f"{'mode':10s} {'N':>4s} {'scalar loop':>12s} {'batched':>10s} "
          f"{'batched/scalar':>15s}")
    for mode in MODES:
        for n in SIZES:
            scalar, batched = [], []
            for _ in range(3):
                requests = batch(mode, n)
                start = time.perf_counter()
                for request in requests:
                    execute_request(request)
                scalar.append((time.perf_counter() - start) / n)
                requests = batch(mode, n)
                start = time.perf_counter()
                responses = execute_linear_batch(requests)
                batched.append((time.perf_counter() - start) / n)
                if responses is None or not all(r.ok for r in responses):
                    raise SystemExit(f"{mode} N={n}: the batch failed")
            s, b = statistics.median(scalar), statistics.median(batched)
            print(f"{mode:10s} {n:4d} {s * 1e3:12.2f} {b * 1e3:10.2f} "
                  f"{b / s:15.2f}")


def _closed_loop_capacity(workload: GatewayMixed, seconds: float) -> float:
    lock = threading.Lock()
    done = []
    deadline = time.perf_counter() + seconds

    def client(connection):
        while time.perf_counter() < deadline:
            with lock:
                body = workload._next_body()
            op = workload._job(connection, body, time.perf_counter())
            done.append(op)

    threads = [threading.Thread(target=client, args=(connection,))
               for connection in workload.connections]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(done) / (time.perf_counter() - start)


def ladder(seed: int, seconds: float) -> None:
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"ladder-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = GatewayMixed(seed, scratch)
    try:
        workload.setup()
        workload.prewarm()
        capacity = _closed_loop_capacity(workload, seconds)
        print(f"closed-loop capacity ({len(workload.connections)} keep-alive "
              f"connections): {capacity:.2f} jobs/s")
        limit = GatewayMixed.P90_LIMIT_MS
        print(f"{'rate/s':>7s} {'p50 ms':>8s} {'p90 ms':>8s} "
              f"{'lag p90 ms':>11s} {'backlog':>8s} {'meets':>6s}")
        best = None
        for share in (0.25, 0.5, 0.75, 0.9, 1.0):
            workload.rate = round(capacity * share, 2)
            ops = workload.run(seconds)
            latencies = [op.latency * 1e3 for op in ops]
            third = max(1, len(ops) // 3)
            growing = statistics.median(latencies[-third:]) > \
                2 * statistics.median(latencies[:third])
            p90 = float(np.percentile(latencies, 90))
            lag = float(np.percentile([(op.start - op.due) * 1e3
                                       for op in ops], 90))
            meets = p90 <= limit and not growing and \
                not any(op.failed for op in ops)
            if meets:
                best = workload.rate
            print(f"{workload.rate:7.2f} {statistics.median(latencies):8.1f} "
                  f"{p90:8.1f} {lag:11.1f} "
                  f"{'growing' if growing else 'steady':>8s} "
                  f"{'yes' if meets else 'no':>6s}")
        print(f"highest rate meeting p90 <= {limit:.0f} ms without a growing "
              f"backlog: {best if best is not None else 'none'} jobs/s "
              f"(benchmark rate: {GatewayMixed.RATE} jobs/s)")
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("report", choices=("crossover", "ladder"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    if args.report == "crossover":
        crossover(args.seed)
    else:
        ladder(args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
