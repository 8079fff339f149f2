"""Serial vs sharded vs multiprocess Monte-Carlo estimation throughput.

PR 3's sharding layer bounds peak memory to O(shard_size) worlds and the
multiprocess shard executor spreads the per-world cascades over a persistent
process pool — both bit-identical to the monolithic serial path.  This
benchmark measures what those knobs buy on a Fig. 9-style synthetic graph:

* **throughput** — full-pass benefit evaluations per second for the serial
  resident-worlds estimator vs the worker pool (distinct deployments each
  call, so the memo cache never short-circuits the engine), and for the
  *pipelined* submission path (several evaluations pending on one shared
  pool, drained in submission order) vs one-at-a-time submission;
* **parent idle time** — the fraction of wall-clock the parent spent blocked
  waiting for the next block completion (the streaming reduction folds each
  block as it arrives; pipelining fills the remaining waits with other
  evaluations' folds);
* **peak memory** — ``tracemalloc`` peak of building the engine and running
  one pass, monolithic vs sharded (the world adjacency lists dominate, so the
  sharded peak should track the shard, not the sample count);
* **parity** — every parallel/sharded benefit must equal the serial one bit
  for bit; the benchmark fails otherwise, whatever the speedup.

The measured points are appended to ``BENCH_parallel.json`` at the repository
root, so successive runs accumulate a performance trajectory.

Environment knobs (all optional):

``REPRO_BENCH_PARALLEL_SIZES``
    Comma-separated network sizes (default ``2000,6000`` — large enough that
    one full pass costs milliseconds, the regime the pool is built for).
``REPRO_BENCH_PARALLEL_SAMPLES``
    Monte-Carlo worlds (default ``300``).
``REPRO_BENCH_PARALLEL_WORKERS``
    Requested pool size (default ``4``).  The benchmark clamps this to the
    machine's usable cores — running 4 workers on 1 core measures scheduler
    thrash, not the pool — and records both the requested and the effective
    width in the trajectory.  With fewer than 2 usable cores the parallel
    legs are skipped entirely (with the reason recorded), since a speedup is
    physically impossible there.
``REPRO_BENCH_PARALLEL_EVALS``
    Distinct deployments evaluated per timing (default ``20``).
``REPRO_BENCH_PARALLEL_MIN_SPEEDUP``
    Throughput gate on the largest graph (default ``2.0``).  Only enforced
    when the machine actually has at least two usable cores — on a single
    -core box the numbers are recorded but a speedup is physically
    impossible, so the gate is skipped.
``REPRO_BENCH_PARALLEL_MAX_MEM_RATIO``
    Gate on sharded peak memory as a fraction of the monolithic peak
    (default ``0.7``).
``REPRO_BENCH_PARALLEL_MIN_BROADCAST_RATIO``
    Gate on the zero-copy broadcast payload reduction (private-copy bytes /
    shared-memory bytes) on graphs of at least 2000 nodes (default ``100``).
    Measured from the exact pickle that travels to each worker, so it needs
    no second core and is enforced on every machine.
``REPRO_BENCH_PARALLEL_MIN_SHM_THROUGHPUT``
    Gate on pool throughput with shared-memory transport as a fraction of
    the private-copy pool throughput (default ``0.9``).  Like the speedup
    gate it is only enforced with at least two usable cores.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.diffusion.engine import CompiledCascadeEngine
from repro.experiments.reporting import format_table
from repro.experiments.scalability import synthetic_scenario
from repro.utils.timer import Timer

SIZES = [
    int(token)
    for token in os.environ.get("REPRO_BENCH_PARALLEL_SIZES", "2000,6000").split(",")
]
NUM_SAMPLES = int(os.environ.get("REPRO_BENCH_PARALLEL_SAMPLES", "300"))
REQUESTED_WORKERS = int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))
NUM_EVALS = int(os.environ.get("REPRO_BENCH_PARALLEL_EVALS", "20"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_PARALLEL_MIN_SPEEDUP", "2.0"))
MAX_MEM_RATIO = float(os.environ.get("REPRO_BENCH_PARALLEL_MAX_MEM_RATIO", "0.7"))
MIN_BROADCAST_RATIO = float(
    os.environ.get("REPRO_BENCH_PARALLEL_MIN_BROADCAST_RATIO", "100")
)
MIN_SHM_THROUGHPUT = float(
    os.environ.get("REPRO_BENCH_PARALLEL_MIN_SHM_THROUGHPUT", "0.9")
)
SHARD_SIZE = max(1, NUM_SAMPLES // 8)
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _deployments(scenario, count):
    """``count`` distinct heavy deployments (distinct memo keys).

    Coupons go to every spreader so cascades run deep — the regime where a
    single evaluation is expensive enough for the pool to amortise its IPC.
    Rotating the seed pair and one coupon count keeps every memo key
    distinct without changing the workload's scale.
    """
    graph = scenario.graph
    nodes = list(graph.nodes())
    spreaders = sorted(
        (node for node in nodes if graph.out_degree(node)),
        key=lambda node: -graph.out_degree(node),
    )
    deployments = []
    for i in range(count):
        seeds = [
            spreaders[i % min(10, len(spreaders))],
            nodes[(11 * i + 3) % len(nodes)],
        ]
        allocation = {
            node: 1 + (i + j) % 3 for j, node in enumerate(spreaders)
        }
        deployments.append((seeds, allocation))
    return deployments


def _throughput(engine, deployments):
    """(benefits, evals/sec, idle_frac) — one evaluation at a time."""
    executor = engine._ensure_executor() if engine.workers > 1 else None
    wait_before = executor.wait_seconds_total if executor else 0.0
    with Timer() as timer:
        benefits = [
            engine.expected_benefit(seeds, allocation)
            for seeds, allocation in deployments
        ]
    rate = len(deployments) / timer.elapsed if timer.elapsed else float("inf")
    idle = (
        (executor.wait_seconds_total - wait_before) / timer.elapsed
        if executor and timer.elapsed
        else 0.0
    )
    return benefits, rate, idle


def _pipelined_throughput(engine, deployments, depth):
    """(benefits, evals/sec, idle_frac) — up to ``depth`` pending at once."""
    from collections import deque

    executor = engine._ensure_executor()
    wait_before = executor.wait_seconds_total
    benefits = []
    pending = deque()
    with Timer() as timer:
        for seeds, allocation in deployments:
            pending.append(engine.submit(seeds, allocation))
            if len(pending) >= depth:
                benefits.append(pending.popleft().result()[1])
        while pending:
            benefits.append(pending.popleft().result()[1])
    rate = len(deployments) / timer.elapsed if timer.elapsed else float("inf")
    idle = (
        (executor.wait_seconds_total - wait_before) / timer.elapsed
        if timer.elapsed
        else 0.0
    )
    return benefits, rate, idle


def _peak_memory(compiled, shard_size, deployment):
    """tracemalloc peak of engine construction + one pass, in bytes."""
    seeds, allocation = deployment
    tracemalloc.start()
    try:
        engine = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=BENCH_SEED, shard_size=shard_size
        )
        engine.expected_benefit(seeds, allocation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _append_trajectory(
    points, effective_workers=None, parallel_skip_reason=None, kind="throughput"
):
    data = {"benchmark": "parallel_estimation", "runs": []}
    if TRAJECTORY_PATH.exists():
        try:
            loaded = json.loads(TRAJECTORY_PATH.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                data = loaded
        except (json.JSONDecodeError, OSError):
            pass  # corrupt or unreadable: start a fresh trajectory
    data["runs"].append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "kind": kind,
            "num_samples": NUM_SAMPLES,
            "shard_size": SHARD_SIZE,
            "requested_workers": REQUESTED_WORKERS,
            "effective_workers": effective_workers,
            "parallel_skip_reason": parallel_skip_reason,
            "evaluations": NUM_EVALS,
            "usable_cores": _usable_cores(),
            "points": points,
        }
    )
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


@pytest.mark.benchmark(group="parallel")
def test_parallel_estimation_throughput_and_memory(report):
    rows = []
    points = []
    from repro.diffusion.parallel import SharedShardPool

    usable = _usable_cores()
    # Never run more workers than usable cores: an oversubscribed pool on a
    # starved machine measures scheduler thrash, not the executor.  On a
    # single-core box the parallel legs are skipped outright — a speedup is
    # physically impossible and the recorded 0.0x numbers would be noise.
    effective_workers = max(1, min(REQUESTED_WORKERS, usable))
    parallel_skip_reason = None
    if effective_workers < 2:
        parallel_skip_reason = (
            f"requested {REQUESTED_WORKERS} workers but only {usable} usable "
            f"core(s); a pool cannot beat serial, parallel legs skipped"
        )

    for size in SIZES:
        scenario = synthetic_scenario(size, budget=2.0 * size, seed=BENCH_SEED)
        compiled = scenario.graph.compiled()
        deployments = _deployments(scenario, NUM_EVALS)

        serial = CompiledCascadeEngine(compiled, NUM_SAMPLES, seed=BENCH_SEED)
        serial_benefits, serial_rate, _ = _throughput(serial, deployments)

        point = {
            "nodes": size,
            "edges": scenario.num_edges,
            "serial_evals_per_sec": round(serial_rate, 2),
            "parallel_evals_per_sec": None,
            "speedup": None,
            "pipelined_evals_per_sec": None,
            "pipeline_speedup": None,
            "parent_idle_frac_sequential": None,
            "parent_idle_frac_pipelined": None,
            "identical_benefits": True,
        }

        if parallel_skip_reason is None:
            # All parallel measurements register on ONE shared pool — the
            # configuration every layer above now runs in.  The private-copy
            # transport leg (``shared_memory=False``) runs first, then the
            # zero-copy leg, so one run records the broadcast payload and
            # throughput both before and after the shared-memory store.
            with SharedShardPool(effective_workers) as pool:
                private = CompiledCascadeEngine(
                    compiled, NUM_SAMPLES, seed=BENCH_SEED,
                    shard_size=SHARD_SIZE, pool=pool, shared_memory=False,
                )
                try:
                    private.expected_benefit(*deployments[0])  # warm + register
                    private_broadcast_bytes = pool.last_broadcast_bytes
                    private_broadcast_seconds = pool.last_broadcast_seconds
                    private_benefits, private_rate, _ = _throughput(
                        private, deployments
                    )
                finally:
                    private.close()

                parallel = CompiledCascadeEngine(
                    compiled, NUM_SAMPLES, seed=BENCH_SEED,
                    shard_size=SHARD_SIZE, pool=pool,
                )
                assert parallel.shared_memory  # auto-on when out-of-process
                try:
                    parallel.expected_benefit(*deployments[0])  # warm the pool
                    shared_broadcast_bytes = pool.last_broadcast_bytes
                    shared_broadcast_seconds = pool.last_broadcast_seconds
                    parallel_benefits, parallel_rate, seq_idle = _throughput(
                        parallel, deployments
                    )
                    pipelined_benefits, pipelined_rate, pipe_idle = (
                        _pipelined_throughput(
                            parallel, deployments, depth=2 * effective_workers
                        )
                    )
                finally:
                    parallel.close()
                assert not pool.closed  # the engine released only its sampler

            # Parity is the contract; speed without it is worthless.
            assert private_benefits == serial_benefits
            assert parallel_benefits == serial_benefits
            assert pipelined_benefits == serial_benefits
            point.update(
                parallel_evals_per_sec=round(parallel_rate, 2),
                speedup=round(parallel_rate / serial_rate, 2),
                pipelined_evals_per_sec=round(pipelined_rate, 2),
                pipeline_speedup=round(pipelined_rate / parallel_rate, 2),
                parent_idle_frac_sequential=round(seq_idle, 3),
                parent_idle_frac_pipelined=round(pipe_idle, 3),
                pool_broadcast_bytes_private=private_broadcast_bytes,
                pool_broadcast_bytes_shared=shared_broadcast_bytes,
                pool_broadcast_reduction=round(
                    private_broadcast_bytes / max(1, shared_broadcast_bytes), 1
                ),
                pool_broadcast_seconds_private=round(private_broadcast_seconds, 6),
                pool_broadcast_seconds_shared=round(shared_broadcast_seconds, 6),
                shm_vs_private_throughput=round(parallel_rate / private_rate, 2),
            )

        mono_peak = _peak_memory(compiled, None, deployments[0])
        shard_peak = _peak_memory(compiled, SHARD_SIZE, deployments[0])
        point.update(
            monolithic_peak_mb=round(mono_peak / 1e6, 3),
            sharded_peak_mb=round(shard_peak / 1e6, 3),
            mem_ratio=round(shard_peak / mono_peak, 3),
        )
        points.append(point)
        rows.append(point)

    title = (
        f"Estimation throughput: serial vs {effective_workers}-worker pool "
        f"(requested {REQUESTED_WORKERS}, {NUM_SAMPLES} worlds, "
        f"shard_size={SHARD_SIZE}, {usable} usable cores)"
    )
    text = format_table(rows, title=title)
    if parallel_skip_reason is not None:
        text += f"\nNOTE: {parallel_skip_reason}\n"
    report("parallel_estimation", text)
    _append_trajectory(points, effective_workers, parallel_skip_reason)

    largest = points[-1]
    assert largest["mem_ratio"] <= MAX_MEM_RATIO, (
        f"sharded peak memory is {largest['mem_ratio']:.2f}x the monolithic "
        f"peak on the largest graph, above the {MAX_MEM_RATIO}x bar"
    )
    if parallel_skip_reason is None:
        assert largest["speedup"] >= MIN_SPEEDUP, (
            f"parallel throughput speedup on the largest graph "
            f"({largest['nodes']} nodes) is {largest['speedup']:.2f}x, below "
            f"the {MIN_SPEEDUP}x bar"
        )
        assert largest["shm_vs_private_throughput"] >= MIN_SHM_THROUGHPUT, (
            f"shared-memory pool throughput is "
            f"{largest['shm_vs_private_throughput']:.2f}x the private-copy "
            f"pool on the largest graph, below the {MIN_SHM_THROUGHPUT}x bar"
        )


@pytest.mark.benchmark(group="parallel")
def test_zero_copy_broadcast_payload(report):
    """Worker broadcast payload: shared-memory descriptor vs by-value arrays.

    Measures the exact pickle :meth:`SharedShardPool.register` ships to every
    worker — ``(token, sampler)``'s dominant term, the sampler —
    for the private-copy and the zero-copy transport, plus what a worker pays
    to come up: unpickling the descriptor (which maps the graph segment) and
    attaching the already-published world blocks.  None of this needs a
    second core, so the ≥``MIN_BROADCAST_RATIO``x reduction gate runs on
    every machine, including single-core boxes where the throughput legs
    skip.
    """
    from repro.utils import shm

    if not shm.shared_memory_available():
        pytest.skip("POSIX shared memory is unavailable on this platform")

    rows = []
    points = []
    for size in SIZES:
        scenario = synthetic_scenario(size, budget=2.0 * size, seed=BENCH_SEED)
        compiled = scenario.graph.compiled()
        deployment = _deployments(scenario, 1)[0]

        private = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=BENCH_SEED, shard_size=SHARD_SIZE,
            shared_memory=False,
        )
        shared = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=BENCH_SEED, shard_size=SHARD_SIZE,
            shared_memory=True,
        )
        try:
            private_bytes = len(
                pickle.dumps(private.sampler, protocol=pickle.HIGHEST_PROTOCOL)
            )
            shared_payload = pickle.dumps(
                shared.sampler, protocol=pickle.HIGHEST_PROTOCOL
            )
            # Publish every world block, exactly as the parent does before
            # workers start drawing.
            benefit_parent = shared.expected_benefit(*deployment)

            # Simulate one worker coming up: unpickle the descriptor (maps
            # the graph segment) and draw the first block (attaches it).
            with Timer() as unpickle_timer:
                clone = pickle.loads(shared_payload)
            assert np.array_equal(clone.compiled.indptr, compiled.indptr)
            start, count = shared._store_bounds[0]
            clone.draw_block(start, count)
            assert clone.store.attach_count >= 1  # re-used, not re-drawn
            attach_seconds = clone.store.attach_seconds
            del clone
        finally:
            private.close()
            shared.close()
        serial = CompiledCascadeEngine(compiled, NUM_SAMPLES, seed=BENCH_SEED)
        assert benefit_parent == serial.expected_benefit(*deployment)
        gc.collect()

        point = {
            "nodes": size,
            "edges": scenario.num_edges,
            "broadcast_bytes_private": private_bytes,
            "broadcast_bytes_shared": len(shared_payload),
            "broadcast_reduction": round(private_bytes / len(shared_payload), 1),
            "graph_attach_ms": round(unpickle_timer.elapsed * 1e3, 3),
            "block_attach_ms": round(attach_seconds * 1e3, 3),
        }
        points.append(point)
        rows.append(point)

    title = (
        f"Broadcast payload per worker: private-copy vs shared-memory "
        f"descriptor ({NUM_SAMPLES} worlds, shard_size={SHARD_SIZE})"
    )
    report("broadcast_payload", format_table(rows, title=title))
    _append_trajectory(points, kind="broadcast_payload")

    for point in points:
        if point["nodes"] >= 2000:
            assert point["broadcast_reduction"] >= MIN_BROADCAST_RATIO, (
                f"shared-memory transport shrinks the worker payload by only "
                f"{point['broadcast_reduction']:.1f}x on {point['nodes']} "
                f"nodes, below the {MIN_BROADCAST_RATIO}x bar"
            )
