"""Native cascade kernel vs the interpreted oracle loop: evals/sec.

PR 6 ports the cascade inner loop — the single hottest code path in the
library — to a compiled kernel over flat world-block arrays
(:mod:`repro.diffusion.kernels`).  This benchmark measures what the kernel
buys on the Fig. 9 synthetic graph ladder, scaled up to sizes where one
benefit evaluation costs milliseconds (the regime the kernel exists for):

* **serial throughput** — full-pass benefit evaluations per second with the
  kernel vs the interpreted loop, same engine configuration otherwise;
* **workers=2 throughput** — the same comparison through the multiprocess
  shard executor (workers consume kernel-tagged tasks), skipped with a
  recorded reason on machines without 2 usable cores;
* **parity** — every kernel benefit must equal the interpreted one bit for
  bit (``identical_benefits``); the benchmark fails otherwise, whatever the
  speedup;
* **warm-up accounting** — the resolved backend name and the one-off
  compile/warm-up seconds recorded at engine construction;
* **snapshot path** (recorded, not gated) — milliseconds of one
  instrumented pass over every world, the delta engine's snapshot, with the
  kernel and with the interpreted loop; their queues and coupon-limited
  lists must be equal.  The gated speedup above is for full passes only: a
  snapshot also builds every world's Python lists, which the kernel does
  not speed up, and at the tight-budget deployments of real solves (one
  seed, a coupon or two) the kernel only matches the interpreted loop.

The deployments are deliberately heavy (many seeds, coupons on every
spreader) so cascades run deep: the kernel accelerates the per-activation
walk, not the per-evaluation bookkeeping, and shallow cascades would measure
the latter.

The measured points are appended to ``BENCH_kernel.json`` at the repository
root.  When the native kernel does not load (no C compiler, or
``REPRO_NO_NATIVE_KERNEL`` set) the benchmark skips with the reason logged —
the interpreted fallback is covered by the parity suite.

Environment knobs (all optional):

``REPRO_BENCH_KERNEL_SIZES``
    Comma-separated network sizes (default ``200,600,2000``).
``REPRO_BENCH_KERNEL_SAMPLES``
    Monte-Carlo worlds (default ``300``).
``REPRO_BENCH_KERNEL_EVALS``
    Distinct deployments evaluated per timing (default ``8``).
``REPRO_BENCH_KERNEL_MIN_SPEEDUP``
    Serial kernel-vs-interpreted gate on the largest graph (default ``5.0``).
``REPRO_BENCH_KERNEL_WORKERS``
    Pool width of the parallel leg (default ``2``), clamped to usable cores.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.diffusion import kernels
from repro.diffusion.engine import CompiledCascadeEngine
from repro.experiments.reporting import format_table
from repro.experiments.scalability import synthetic_scenario
from repro.utils.timer import Timer

SIZES = [
    int(token)
    for token in os.environ.get("REPRO_BENCH_KERNEL_SIZES", "200,600,2000").split(",")
]
NUM_SAMPLES = int(os.environ.get("REPRO_BENCH_KERNEL_SAMPLES", "300"))
NUM_EVALS = int(os.environ.get("REPRO_BENCH_KERNEL_EVALS", "8"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_KERNEL_MIN_SPEEDUP", "5.0"))
REQUESTED_WORKERS = int(os.environ.get("REPRO_BENCH_KERNEL_WORKERS", "2"))
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _deployments(scenario, count):
    """``count`` distinct deep deployments (distinct memo keys).

    Eight rotating seeds and 2-3 coupons on every spreader push the cascade
    deep into the graph, so the timed work is the per-activation walk the
    kernel compiles — not the per-evaluation coupon bookkeeping, which both
    paths share.
    """
    graph = scenario.graph
    spreaders = sorted(
        (node for node in graph.nodes() if graph.out_degree(node)),
        key=lambda node: -graph.out_degree(node),
    )
    deployments = []
    for i in range(count):
        seeds = [spreaders[(i + j) % min(20, len(spreaders))] for j in range(8)]
        allocation = {
            node: 2 + (i + j) % 2 for j, node in enumerate(spreaders)
        }
        deployments.append((sorted(set(seeds), key=str), allocation))
    return deployments


def _throughput(engine, deployments):
    """(benefits, evals/sec) over ``deployments`` — memo caches never hit."""
    with Timer() as timer:
        benefits = [
            engine.expected_benefit(seeds, allocation)
            for seeds, allocation in deployments
        ]
    rate = len(deployments) / timer.elapsed if timer.elapsed else float("inf")
    return benefits, rate


def _snapshot_passes(engine, inputs):
    """(outputs, ms per pass): one instrumented pass over every world per
    deployment, the delta engine's snapshot path."""
    worlds = range(engine.num_worlds)
    with Timer() as timer:
        outputs = [
            list(engine.cascade_worlds_instrumented(worlds, seed_indices, coupons))
            for seed_indices, coupons in inputs
        ]
    return outputs, timer.elapsed * 1e3 / len(inputs)


def _append_trajectory(points, backend, effective_workers, parallel_skip_reason):
    data = {"benchmark": "kernel_cascade", "runs": []}
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
            "kernel_backend": backend,
            "num_samples": NUM_SAMPLES,
            "evaluations": NUM_EVALS,
            "requested_workers": REQUESTED_WORKERS,
            "effective_workers": effective_workers,
            "parallel_skip_reason": parallel_skip_reason,
            "usable_cores": _usable_cores(),
            "points": points,
        }
    )
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


@pytest.mark.benchmark(group="kernel")
def test_kernel_vs_interpreted_throughput(report):
    if kernels.load_kernel() is None:
        pytest.skip(
            "the native cascade kernel does not load here (no C compiler, "
            "or REPRO_NO_NATIVE_KERNEL set) — nothing to benchmark against "
            "the interpreted loop"
        )
    backend = kernels.kernel_backend()

    from repro.diffusion.parallel import SharedShardPool

    usable = _usable_cores()
    effective_workers = max(1, min(REQUESTED_WORKERS, usable))
    parallel_skip_reason = None
    if effective_workers < 2:
        parallel_skip_reason = (
            f"requested {REQUESTED_WORKERS} workers but only {usable} usable "
            f"core(s); the workers={REQUESTED_WORKERS} leg is skipped"
        )

    rows = []
    points = []
    for size in SIZES:
        scenario = synthetic_scenario(size, budget=2.0 * size, seed=BENCH_SEED)
        compiled = scenario.graph.compiled()
        deployments = _deployments(scenario, NUM_EVALS)

        interpreted = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=BENCH_SEED, use_kernel=False
        )
        kernel_engine = CompiledCascadeEngine(
            compiled, NUM_SAMPLES, seed=BENCH_SEED, use_kernel=True
        )
        assert kernel_engine.kernel_active
        compile_seconds = kernel_engine.kernel_compile_seconds

        interpreted.expected_benefit(*deployments[0])  # symmetric warm-up
        kernel_engine.expected_benefit(*deployments[0])
        interpreted_benefits, interpreted_rate = _throughput(
            interpreted, deployments
        )
        kernel_benefits, kernel_rate = _throughput(kernel_engine, deployments)
        # Parity is the contract; speed without it is worthless.
        assert kernel_benefits == interpreted_benefits

        snapshot_inputs = [
            (
                compiled.indices_of(sorted(seeds, key=str)),
                compiled.allocation_vector(allocation).tolist(),
            )
            for seeds, allocation in deployments
        ]
        _snapshot_passes(interpreted, snapshot_inputs[:1])  # symmetric warm-up
        _snapshot_passes(kernel_engine, snapshot_inputs[:1])
        interpreted_snapshots, interpreted_snapshot_ms = _snapshot_passes(
            interpreted, snapshot_inputs
        )
        kernel_snapshots, kernel_snapshot_ms = _snapshot_passes(
            kernel_engine, snapshot_inputs
        )
        assert kernel_snapshots == interpreted_snapshots

        point = {
            "nodes": size,
            "edges": scenario.num_edges,
            "interpreted_evals_per_sec": round(interpreted_rate, 2),
            "kernel_evals_per_sec": round(kernel_rate, 2),
            "speedup": round(kernel_rate / interpreted_rate, 2),
            "kernel_compile_seconds": round(compile_seconds, 4),
            "interpreted_snapshot_ms": round(interpreted_snapshot_ms, 3),
            "kernel_snapshot_ms": round(kernel_snapshot_ms, 3),
            "identical_snapshots": True,
            "workers2_interpreted_evals_per_sec": None,
            "workers2_kernel_evals_per_sec": None,
            "workers2_speedup": None,
            "identical_benefits": True,
        }

        if parallel_skip_reason is None:
            shard_size = max(1, NUM_SAMPLES // 8)
            pooled_rates = {}
            for use_kernel in (False, True):
                with SharedShardPool(effective_workers) as pool:
                    engine = CompiledCascadeEngine(
                        compiled, NUM_SAMPLES, seed=BENCH_SEED,
                        shard_size=shard_size, pool=pool,
                        use_kernel=use_kernel,
                    )
                    try:
                        engine.expected_benefit(*deployments[0])
                        benefits, rate = _throughput(engine, deployments)
                    finally:
                        engine.close()
                assert benefits == interpreted_benefits
                pooled_rates[use_kernel] = rate
            point.update(
                workers2_interpreted_evals_per_sec=round(pooled_rates[False], 2),
                workers2_kernel_evals_per_sec=round(pooled_rates[True], 2),
                workers2_speedup=round(
                    pooled_rates[True] / pooled_rates[False], 2
                ),
            )

        points.append(point)
        rows.append(point)

    title = (
        f"Cascade throughput: {backend} kernel vs interpreted loop "
        f"({NUM_SAMPLES} worlds, {NUM_EVALS} deployments per timing, "
        f"{usable} usable cores)"
    )
    text = format_table(rows, title=title)
    if parallel_skip_reason is not None:
        text += f"\nNOTE: {parallel_skip_reason}\n"
    report("kernel_cascade", text)
    _append_trajectory(points, backend, effective_workers, parallel_skip_reason)

    largest = points[-1]
    assert largest["speedup"] >= MIN_SPEEDUP, (
        f"serial kernel speedup on the largest graph ({largest['nodes']} "
        f"nodes) is {largest['speedup']:.2f}x, below the {MIN_SPEEDUP}x bar"
    )
