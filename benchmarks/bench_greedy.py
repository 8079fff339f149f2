"""Incremental (delta + CELF-lazy) vs eager greedy: the ID phase end to end.

PR 1 made a *single* benefit evaluation ~6x faster; this benchmark measures
the next bottleneck — S3CA's Investment Deployment phase, which evaluates
``O(candidates × num_samples)`` full cascades per greedy step on the eager
path.  The incremental path snapshots the base deployment once per step and
re-simulates only the worlds each candidate's coupon can change, re-deriving
still-valid candidates from stored count deltas without any simulation.

Since PR 4 the incremental path also *splices* every accepted coupon move's
re-simulated worlds into the snapshot (``DeltaCascadeEngine.splice_base``)
instead of re-running the instrumented O(num_samples) pass at the next greedy
step, and since PR 5 accepted *pivots* (seed adds) are spliced the same way
(``DeltaCascadeEngine.splice_base_new_seed``), so a full run pays exactly
**one** instrumented pass — the initial snapshot, asserted here together
with the per-accept splice counts.

The benchmark also runs the full three-phase ``S3CA.solve()`` per size and
records the per-phase wall-clock split (ID / GPI / SCM) plus the end-to-end
``snapshot_passes == 1`` evidence in ``BENCH_greedy.json``.

Setup mirrors Fig. 9: PPGG-like synthetic networks with budgets large enough
to drive a realistic number of greedy iterations.  All paths must select the
**bit-identical** deployment (asserted here); the headline number is the
wall-clock speedup of ``InvestmentDeployment.run()``.

The eager-vs-incremental comparison runs with ``use_kernel=False``: the native
cascade kernel accelerates the eager baseline and the incremental path alike, so
measuring the algorithmic ratio on the interpreted loop keeps the numbers
comparable across the trajectory.  ``bench_kernel.py`` measures the kernel
dispatch itself.  The full three-phase solve leg below keeps the default
(kernel-on) dispatch, since it records current production behaviour.

The measured points are appended to ``BENCH_greedy.json`` at the repository
root, so successive runs accumulate a trajectory of the greedy-phase
performance over time.

Environment knobs (all optional):

``REPRO_BENCH_GREEDY_SIZES``
    Comma-separated network sizes (default ``200,400,800``).
``REPRO_BENCH_GREEDY_SAMPLES``
    Monte-Carlo worlds (default ``200`` — the paper-scale setting).
``REPRO_BENCH_MIN_SPEEDUP``
    Hard floor for the largest graph's ID-phase speedup (default ``5.0``;
    CI relaxes it because shared runners are noisy).
``REPRO_BENCH_TIER_MIN_SPEEDUP``
    Hard floor for the two-tier screening leg's speedup over the untiered
    incremental path (default ``2.0``).
``REPRO_BENCH_TIER_EPSILON`` / ``REPRO_BENCH_TIER_TOPK``
    Screening-band knobs for the tiered leg (defaults ``0.2`` / ``48`` —
    the widest band measured to keep the deployment bit-identical here).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.core.investment import InvestmentDeployment
from repro.core.s3ca import S3CA
from repro.diffusion.factory import make_estimator
from repro.experiments.reporting import format_table
from repro.experiments.scalability import synthetic_scenario
from repro.utils.timer import Timer

SIZES = [
    int(token)
    for token in os.environ.get("REPRO_BENCH_GREEDY_SIZES", "200,400,800").split(",")
]
NUM_SAMPLES = int(os.environ.get("REPRO_BENCH_GREEDY_SAMPLES", "200"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
TIER_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_TIER_MIN_SPEEDUP", "2.0"))
TIER_EPSILON = float(os.environ.get("REPRO_BENCH_TIER_EPSILON", "0.2"))
TIER_TOPK = int(os.environ.get("REPRO_BENCH_TIER_TOPK", "48"))
CANDIDATE_LIMIT = 25
PIVOT_LIMIT = 150
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_greedy.json"


def _run_id_phase(scenario, incremental: bool):
    """Run the ID phase, eager or incremental, and time it."""
    # Pinned to the interpreted cascade loop: this benchmark isolates the
    # *algorithmic* win (delta evaluation + CELF laziness + splicing) from
    # the native-kernel dispatch, which accelerates the eager baseline and
    # the incremental path alike and is measured by bench_kernel.py.
    estimator = make_estimator(
        scenario,
        "mc-compiled",
        num_samples=NUM_SAMPLES,
        seed=BENCH_SEED,
        incremental=incremental,
        use_kernel=False,
    )
    phase = InvestmentDeployment(
        scenario,
        estimator,
        candidate_limit=CANDIDATE_LIMIT,
        max_pivot_candidates=PIVOT_LIMIT,
        incremental=incremental,
    )
    with Timer() as timer:
        result = phase.run()
    return (
        result,
        timer.elapsed,
        estimator.delta_snapshot_passes,
        estimator.delta_spliced_advances,
        estimator.delta_spliced_seed_advances,
    )


def _seed_accepts(result):
    """Pivot accepts after the first seed (each spliced, not re-snapshotted)."""
    return sum(
        1
        for before, after in zip(result.snapshots, result.snapshots[1:])
        if len(after.seeds) > len(before.seeds)
    )


def _append_trajectory(points, aggregate, *, leg="incremental", **extra):
    """Append this run's measurements to the repo-root trajectory file."""
    data = {"benchmark": "greedy_id_phase", "runs": []}
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
            "leg": leg,
            "num_samples": NUM_SAMPLES,
            "candidate_limit": CANDIDATE_LIMIT,
            "points": points,
            "aggregate_speedup": aggregate,
            **extra,
        }
    )
    TRAJECTORY_PATH.write_text(
        json.dumps(data, indent=2) + "\n", encoding="utf-8"
    )


@pytest.mark.benchmark(group="greedy")
def test_greedy_incremental_speedup(report):
    rows = []
    points = []
    total_eager = 0.0
    total_incremental = 0.0
    for size in SIZES:
        # Budget ~2x the node count drives tens of greedy iterations, the
        # regime the paper's Fig. 9 scalability runs operate in.
        scenario = synthetic_scenario(size, budget=2.0 * size, seed=BENCH_SEED)
        eager_result, eager_seconds, _, _, _ = _run_id_phase(
            scenario, incremental=False
        )
        lazy_result, lazy_seconds, lazy_passes, lazy_splices, lazy_seed_splices = (
            _run_id_phase(scenario, incremental=True)
        )

        # The whole point: the fast path returns the *same* deployment.
        assert eager_result.deployment.seeds == lazy_result.deployment.seeds
        assert (
            eager_result.deployment.allocation == lazy_result.deployment.allocation
        )
        assert eager_result.iterations == lazy_result.iterations

        # The splices eliminated every per-accept re-snapshot pass: each
        # accepted coupon and each accepted pivot was grafted, leaving
        # exactly the initial instrumented pass.
        seed_accepts = _seed_accepts(lazy_result)
        coupon_accepts = lazy_result.iterations - seed_accepts
        assert lazy_splices == coupon_accepts
        assert lazy_seed_splices == seed_accepts
        assert lazy_passes == 1

        speedup = eager_seconds / lazy_seconds
        total_eager += eager_seconds
        total_incremental += lazy_seconds
        point = {
            "nodes": size,
            "edges": scenario.num_edges,
            "budget": scenario.budget_limit,
            "iterations": eager_result.iterations,
            "eager_seconds": round(eager_seconds, 4),
            "incremental_seconds": round(lazy_seconds, 4),
            "speedup": round(speedup, 2),
            "snapshot_passes_spliced": lazy_passes,
            "spliced_advances": lazy_splices,
            "spliced_seed_advances": lazy_seed_splices,
            "identical_deployment": True,
        }
        rows.append(dict(point))  # printed table: scalar columns only

        # Full three-phase solve on the same instance: record the ID/GPI/SCM
        # wall-clock split and the end-to-end one-snapshot-pass evidence.
        estimator = make_estimator(
            scenario, "mc-compiled", num_samples=NUM_SAMPLES, seed=BENCH_SEED
        )
        s3ca_result = S3CA(
            scenario,
            estimator=estimator,
            candidate_limit=CANDIDATE_LIMIT,
            max_pivot_candidates=PIVOT_LIMIT,
        ).solve()
        assert estimator.delta_snapshot_passes == 1
        point["phase_seconds"] = {
            phase: round(seconds, 4)
            for phase, seconds in s3ca_result.phase_seconds.items()
        }
        point["snapshot_passes_full_solve"] = estimator.delta_snapshot_passes
        points.append(point)

    aggregate = total_eager / total_incremental
    rows.append(
        {
            "nodes": "all",
            "edges": "",
            "budget": "",
            "iterations": "",
            "eager_seconds": round(total_eager, 4),
            "incremental_seconds": round(total_incremental, 4),
            "speedup": round(aggregate, 2),
            "identical_deployment": "",
        }
    )
    text = format_table(
        rows,
        title=(
            "ID phase: incremental (delta + CELF-lazy) vs eager re-simulation "
            f"({NUM_SAMPLES} worlds, candidate_limit={CANDIDATE_LIMIT})"
        ),
    )
    report("greedy_incremental", text)
    _append_trajectory(
        points, round(aggregate, 2), max_pivot_candidates=PIVOT_LIMIT
    )

    largest = points[-1]["speedup"]
    assert largest >= MIN_SPEEDUP, (
        f"ID-phase speedup on the largest graph ({points[-1]['nodes']} nodes) "
        f"is {largest:.1f}x, below the {MIN_SPEEDUP}x bar"
    )


def _uncapped_id_phase(scenario, method, use_kernel=False, **estimator_kwargs):
    """ID phase over the *uncapped* pivot queue (every affordable user is
    priced, the paper's pseudo-code lines 1-8), timing estimator setup and
    the phase run separately."""
    with Timer() as setup:
        estimator = make_estimator(
            scenario,
            method,
            num_samples=NUM_SAMPLES,
            seed=BENCH_SEED,
            incremental=True,
            use_kernel=use_kernel,
            **estimator_kwargs,
        )
    phase = InvestmentDeployment(
        scenario,
        estimator,
        candidate_limit=CANDIDATE_LIMIT,
        max_pivot_candidates=None,
        incremental=True,
    )
    with Timer() as timer:
        result = phase.run()
    return result, timer.elapsed, setup.elapsed, estimator


@pytest.mark.benchmark(group="greedy")
def test_greedy_tiered_screening_speedup(report):
    """Two-tier estimation vs the untiered incremental path, ID phase only.

    The regime is Fig. 9(c-d): budget swept well below the node count, so
    pivot pricing — not the coupon loop — dominates the phase, and the pivot
    queue is uncapped so every affordable user really is priced.  The sketch
    screens each pricing batch down to its top-k+epsilon-band frontier and
    only the frontier is MC-confirmed; both legs must still select the
    bit-identical deployment.  Sketch sampling happens at estimator setup
    (resident/amortized in the campaign server) and is recorded separately.

    Both legs also run once more with the kernel on (``use_kernel=None``, the
    default), and their estimator setup plus ID phase is recorded as each
    leg's total: the number behind "tiered total <= untiered total".  It is
    recorded, not gated.
    """
    size = SIZES[-1]
    scenario = synthetic_scenario(size, budget=size / 4.0, seed=BENCH_SEED)
    tier_knobs = {"tier_epsilon": TIER_EPSILON, "tier_top_k": TIER_TOPK}
    untiered_result, untiered_seconds, _, _ = _uncapped_id_phase(
        scenario, "mc-compiled"
    )
    tiered_result, tiered_seconds, tiered_setup, tiered_est = _uncapped_id_phase(
        scenario, "tiered", **tier_knobs
    )
    untiered_kernel, untiered_kernel_seconds, untiered_kernel_setup, _ = (
        _uncapped_id_phase(scenario, "mc-compiled", use_kernel=None)
    )
    tiered_kernel, tiered_kernel_seconds, tiered_kernel_setup, _ = (
        _uncapped_id_phase(scenario, "tiered", use_kernel=None, **tier_knobs)
    )

    # Screening must not change what the greedy selects — ever, and neither
    # may the kernel.
    for result in (tiered_result, untiered_kernel, tiered_kernel):
        assert untiered_result.deployment.seeds == result.deployment.seeds
        assert untiered_result.deployment.allocation == result.deployment.allocation
        assert untiered_result.iterations == result.iterations

    stats = tiered_est.tier_stats
    assert stats["screening_batches"] >= 1
    assert stats["confirmed_candidates"] < stats["screened_candidates"]

    speedup = untiered_seconds / tiered_seconds
    point = {
        "nodes": size,
        "edges": scenario.num_edges,
        "budget": scenario.budget_limit,
        "iterations": untiered_result.iterations,
        "untiered_seconds": round(untiered_seconds, 4),
        "tiered_seconds": round(tiered_seconds, 4),
        "speedup": round(speedup, 2),
        "sketch_setup_seconds": round(tiered_setup, 4),
        "untiered_total_kernel_seconds": round(
            untiered_kernel_setup + untiered_kernel_seconds, 4
        ),
        "tiered_total_kernel_seconds": round(
            tiered_kernel_setup + tiered_kernel_seconds, 4
        ),
        "screened": stats["screened_candidates"],
        "confirmed": stats["confirmed_candidates"],
        "screened_out": stats["screened_out_candidates"],
        "screening_batches": stats["screening_batches"],
        "speculative_evals": stats["speculative_evals"],
        "speculative_hits": stats["speculative_hits"],
        "identical_deployment": True,
    }
    text = format_table(
        [point],
        title=(
            "ID phase: two-tier (RR-sketch screen + MC-confirmed frontier) vs "
            f"untiered incremental, uncapped pivot queue ({NUM_SAMPLES} worlds, "
            f"epsilon={TIER_EPSILON}, top_k={TIER_TOPK})"
        ),
    )
    report("greedy_tiered", text)
    _append_trajectory(
        [point],
        round(speedup, 2),
        leg="tiered_screening",
        max_pivot_candidates=None,
        tier_epsilon=TIER_EPSILON,
        tier_top_k=TIER_TOPK,
    )

    assert speedup >= TIER_MIN_SPEEDUP, (
        f"tiered ID-phase speedup at {size} nodes is {speedup:.2f}x, "
        f"below the {TIER_MIN_SPEEDUP}x bar"
    )
