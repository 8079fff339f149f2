"""Compiled CSR engine vs the dict-path oracle: cascade throughput.

Measures the estimator-level workload of the greedy phases — one full
evaluation = expected benefit **and** activation probabilities for a fresh
deployment over the shared live-edge worlds — on the Fig. 9 scalability
graphs (PPGG-like synthetic networks).  The compiled estimator answers both
queries from a single vectorized pass over pre-resolved live adjacency; the
dict-path oracle (:class:`tests.oracles.DictOracle`) re-walks the adjacency
dicts per world per query.

The headline number is *world-cascades per second* (deployments × worlds /
seconds).  The acceptance bar for the compiled estimator is a ≥5× aggregate
speedup, with bit-identical activation probabilities (checked here too).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import BENCH_SEED
from repro.diffusion.factory import make_estimator
from repro.experiments.reporting import format_table
from repro.experiments.scalability import synthetic_scenario
from repro.utils.rng import spawn_rng
from repro.utils.timer import Timer
from tests.oracles import DictOracle

SIZES = [100, 400, 800]
NUM_WORLDS = 60
NUM_DEPLOYMENTS = 40
# The acceptance bar is 5x; CI runners are noisy shared machines, so the
# workflow relaxes the hard assertion via this env knob while the reported
# table still shows the measured ratio.
MIN_AGGREGATE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))


def _greedy_like_deployments(scenario, count, seed):
    """Deployments shaped like the ID phase's candidates: a few seeds plus a
    growing set of coupon holders (all distinct, so caches never hit)."""
    graph = scenario.graph
    nodes = list(graph.nodes())
    rng = spawn_rng(seed)
    deployments = []
    for round_index in range(count):
        num_seeds = 3 + round_index % 4
        picks = rng.choice(len(nodes), size=num_seeds + 20, replace=False)
        seeds = [nodes[int(i)] for i in picks[:num_seeds]]
        allocation = {}
        for i in picks:
            node = nodes[int(i)]
            degree = graph.out_degree(node)
            if degree:
                allocation[node] = min(degree, 2 + int(i) % 7)
        deployments.append((seeds, allocation))
    return deployments


def _evaluate_all(estimator, deployments):
    """The per-iteration estimator workload of the greedy loops."""
    checksum = 0.0
    for seeds, allocation in deployments:
        checksum += estimator.expected_benefit(seeds, allocation)
        checksum += sum(
            estimator.activation_probabilities(seeds, allocation).values()
        )
    return checksum


@pytest.mark.benchmark(group="compiled_engine")
def test_compiled_engine_speedup(report):
    rows = []
    total_dict = 0.0
    total_compiled = 0.0
    for size in SIZES:
        scenario = synthetic_scenario(size, budget=60.0, seed=BENCH_SEED)
        deployments = _greedy_like_deployments(
            scenario, NUM_DEPLOYMENTS, seed=BENCH_SEED
        )

        dict_estimator = DictOracle(
            scenario.graph, num_samples=NUM_WORLDS, seed=BENCH_SEED
        )
        compiled_estimator = make_estimator(
            scenario, "mc-compiled", num_samples=NUM_WORLDS, seed=BENCH_SEED
        )

        # Same worlds -> bit-identical probabilities (spot-check first three).
        for seeds, allocation in deployments[:3]:
            assert compiled_estimator.activation_probabilities(
                seeds, allocation
            ) == dict_estimator.activation_probabilities(seeds, allocation)
        compiled_estimator.clear_cache()

        with Timer() as dict_timer:
            _evaluate_all(dict_estimator, deployments)
        with Timer() as compiled_timer:
            _evaluate_all(compiled_estimator, deployments)

        cascades = NUM_DEPLOYMENTS * NUM_WORLDS
        total_dict += dict_timer.elapsed
        total_compiled += compiled_timer.elapsed
        rows.append(
            {
                "nodes": size,
                "edges": scenario.num_edges,
                "dict_seconds": dict_timer.elapsed,
                "compiled_seconds": compiled_timer.elapsed,
                "dict_casc_per_s": cascades / dict_timer.elapsed,
                "compiled_casc_per_s": cascades / compiled_timer.elapsed,
                "speedup": dict_timer.elapsed / compiled_timer.elapsed,
            }
        )

    aggregate = total_dict / total_compiled
    rows.append(
        {
            "nodes": "all",
            "edges": "",
            "dict_seconds": total_dict,
            "compiled_seconds": total_compiled,
            "dict_casc_per_s": "",
            "compiled_casc_per_s": "",
            "speedup": aggregate,
        }
    )
    text = format_table(
        rows,
        title=(
            "Compiled CSR engine vs dict path — cascade throughput "
            f"({NUM_DEPLOYMENTS} deployments x {NUM_WORLDS} worlds each)"
        ),
    )
    report("compiled_engine", text)

    assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
        f"compiled engine speedup {aggregate:.1f}x is below the "
        f"{MIN_AGGREGATE_SPEEDUP}x bar"
    )
