"""Identity of the incremental (CELF-lazy) greedy and the eager reference.

The acceptance bar for the incremental ID phase is not "close" but *equal*:
for a fixed RNG seed, ``incremental=True`` must select the same seeds, the
same coupon allocation and report the same expected benefit as the eager
full-resimulation loop, on the toy scenario and on Fig. 9-style synthetic
graphs alike.
"""

from __future__ import annotations

import pytest

from repro.core.investment import InvestmentDeployment
from repro.core.s3ca import S3CA
from repro.diffusion.factory import make_estimator
from repro.experiments.datasets import toy_scenario
from repro.experiments.scalability import synthetic_scenario


def _solve(scenario, incremental, *, num_samples=60, seed=11, **kwargs):
    estimator = make_estimator(
        scenario, "mc-compiled", num_samples=num_samples, seed=seed,
        incremental=incremental,
    )
    return S3CA(
        scenario, estimator=estimator, incremental=incremental, **kwargs
    ).solve()


def _assert_identical(eager, lazy):
    assert eager.seeds == lazy.seeds
    assert eager.allocation == lazy.allocation
    assert eager.expected_benefit == lazy.expected_benefit
    assert eager.total_cost == lazy.total_cost


def test_toy_scenario_bit_identical():
    scenario = toy_scenario()
    _assert_identical(_solve(scenario, False), _solve(scenario, True))


@pytest.mark.parametrize("seed", [3, 11, 2019])
def test_fig9_graph_bit_identical(seed):
    scenario = synthetic_scenario(150, budget=120.0, seed=2019)
    eager = _solve(scenario, False, seed=seed,
                   candidate_limit=10, max_pivot_candidates=40)
    lazy = _solve(scenario, True, seed=seed,
                  candidate_limit=10, max_pivot_candidates=40)
    _assert_identical(eager, lazy)


@pytest.mark.parametrize("budget", [40.0, 90.0, 200.0])
def test_fig9_budget_sweep_bit_identical(budget):
    scenario = synthetic_scenario(100, budget=budget, seed=7)
    eager = _solve(scenario, False, candidate_limit=8, max_pivot_candidates=25)
    lazy = _solve(scenario, True, candidate_limit=8, max_pivot_candidates=25)
    _assert_identical(eager, lazy)


def test_id_phase_snapshot_sequence_identical():
    """The lazy loop makes the same investment at every greedy step."""
    scenario = synthetic_scenario(120, budget=150.0, seed=13)
    runs = {}
    for incremental in (False, True):
        estimator = make_estimator(
            scenario, "mc-compiled", num_samples=50, seed=5,
            incremental=incremental,
        )
        phase = InvestmentDeployment(
            scenario, estimator, candidate_limit=10, max_pivot_candidates=30,
            incremental=incremental,
        )
        runs[incremental] = phase.run()
    eager, lazy = runs[False], runs[True]
    assert eager.iterations == lazy.iterations
    assert len(eager.snapshots) == len(lazy.snapshots)
    for eager_snap, lazy_snap in zip(eager.snapshots, lazy.snapshots):
        assert eager_snap.seeds == lazy_snap.seeds
        assert eager_snap.allocation.as_dict() == lazy_snap.allocation.as_dict()
    assert eager.deployment.seeds == lazy.deployment.seeds
    assert eager.deployment.allocation == lazy.deployment.allocation
    # The Fig. 9 explored-ratio metric is mode-independent.
    assert lazy.explored_nodes == eager.explored_nodes


def test_incremental_flag_defaults_to_estimator_capability():
    scenario = toy_scenario()
    compiled = make_estimator(scenario, "mc-compiled", num_samples=20, seed=1)
    phase = InvestmentDeployment(scenario, compiled)
    assert phase.incremental

    eager_only = make_estimator(
        scenario, "mc-compiled", num_samples=20, seed=1, incremental=False
    )
    phase = InvestmentDeployment(scenario, eager_only)
    assert not phase.incremental
    # Forcing incremental on an estimator without delta support degrades
    # gracefully to the eager path.
    phase = InvestmentDeployment(scenario, eager_only, incremental=True)
    assert not phase.incremental
