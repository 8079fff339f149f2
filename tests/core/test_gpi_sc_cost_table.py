"""One SC-cost table per solve: GPI prices from the table the ID phase filled.

Every phase of a solve — ID's marginal costs, GPI's tentative path
allocations, SCM's transfers and the final pricing — reads the same
``(node, k)`` table on the :class:`~repro.core.deployment.Deployment`, so the
Poisson-binomial SC-cost recurrence runs at most once per distinct
``(node, k)``.  Swapping in the reference GPI, which prices every visit from
scratch, leaves the solve's result unchanged bit for bit.
"""

from collections import Counter

import pytest

import repro.core.allocation as allocation_module
import repro.core.deployment as deployment_module
import repro.core.s3ca as s3ca_module
from repro.core.s3ca import S3CA
from repro.experiments.scalability import synthetic_scenario

from tests.oracles import reference_guaranteed_paths


def test_sc_cost_recurrence_runs_once_per_node_and_k(monkeypatch):
    # A campaign-server-sized instance: 400 nodes, a tight budget of one per
    # four nodes, the server's default solve knobs.
    scenario = synthetic_scenario(
        400, budget=100.0, power_law_exponent=3.0, seed=1
    )
    calls = Counter()
    recurrence = allocation_module.node_expected_sc_cost

    def counted(graph, node, coupons):
        calls[(node, int(coupons))] += 1
        return recurrence(graph, node, coupons)

    monkeypatch.setattr(allocation_module, "node_expected_sc_cost", counted)
    monkeypatch.setattr(deployment_module, "node_expected_sc_cost", counted)
    result = S3CA(
        scenario, num_samples=50, seed=1, candidate_limit=8,
        max_pivot_candidates=20,
    ).solve()
    assert result.num_paths > 0
    repeated = {key: count for key, count in calls.items() if count > 1}
    assert not repeated, f"SC-cost recurrence re-ran: {repeated}"


def _fingerprint(result):
    return (
        sorted(result.seeds, key=str),
        sorted(result.allocation.items(), key=str),
        result.expected_benefit.hex(),
        result.total_cost.hex(),
        result.num_paths,
        result.num_maneuvers,
    )


@pytest.mark.parametrize("spend_full_budget", [False, True])
def test_s3ca_unchanged_under_reference_gpi(scm_scenario, monkeypatch, spend_full_budget):
    def solve():
        return S3CA(
            scm_scenario, num_samples=30, seed=5, candidate_limit=8,
            max_pivot_candidates=15, spend_full_budget=spend_full_budget,
        ).solve()

    fast = solve()
    monkeypatch.setattr(
        s3ca_module, "identify_guaranteed_paths", reference_guaranteed_paths
    )
    reference = solve()
    assert _fingerprint(fast) == _fingerprint(reference)
    assert fast.num_paths > 0
    if spend_full_budget:
        # The full-budget regime makes SCM accept transfers on this instance,
        # so the identity covers paths SCM actually realises.
        assert fast.num_maneuvers > 0
