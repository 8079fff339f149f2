"""Tests for the Deployment object."""

import pytest

from repro.core.deployment import Deployment
from repro.diffusion.estimator import BenefitEstimator
from repro.diffusion.exact import ExactEstimator
from repro.exceptions import AllocationError


def test_empty_deployment(two_hop_path):
    deployment = Deployment(two_hop_path)
    assert deployment.is_empty()
    assert deployment.total_cost() == 0.0
    assert deployment.num_seeds == 0
    assert deployment.total_coupons == 0


def test_internal_nodes_union_of_seeds_and_holders(two_hop_path):
    deployment = Deployment(two_hop_path, seeds=["a"], allocation={"b": 1})
    assert deployment.internal_nodes == {"a", "b"}


def test_seed_cost_and_sc_cost(two_hop_path):
    deployment = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1})
    assert deployment.seed_cost() == 1.0
    assert deployment.sc_cost() == pytest.approx(0.5)  # one friend at 0.5
    assert deployment.total_cost() == pytest.approx(1.5)


def test_expected_benefit_and_redemption_rate(two_hop_path):
    estimator = ExactEstimator(two_hop_path)
    deployment = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1, "b": 1})
    benefit = deployment.expected_benefit(estimator)
    assert benefit == pytest.approx(1 + 0.5 + 0.4)
    assert deployment.redemption_rate(estimator) == pytest.approx(
        benefit / deployment.total_cost()
    )


def test_zero_cost_redemption_rate_is_zero(two_hop_path):
    estimator = ExactEstimator(two_hop_path)
    assert Deployment(two_hop_path).redemption_rate(estimator) == 0.0


def test_fits_budget(two_hop_path):
    deployment = Deployment(two_hop_path, seeds=["a"])
    assert deployment.fits_budget(1.0)
    assert not deployment.fits_budget(0.5)


def test_with_seed_and_with_extra_coupon_do_not_mutate(two_hop_path):
    base = Deployment(two_hop_path, seeds=["a"])
    with_seed = base.with_seed("b", coupons=1)
    with_coupon = base.with_extra_coupon("a")
    assert base.seeds == {"a"}
    assert base.total_coupons == 0
    assert with_seed.seeds == {"a", "b"}
    assert with_seed.allocation.get("b") == 1
    assert with_coupon.allocation.get("a") == 1


def test_with_seed_keeps_larger_existing_allocation(two_hop_path):
    base = Deployment(two_hop_path, seeds=[], allocation={"a": 1})
    grown = base.with_seed("a", coupons=0)
    assert grown.allocation.get("a") == 1


def test_with_extra_coupon_respects_out_degree(two_hop_path):
    base = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1})
    with pytest.raises(AllocationError):
        base.with_extra_coupon("a")  # a has only one friend


def test_with_coupons_retrieved(two_hop_path):
    base = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1})
    reduced = base.with_coupons_retrieved("a")
    assert reduced.total_coupons == 0
    assert base.total_coupons == 1


def test_key_is_order_insensitive(two_hop_path):
    """The estimators' memo key ignores seed and allocation order."""
    first = Deployment(two_hop_path, seeds=["a", "b"], allocation={"a": 1, "b": 1})
    second = Deployment(two_hop_path, seeds=["b", "a"], allocation={"b": 1, "a": 1})
    key = BenefitEstimator._key
    assert key(first.seeds, first.allocation.as_dict()) == key(
        second.seeds, second.allocation.as_dict()
    )
    assert key(first.seeds, {"a": 1}) != key(first.seeds, {"a": 1, "b": 1})
    # Zero counts are not allocations: they do not change the key.
    assert key(["a"], {"a": 1, "b": 0}) == key(["a"], {"a": 1})
    # Node ids of mixed types never meet in a comparison.
    assert key([1, "n1"], {"n1": 1, 1: 2}) == key(["n1", 1], {1: 2, "n1": 1})


def test_summary_contains_expected_fields(two_hop_path):
    estimator = ExactEstimator(two_hop_path)
    deployment = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1})
    summary = deployment.summary(estimator)
    for field in (
        "num_seeds",
        "total_coupons",
        "seed_cost",
        "sc_cost",
        "total_cost",
        "expected_benefit",
        "redemption_rate",
    ):
        assert field in summary
    assert summary["num_seeds"] == 1.0


def test_copy_shares_nothing_mutable(two_hop_path):
    base = Deployment(two_hop_path, seeds=["a"], allocation={"a": 1})
    clone = base.copy()
    clone.seeds.add("b")
    clone.allocation.set("b", 1)
    assert base.seeds == {"a"}
    assert base.allocation.as_dict() == {"a": 1}
