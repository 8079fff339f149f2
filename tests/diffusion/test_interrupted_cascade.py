"""An interrupted block cascade leaves its scratch as a fresh one.

A ``KeyboardInterrupt`` (or any exception) can land inside a block cascade
after it has written stamps into the scratch's ``visited`` and while the
deployment's coupons are set.  :class:`~repro.diffusion.engine.CascadeScratch`
reserves each block's stamp range before that block's cascade runs and
resets the coupons in ``finally``, so every deployment evaluated afterwards
on the same serial engine or pool-worker state equals a fresh one's, bit for
bit.  The deployment with fewer coupon holders runs first: stale coupons or
reused stamps would show there.
"""

import numpy as np
import pytest

from repro.diffusion import engine as engine_module
from repro.diffusion import kernels, parallel
from repro.diffusion.engine import CompiledCascadeEngine
from repro.experiments.scalability import synthetic_scenario

NUM_WORLDS = 40
SHARD_SIZE = 10
SEED = 5


@pytest.fixture(scope="module")
def compiled():
    return synthetic_scenario(60, budget=200.0, seed=3).compiled_graph()


def _deployments(compiled):
    """``(fewer, interrupted)``: the first's coupon holders are the second's seeds."""
    nodes = compiled.node_ids
    degree = np.diff(compiled.indptr)
    hubs = [nodes[i] for i in np.argsort(-degree, kind="stable")[:20].tolist()]
    seeds = hubs[:2]
    interrupted = {node: int(degree[compiled.index[node]]) for node in hubs}
    fewer = {node: interrupted[node] for node in seeds}
    return (seeds, fewer), (seeds, interrupted)


def _engine(compiled, use_kernel):
    return CompiledCascadeEngine(
        compiled, NUM_WORLDS, seed=SEED, shard_size=SHARD_SIZE,
        use_kernel=use_kernel,
    )


def _serial(compiled, use_kernel):
    """A serial engine's evaluation of a deployment: ``(counts, benefit)``."""
    return _engine(compiled, use_kernel).run


def _worker(compiled, use_kernel):
    """A worker state's evaluation of a deployment, one task per block."""
    engine = _engine(compiled, use_kernel)
    state = parallel._WorkerState(engine.sampler)

    def evaluate(seeds, allocation):
        seed_indices = compiled.indices_of(sorted(seeds, key=str))
        coupon_items = [
            (compiled.index[node], count) for node, count in allocation.items()
        ]
        counts = np.zeros(compiled.num_nodes, dtype=np.int64)
        for block_index, (start, count) in enumerate(engine.bounds):
            task = (
                0, block_index, start, count, seed_indices, coupon_items,
                use_kernel,
            )
            _, block_counts = parallel.evaluate_block_in_state(state, task)
            counts += block_counts
        return counts, engine.benefit_of(counts)

    return evaluate


def _interrupt_second_call(monkeypatch, use_kernel):
    """Make the second block cascade run and then raise ``KeyboardInterrupt``."""
    calls = []
    if use_kernel:
        owner, original = kernels.CascadeKernel, kernels.CascadeKernel.cascade_block
    else:
        owner, original = engine_module, engine_module.cascade_block

    def cascade_then_interrupt(*args):
        result = original(*args)
        calls.append(None)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(owner, "cascade_block", cascade_then_interrupt)
    return calls


@pytest.mark.parametrize("make", [_serial, _worker], ids=["serial", "worker"])
@pytest.mark.parametrize(
    "use_kernel",
    [
        pytest.param(
            True,
            marks=pytest.mark.skipif(
                kernels.load_kernel() is None,
                reason="no native kernel backend resolves in this environment",
            ),
            id="kernel",
        ),
        pytest.param(False, id="interpreted"),
    ],
)
def test_interrupted_cascade_leaves_a_fresh_scratch(
    monkeypatch, compiled, make, use_kernel
):
    fewer, interrupted = _deployments(compiled)
    evaluate = make(compiled, use_kernel)
    with monkeypatch.context() as patch:
        calls = _interrupt_second_call(patch, use_kernel)
        with pytest.raises(KeyboardInterrupt):
            evaluate(*interrupted)
        assert len(calls) == 2
    for seeds, allocation in (fewer, interrupted):
        counts, benefit = evaluate(seeds, allocation)
        expected_counts, expected_benefit = make(compiled, use_kernel)(
            seeds, allocation
        )
        np.testing.assert_array_equal(counts, expected_counts)
        assert benefit == expected_benefit
    # The two deployments differ, so the first comparison can see stale
    # coupons of the interrupted one.
    assert not np.array_equal(evaluate(*fewer)[0], evaluate(*interrupted)[0])
