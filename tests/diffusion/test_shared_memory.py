"""Shared-memory transport lifecycle: no ``/dev/shm`` leaks, ever.

The zero-copy transport creates named POSIX segments (``repro-*``) for the
compiled graph and for every published world block.  These tests pin the
cleanup architecture from every direction a segment can be orphaned:

* closing / garbage-collecting an estimator removes everything it created;
* a pool run leaves nothing behind once the estimators and the pool close;
* a **SIGKILLed publisher** cannot leak — the parent engine sweeps the
  deterministic name grid of its sampler, which covers segments created by
  any process, dead or alive;
* when the platform has no shared memory the engine warns (only when it was
  forced on) and falls back to by-value transport with identical results.

Plus the zero-copy payload contract: pickling a shared estimator's sampler
ships a few hundred bytes instead of the CSR arrays.
"""

import gc
import os
import pickle
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.diffusion.engine import CompiledCascadeEngine
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.parallel import SharedShardPool
from repro.diffusion.world_store import SharedBlockStore, sampler_fingerprint
from repro.experiments.scalability import synthetic_scenario
from repro.graph.shared import SharedCompiledGraph, share_compiled
from repro.utils import shm

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available() or not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory is not observable on this platform",
)

NUM_SAMPLES = 24


def _repro_segments():
    return sorted(
        name for name in os.listdir("/dev/shm") if name.startswith(shm.SEGMENT_PREFIX)
    )


@pytest.fixture(autouse=True)
def segments_before():
    """Every test in this module must end /dev/shm where it started.

    Tests judge only their own segments against this snapshot: other
    processes' segments may come and go meanwhile.
    """
    before = _repro_segments()
    yield before
    gc.collect()
    assert _repro_segments() == before


def test_closed_and_collected_estimator_leaves_no_segments(
    two_hop_path, segments_before
):
    estimator = MonteCarloEstimator(
        two_hop_path, num_samples=NUM_SAMPLES, seed=7, shared_memory=True
    )
    assert estimator.shared_memory_active
    estimator.expected_benefit(["a"], {"a": 1})
    # graph segment + published blocks exist
    assert set(_repro_segments()) - set(segments_before)
    estimator.close()
    del estimator
    gc.collect()
    assert _repro_segments() == segments_before


def test_unclosed_estimator_is_cleaned_by_garbage_collection(
    two_hop_path, segments_before
):
    estimator = MonteCarloEstimator(
        two_hop_path, num_samples=NUM_SAMPLES, seed=7, shared_memory=True
    )
    estimator.expected_benefit(["a"], {"b": 1})
    del estimator  # no close(): the finalizers must do the whole job
    gc.collect()
    assert _repro_segments() == segments_before


def test_pool_run_leaves_no_segments_and_matches_serial(
    two_hop_path, segments_before
):
    serial = MonteCarloEstimator(two_hop_path, num_samples=NUM_SAMPLES, seed=3)
    expected = serial.expected_benefit(["a"], {"a": 1, "b": 1})
    with SharedShardPool(2) as pool:
        estimator = MonteCarloEstimator(
            two_hop_path, num_samples=NUM_SAMPLES, seed=3, shard_size=6, pool=pool
        )
        assert estimator.shared_memory_active  # auto-on with a pool
        assert estimator.expected_benefit(["a"], {"a": 1, "b": 1}) == expected
        estimator.close()
        del estimator
    gc.collect()
    assert _repro_segments() == segments_before


def test_second_engine_attaches_instead_of_publishing(two_hop_path):
    compiled = two_hop_path.compiled()
    first = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=5, shard_size=6, shared_memory=True
    )
    second = CompiledCascadeEngine(
        compiled, NUM_SAMPLES, seed=5, shard_size=6, shared_memory=True
    )
    counts_first, benefit_first = first.run(["a"], {"a": 1})
    counts_second, benefit_second = second.run(["a"], {"a": 1})
    assert np.array_equal(counts_first, counts_second)
    assert benefit_first == benefit_second
    store = second.sampler.store
    assert store.attach_count > 0  # re-used the first engine's blocks
    assert store.publish_count == 0
    first.close()
    second.close()
    del first, second


def test_sigkilled_publisher_cannot_leak_the_parent_sweeps_the_grid(two_hop_path):
    """A worker that dies after publishing leaves a segment the parent removes."""
    engine = CompiledCascadeEngine(
        two_hop_path.compiled(), NUM_SAMPLES, seed=9, shard_size=6,
        shared_memory=True,
    )
    store = engine.sampler.store
    start, count = engine.bounds[0]
    orphan = store.data_name(start, count)
    # A child process creates the segment under the store's deterministic
    # name, then dies by SIGKILL — no atexit sweep, no finalizers, exactly
    # like a crashed pool worker.
    child = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, os, signal\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.utils import shm\n"
            "shm.create_segment(sys.argv[2], 64)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n",
            os.path.join(os.path.dirname(__file__), "..", "..", "src"),
            orphan,
        ],
        capture_output=True,
    )
    assert child.returncode == -signal.SIGKILL
    assert orphan in _repro_segments()
    engine.close()  # sweeps the whole (fingerprint, start, count) grid
    assert orphan not in _repro_segments()
    del engine


def test_forced_shared_memory_warns_and_falls_back_when_unavailable(
    monkeypatch, two_hop_path
):
    monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
    baseline = CompiledCascadeEngine(two_hop_path.compiled(), NUM_SAMPLES, seed=2)
    with pytest.warns(UserWarning, match="falling back to by-value"):
        engine = CompiledCascadeEngine(
            two_hop_path.compiled(), NUM_SAMPLES, seed=2, shared_memory=True
        )
    assert not engine.shared_memory
    counts_f, benefit_f = engine.run(["a"], {"a": 1})
    counts_b, benefit_b = baseline.run(["a"], {"a": 1})
    assert np.array_equal(counts_f, counts_b)
    assert benefit_f == benefit_b


def test_auto_mode_stays_silent_when_unavailable(monkeypatch, two_hop_path):
    monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = CompiledCascadeEngine(
            two_hop_path.compiled(), NUM_SAMPLES, seed=2, workers=1
        )
    assert not engine.shared_memory


def test_shared_graph_pickle_is_a_descriptor_not_the_arrays():
    scenario = synthetic_scenario(120, budget=100.0, seed=6)
    compiled = scenario.graph.compiled()
    by_value = len(pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL))
    shared = share_compiled(compiled)
    assert isinstance(shared, SharedCompiledGraph)
    payload = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(payload) < by_value / 10
    # The attached clone reads the same pages, lazily.
    clone = pickle.loads(payload)
    assert clone._node_ids is None and clone._index is None
    assert np.array_equal(clone.indptr, compiled.indptr)
    assert np.array_equal(clone.probs, compiled.probs)
    assert clone.node_ids == compiled.node_ids
    del clone
    shared.release()
    del shared


def test_world_store_pickles_to_its_fingerprint(two_hop_path):
    engine = CompiledCascadeEngine(
        two_hop_path.compiled(), NUM_SAMPLES, seed=4, shared_memory=True
    )
    store = engine.sampler.store
    clone = pickle.loads(pickle.dumps(store))
    assert isinstance(clone, SharedBlockStore)
    assert clone.fingerprint == store.fingerprint
    assert clone.fingerprint == sampler_fingerprint(engine.sampler)
    engine.close()
    del engine


def test_compiled_graph_unpickles_with_lazy_index(two_hop_path):
    """``__setstate__`` must not eagerly rebuild the node index (satellite b)."""
    compiled = two_hop_path.compiled()
    assert compiled.index_of("a") == 0  # materialise on the original
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone._index is None
    assert clone.index_of("b") == compiled.index_of("b")
    assert clone._index is not None


def test_sweep_unlinks_a_block_segment_not_yet_sized(two_hop_path):
    """A block name its publisher created but has not sized yet is swept too.

    ``shm_open`` creates the name empty and the publisher sizes it after; a
    sweep in that window must unlink it by name, not try to map it.
    """
    engine = CompiledCascadeEngine(
        two_hop_path.compiled(), NUM_SAMPLES, seed=9, shard_size=6,
        shared_memory=True,
    )
    start, count = engine.bounds[-1]
    name = engine.sampler.store.data_name(start, count)
    open(os.path.join("/dev/shm", name), "xb").close()
    engine.close()
    assert name not in _repro_segments()
    del engine
