"""Shared-pool ownership semantics, lifecycle guards and leak safety.

The contract being locked down:

* an estimator (or engine, or executor) built **on an injected pool** never
  closes that pool — closing the estimator only unregisters its sampler;
* an estimator that had to create its own pool owns it, and closing the
  estimator tears the pool down;
* a leaked pool cannot outlive the interpreter: the ``weakref.finalize``
  guard (Python runs outstanding finalizers via ``atexit``) terminates the
  workers at program exit, so forgetting ``close()`` cannot hang the process.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from repro.diffusion import parallel
from repro.diffusion.monte_carlo import MonteCarloEstimator
from repro.diffusion.parallel import (
    SharedShardPool,
    live_executor_count,
    live_pool_count,
)
from repro.exceptions import EstimationError


def _worker_children():
    return [child for child in multiprocessing.active_children()]


def test_estimator_never_closes_an_injected_pool(two_hop_path):
    serial = MonteCarloEstimator(two_hop_path, num_samples=20, seed=4)
    expected = serial.expected_benefit(["a"], {"a": 1})
    with SharedShardPool(2) as pool:
        first = MonteCarloEstimator(
            two_hop_path, num_samples=20, seed=4, shard_size=5, pool=pool
        )
        second = MonteCarloEstimator(
            two_hop_path, num_samples=20, seed=4, shard_size=5, pool=pool
        )
        assert first.expected_benefit(["a"], {"a": 1}) == expected
        first.close()
        assert not pool.closed
        # the pool must keep serving the other estimator
        assert second.expected_benefit(["a"], {"a": 1}) == expected
        second.close()
        assert not pool.closed
    assert pool.closed


def test_estimator_owned_pool_is_closed_with_the_estimator(two_hop_path):
    baseline = len(_worker_children())
    estimator = MonteCarloEstimator(
        two_hop_path, num_samples=20, seed=4, shard_size=5, workers=2
    )
    estimator.expected_benefit(["a"], {"a": 1})
    assert len(_worker_children()) > baseline
    estimator.close()
    assert len(_worker_children()) == baseline


def test_closed_pool_refuses_new_work(two_hop_path):
    pool = SharedShardPool(2)
    estimator = MonteCarloEstimator(
        two_hop_path, num_samples=20, seed=4, shard_size=5, pool=pool
    )
    estimator.expected_benefit(["a"], {"a": 1})
    pool.close()
    estimator.clear_cache()
    with pytest.raises(EstimationError):
        estimator.expected_benefit(["a"], {"a": 1})
    # closing the estimator after the pool died is still safe
    estimator.close()
    pool.close()  # idempotent


def test_register_is_idempotent_and_release_forgets(two_hop_path):
    with SharedShardPool(2) as pool:
        estimator = MonteCarloEstimator(
            two_hop_path, num_samples=20, seed=4, shard_size=5, pool=pool
        )
        estimator.expected_benefit(["a"], {"a": 1})
        sampler = estimator._engine.sampler
        token = pool.register(sampler)
        assert pool.register(sampler) == token  # no re-broadcast
        estimator.close()  # releases the token
        assert pool.register(sampler) != token  # re-registered fresh


def test_live_counters_track_open_pools_and_executors(two_hop_path):
    pools_before = live_pool_count()
    executors_before = live_executor_count()
    with SharedShardPool(2) as pool:
        assert live_pool_count() == pools_before + 1
        estimator = MonteCarloEstimator(
            two_hop_path, num_samples=20, seed=4, shard_size=5, pool=pool
        )
        estimator.expected_benefit(["a"], {"a": 1})
        assert live_executor_count() == executors_before + 1
        estimator.close()
        assert live_executor_count() == executors_before
    assert live_pool_count() == pools_before


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_close_never_waits_on_a_lock_a_dead_worker_held():
    """Teardown returns, with every worker dead, while a queue lock stays taken.

    A worker killed inside a ``put`` on the result queue never releases the
    queue's write lock, on which ``Pool.terminate`` would block for ever.
    Holding that lock here stands in for such a worker.
    """
    pool = SharedShardPool(2)
    workers = list(pool._pool._pool)
    lock = pool._pool._outqueue._wlock
    lock.acquire()
    try:
        began = time.perf_counter()
        pool.close()
        assert time.perf_counter() - began < parallel._TERMINATE_TIMEOUT + 10
        assert pool.closed
        assert not any(process.is_alive() for process in workers)
        assert not any(process.is_alive() for process in pool._pool._pool)
    finally:
        lock.release()


def _run_script(tmp_path, name, script, timeout=120):
    path = tmp_path / name
    path.write_text(textwrap.dedent(script), encoding="utf-8")
    # The child needs `repro` importable without a pip install: pyproject's
    # `pythonpath = ["src"]` only applies inside pytest, so prepend the
    # package source explicitly.
    src_dir = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_process_exits_while_a_queue_lock_stays_taken(tmp_path):
    """The exit-time finalizer cannot hang on a lock a dead worker held."""
    completed = _run_script(
        tmp_path,
        "held_lock.py",
        """
        from repro.diffusion.parallel import SharedShardPool

        pool = SharedShardPool(2)
        pool._pool._outqueue._wlock.acquire()
        print(" ".join(str(process.pid) for process in pool._pool._pool))
        # no close(): the finalizer at exit must still return.
        """,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    pids = [int(pid) for pid in completed.stdout.split()]
    assert len(pids) == 2
    assert not any(_pid_alive(pid) for pid in pids)


def test_forgotten_pool_is_reclaimed_at_interpreter_exit(tmp_path):
    """Regression: a never-closed pool must not hang the process at exit."""
    completed = _run_script(
        tmp_path,
        "leak_pool.py",
        """
        from repro.diffusion.monte_carlo import MonteCarloEstimator
        from repro.diffusion.parallel import SharedShardPool
        from repro.graph.social_graph import SocialGraph

        graph = SocialGraph()
        graph.add_edge("a", "b", 0.5)
        for node in graph.nodes():
            graph.add_node(node, benefit=1.0, seed_cost=1.0, sc_cost=1.0)

        pool = SharedShardPool(2)
        estimator = MonteCarloEstimator(
            graph, num_samples=12, seed=1, shard_size=4, pool=pool
        )
        print(estimator.expected_benefit(["a"], {"a": 1}))
        # neither estimator.close() nor pool.close(): the finalizer must
        # reclaim the workers at exit.
        """,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()  # the estimate was printed
