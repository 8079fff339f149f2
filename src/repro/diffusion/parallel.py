"""Multiprocess shard evaluation with streaming reduction and pool sharing.

The per-world cascades of a Monte-Carlo estimate are embarrassingly parallel:
every world is an independent deterministic cascade and the estimate is a sum
of integer activation counts.  Two classes exploit that:

:class:`SharedShardPool`
    A persistent process pool that can serve **many** estimators.  Each
    :class:`~repro.diffusion.engine.WorldSampler` (frozen RNG state + compiled
    CSR graph) is *registered* once: a barrier-synchronised broadcast ships it
    to every worker exactly once, after which per-evaluation tasks carry only
    a small token, the block bounds, the seed indices and the sparse coupon
    vector.  The pool is injectable through every layer
    (``make_estimator(..., pool=...)``), so an experiment sweep spanning
    several scenarios and algorithms runs on **one** pool instead of paying a
    pool start-up per estimator.

:class:`ShardExecutor`
    One estimator's view onto a pool (owned or injected).  An evaluation is
    *submitted*: its shard blocks are tagged with their block index and
    dispatched through ``imap_unordered``, and the returned
    :class:`PendingCounts` handle folds the per-block activation-count
    vectors into a running total **in block order** as they arrive (buffering
    out-of-order completions), so the parent overlaps its reduction with the
    workers' computation instead of idling in a blocking ``pool.map``.
    Several evaluations can be pending on the same pool at once — submitting
    a batch and draining it in submission order pipelines the parent's
    reductions behind the workers' cascades.

Determinism
-----------
The per-block counts are integers and the running reduction folds them in
block order whatever order they complete in, so the final count vector — and
the benefit the engine derives from it (``benefit_of``) —
is bit-identical to the serial path for any shard size, worker count,
completion order and pipelining depth.

Ownership
---------
An executor built *without* an injected pool creates one and owns it:
:meth:`ShardExecutor.close` tears the pool down.  An executor built *on* an
injected pool never closes it — closing the executor (or the estimator above
it) merely unregisters its sampler; the pool keeps serving other estimators
until its owner calls :meth:`SharedShardPool.close` (or the ``with`` block
exits).  Every pool also carries a :func:`weakref.finalize` guard — Python
runs outstanding finalizers at interpreter exit, so a pool whose owner forgot
to close it is reclaimed at exit instead of leaking worker processes.

The pool prefers the ``fork`` start method on Linux (cheap start-up, the
graph is inherited rather than re-imported) and uses the platform default
everywhere else (``spawn`` on macOS/Windows — fork is unsafe under macOS
frameworks), where the broadcast arguments travel pickled —
:class:`~repro.graph.csr.CompiledGraph` supports both transports.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import sys
import threading
import time
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion import kernels as _kernels
from repro.diffusion.engine import BlockCache, WorldSampler, cascade_block
from repro.exceptions import EstimationError

#: Blocks each worker keeps materialised between tasks (per registered sampler).
_WORKER_CACHE_BLOCKS = 4

#: Signals the parent defers while it forks a pool's workers (see
#: :class:`SharedShardPool`); workers unblock them in :func:`_init_worker`.
_DEFERRED_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: Seconds a worker waits at the registration barrier before giving up; only
#: reached when a sibling worker died mid-broadcast.
_BARRIER_TIMEOUT = 120.0

#: Seconds :func:`_shutdown_pool` gives ``Pool.terminate`` before it kills
#: the workers itself.
_TERMINATE_TIMEOUT = 2.0

#: One evaluation task: (sampler token, block index, start, count, seeds,
#: sparse coupon items, use-kernel flag).
Task = Tuple[int, int, int, int, List[int], List[Tuple[int, int]], bool]

#: Per-process worker state, keyed by sampler token.
_WORKER_STATES: Dict[int, "_WorkerState"] = {}
_WORKER_BARRIER = None

#: Live-object registries backing the leak assertions of the soak tests.
_LIVE_POOLS: "weakref.WeakSet[SharedShardPool]" = weakref.WeakSet()
_LIVE_EXECUTORS: "weakref.WeakSet[ShardExecutor]" = weakref.WeakSet()


def live_pool_count() -> int:
    """Number of :class:`SharedShardPool` instances not yet closed."""
    return sum(1 for pool in _LIVE_POOLS if not pool.closed)


def live_executor_count() -> int:
    """Number of :class:`ShardExecutor` instances not yet closed."""
    return sum(1 for executor in _LIVE_EXECUTORS if not executor.closed)


def shutdown_live_pools() -> int:
    """Terminate every live pool and executor; returns how many were closed.

    The emergency teardown path of the CLI's interrupt handler: normal code
    closes its own estimators/pools, but a ``KeyboardInterrupt`` can land
    anywhere — including between an estimator's construction and the
    ``try/finally`` that would release it.  Pools are terminated first
    (idempotent, never blocks on in-flight tasks), after which closing the
    executors is pure bookkeeping: an injected pool that is already closed
    makes ``release`` a no-op instead of a broadcast.
    """
    closed = 0
    for pool in list(_LIVE_POOLS):
        if not pool.closed:
            pool.close()
            closed += 1
    for executor in list(_LIVE_EXECUTORS):
        if not executor.closed:
            executor.close()
            closed += 1
    return closed


class _WorkerState:
    """Everything one worker process needs to evaluate one sampler's blocks."""

    def __init__(self, sampler: WorldSampler) -> None:
        num_nodes = sampler.compiled.num_nodes
        self.sampler = sampler
        self.visited: List[int] = [0] * num_nodes
        self.coupons: List[int] = [0] * num_nodes
        self.stamp = 0
        self.cache = BlockCache(sampler, _WORKER_CACHE_BLOCKS)
        # Native-kernel resources, resolved lazily on the first kernel-tagged
        # task so workers of a no-kernel engine never pay backend resolution.
        # The kernel path keeps its own numpy-typed buffers and stamp stream;
        # the two streams never touch each other's arrays.
        self._kernel_resolved = False
        self.kernel = None
        self.kernel_visited: Optional[np.ndarray] = None
        self.kernel_queue: Optional[np.ndarray] = None
        self.kernel_coupons: Optional[np.ndarray] = None
        self.kernel_stamp = 0

    def kernel_or_none(self):
        """The worker's native kernel, resolving (and warming) it on first use."""
        if not self._kernel_resolved:
            self._kernel_resolved = True
            kernel = _kernels.load_kernel()
            if kernel is not None:
                kernel.warm()
                num_nodes = self.sampler.compiled.num_nodes
                self.kernel = kernel
                self.kernel_visited = np.zeros(num_nodes, dtype=np.int64)
                self.kernel_queue = np.empty(num_nodes, dtype=np.int32)
                self.kernel_coupons = np.zeros(num_nodes, dtype=np.int64)
        return self.kernel


def _init_worker(barrier) -> None:
    global _WORKER_BARRIER, _WORKER_STATES
    # A forked worker inherits the parent's SIGTERM handler (the CLI's raises
    # an exception); restore the default so ``Pool.terminate()`` still stops
    # workers silently.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Workers inherit the mask the parent held while forking them.
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _DEFERRED_SIGNALS)
    _WORKER_BARRIER = barrier
    _WORKER_STATES = {}


def _install_sampler(args: Tuple[int, WorldSampler]) -> int:
    """Store a sampler in this worker; the barrier forces one task per worker."""
    token, sampler = args
    _WORKER_STATES[token] = _WorkerState(sampler)
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT)
    return token


def _uninstall_sampler(token: int) -> int:
    _WORKER_STATES.pop(token, None)
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT)
    return token


def evaluate_block_in_state(
    state: _WorkerState, task: Task
) -> Tuple[int, np.ndarray]:
    """Evaluate one shard block against a worker state.

    Returns ``(block_index, activation_counts)``.  This is the single
    evaluation routine shared by the real pool workers and the in-process
    fake pools the property tests inject, so the two paths cannot drift.
    Tasks tagged ``use_kernel`` run the block on the worker's native cascade
    kernel; a worker that cannot resolve a backend falls back to the
    interpreted loop — the per-block counts are bit-identical either way.
    """
    _, block_index, start, count, seed_indices, coupon_items, use_kernel = task
    block = state.cache.block(start, count)
    num_nodes = state.sampler.compiled.num_nodes
    kernel = state.kernel_or_none() if use_kernel else None
    if kernel is not None:
        coupons_arr = state.kernel_coupons
        for position, coupon_count in coupon_items:
            coupons_arr[position] = coupon_count
        # Reserve the block's stamp range up front (mirroring the serial
        # engine): if the kernel raises mid-block, the stamps it already
        # wrote into `visited` must never be reused by a later task.
        stamp = state.kernel_stamp
        state.kernel_stamp = stamp + count
        counts = np.zeros(num_nodes, dtype=np.int64)
        try:
            kernel.cascade_block(
                block.targets, block.offsets,
                np.asarray(seed_indices, dtype=np.int32), coupons_arr,
                state.kernel_visited, stamp, state.kernel_queue, counts,
            )
        finally:
            for position, _ in coupon_items:
                coupons_arr[position] = 0
        return block_index, counts
    coupons = state.coupons
    for position, coupon_count in coupon_items:
        coupons[position] = coupon_count
    # Same up-front stamp-range reservation as above for the interpreted
    # stamp stream.
    stamp = state.stamp
    state.stamp = stamp + count
    try:
        flat_activations, _ = cascade_block(
            block, seed_indices, coupons, state.visited, stamp,
        )
    finally:
        for position, _ in coupon_items:
            coupons[position] = 0
    counts = np.bincount(
        np.asarray(flat_activations, dtype=np.int64),
        minlength=num_nodes,
    )
    return block_index, counts


def _evaluate_block(task: Task) -> Tuple[int, np.ndarray]:
    return evaluate_block_in_state(_WORKER_STATES[task[0]], task)


def _terminate_when_set(pool, stop: threading.Event) -> None:
    stop.wait()
    pool.terminate()


def _shutdown_pool(pool, stop: threading.Event, stopper: threading.Thread) -> None:
    """Stop a pool's workers with no unbounded wait on its queue locks.

    ``Pool.terminate`` takes the task queue's read lock and the result
    queue's write lock, and a worker killed while holding one (a signal
    sent to the whole process group) never releases it.  So ``terminate``
    runs on the pool's daemon ``stopper`` thread, waited on for at most
    :data:`_TERMINATE_TIMEOUT` seconds; workers still alive then
    (``pool._pool`` lists them) are SIGKILLed, and a blocked thread is left
    behind.
    """
    stop.set()
    stopper.join(_TERMINATE_TIMEOUT)
    for process in list(pool._pool):
        if process.exitcode is None:
            process.kill()
            process.join(_TERMINATE_TIMEOUT)


class SharedShardPool:
    """A persistent worker pool shared by any number of estimators.

    Parameters
    ----------
    workers:
        Pool size.  Fixed for the pool's lifetime; executors built on an
        injected pool inherit it.

    The pool is a context manager; it is also guarded by a
    :func:`weakref.finalize` that terminates the workers when the pool is
    garbage collected or the interpreter exits, so a leaked pool cannot keep
    worker processes alive past program end.

    SIGINT and SIGTERM are blocked while the workers are forked and until
    the pool is registered for :func:`shutdown_live_pools`; one arriving in
    that window is delivered when the constructor restores the mask.
    Unblocked, it would land in the interpreter's at-fork hooks, which
    report it as "Exception ignored" and let the program run on.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        # token -> sampler: the strong reference keeps id() keys stable.
        self._samplers: Dict[int, WorldSampler] = {}
        self._token_by_id: Dict[int, int] = {}
        self._next_token = 0
        #: Broadcast instrumentation (benchmarks read these): pickled bytes
        #: of the most recent register() payload, the cumulative bytes
        #: shipped over the pipe (payload × workers, summed over registers),
        #: and the wall time of the most recent barrier broadcast.
        self.last_broadcast_bytes = 0
        self.broadcast_bytes_total = 0
        self.last_broadcast_seconds = 0.0
        self.broadcast_seconds_total = 0.0
        # Prefer the cheap fork start-up only on Linux: macOS offers fork
        # too, but forking after ObjC-framework initialisation is unsafe
        # there (the reason CPython switched its default to spawn), so
        # everywhere else the platform default stands.
        context = multiprocessing.get_context(
            "fork" if sys.platform == "linux" else None
        )
        defer = hasattr(signal, "pthread_sigmask")
        if defer:
            previous_mask = signal.pthread_sigmask(
                signal.SIG_BLOCK, _DEFERRED_SIGNALS
            )
        try:
            self._barrier = context.Barrier(self.workers)
            self._pool = context.Pool(
                self.workers, initializer=_init_worker, initargs=(self._barrier,)
            )
            # The stopper starts now: Python 3.12 starts no thread in an
            # exit handler, where a forgotten pool's finalizer runs.
            stop = threading.Event()
            stopper = threading.Thread(
                target=_terminate_when_set, args=(self._pool, stop), daemon=True
            )
            stopper.start()
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool, stop, stopper
            )
            _LIVE_POOLS.add(self)
        finally:
            if defer:
                signal.pthread_sigmask(signal.SIG_SETMASK, previous_mask)

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down."""
        return not self._finalizer.alive

    def register(self, sampler: WorldSampler) -> int:
        """Ship ``sampler`` to every worker once; returns its task token.

        Registering the same sampler object again is a cheap no-op returning
        the existing token.  The broadcast submits exactly ``workers`` tasks
        (``chunksize=1``) whose handler blocks on a barrier until all of them
        have started, which forces one task onto each worker — the only way
        to address every worker of a :class:`multiprocessing.pool.Pool`.
        """
        self._require_open()
        token = self._token_by_id.get(id(sampler))
        if token is not None:
            return token
        token = self._next_token
        self._next_token += 1
        # Measure what one worker receives: with a shared-memory graph the
        # payload is a segment descriptor (hundreds of bytes); with a
        # private graph it is the whole CSR.  The extra dump costs one
        # serialization per register — once per estimator, not per task.
        payload = (token, sampler)
        self.last_broadcast_bytes = len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.broadcast_bytes_total += self.last_broadcast_bytes * self.workers
        began = time.perf_counter()
        self._pool.map(
            _install_sampler,
            [payload] * self.workers,
            chunksize=1,
        )
        self.last_broadcast_seconds = time.perf_counter() - began
        self.broadcast_seconds_total += self.last_broadcast_seconds
        self._samplers[token] = sampler
        self._token_by_id[id(sampler)] = token
        return token

    def release(self, token: int) -> None:
        """Drop a registered sampler from every worker (frees its block LRU)."""
        if self.closed:
            return
        sampler = self._samplers.pop(token, None)
        if sampler is None:
            return
        self._token_by_id.pop(id(sampler), None)
        self._pool.map(_uninstall_sampler, [token] * self.workers, chunksize=1)

    def imap_unordered(
        self, tasks: Iterable[Task]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Dispatch evaluation tasks; yields ``(block_index, counts)`` as done."""
        self._require_open()
        return self._pool.imap_unordered(_evaluate_block, tasks, chunksize=1)

    def close(self) -> None:
        """Terminate the workers; idempotent."""
        self._finalizer()

    def _require_open(self) -> None:
        if self.closed:
            raise EstimationError("SharedShardPool is closed")

    def __enter__(self) -> "SharedShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PendingCounts:
    """Handle to one in-flight evaluation's streaming reduction.

    Results are folded into the running total **in block order**: a block
    completing early is buffered until every earlier block has been folded.
    ``wait_seconds`` accumulates the time the parent spent blocked waiting
    for the next completion — the parent's idle time, which pipelining
    several pending evaluations is designed to fill.
    """

    __slots__ = (
        "_iterator", "_remaining", "_buffer", "_next_block", "_counts",
        "_owner", "_reported", "wait_seconds",
    )

    def __init__(
        self,
        iterator: Iterator[Tuple[int, np.ndarray]],
        num_blocks: int,
        num_nodes: int,
        owner: Optional["ShardExecutor"] = None,
    ) -> None:
        self._iterator = iterator
        self._remaining = num_blocks
        self._buffer: Dict[int, np.ndarray] = {}
        self._next_block = 0
        self._counts = np.zeros(num_nodes, dtype=np.int64)
        self._owner = owner
        self._reported = False
        self.wait_seconds = 0.0

    @property
    def done(self) -> bool:
        """Whether every block has been received and folded."""
        return self._remaining == 0

    def result(self) -> np.ndarray:
        """Drain the remaining blocks and return the total count vector."""
        buffer = self._buffer
        while self._remaining:
            began = time.perf_counter()
            try:
                block_index, block_counts = next(self._iterator)
            except StopIteration:
                # The pool was torn down (owner close / finalizer) with this
                # evaluation still in flight; surface the module's error
                # contract instead of a bare StopIteration → RuntimeError.
                raise EstimationError(
                    f"worker pool closed with {self._remaining} shard "
                    f"block(s) outstanding"
                ) from None
            self.wait_seconds += time.perf_counter() - began
            self._remaining -= 1
            buffer[block_index] = block_counts
            while self._next_block in buffer:
                self._counts += buffer.pop(self._next_block)
                self._next_block += 1
        if self._buffer:
            raise EstimationError(
                f"shard reduction is missing blocks before "
                f"{min(self._buffer)} (got {sorted(self._buffer)})"
            )
        if self._owner is not None and not self._reported:
            self._reported = True
            self._owner.completed += 1
            self._owner.wait_seconds_total += self.wait_seconds
        return self._counts


class ShardExecutor:
    """One sampler's evaluation front-end onto a (shared or owned) pool.

    Built lazily by :class:`~repro.diffusion.engine.CompiledCascadeEngine` on
    the first parallel run.  With ``pool=None`` the executor creates a
    :class:`SharedShardPool` of its own and :meth:`close` tears it down; with
    an injected pool the executor only registers its sampler and :meth:`close`
    merely unregisters it — **an executor never closes a pool it does not
    own**.
    """

    def __init__(
        self,
        sampler: WorldSampler,
        *,
        bounds: Sequence[Tuple[int, int]],
        workers: Optional[int] = None,
        pool: Optional[SharedShardPool] = None,
        use_kernel: bool = False,
    ) -> None:
        #: Whether this executor's tasks ask workers for the native kernel.
        #: Per-task (not per-pool) so estimators with different settings can
        #: share one pool; a worker without a resolvable backend falls back
        #: to the interpreted loop with identical counts.
        self.use_kernel = bool(use_kernel)
        #: The engine's world grid: one task per ``(start, count)`` block.
        self.bounds = bounds
        if pool is None:
            if workers is None:
                raise EstimationError("either workers or pool is required")
            pool = SharedShardPool(min(int(workers), len(bounds)))
            self._owns_pool = True
        else:
            self._owns_pool = False
        self.pool = pool
        self.workers = pool.workers
        self.num_nodes = sampler.compiled.num_nodes
        self._token = pool.register(sampler)
        self._closed = False
        #: Completed evaluations and the parent's cumulative blocked time,
        #: reported by the PendingCounts handles (benchmark instrumentation).
        self.completed = 0
        self.wait_seconds_total = 0.0
        _LIVE_EXECUTORS.add(self)

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def submit(
        self, seed_indices: List[int], coupon_items: List[Tuple[int, int]]
    ) -> PendingCounts:
        """Dispatch one evaluation; returns its streaming-reduction handle.

        Several submissions may be pending at once: their tasks interleave on
        the pool and each handle drains only its own results, so a caller can
        pipeline a batch by submitting all of it before draining in
        submission order.
        """
        if self._closed:
            raise EstimationError("ShardExecutor is closed")
        tasks: List[Task] = [
            (
                self._token, block_index, start, count,
                seed_indices, coupon_items, self.use_kernel,
            )
            for block_index, (start, count) in enumerate(self.bounds)
        ]
        iterator = self.pool.imap_unordered(tasks)
        return PendingCounts(iterator, len(tasks), self.num_nodes, owner=self)

    def close(self) -> None:
        """Release the executor: owned pools shut down, injected pools stay."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self.pool.close()
        else:
            self.pool.release(self._token)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
