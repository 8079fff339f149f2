"""Vectorized SC-constrained cascade engine over a compiled CSR graph.

:class:`CompiledCascadeEngine` is the fast replacement for the dict-based
:func:`~repro.diffusion.live_edge.sample_worlds` +
:func:`~repro.diffusion.live_edge.cascade_in_world` pair.  It draws live-edge
coin flips as flat numpy masks and pre-resolves, for every world, the **live
adjacency**: each node's live out-edges in coupon hand-off order.  The
SC-constrained cascade then never touches a dead edge — under the
weighted-cascade setting (``P(e) = 1/in_degree``) that prunes the per-node walk
from ``out_degree`` attempts down to roughly one — and runs on flat integer
arrays instead of per-node dict lookups and per-edge tuple hashing.

Sharded world sampling
----------------------
Worlds are produced by a :class:`WorldSampler`, which freezes the RNG state at
construction and can recreate *any* contiguous block of worlds from scratch by
skipping the bit stream forward (``bit_generator.advance`` where it skips
exactly one double per step, chunked draw-and-discard otherwise; see
:func:`_skipper`).  The engine's world grid
(:attr:`CompiledCascadeEngine.bounds`) splits the worlds into blocks.  With
the default ``shard_size=None`` it is one block, drawn at construction and
kept resident.  With a ``shard_size``
the engine materialises worlds in fixed-size blocks — build, evaluate, discard
— holding at most a couple of blocks at a time, which bounds peak memory to
O(shard_size × live edges) instead of O(num_worlds × live edges).  Because
each block is regenerated from the same frozen state at the same stream
offset, the worlds — and therefore every activation count and expected
benefit — are **bit-identical** for any shard size, and for any worker count
(see :mod:`repro.diffusion.parallel`).

One cascade scratch
-------------------
The serial engine and every pool worker cascade a block through the same
:meth:`CascadeScratch.count` (the native kernel's block entry, or the
interpreted :func:`cascade_block`), each on its own scratch; the engine's
instrumented cascades advance the engine's scratch too.

Common-random-numbers parity
----------------------------
The engine reproduces the dict path *exactly* for a fixed seed:

* coin flips are drawn per world in ``graph.edges()`` enumeration order — the
  same stream consumption as ``sample_worlds`` — and an edge is live iff
  ``draw < probability``, so world ``w`` here is bit-for-bit world ``w`` there;
* the cascade processes a FIFO queue seeded in caller order and walks each
  holder's live out-edges in ranked order, redeeming on not-yet-active
  targets until the coupons run out.  Dead-edge visits in the dict path are
  no-ops (they neither activate nor consume a coupon), so skipping them leaves
  the activated set, the redemption order, and therefore every activation
  count identical.

Expected-benefit totals can differ from the dict path in the last few ulps
only, because the dict path sums per-world benefits in Python-set iteration
order while the engine accumulates in activation order.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import warnings
import weakref
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.diffusion import kernels as _kernels
from repro.diffusion.reconcile import dirty_probe, dirty_rows
from repro.exceptions import EstimationError
from repro.graph.csr import CompiledGraph
from repro.graph.social_graph import SocialGraph
from repro.utils import shm as _shm
from repro.utils.rng import SeedLike, spawn_rng

NodeId = Hashable

#: One world's live adjacency: (targets, offsets) in coupon hand-off order.
WorldAdjacency = Tuple[List[int], List[int]]

#: How many shard blocks the engine keeps resident at once.  Two covers the
#: common access patterns (a sequential full pass, plus the delta engine
#: revisiting the block it just left) without growing with ``num_worlds``.
_MAX_CACHED_BLOCKS = 2

#: Draw-and-discard chunk of :func:`_skipper`.
_DISCARD_CHUNK = 65_536

#: Bit generators whose ``advance(k)`` skips exactly ``k`` doubles: each
#: double is one 64-bit output.  Philox's ``advance`` steps a counter of four
#: outputs, and MT19937 and SFC64 have no ``advance``.
_ADVANCE_SKIPS_DRAWS = (np.random.PCG64, np.random.PCG64DXSM)


class FlatWorldBlock:
    """A contiguous block of worlds stored as flat contiguous int arrays.

    This is the block representation every path — the serial engine, the
    delta snapshot engine, the multiprocess workers and the native kernels —
    consumes.  No Python lists exist in the hot path:

    ``targets``
        int32 array: the concatenated live-edge targets of every world of
        the block, each world's targets in coupon hand-off order.
    ``offsets``
        int64 array of shape ``(count, num_nodes + 1)``: world ``w``'s live
        out-edges of node ``u`` are ``targets[offsets[w, u]:offsets[w, u+1]]``.
        Offsets are **absolute** indices into the concatenated ``targets``
        (each row is already rebased by its world's boundary), so a cascade
        needs no per-world base arithmetic; ``offsets[w, 0]`` /
        ``offsets[w, -1]`` delimit world ``w``'s slice of ``targets`` — the
        per-world boundary index.
    ``count``
        Number of worlds in the block.

    The interpreted oracle path still runs on Python lists (flat numpy
    scalar indexing is slower than list indexing in pure Python);
    :meth:`lists` materialises — lazily, once per block — the concatenated
    targets list and per-world absolute offset rows it needs, so the
    interpreted loop keeps its historic speed without a second world
    representation being drawn.
    """

    __slots__ = ("targets", "offsets", "count", "_targets_list", "_offsets_rows", "segment")

    def __init__(self, targets: np.ndarray, offsets: np.ndarray, count: int) -> None:
        self.targets = targets
        self.offsets = offsets
        self.count = count
        self._targets_list: Optional[List[int]] = None
        self._offsets_rows: Optional[List[List[int]]] = None
        #: Shared-memory segment backing the arrays, when the block was
        #: attached from (or published to) the machine-wide world store.
        self.segment = None

    def release(self) -> None:
        """Drop the list caches and close a shared mapping, if any.

        Called on LRU eviction so evicted shared blocks do not pin their
        mapping; live array views (a caller still cascading on the block)
        keep the pages valid regardless — closing is best-effort.
        """
        self._targets_list = None
        self._offsets_rows = None
        segment, self.segment = self.segment, None
        if segment is not None:
            _shm.close_segment(segment)

    def lists(self) -> Tuple[List[int], List[List[int]]]:
        """Python-list view ``(targets, offset rows)`` for the interpreted path."""
        if self._targets_list is None:
            self._targets_list = self.targets.tolist()
            self._offsets_rows = self.offsets.tolist()
        return self._targets_list, self._offsets_rows

    def world_local(self, slot: int) -> WorldAdjacency:
        """One world's live adjacency as world-local ``(targets, offsets)`` lists.

        The returned pair is self-contained (offsets rebased to the world's
        own targets slice) and therefore comparable across blocks and shard
        sizes — the representation :meth:`CompiledCascadeEngine.world`
        exposes.
        """
        row = self.offsets[slot]
        base = int(row[0])
        return (
            self.targets[base:int(row[-1])].tolist(),
            (row - base).tolist(),
        )


class WorldSampler:
    """Recreates any block of live-edge worlds from a frozen RNG state.

    The sampler captures the bit-generator state once at construction; a block
    starting at world ``w`` is then drawn by restoring that state, skipping
    ``w × num_edges`` doubles (each live-edge coin flip consumes exactly one
    draw) and flipping the block's coins in ``graph.edges()`` enumeration
    order.  The skip (:func:`_skipper`) calls ``bit_generator.advance``
    only where ``advance(k)`` skips exactly ``k`` doubles — PCG64, the
    ``numpy.random.default_rng`` default, and PCG64DXSM — and draws and
    discards otherwise (Philox, whose ``advance`` counts blocks of four
    outputs; MT19937 and SFC64, which have none), so every bit generator
    reproduces the sequential stream bit for bit.

    A PCG64 sampler's blocks (every int or ``None`` seed) are drawn by the
    native kernel's jump-ahead draw
    (:meth:`~repro.diffusion.kernels.CascadeKernel.draw_worlds`) whenever it
    loads (:meth:`jump_ahead_kernel`); other bit generators and runs without
    the kernel draw with :meth:`_draw_block_numpy`, its oracle.  The two give
    identical arrays.  Across an event batch the native draw can carry the
    rows the batch copied over from the pre-batch block instead of scanning
    them (``old`` of :meth:`draw_block`), which gives the same arrays again.

    The sampler is picklable (frozen state + the compiled graph), which is
    what lets :mod:`repro.diffusion.parallel` ship it to worker processes
    once and have every worker draw its own shards locally.  When the graph
    is a :class:`~repro.graph.shared.SharedCompiledGraph` the pickle carries
    only its segment descriptor, and when a
    :class:`~repro.diffusion.world_store.SharedBlockStore` is attached,
    :meth:`draw_block` publishes each block to shared memory exactly once
    machine-wide — attachers get bit-identical zero-copy views, and any
    process that cannot attach simply draws privately.

    Layered streams (dynamic graphs)
    --------------------------------
    ``layers`` is a tuple of ``(frozen_state, width)`` pairs partitioning the
    draw-position space: layer ``k`` covers positions ``sum(widths[:k]) ..
    sum(widths[:k]) + width_k - 1``, and world ``w``'s draws at those
    positions are ``width_k`` doubles taken from layer ``k``'s own stream
    advanced ``w × width_k``.  A fresh sampler has a single layer of width
    ``compiled.num_draws`` — bit-identical to the historic flat stream.  When
    the graph evolves through an event batch, :meth:`rekey` appends one new
    layer covering exactly the new edges' draw positions: every surviving
    edge keeps its position inside the old layers and therefore sees the
    *identical* coin flip in every world across graph versions, which is
    what lets snapshot reconciliation (:mod:`repro.diffusion.reconcile`)
    prove most worlds unchanged without re-simulating them.
    """

    __slots__ = ("compiled", "bit_generator_class", "state", "store", "layers")

    def __init__(self, compiled: CompiledGraph, seed: SeedLike = None) -> None:
        generator = spawn_rng(seed)
        bit_generator = generator.bit_generator
        self.compiled = compiled
        self.bit_generator_class = type(bit_generator)
        self.state = copy.deepcopy(bit_generator.state)
        #: The engine attaches a shared-memory block store here, if any.
        self.store = None
        self.layers: Tuple[Tuple[object, int], ...] = (
            (self.state, int(compiled.num_draws)),
        )

    # ------------------------------------------------------------------
    # layered stream plumbing
    # ------------------------------------------------------------------

    def _layer_generator(
        self, state, width: int, world_index: int
    ) -> np.random.Generator:
        """A generator positioned at world ``world_index``'s draws of a layer."""
        bit_generator = self.bit_generator_class()
        bit_generator.state = copy.deepcopy(state)
        generator = np.random.Generator(bit_generator)
        _skipper(generator)(world_index * width)
        return generator

    def _layer_state(self, layer_index: int):
        """A frozen state for a fresh, non-overlapping stream layer.

        Derived deterministically from the base state so that every process
        (parent, pool workers, a reconnecting server) rekeys to the *same*
        layer: primarily via ``bit_generator.jumped(layer_index)`` (PCG64 &
        friends — jumps are astronomically far from the base stream), with a
        content-hash fallback for bit generators without ``jumped``.  The
        fallback hashes the pickled base state (never Python's per-process
        randomised ``hash()``), so it is equally stable across processes.
        """
        bit_generator = self.bit_generator_class()
        bit_generator.state = copy.deepcopy(self.state)
        jumped = getattr(bit_generator, "jumped", None)
        if jumped is not None:
            try:
                return copy.deepcopy(jumped(layer_index).state)
            except TypeError:  # pragma: no cover - exotic bit generators
                pass
        payload = pickle.dumps(
            (self.bit_generator_class.__name__, self.state, layer_index),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        entropy = int.from_bytes(hashlib.sha256(payload).digest(), "big")
        seeded = self.bit_generator_class(np.random.SeedSequence(entropy))
        return copy.deepcopy(seeded.state)

    def rekey(self, compiled: CompiledGraph, num_new_draws: int) -> "WorldSampler":
        """The evolved-graph sampler: same layers plus one for the new edges.

        ``compiled`` must be the evolved snapshot; its ``num_draws`` is the
        old width plus ``num_new_draws``.  The returned sampler has no store
        attached (the world universe changed, so the block fingerprint must
        change with it — the engine wires a fresh store itself).
        """
        total = sum(width for _, width in self.layers) + int(num_new_draws)
        if total != compiled.num_draws:
            raise EstimationError(
                f"rekey width mismatch: layers cover {total} draw positions, "
                f"evolved graph needs {compiled.num_draws}"
            )
        clone = object.__new__(WorldSampler)
        clone.compiled = compiled
        clone.bit_generator_class = self.bit_generator_class
        clone.state = self.state
        clone.store = None
        clone.layers = self.layers
        if num_new_draws:
            clone.layers = self.layers + (
                (self._layer_state(len(self.layers)), int(num_new_draws)),
            )
        return clone

    def with_compiled(self, compiled: CompiledGraph) -> "WorldSampler":
        """A store-less clone drawing the same worlds on ``compiled``.

        ``compiled`` must describe the same draw universe (same
        ``num_draws``); typically it is the shared-memory twin of this
        sampler's graph, or vice versa.
        """
        if compiled.num_draws != self.compiled.num_draws:
            raise EstimationError(
                f"sampler covers {self.compiled.num_draws} draw positions, "
                f"graph needs {compiled.num_draws}"
            )
        clone = object.__new__(WorldSampler)
        clone.compiled = compiled
        clone.bit_generator_class = self.bit_generator_class
        clone.state = self.state
        clone.store = None
        clone.layers = self.layers
        return clone

    def jump_ahead_kernel(self):
        """The native kernel when it draws this sampler's blocks, else ``None``.

        Its world draw reads PCG64 streams by jump-ahead: it needs a library
        built with 128-bit integers and a PCG64 sampler.
        """
        kernel = _kernels.load_kernel()
        if (
            kernel is None
            or not kernel.pcg64_jump_ahead
            or self.bit_generator_class is not np.random.PCG64
        ):
            return None
        return kernel

    def draw_block(
        self,
        start: int,
        count: int,
        *,
        probe: Optional[np.ndarray] = None,
        old: Optional[Tuple[FlatWorldBlock, object]] = None,
    ) -> Union[FlatWorldBlock, Tuple[FlatWorldBlock, np.ndarray]]:
        """Worlds ``start .. start+count-1`` as one flat block.

        With a shared block store attached this is publish-or-attach: the
        first process to need the block materialises it into shared memory,
        every other attaches zero-copy.  Without one (or whenever attaching
        fails) the block is drawn privately — the arrays are bit-identical
        either way, so the store never affects results.

        With ``probe`` (draw positions) the block is always drawn, published
        when a store is attached, and returned as ``(block, draws)``:
        ``draws[w, i]`` is world ``start + w``'s draw at ``probe[i]``, read
        in the same pass over the stream.  This is how an event batch finds
        its dirty worlds (:meth:`CompiledCascadeEngine.apply_events`), and
        there ``old`` may pass the pre-batch sampler's block of the same
        worlds with the batch's
        :class:`~repro.graph.events.EventApplication`, as
        :meth:`draw_block_private` takes it.
        """
        store = self.store
        if probe is None:
            if store is None:
                return self.draw_block_private(start, count)
            return store.block_for(self, start, count)
        block, draws = self.draw_block_private(start, count, probe=probe, old=old)
        if store is not None:
            block = store.publish(start, count, block)
        return block, draws

    def draw_block_private(
        self,
        start: int,
        count: int,
        *,
        probe: Optional[np.ndarray] = None,
        old: Optional[Tuple[FlatWorldBlock, object]] = None,
    ) -> Union[FlatWorldBlock, Tuple[FlatWorldBlock, np.ndarray]]:
        """Materialise a block into process-private arrays (the raw draw).

        One call of the native draw when :meth:`jump_ahead_kernel` has it,
        the numpy loop otherwise.  Returns the block, or ``(block, draws)``
        with a ``probe``, as :meth:`draw_block` does.  ``old`` is ``(block,
        application)``: the pre-batch sampler's block of the same worlds and
        the event batch that made ``self`` (:meth:`rekey`).  The native draw
        then keeps each world's live targets, remapped, of the rows the
        batch copied wholesale (their slots keep their probabilities and
        draw positions, so their draws are unchanged) and scans only the
        rebuilt rows and the new nodes' rows; the numpy loop draws every
        row.  The arrays are the same either way.
        """
        positions = np.asarray(() if probe is None else probe, dtype=np.int64)
        kernel = self.jump_ahead_kernel()
        if kernel is None:
            block, draws = self._draw_block_numpy(start, count, positions)
            return block if probe is None else (block, draws)
        compiled = self.compiled
        carried = {}
        if old is not None:
            old_block, application = old
            remap = application.remap
            survivors = np.flatnonzero(remap >= 0)
            source = np.full(compiled.num_nodes, -1, dtype=np.int64)
            source[remap[survivors]] = survivors
            source[list(application.rebuilt)] = -1
            carried = dict(
                source=source, remap=remap, old_targets=old_block.targets,
                old_offsets=old_block.offsets,
            )
        targets, offsets, draws = kernel.draw_worlds(
            compiled.indptr, compiled.indices, compiled.edge_pos, compiled.probs,
            self.layers, start, count, positions, **carried,
        )
        block = FlatWorldBlock(targets, offsets, count)
        return block if probe is None else (block, draws)

    def _draw_block_numpy(
        self, start: int, count: int, probe: np.ndarray
    ) -> Tuple[FlatWorldBlock, np.ndarray]:
        """The interpreted draw: the block and each world's draws at ``probe``."""
        compiled = self.compiled
        layers = self.layers
        indptr = compiled.indptr
        indices = compiled.indices
        edge_pos = compiled.edge_pos
        probs = compiled.probs
        generators = [
            self._layer_generator(state, width, start) for state, width in layers
        ]
        single = len(layers) == 1
        draws = (
            None if single else np.empty(compiled.num_draws, dtype=np.float64)
        )
        target_parts: List[np.ndarray] = []
        offsets = np.empty((count, compiled.num_nodes + 1), dtype=np.int64)
        probed = np.empty((count, probe.shape[0]), dtype=np.float64)
        base = 0
        for slot in range(count):
            if single:
                # One flat stream in graph.edges() order — the historic draw.
                draws = generators[0].random(layers[0][1])
            else:
                low = 0
                for generator, (_, width) in zip(generators, layers):
                    draws[low : low + width] = generator.random(width)
                    low += width
            probed[slot] = draws[probe]
            live_slots = np.flatnonzero(draws[edge_pos] < probs)
            target_parts.append(indices[live_slots].astype(np.int32, copy=False))
            row = offsets[slot]
            row[:] = np.searchsorted(live_slots, indptr)
            if base:
                row += base
            base += live_slots.size
        targets = (
            np.concatenate(target_parts)
            if target_parts
            else np.empty(0, dtype=np.int32)
        )
        return FlatWorldBlock(targets, offsets, count), probed


def _skipper(generator: np.random.Generator):
    """A function moving ``generator`` past ``k`` doubles, as ``random(k)`` would.

    ``bit_generator.advance`` where it skips exactly ``k`` doubles and no
    32-bit half is buffered (``advance`` drops it, ``random`` keeps it);
    chunked draw-and-discard otherwise.  Drawing doubles never changes the
    buffer, so the choice holds for every later skip between such draws.
    """
    bit_generator = generator.bit_generator
    if (
        type(bit_generator) in _ADVANCE_SKIPS_DRAWS
        and not bit_generator.state["has_uint32"]
    ):
        return bit_generator.advance

    def discard(count: int) -> None:
        while count > 0:
            chunk = min(count, _DISCARD_CHUNK)
            generator.random(chunk)
            count -= chunk

    return discard


class BlockCache:
    """Bounded LRU of materialised world blocks, keyed by start index.

    Shared by the engine and the multiprocess workers so the two paths
    cannot drift; only the capacity differs.
    """

    __slots__ = ("sampler", "max_blocks", "_blocks")

    def __init__(self, sampler: WorldSampler, max_blocks: int) -> None:
        self.sampler = sampler
        self.max_blocks = max_blocks
        self._blocks: "OrderedDict[int, FlatWorldBlock]" = OrderedDict()

    def block(self, start: int, count: int) -> FlatWorldBlock:
        block = self._blocks.get(start)
        if block is not None:
            self._blocks.move_to_end(start)
            return block
        return self._keep(start, self.sampler.draw_block(start, count))

    def draw(
        self, start: int, count: int, probe: np.ndarray, old=None
    ) -> np.ndarray:
        """Draw a block into this (fresh) cache; returns its draws at ``probe``.

        ``old`` is the pre-batch block of the same worlds with its batch, as
        :meth:`WorldSampler.draw_block_private` takes it.  The block is
        published when the sampler has a store attached, as every probed
        draw is (:meth:`WorldSampler.draw_block`).
        """
        block, draws = self.sampler.draw_block(start, count, probe=probe, old=old)
        self._keep(start, block)
        return draws

    def release(self) -> None:
        """Close every cached block's shared mapping (the arrays stay usable)."""
        for block in self._blocks.values():
            block.release()

    def _keep(self, start: int, block: FlatWorldBlock) -> FlatWorldBlock:
        blocks = self._blocks
        blocks[start] = block
        while len(blocks) > self.max_blocks:
            _, evicted = blocks.popitem(last=False)
            evicted.release()
        return block


def cascade_block(
    block: FlatWorldBlock,
    seed_indices: List[int],
    coupons: List[int],
    visited: List[int],
    stamp: int,
) -> Tuple[List[int], int]:
    """Run the deterministic cascade in every world of a block (interpreted).

    Returns ``(flat_activations, stamp)`` — the concatenated activation
    queues of the block's worlds and the last stamp value written into
    ``visited``.  This is the cascade inner loop :class:`CascadeScratch` runs
    whenever the native kernel (:mod:`repro.diffusion.kernels`) is disabled
    or unavailable — and the bit-identity *oracle* the kernel is tested
    against.  ``visited`` is a stamp-versioned scratch array: the caller
    owns it and must never reuse a stamp value already written.
    """
    flat_activations: List[int] = []
    extend = flat_activations.extend
    targets, offsets_rows = block.lists()
    for offsets in offsets_rows:
        stamp += 1
        queue = list(seed_indices)
        for seed in queue:
            visited[seed] = stamp
        head = 0
        while head < len(queue):
            user = queue[head]
            head += 1
            remaining = coupons[user]
            if remaining <= 0:
                continue
            low = offsets[user]
            high = offsets[user + 1]
            if low == high:
                continue
            for neighbor in targets[low:high]:
                if visited[neighbor] == stamp:
                    continue
                visited[neighbor] = stamp
                queue.append(neighbor)
                remaining -= 1
                if remaining <= 0:
                    break
        extend(queue)
    return flat_activations, stamp


class CascadeScratch:
    """One process's cascade buffers and stamp stream for one graph size.

    The serial engine holds one and each pool worker one per sampler, so
    both cascade blocks through :meth:`count`.  With a ``kernel`` the
    buffers are the native entries' int64 ``visited`` and ``coupons`` and
    int32 ``queue`` (never shorter than ``num_nodes``: one world fits);
    without one they are lists, which the interpreted loop indexes faster.
    ``coupons`` is all zeros between calls, and each world takes the next
    ``stamp`` of ``visited``, reserved before its cascade runs.
    """

    __slots__ = ("kernel", "visited", "coupons", "queue", "stamp")

    def __init__(
        self, num_nodes: int, kernel: Optional[_kernels.CascadeKernel]
    ) -> None:
        self.kernel = kernel
        if kernel is not None:
            self.visited = np.zeros(num_nodes, dtype=np.int64)
            self.coupons = np.zeros(num_nodes, dtype=np.int64)
            self.queue = np.empty(num_nodes, dtype=np.int32)
        else:
            self.visited = [0] * num_nodes
            self.coupons = [0] * num_nodes
            self.queue = None
        self.stamp = 0

    def reserve(self, worlds: int) -> int:
        """Reserve ``worlds`` stamps; returns the one before them."""
        stamp = self.stamp
        self.stamp = stamp + worlds
        return stamp

    def count(
        self, blocks: Iterable[FlatWorldBlock], seed_indices: List[int],
        coupon_items: Sequence[Tuple[int, int]], counts: np.ndarray,
    ) -> None:
        """Add every world's activations over ``blocks`` into ``counts``.

        The sparse ``(position, coupons)`` items are set for the call and
        reset after it, also when a cascade raises.
        """
        kernel, coupons, visited = self.kernel, self.coupons, self.visited
        for position, coupon_count in coupon_items:
            coupons[position] = coupon_count
        try:
            if kernel is not None:
                seeds = np.asarray(seed_indices, dtype=np.int32)
            for block in blocks:
                stamp = self.reserve(block.count)
                if kernel is None:
                    activations, _ = cascade_block(
                        block, seed_indices, coupons, visited, stamp
                    )
                    counts += np.bincount(
                        np.asarray(activations, dtype=np.int64),
                        minlength=counts.shape[0],
                    )
                else:
                    kernel.cascade_block(
                        block.targets, block.offsets, seeds, coupons, visited,
                        stamp, self.queue, counts,
                    )
        finally:
            for position, _ in coupon_items:
                coupons[position] = 0


class CompiledCascadeEngine:
    """Shared live-edge worlds and the vectorized cascade over them.

    Parameters
    ----------
    compiled:
        The :class:`CompiledGraph` to run on (or a :class:`SocialGraph`,
        which is compiled on the fly).
    num_worlds:
        Number of live-edge worlds shared by every evaluation (common random
        numbers).
    seed:
        RNG seed; the same seed reproduces the dict path's worlds exactly.
    shard_size:
        ``None`` (default) keeps every world resident: the grid is one
        block.  A positive integer makes the engine materialise worlds in
        blocks of that size — build, evaluate, discard — bounding peak memory
        to O(shard_size) worlds while staying bit-identical to the monolithic
        path for any value.
    workers:
        ``None``/``1`` evaluates worlds in-process.  ``workers > 1`` spins up
        a persistent process pool (lazily, on the first :meth:`run`) that
        evaluates shard blocks concurrently with a deterministic streaming
        reduction — see :mod:`repro.diffusion.parallel`.  When ``shard_size``
        is not set explicitly, a default of ``ceil(num_worlds / (4 ×
        workers))`` keeps every worker busy with several blocks.
    pool:
        Optional injected :class:`~repro.diffusion.parallel.SharedShardPool`.
        The engine registers its sampler on the shared pool instead of
        creating one of its own, inherits the pool's worker count (``workers``
        is then ignored) and **never closes the injected pool** —
        :meth:`close` only unregisters the sampler; the pool's owner decides
        when the workers die.
    use_kernel:
        ``None`` (default) runs the cascade inner loop on the native C
        kernel (:mod:`repro.diffusion.kernels`) whenever it loads, silently
        falling back to the interpreted loop when it does not (no C
        compiler, or ``REPRO_NO_NATIVE_KERNEL`` set).  ``True`` asks for the
        kernel explicitly and *warns* when it has to fall back; ``False``
        forces the interpreted oracle path.  Activation queues, counts and
        benefits are bit-identical either way — only speed changes.  The
        kernel is warmed on a one-world dummy block here at construction, so
        the first timed evaluation never pays its one-off cost;
        :attr:`kernel_compile_seconds` records what the warm-up cost.
    shared_memory:
        ``None`` (default) turns zero-copy shared-memory transport on
        automatically whenever the engine runs multiprocess (``workers > 1``
        or an injected ``pool``): the compiled graph moves into a
        :class:`~repro.graph.shared.SharedCompiledGraph` segment (so pool
        broadcasts ship a few hundred bytes instead of the arrays) and world
        blocks are published once machine-wide through a
        :class:`~repro.diffusion.world_store.SharedBlockStore` instead of
        being re-drawn per process.  ``True`` forces it on (warning and
        falling back when the platform has no shared memory); ``False``
        forces the historic private-copy transport.  Results are
        bit-identical either way — the knob only moves bytes.
    sampler:
        Optional pre-built :class:`WorldSampler` to draw worlds from
        (``seed`` is then ignored).  This is how a *cold* engine is built on
        the exact world universe of an evolved sampler — e.g. the
        reconciliation parity suites constructing the reference resolve of a
        mutated graph — and how layered (post-event) samplers are injected
        at all.  The sampler's ``num_draws`` must match ``compiled``'s.
    """

    def __init__(
        self,
        compiled: "CompiledGraph | SocialGraph",
        num_worlds: int,
        seed: SeedLike = None,
        *,
        shard_size: Optional[int] = None,
        workers: Optional[int] = None,
        pool=None,
        use_kernel: Optional[bool] = None,
        shared_memory: Optional[bool] = None,
        sampler: Optional[WorldSampler] = None,
    ) -> None:
        if num_worlds <= 0:
            raise EstimationError(f"num_worlds must be > 0, got {num_worlds}")
        if isinstance(compiled, SocialGraph):
            compiled = CompiledGraph.from_social_graph(compiled)
        self.num_worlds = int(num_worlds)

        if pool is not None:
            workers = pool.workers
        else:
            workers = 1 if workers is None else int(workers)
        if workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.pool = pool

        # Zero-copy shared-memory transport: auto-on for multiprocess runs.
        share = (
            bool(shared_memory)
            if shared_memory is not None
            else (pool is not None or workers > 1)
        )
        if share:
            from repro.graph.shared import share_compiled

            shared_graph = share_compiled(compiled)
            if shared_graph is None:
                if shared_memory is True:
                    warnings.warn(
                        "shared memory is unavailable on this platform; "
                        "falling back to by-value graph transport — results "
                        "are identical, broadcasts are just larger",
                        stacklevel=2,
                    )
                share = False
            else:
                compiled = shared_graph
        self.shared_memory = share
        self.compiled = compiled

        if shard_size is not None:
            shard_size = int(shard_size)
            if shard_size < 1:
                raise EstimationError(f"shard_size must be >= 1, got {shard_size}")
            shard_size = min(shard_size, self.num_worlds)
        elif workers > 1:
            # A handful of blocks per worker: enough slack for the pool to
            # balance, coarse enough to amortise per-task overhead.
            shard_size = max(1, -(-self.num_worlds // (4 * workers)))
        else:
            shard_size = self.num_worlds
        self.shard_size = shard_size
        #: The world grid, one ``(start, count)`` per block; every block
        #: loop, the store sweep and the pool's tasks walk it.
        self.bounds: Tuple[Tuple[int, int], ...] = tuple(
            (start, min(shard_size, self.num_worlds - start))
            for start in range(0, self.num_worlds, shard_size)
        )

        if sampler is not None:
            self.sampler = sampler.with_compiled(compiled)
        else:
            self.sampler = WorldSampler(compiled, seed)
            if isinstance(seed, np.random.Generator):
                # The monolithic engine used to consume the caller's generator
                # directly; keep that stream contract so downstream draws from
                # a shared generator land where they always did.
                _skipper(seed)(self.num_worlds * compiled.num_edges)

        # Shared world-block store: blocks of this sampler's world grid are
        # published to /dev/shm once machine-wide.  The engine owns cleanup
        # of the *whole grid* — deterministic names make every segment
        # enumerable, so even blocks published by a since-killed worker are
        # swept on close / GC / interpreter exit.
        self._store_finalizer = None
        if share:
            self._open_store()

        # A small LRU of blocks.  A one-block grid draws its block now, and
        # the LRU never evicts it.
        self._block_cache = BlockCache(self.sampler, _MAX_CACHED_BLOCKS)
        if not self.is_sharded:
            self._block(0)

        self._executor = None

        # Native kernel resolution: auto (None) silently falls back to the
        # interpreted loop; an explicit request (True) warns on fallback.
        self._kernel = None
        self.kernel_compile_seconds = 0.0
        if use_kernel is not False:
            self._kernel = _kernels.load_kernel()
            if self._kernel is None and use_kernel is True:
                warnings.warn(
                    "the native cascade kernel is unavailable (no C compiler, "
                    "or REPRO_NO_NATIVE_KERNEL set); falling back to the "
                    "interpreted cascade loop — results are identical, only "
                    "slower",
                    stacklevel=2,
                )
        if self._kernel is not None:
            # Warm the kernel on a one-world dummy block now, so the first
            # real evaluation (CELF pivot-queue timings, benchmarks) never
            # pays its one-off cost; record what the warm-up cost.
            self.kernel_compile_seconds = self._kernel.warm()
        self._reset_scratch()

    def _open_store(self) -> None:
        """Attach a block store keyed to the sampler; arm the grid's sweep."""
        from repro.diffusion.world_store import SharedBlockStore, sampler_fingerprint

        store = SharedBlockStore(sampler_fingerprint(self.sampler))
        self.sampler.store = store
        self._store_finalizer = weakref.finalize(self, store.sweep, self.bounds)

    def _reset_scratch(self) -> None:
        """(Re)build the cascade scratch and instrumented outputs for the graph."""
        num_nodes = self.compiled.num_nodes
        self._scratch = CascadeScratch(num_nodes, self._kernel)
        if self._kernel is not None:
            # Instrumented output: the limited lists back to back (the
            # queues go to the scratch's ``queue``, of the same capacity),
            # plus per-world end offsets.
            self._kernel_limited = np.empty(num_nodes, dtype=np.int32)
            self._kernel_ends = np.empty((self.shard_size, 2), dtype=np.int64)

    # ------------------------------------------------------------------
    # world access
    # ------------------------------------------------------------------

    @property
    def is_sharded(self) -> bool:
        """Whether the grid has several blocks rather than one resident one."""
        return len(self.bounds) > 1

    @property
    def kernel_active(self) -> bool:
        """Whether the native cascade kernel executes this engine's worlds."""
        return self._kernel is not None

    @property
    def kernel_backend(self) -> Optional[str]:
        """Resolved native backend name (``"cc"``) or ``None``."""
        return self._kernel.backend if self._kernel is not None else None

    def world(self, world_index: int) -> WorldAdjacency:
        """The live adjacency of one world as world-local ``(targets, offsets)``.

        The returned lists are self-contained (offsets index the returned
        targets), so worlds compare equal across shard sizes and block
        layouts.  The world's block is drawn on demand and kept in a small
        LRU, so sequential access (the snapshot pass, ascending dirty-world
        lists) regenerates each block exactly once.
        """
        start = world_index - world_index % self.shard_size
        return self._block(start).world_local(world_index - start)

    def world_blocks(self) -> Iterator[Tuple[int, int, FlatWorldBlock]]:
        """Yield ``(start, count, block)`` per block of the grid, in order.

        Each block is materialised as it is yielded and only a bounded
        number stay cached; a one-block grid yields its resident block.
        """
        for start, count in self.bounds:
            yield start, count, self._block_cache.block(start, count)

    def _block(self, start: int) -> FlatWorldBlock:
        return self._block_cache.block(*self.bounds[start // self.shard_size])

    # ------------------------------------------------------------------
    # low-level cascade
    # ------------------------------------------------------------------

    def cascade_worlds_instrumented(
        self,
        world_indices: Iterable[int],
        seed_indices: List[int],
        coupons: Sequence[int],
    ) -> Iterator[Tuple[List[int], List[int]]]:
        """Instrumented cascades over several worlds of one deployment.

        ``seed_indices`` are deduplicated compiled indices, the queue's
        starting order; ``coupons`` is a dense per-node coupon vector.
        Yields ``(queue, limited)`` per world of ``world_indices`` (any
        order, repeats allowed): ``queue`` is the world's activated nodes in
        activation (FIFO) order, seeds first, and ``limited`` lists (in
        dequeue order) every activated node whose coupon supply was —
        conservatively — the binding constraint of its hand-out walk: either
        it was dequeued with no coupons while holding live out-edges, or its
        walk broke on coupon exhaustion before reaching the end of its live
        edge list.  Giving any such node one more coupon is the *only* way a
        single-node coupon increment can change this world's outcome, which
        is what the delta-evaluation engine (:mod:`repro.diffusion.delta`)
        keys on.

        The delta engine's snapshot, splice and reconcile passes run here,
        on the engine's :class:`CascadeScratch`.  The indices are split into
        order-preserving runs that share a block.  On the kernel path each
        run is one kernel call writing every world's output back to back
        into the engine's buffers; a call that stops early (the buffers were
        too small) is drained, the buffers double, and the rest of the run
        goes in the next call.
        """
        worlds = np.fromiter(world_indices, dtype=np.int64)
        if not worlds.size:
            return
        low, high = int(worlds.min()), int(worlds.max())
        if low < 0 or high >= self.num_worlds:
            raise IndexError(
                f"world indices must lie in [0, {self.num_worlds}), got "
                f"{low}..{high}"
            )
        scratch = self._scratch
        stamp = scratch.reserve(worlds.size)
        if self._kernel is None:
            for block, slots in self._block_runs(worlds, low, high):
                for slot in slots.tolist():
                    stamp += 1
                    yield self._interpreted_world_instrumented(
                        block, slot, seed_indices, coupons, scratch.visited, stamp
                    )
            return
        seeds_arr = np.asarray(seed_indices, dtype=np.int32)
        coupons_arr = np.asarray(coupons, dtype=np.int64)
        kernel = self._kernel
        for block, slots in self._block_runs(worlds, low, high):
            if self._kernel_ends.shape[0] < slots.size:
                self._kernel_ends = np.empty((slots.size, 2), dtype=np.int64)
            while True:
                finished = kernel.cascade_world_instrumented(
                    block.targets, block.offsets, slots, seeds_arr, coupons_arr,
                    scratch.visited, stamp, scratch.queue,
                    self._kernel_limited, self._kernel_ends,
                )
                stamp += finished
                # The buffers always fit one world, so ``finished >= 1``.
                # Copy the finished worlds out before yielding: the buffers
                # are reused by the next call.
                bounds = self._kernel_ends[:finished].tolist()
                queues = scratch.queue[: bounds[-1][0]].tolist()
                limited = self._kernel_limited[: bounds[-1][1]].tolist()
                queue_start = limited_start = 0
                for queue_end, limited_end in bounds:
                    yield (
                        queues[queue_start:queue_end],
                        limited[limited_start:limited_end],
                    )
                    queue_start, limited_start = queue_end, limited_end
                if finished == slots.size:
                    break
                slots = slots[finished:]
                capacity = 2 * scratch.queue.shape[0]
                scratch.queue = np.empty(capacity, dtype=np.int32)
                self._kernel_limited = np.empty(capacity, dtype=np.int32)

    def _block_runs(
        self, worlds: np.ndarray, low: int, high: int
    ) -> Iterator[Tuple[FlatWorldBlock, np.ndarray]]:
        """Split world indices into order-preserving ``(block, slots)`` runs.

        Indices bounded by ``low`` and ``high`` in one block (always, on a
        one-block grid) are one run, found without a pass over them.
        """
        start = low - low % self.shard_size
        if high < start + self.shard_size:
            yield self._block(start), worlds - start if start else worlds
            return
        starts = worlds - worlds % self.shard_size
        cuts = (np.flatnonzero(starts[1:] != starts[:-1]) + 1).tolist()
        cuts = [0, *cuts, worlds.size]
        for begin, end in zip(cuts, cuts[1:]):
            start = int(starts[begin])
            yield self._block(start), worlds[begin:end] - start

    def _interpreted_world_instrumented(
        self,
        block: FlatWorldBlock,
        slot: int,
        seed_indices: List[int],
        coupons: Sequence[int],
        visited: List[int],
        stamp: int,
    ) -> Tuple[List[int], List[int]]:
        """One world's instrumented cascade on the interpreted oracle loop.

        ``stamp`` is the world's stamp, reserved from the scratch that owns
        ``visited``.
        """
        targets, offsets_rows = block.lists()
        offsets = offsets_rows[slot]

        queue: List[int] = []
        limited: List[int] = []
        for seed in seed_indices:
            visited[seed] = stamp
            queue.append(seed)

        head = 0
        while head < len(queue):
            user = queue[head]
            head += 1
            remaining = coupons[user]
            low = offsets[user]
            high = offsets[user + 1]
            if remaining <= 0:
                if low < high:
                    limited.append(user)
                continue
            if low == high:
                continue
            for position in range(low, high):
                neighbor = targets[position]
                if visited[neighbor] == stamp:
                    continue
                visited[neighbor] = stamp
                queue.append(neighbor)
                remaining -= 1
                if remaining <= 0:
                    if position < high - 1:
                        limited.append(user)
                    break
        return queue, limited

    # ------------------------------------------------------------------
    # estimator-facing API
    # ------------------------------------------------------------------

    def run(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Tuple[np.ndarray, float]:
        """One pass over every world.

        Returns ``(activation_counts, expected_benefit)`` where
        ``activation_counts[i]`` is the number of worlds in which compiled
        node ``i`` ended up activated.  Both quantities come out of the same
        pass, so callers needing benefit *and* probabilities pay for one.

        Worlds are processed shard by shard — serially, or fanned out over
        the worker pool when ``workers > 1``.  The per-shard activation
        counts are integers and are reduced in shard order, so the resulting
        count vector (and hence the benefit, computed by :meth:`benefit_of`)
        is bit-identical for every shard size and worker count.

        Seed *order* is canonicalised (sorted by ``str``) before the cascade:
        the queue order is seed-order dependent, and every consumer — the
        estimator's order-insensitive memoisation, the delta engine's
        snapshot matching — treats deployments with equal seed sets as equal.
        Use :meth:`cascade_worlds_instrumented` for cascades in an explicit
        seed order.
        """
        return self.submit(seeds, allocation).result()

    def benefit_of(self, counts: np.ndarray) -> float:
        """Expected benefit of an activation-count vector over this engine's worlds.

        The library's only benefit expression: full passes, pipelined runs,
        delta splices and reconciles all derive their benefit here, so equal
        integer counts always give bit-identical benefits.
        """
        return float(counts @ self.compiled.benefits) / self.num_worlds

    def submit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> "PendingRun":
        """Start one :meth:`run`-equivalent evaluation; returns its handle.

        With ``workers > 1`` the evaluation's shard blocks are dispatched to
        the pool and the call returns immediately — several evaluations can
        be pending at once, pipelining the parent's streaming reductions
        behind the workers' cascades.  Draining the handles in submission
        order yields exactly the results sequential :meth:`run` calls would
        have produced, bit for bit.  On a serial engine the evaluation runs
        eagerly and the handle is already complete.
        """
        compiled = self.compiled
        num_nodes = compiled.num_nodes
        seed_indices = compiled.indices_of(sorted(seeds, key=str))
        if not seed_indices:
            return PendingRun(self, result=(np.zeros(num_nodes, dtype=np.int64), 0.0))

        index = compiled.index
        coupon_items: List[Tuple[int, int]] = []
        for node, count in allocation.items():
            position = index.get(node)
            if position is not None and int(count) > 0:
                coupon_items.append((position, int(count)))

        if self.workers > 1:
            pending = self._ensure_executor().submit(seed_indices, coupon_items)
            return PendingRun(self, pending=pending)
        counts = np.zeros(num_nodes, dtype=np.int64)
        self._scratch.count(
            (block for _, _, block in self.world_blocks()),
            seed_indices, coupon_items, counts,
        )
        return PendingRun(self, result=(counts, self.benefit_of(counts)))

    def _ensure_executor(self):
        if self._executor is None:
            from repro.diffusion.parallel import ShardExecutor

            self._executor = ShardExecutor(
                self.sampler,
                bounds=self.bounds,
                workers=self.workers,
                pool=self.pool,
                use_kernel=self._kernel is not None,
            )
        return self._executor

    def apply_events(self, application) -> np.ndarray:
        """Evolve the engine in place onto an event batch's new graph.

        ``application`` is the :class:`~repro.graph.events.EventApplication`
        of the batch; the engine switches to its evolved snapshot (re-shared
        into a fresh segment when shared-memory transport is on), rekeys the
        sampler with one stream layer for the new edges (so every surviving
        edge keeps its per-world coin flips), and rebuilds the derived state
        that depends on the graph: the shared block store (new fingerprint),
        the block cache, the worker executor (workers hold old-graph
        samplers; it is lazily rebuilt), and the cascade scratch buffers.

        Returns the dirty mask: per world, whether the batch's changed edges
        touch its live set (the rule of :mod:`repro.diffusion.reconcile`).
        This is the one place the evolved stream is read, once per world,
        and the changed positions' draws come out of that same pass.  A
        one-block grid whose sampler the native draw serves
        (:meth:`WorldSampler.jump_ahead_kernel`) evolves its block: the old
        block's rows the batch copied are kept and only the rebuilt rows are
        drawn.  Every other grid draws each block afresh into the new block
        cache.  Either way the blocks are published when a store is
        attached, so pool workers attach instead of drawing.
        """
        compiled = application.compiled
        old_compiled = self.compiled
        old_block = (
            self._block(0)
            if not self.is_sharded and self.sampler.jump_ahead_kernel() is not None
            else None
        )

        if self.shared_memory:
            from repro.graph.shared import share_compiled

            shared_graph = share_compiled(compiled)
            if shared_graph is not None:
                compiled = shared_graph
            else:  # pragma: no cover - platform lost shm mid-flight
                self.shared_memory = False
        # Rekeying validates the batch's stream width: rekey before any
        # state changes.
        sampler = self.sampler.rekey(compiled, application.num_new_draws)
        self.compiled = compiled
        self.sampler = sampler

        # Workers hold samplers keyed to the old graph; the executor is
        # rebuilt (and the new sampler re-registered) on the next parallel
        # run.
        if self._executor is not None:
            self._executor.close()
            self._executor = None

        self._block_cache.release()
        if self._store_finalizer is not None:
            # Sweep the old fingerprint's whole grid now.
            self._store_finalizer()
            self._store_finalizer = None
        if self.shared_memory:
            self._open_store()

        # The old shared graph segment: close our fd now; the owner
        # finalizer unlinks the name once the last reference dies.
        segment = getattr(old_compiled, "segment", None)
        if segment is not None and getattr(old_compiled, "owns_segment", False):
            _shm.close_segment(segment)

        cache = self._block_cache = BlockCache(sampler, _MAX_CACHED_BLOCKS)
        positions, thresholds = dirty_probe(application)
        if old_block is not None:
            draws = cache.draw(
                0, self.num_worlds, positions, old=(old_block, application)
            )
        else:
            # Last block first, so the LRU ends up holding the first blocks:
            # the ones the dirty worlds' ascending re-simulation reads first.
            draws = np.concatenate([
                cache.draw(start, count, positions)
                for start, count in reversed(self.bounds)
            ][::-1])
        self._reset_scratch()
        return dirty_rows(draws, thresholds)

    def close(self) -> None:
        """Release the executor and sweep shared world-block segments.

        An owned pool shuts down, an injected pool only has this engine's
        sampler unregistered (no-op when no parallel run ever happened).
        The shared block store's segments — including any published by
        workers — are unlinked; the engine stays usable, re-publishing
        blocks on demand, and re-arms its GC sweep."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self.shared_memory:
            # Close the shared mappings' descriptors.  The numpy views keep
            # the pages alive, so the engine stays fully usable — only the
            # (bounded-resource) fds go; the owner finalizers still unlink
            # the names at GC.
            self._block_cache.release()
            segment = getattr(self.compiled, "segment", None)
            if segment is not None and getattr(self.compiled, "owns_segment", False):
                _shm.close_segment(segment)
        if self._store_finalizer is not None:
            self._store_finalizer()
            self._store_finalizer = weakref.finalize(
                self, self.sampler.store.sweep, self.bounds
            )

    def __enter__(self) -> "CompiledCascadeEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def expected_benefit(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> float:
        """Expected total benefit of activated users under the deployment."""
        _, benefit = self.run(seeds, allocation)
        return benefit

    def activation_probabilities(
        self, seeds: Iterable[NodeId], allocation: Mapping[NodeId, int]
    ) -> Dict[NodeId, float]:
        """Per-user activation probability (only users ever activated appear)."""
        counts, _ = self.run(seeds, allocation)
        node_ids = self.compiled.node_ids
        num_worlds = self.num_worlds
        return {
            node_ids[node_index]: int(count) / num_worlds
            for node_index, count in enumerate(counts)
            if count
        }


class PendingRun:
    """Handle to one in-flight (or already complete) engine evaluation.

    :meth:`result` returns exactly what
    :meth:`CompiledCascadeEngine.run` would have returned for the same
    inputs — ``(activation_counts, expected_benefit)`` — computing the
    benefit with :meth:`CompiledCascadeEngine.benefit_of`, so pipelined
    results are bit-identical to sequential ones.
    """

    __slots__ = ("_engine", "_pending", "_result")

    def __init__(self, engine, pending=None, result=None) -> None:
        self._engine = engine
        self._pending = pending
        self._result = result

    @property
    def done(self) -> bool:
        """Whether the result is already available without blocking."""
        return self._result is not None

    def result(self) -> Tuple[np.ndarray, float]:
        """Block until the evaluation completes; returns ``(counts, benefit)``."""
        if self._result is None:
            counts = self._pending.result()
            self._result = (counts, self._engine.benefit_of(counts))
            self._pending = None
        return self._result
