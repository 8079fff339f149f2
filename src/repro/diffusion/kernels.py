"""Native cascade kernels over flat world-block arrays.

The cascade inner loop — walk a FIFO queue of coupon holders over one world's
live adjacency, redeeming on not-yet-active targets until the coupons run out
— is the single hottest code path in the library: every layer above it (the
delta snapshot engine, the CELF queue, the shard pool, the batched evaluation
scheduler) ultimately funnels into it once per world per evaluation.  This
module provides a *compiled* implementation of that loop operating on the
flat contiguous arrays of :class:`~repro.diffusion.engine.FlatWorldBlock`, and
of the RR-sketch sampler's reverse BFS (see the end of this docstring).

The kernel is a C translation of those loops, compiled once with the system C
compiler (``cc``/``gcc``/``clang``) into a content-addressed shared library
under ``~/.cache/repro-kernels`` and loaded through :mod:`ctypes`;
:func:`load_kernel` returns it (backend ``"cc"``).  With no compiler, or with
``REPRO_NO_NATIVE_KERNEL`` set, :func:`load_kernel` returns ``None`` and
callers fall back to the interpreted loops in :mod:`repro.diffusion.engine`
(and the RR sampler to its numpy loop), which remain the bit-identity
*oracle* the kernel is tested against.

The kernel implements the exact semantics of the interpreted
``cascade_block`` / ``cascade_world_instrumented`` pair — same FIFO order,
same redemption bookkeeping, same coupon-limited flags — so activation
queues, counts and benefits are **bit-identical** whichever path runs; the
parity suite (``tests/properties/test_kernel_parity.py``) and the benchmark
gates enforce that.

The two cascade entry points take one block of worlds and share one calling
convention (flat int arrays only, no Python objects in the hot path):

* ``targets`` — int32, the block's concatenated live-edge targets;
* ``offsets`` — int64, the block's ``(count, num_nodes + 1)`` rows of
  *absolute* indices into ``targets``;
* ``seeds`` — int32 deduplicated seed indices in canonical order;
* ``coupons`` — int64 dense per-node coupon vector;
* ``visited`` — int64 stamp-versioned scratch of ``num_nodes`` entries; world
  ``i`` of a call writes stamp ``stamp + i + 1`` (the caller owns the stamp);
* ``queue`` — int32 buffer: the block kernel's FIFO scratch of ``num_nodes``
  entries, the instrumented kernel's activation-queue output.

The block kernel cascades every world of the block and adds each world's
activations to ``counts`` (int64, ``num_nodes``).  The instrumented kernel is
batched over the worlds the delta engine re-simulates:

* ``slots`` — int64 rows of ``offsets`` to cascade, in the caller's order
  (any order, repeats allowed);
* ``queue`` / ``limited`` — int32 output buffers of one capacity, receiving
  every world's activation queue / coupon-limited list back to back;
* ``ends`` — int64 ``(len(slots), 2)``: per world, the end of its queue in
  ``queue`` and of its limited list in ``limited``.

A world activates at most ``min(num_nodes, len(seeds) + its live edges)``
nodes and its limited list is no longer than its queue, so the instrumented
kernel stops before a world that might not fit and returns how many worlds it
finished; the caller drains them, grows the buffers and calls again for the
rest (a capacity of ``num_nodes`` always fits one world).  One call serves a
whole run of worlds because a ctypes call costs microseconds while a world's
cascade often costs less: on PPGG graphs of 400–2000 nodes at tight budgets
(200 worlds, 2-core box, ``cc`` backend) a snapshot pass takes 0.09–0.19 ms,
against 0.12–0.24 ms for the interpreted loop and 6.8–9.7 ms for one kernel
call per world.

Every entry passes raw addresses, taken once per buffer (see
:func:`_address_memo`) instead of an ``ndpointer`` conversion per array per
call.

A third entry, :meth:`CascadeKernel.sample_rr_sets`, samples every
reverse-reachable set of an RR sketch (:mod:`repro.diffusion.rr_sets`) in
one call over the sampler's reverse CSR, drawing from the sampler's own
``numpy.random.Generator``.  It draws exactly what the dict-adjacency oracle
draws, in the same order: per set, the target as ``integers(0, n)``, which
is numpy's bounded 32-bit draw (Lemire's, on ``next_uint32``, rejection
loop included; nothing is drawn when ``n == 1``); then, per BFS-popped node,
one ``next_double`` per in-neighbour not yet in the set, in reverse-CSR
order, accepted when below the edge's probability.  The kernel calls the
generator's ``bitgen_t`` functions (``rng.bit_generator.ctypes.bit_generator``)
with numpy's algorithm for the target while holding
``rng.bit_generator.lock``, so the roots, the sets and the generator's later
stream equal the oracle's.  Sets go back to back into a caller-owned int64
buffer; as a set has at most ``num_nodes`` members and an unstarted set has
drawn nothing, the entry stops before a set that might not fit and returns
how many it finished, and the caller grows the buffer and resumes.

A fourth entry, :meth:`CascadeKernel.draw_worlds`, draws a run of
consecutive live-edge worlds from a
:class:`~repro.diffusion.engine.WorldSampler`'s layered streams, which is
what every block of worlds costs to materialise.  The caller positions one
generator per stream layer at the run's first world
(``WorldSampler._layer_generator``) and passes their ``bitgen_t`` pointers.
Per world, the entry takes each layer's ``width`` doubles from that layer's
generator with ``next_double``, in layer order, into one scratch row indexed
by draw position; it copies the draws at the caller's probe positions into a
``(count, len(probe))`` array; then it scans the CSR (``indptr``,
``indices``, ``edge_pos``, ``probs``) node by node and writes the int32
targets of the slots whose draw lies below their probability, with the
world's row of absolute int64 offsets.  ``Generator.random(width)`` fills
its output by calling the same ``next_double`` once per element, so the
draws, the block and where each generator is left are bit for bit those of
the numpy loop (``WorldSampler._draw_block_numpy``), for any bit generator;
the entry holds every layer generator's ``bit_generator.lock`` while it
draws.  A world has at most ``indptr[-1]`` live targets, so, as the other
entries do, it stops before a world that might not fit and returns how many
worlds it finished; the caller grows the targets buffer and resumes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
import time
import weakref
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.env import env_flag

logger = logging.getLogger(__name__)

#: Setting this environment variable (to a truthy value) disables the native
#: kernel — the engine then runs the interpreted oracle.  This is how CI's
#: "no-native-kernel" leg and the forced-fallback tests exercise the
#: degradation path deterministically.
DISABLE_ENV = "REPRO_NO_NATIVE_KERNEL"

#: Override for where the C backend caches its compiled shared library.
CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: Largest graph the sketch kernel samples: numpy draws ``integers(0, n)``
#: with its bounded 32-bit algorithm only up to here.
MAX_SKETCH_NODES = 0xFFFFFFFF

_C_SOURCE = r"""
#include <stdint.h>

/* The two cascade functions are line-for-line translations of the interpreted
 * cascade loops in repro/diffusion/engine.py (cascade_block and
 * CompiledCascadeEngine.cascade_world_instrumented).  Any semantic change
 * there must be mirrored here — the parity suite fails otherwise. */

int64_t repro_cascade_block(
    const int32_t *targets,
    const int64_t *offsets,      /* num_worlds x (num_nodes + 1), absolute */
    int64_t num_nodes,
    int64_t num_worlds,
    const int32_t *seeds,
    int64_t num_seeds,
    const int64_t *coupons,
    int64_t *visited,
    int64_t stamp,
    int32_t *queue,
    int64_t *counts)
{
    const int64_t stride = num_nodes + 1;
    for (int64_t w = 0; w < num_worlds; ++w) {
        stamp += 1;
        const int64_t *off = offsets + w * stride;
        int64_t qlen = 0;
        for (int64_t s = 0; s < num_seeds; ++s) {
            const int32_t seed = seeds[s];
            visited[seed] = stamp;
            queue[qlen++] = seed;
        }
        int64_t head = 0;
        while (head < qlen) {
            const int32_t user = queue[head++];
            int64_t remaining = coupons[user];
            if (remaining <= 0) continue;
            const int64_t low = off[user];
            const int64_t high = off[user + 1];
            for (int64_t pos = low; pos < high; ++pos) {
                const int32_t neighbor = targets[pos];
                if (visited[neighbor] == stamp) continue;
                visited[neighbor] = stamp;
                queue[qlen++] = neighbor;
                if (--remaining <= 0) break;
            }
        }
        for (int64_t q = 0; q < qlen; ++q) counts[queue[q]] += 1;
    }
    return stamp;
}

int64_t repro_cascade_worlds_instrumented(
    const int32_t *targets,
    const int64_t *offsets,      /* block rows: count x (num_nodes + 1), absolute */
    int64_t num_nodes,
    const int64_t *slots,        /* rows to cascade, in order */
    int64_t num_slots,
    const int32_t *seeds,
    int64_t num_seeds,
    const int64_t *coupons,
    int64_t *visited,
    int64_t stamp,
    int32_t *queue,              /* every world's queue, back to back */
    int32_t *limited,            /* every world's limited list, back to back */
    int64_t capacity,            /* entries of queue and of limited */
    int64_t *ends)               /* num_slots x 2: [queue end, limited end] */
{
    const int64_t stride = num_nodes + 1;
    int64_t qlen = 0;
    int64_t llen = 0;
    for (int64_t i = 0; i < num_slots; ++i) {
        const int64_t *off = offsets + slots[i] * stride;
        int64_t bound = num_seeds + (off[num_nodes] - off[0]);
        if (bound > num_nodes) bound = num_nodes;
        /* llen <= qlen, so one check covers both buffers. */
        if (qlen + bound > capacity) return i;
        stamp += 1;
        int64_t head = qlen;
        for (int64_t s = 0; s < num_seeds; ++s) {
            const int32_t seed = seeds[s];
            visited[seed] = stamp;
            queue[qlen++] = seed;
        }
        while (head < qlen) {
            const int32_t user = queue[head++];
            int64_t remaining = coupons[user];
            const int64_t low = off[user];
            const int64_t high = off[user + 1];
            if (remaining <= 0) {
                if (low < high) limited[llen++] = user;
                continue;
            }
            if (low == high) continue;
            for (int64_t pos = low; pos < high; ++pos) {
                const int32_t neighbor = targets[pos];
                if (visited[neighbor] == stamp) continue;
                visited[neighbor] = stamp;
                queue[qlen++] = neighbor;
                if (--remaining <= 0) {
                    if (pos < high - 1) limited[llen++] = user;
                    break;
                }
            }
        }
        ends[2 * i] = qlen;
        ends[2 * i + 1] = llen;
    }
    return num_slots;
}

/* numpy's bitgen_t (numpy/random/bitgen.h), the struct a Generator's
 * bit_generator.ctypes.bit_generator points at. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} repro_bitgen_t;

/* Generator.integers(0, rng + 1) for rng < 0xFFFFFFFF: numpy's
 * buffered_bounded_lemire_uint32, rejection loop included. */
static uint32_t repro_bounded_uint32(repro_bitgen_t *bitgen, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Line-for-line the dict-adjacency reverse BFS of the tests' RR oracle
 * (tests/oracles.py, DictRRSampler), drawing the same numbers in the same
 * order: one target per set, then one coin per not-yet-visited in-neighbour
 * in reverse-CSR order. */
int64_t repro_sample_rr_sets(
    const int64_t *rin_offsets,  /* num_nodes + 1 */
    const int64_t *rin_sources,  /* each node's in-neighbours, in order */
    const double *rin_probs,     /* their edge probabilities */
    int64_t num_nodes,           /* 1 .. 0xFFFFFFFF */
    repro_bitgen_t *bitgen,
    int64_t first,               /* first set to sample */
    int64_t num_sets,
    int64_t *root_index,         /* num_sets */
    int64_t *rr_offsets,         /* num_sets + 1; set first starts at rr_offsets[first] */
    int64_t *flat,               /* every set's members, back to back */
    int64_t capacity,            /* entries of flat */
    int64_t *stamp)              /* num_nodes; set s marks its members with s */
{
    int64_t tail = rr_offsets[first];
    for (int64_t set_id = first; set_id < num_sets; ++set_id) {
        /* A set has at most num_nodes members; stop before drawing. */
        if (tail + num_nodes > capacity) return set_id - first;
        const int64_t target = num_nodes > 1
            ? (int64_t)repro_bounded_uint32(bitgen, (uint32_t)(num_nodes - 1))
            : 0;
        root_index[set_id] = target;
        stamp[target] = set_id;
        int64_t head = tail;
        flat[tail++] = target;
        while (head < tail) {
            const int64_t node = flat[head++];
            const int64_t high = rin_offsets[node + 1];
            for (int64_t pos = rin_offsets[node]; pos < high; ++pos) {
                const int64_t source = rin_sources[pos];
                if (stamp[source] == set_id) continue;
                if (bitgen->next_double(bitgen->state) < rin_probs[pos]) {
                    stamp[source] = set_id;
                    flat[tail++] = source;
                }
            }
        }
        rr_offsets[set_id + 1] = tail;
    }
    return num_sets - first;
}

/* Worlds first .. count - 1 of a block, line for line the numpy loop of
 * repro/diffusion/engine.py (WorldSampler._draw_block_numpy): per world,
 * each layer's width doubles from that layer's generator, in layer order;
 * the draws at the probe positions; then, per node in CSR order, the slots
 * whose draw lies below their probability. */
int64_t repro_draw_worlds(
    const int64_t *indptr,       /* num_nodes + 1, from 0, non-decreasing */
    const int64_t *indices,      /* CSR slot -> target node */
    const int64_t *edge_pos,     /* CSR slot -> draw position */
    const double *probs,         /* CSR slot -> probability */
    int64_t num_nodes,
    repro_bitgen_t *const *bitgens, /* one per layer, positioned at world first */
    const int64_t *widths,       /* one per layer: draws per world */
    int64_t num_layers,
    double *draws,               /* scratch: one world's draws, sum(widths) */
    const int64_t *probe,        /* draw positions to copy out */
    int64_t num_probe,
    double *probed,              /* count x num_probe */
    int64_t first,
    int64_t count,
    int32_t *targets,            /* every world's live targets, back to back */
    int64_t capacity,            /* entries of targets */
    int64_t *offsets)            /* count x (num_nodes + 1), absolute */
{
    const int64_t stride = num_nodes + 1;
    const int64_t num_slots = indptr[num_nodes];
    int64_t tail = first > 0 ? offsets[first * stride - 1] : 0;
    for (int64_t w = first; w < count; ++w) {
        /* A world has at most num_slots live targets; stop before drawing. */
        if (tail + num_slots > capacity) return w - first;
        double *draw = draws;
        for (int64_t k = 0; k < num_layers; ++k) {
            repro_bitgen_t *bitgen = bitgens[k];
            for (int64_t i = 0; i < widths[k]; ++i) {
                *draw++ = bitgen->next_double(bitgen->state);
            }
        }
        double *probe_row = probed + w * num_probe;
        for (int64_t j = 0; j < num_probe; ++j) probe_row[j] = draws[probe[j]];
        int64_t *row = offsets + w * stride;
        for (int64_t u = 0; u < num_nodes; ++u) {
            row[u] = tail;
            const int64_t high = indptr[u + 1];
            for (int64_t slot = indptr[u]; slot < high; ++slot) {
                /* Branch-free: write always, keep the write when live.  The
                 * capacity check above keeps every write in bounds. */
                targets[tail] = (int32_t)indices[slot];
                tail += draws[edge_pos[slot]] < probs[slot];
            }
        }
        row[num_nodes] = tail;
    }
    return count - first;
}
"""


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> Optional[str]:
    from shutil import which

    for candidate in ("cc", "gcc", "clang"):
        path = which(candidate)
        if path:
            return path
    return None


def _build_cc_library() -> Tuple[Optional[ctypes.CDLL], float]:
    """Compile (or load the cached) C kernel library.

    Returns ``(library, compile_seconds)`` — ``compile_seconds`` is 0.0 when
    a previously compiled library was reused.  Any failure (no compiler,
    compile error, unwritable cache) returns ``(None, 0.0)``; the caller
    falls back to the interpreted path.
    """
    digest = hashlib.sha256(_C_SOURCE.encode("utf-8")).hexdigest()[:16]
    cache_dir = _cache_dir()
    lib_path = cache_dir / f"cascade-{digest}.so"
    compile_seconds = 0.0
    if not lib_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            logger.debug("no C compiler found for the cascade kernel")
            return None, 0.0
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            began = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=str(cache_dir)) as workdir:
                source_path = Path(workdir) / "cascade.c"
                object_path = Path(workdir) / "cascade.so"
                source_path.write_text(_C_SOURCE, encoding="utf-8")
                subprocess.run(
                    [
                        compiler, "-O3", "-shared", "-fPIC",
                        "-o", str(object_path), str(source_path),
                    ],
                    check=True,
                    capture_output=True,
                )
                # Atomic publish: concurrent builders race harmlessly.
                os.replace(str(object_path), str(lib_path))
            compile_seconds = time.perf_counter() - began
        except (OSError, subprocess.CalledProcessError) as error:
            logger.debug("cascade kernel C compile failed: %s", error)
            return None, 0.0
    try:
        return ctypes.CDLL(str(lib_path)), compile_seconds
    except OSError as error:  # corrupt cache entry, wrong arch, ...
        logger.debug("cascade kernel library load failed: %s", error)
        try:
            lib_path.unlink()
        except OSError:
            pass
        return None, 0.0


class CascadeKernel:
    """The compiled C library's entry points, plus warm-up.

    Instances are produced by :func:`load_kernel` (one per process) and are
    shared by every engine and worker in the process; the entry points keep
    no state between calls but their address memos, whose entries are
    replaced whole, so sharing is safe.
    """

    #: Name of the native backend, as :func:`kernel_backend` reports it.
    backend = "cc"

    def __init__(self, library: ctypes.CDLL, compile_seconds: float = 0.0) -> None:
        i32, i64 = np.int32, np.int64
        c_i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        self._block_raw = library.repro_cascade_block
        self._block_raw.argtypes = [
            ptr, ptr, c_i64, c_i64, ptr, c_i64, ptr, ptr, c_i64, ptr, ptr,
        ]
        self._block_raw.restype = c_i64
        self._instrumented_raw = library.repro_cascade_worlds_instrumented
        self._instrumented_raw.argtypes = [
            ptr, ptr, c_i64, ptr, c_i64, ptr, c_i64, ptr, ptr, c_i64, ptr, ptr,
            c_i64, ptr,
        ]
        self._instrumented_raw.restype = c_i64
        self._rr_raw = library.repro_sample_rr_sets
        self._rr_raw.argtypes = [
            ptr, ptr, ptr, c_i64, ptr, c_i64, c_i64, ptr, ptr, ptr, c_i64, ptr,
        ]
        self._rr_raw.restype = c_i64
        self._draw_raw = library.repro_draw_worlds
        self._draw_raw.argtypes = [
            ptr, ptr, ptr, ptr, c_i64, ptr, ptr, c_i64, ptr, ptr, c_i64, ptr,
            c_i64, c_i64, ptr, c_i64, ptr,
        ]
        self._draw_raw.restype = c_i64
        self._block_at = _address_memo(i32, i64, i32, i64, i64, i32, i64)
        self._instrumented_at = _address_memo(
            i32, i64, i64, i32, i64, i64, i32, i32, i64
        )
        self._rr_at = _address_memo(i64, i64, np.float64, i64, i64, i64, i64)
        self._draw_at = _address_memo(
            i64, i64, i64, np.float64, i64, np.float64, i32, i64
        )
        self._warmed = False
        #: Seconds this process spent compiling the shared library (0.0 on
        #: a disk-cache hit) and in its one-off :meth:`warm` calls.
        self.compile_seconds = compile_seconds

    # -- entry points --------------------------------------------------

    def cascade_block(
        self,
        targets: np.ndarray,
        offsets: np.ndarray,
        seeds: np.ndarray,
        coupons: np.ndarray,
        visited: np.ndarray,
        stamp: int,
        queue: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """Cascade every world of a flat block, accumulating ``counts``.

        Returns the last stamp written into ``visited`` (one per world) —
        the same contract as the interpreted
        :func:`repro.diffusion.engine.cascade_block`.
        """
        at = self._block_at
        return self._block_raw(
            at(0, targets), at(1, offsets), offsets.shape[1] - 1,
            offsets.shape[0], at(2, seeds), seeds.shape[0], at(3, coupons),
            at(4, visited), stamp, at(5, queue), at(6, counts),
        )

    def cascade_world_instrumented(
        self,
        targets: np.ndarray,
        offsets: np.ndarray,
        slots: np.ndarray,
        seeds: np.ndarray,
        coupons: np.ndarray,
        visited: np.ndarray,
        stamp: int,
        queue: np.ndarray,
        limited: np.ndarray,
        ends: np.ndarray,
    ) -> int:
        """Instrumented cascades of the block's worlds ``slots``, back to back.

        World ``i`` of ``slots`` writes its activation queue and its
        coupon-limited list into ``queue`` / ``limited`` where world
        ``i - 1``'s ended, up to ``ends[i]`` — exactly, and in the same
        order, what the interpreted
        :meth:`~repro.diffusion.engine.CompiledCascadeEngine.cascade_world_instrumented`
        produces.  Stops before a world that might not fit and returns how
        many worlds it finished.  ``slots`` must index rows of ``offsets``.
        """
        if ends.shape[0] < slots.shape[0]:
            raise ValueError(
                f"ends holds {ends.shape[0]} worlds, the call asks for "
                f"{slots.shape[0]}"
            )
        at = self._instrumented_at
        return self._instrumented_raw(
            at(0, targets), at(1, offsets), offsets.shape[1] - 1,
            at(2, slots), slots.shape[0], at(3, seeds), seeds.shape[0],
            at(4, coupons), at(5, visited), stamp, at(6, queue),
            at(7, limited), min(queue.shape[0], limited.shape[0]), at(8, ends),
        )

    def sample_rr_sets(
        self,
        rin_offsets: np.ndarray,
        rin_sources: np.ndarray,
        rin_probs: np.ndarray,
        rng: np.random.Generator,
        first: int,
        root_index: np.ndarray,
        rr_offsets: np.ndarray,
        flat: np.ndarray,
        stamp: np.ndarray,
    ) -> int:
        """Sample sets ``first, first + 1, ...`` of an RR sketch from ``rng``.

        Set ``s`` reverse-BFSes from a target drawn as ``rng.integers(0, n)``
        over the reverse CSR ``rin_offsets`` / ``rin_sources`` / ``rin_probs``,
        writes its root to ``root_index[s]``, its members in visit order to
        ``flat`` from ``rr_offsets[s]`` and its end to ``rr_offsets[s + 1]``,
        and marks its members with ``s`` in ``stamp`` (``num_nodes`` entries,
        none equal to a set id from ``first`` on).  ``rng`` ends where the
        dict-adjacency oracle (``tests/oracles.py``) leaves it.  Stops before
        a set that might not fit in ``flat`` and returns how many sets it
        finished.
        """
        num_nodes = rin_offsets.shape[0] - 1
        if (
            rin_probs.shape != rin_sources.shape
            or rin_offsets[-1] > rin_sources.shape[0]
        ):
            raise ValueError("reverse CSR offsets, sources and probabilities disagree")
        if num_nodes > MAX_SKETCH_NODES:
            raise ValueError(
                f"{num_nodes} nodes exceed the sketch kernel's 32-bit target "
                f"draw (at most {MAX_SKETCH_NODES})"
            )
        num_sets = root_index.shape[0]
        if rr_offsets.shape[0] != num_sets + 1 or not 0 <= first <= num_sets:
            raise ValueError(
                f"rr_offsets holds {rr_offsets.shape[0]} entries for {num_sets} "
                f"sets, resuming at set {first}"
            )
        if stamp.shape[0] != num_nodes:
            raise ValueError(f"stamp holds {stamp.shape[0]} of {num_nodes} nodes")
        at = self._rr_at
        with rng.bit_generator.lock:
            return self._rr_raw(
                at(0, rin_offsets), at(1, rin_sources), at(2, rin_probs),
                num_nodes, rng.bit_generator.ctypes.bit_generator.value, first,
                num_sets, at(3, root_index), at(4, rr_offsets), at(5, flat),
                flat.shape[0], at(6, stamp),
            )

    def draw_worlds(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_pos: np.ndarray,
        probs: np.ndarray,
        num_draws: int,
        generators: Sequence[np.random.Generator],
        widths: Sequence[int],
        first: int,
        targets: np.ndarray,
        offsets: np.ndarray,
        probe: np.ndarray,
        probed: np.ndarray,
    ) -> int:
        """Draw worlds ``first, first + 1, ...`` of a block from layered streams.

        World ``w`` takes ``widths[k]`` doubles from ``generators[k]`` for
        every layer ``k`` in order (``num_draws`` in all), copies its draws
        at the positions ``probe`` into ``probed[w]``, and writes its live
        targets (the CSR slots whose draw at ``edge_pos`` lies below
        ``probs``) to ``targets`` from where world ``w - 1`` ended, with its
        absolute offset row in ``offsets[w]`` — what
        :meth:`~repro.diffusion.engine.WorldSampler._draw_block_numpy` draws,
        and where it leaves the generators.  Stops before a world that might
        not fit in ``targets`` (it holds at most ``indptr[-1]`` live targets)
        and returns how many worlds it finished.
        """
        num_nodes = indptr.shape[0] - 1
        num_slots = int(indptr[-1]) if num_nodes >= 0 else -1
        if (
            num_slots < 0
            or indptr[0] != 0
            or (indptr[1:] < indptr[:-1]).any()
            or not indices.shape == edge_pos.shape == probs.shape == (num_slots,)
        ):
            raise ValueError("CSR indptr, indices, edge_pos and probs disagree")
        if len(generators) != len(widths):
            raise ValueError(
                f"{len(generators)} generators for {len(widths)} stream layers"
            )
        widths_arr = np.asarray(widths, dtype=np.int64)
        if (
            (widths_arr < 0).any()
            or widths_arr.sum() != num_draws
            or (num_slots and not 0 <= edge_pos.min() <= edge_pos.max() < num_draws)
        ):
            raise ValueError(
                f"layer widths {widths_arr.tolist()} do not sum to the "
                f"{num_draws} draws covering the edges' draw positions"
            )
        count = offsets.shape[0]
        if (
            offsets.shape != (count, num_nodes + 1)
            or not 0 <= first <= count
            or (first and not 0 <= offsets[first - 1, -1] <= targets.shape[0])
        ):
            raise ValueError(
                f"offsets of shape {offsets.shape} for {num_nodes} nodes, "
                f"resuming at world {first} within {targets.shape[0]} targets"
            )
        if probed.shape != (count, probe.shape[0]) or (
            probe.size and not 0 <= probe.min() <= probe.max() < num_draws
        ):
            raise ValueError(
                f"probed of shape {probed.shape} for {count} worlds and "
                f"{probe.shape[0]} probe positions within {num_draws} draws"
            )
        bitgens = np.array(
            [g.bit_generator.ctypes.bit_generator.value for g in generators],
            dtype=np.uintp,
        )
        draws = np.empty(num_draws, dtype=np.float64)
        at = self._draw_at
        # One acquire per bit generator: its lock is not reentrant, and one
        # generator may feed several layers.
        held = {id(g.bit_generator): g.bit_generator.lock for g in generators}
        with contextlib.ExitStack() as locks:
            for lock in held.values():
                locks.enter_context(lock)
            return self._draw_raw(
                at(0, indptr), at(1, indices), at(2, edge_pos), at(3, probs),
                num_nodes, bitgens.ctypes.data, widths_arr.ctypes.data,
                widths_arr.shape[0], draws.ctypes.data, at(4, probe),
                probe.shape[0], at(5, probed), first, count, at(6, targets),
                targets.shape[0], at(7, offsets),
            )

    # -- warm-up -------------------------------------------------------

    def warm(self) -> float:
        """Run both cascade entry points once on a one-world dummy block.

        Engines call this at construction so the first calls' one-off cost
        (symbol binding, first-touch page faults) lands before any timed
        evaluation (CELF pivot-queue timings, benchmarks) instead of inside
        the first one.  Idempotent per kernel instance; returns the seconds
        this call spent (0.0 once warm).
        """
        if self._warmed:
            return 0.0
        began = time.perf_counter()
        targets = np.array([1], dtype=np.int32)
        offsets = np.array([[0, 1, 1]], dtype=np.int64)
        seeds = np.array([0], dtype=np.int32)
        coupons = np.array([1, 0], dtype=np.int64)
        visited = np.zeros(2, dtype=np.int64)
        queue = np.zeros(2, dtype=np.int32)
        limited = np.zeros(2, dtype=np.int32)
        counts = np.zeros(2, dtype=np.int64)
        stamp = self.cascade_block(
            targets, offsets, seeds, coupons, visited, 0, queue, counts
        )
        self.cascade_world_instrumented(
            targets, offsets, np.zeros(1, dtype=np.int64), seeds, coupons,
            visited, stamp, queue, limited, np.zeros((1, 2), dtype=np.int64),
        )
        elapsed = time.perf_counter() - began
        self._warmed = True
        self.compile_seconds += elapsed
        return elapsed


def _address_memo(*dtypes):
    """Raw addresses of one entry point's array arguments, once per buffer.

    Each argument position remembers, weakly, the last array it was given
    and that array's address.  A call repeating the array pays one identity
    test; a new array is first checked for the position's dtype and
    C-contiguity, the check an ``ndpointer`` argtype makes on every call.
    A remembered array must not be resized in place.
    """
    memo = [None] * len(dtypes)

    def address(position: int, array: np.ndarray) -> int:
        entry = memo[position]
        if entry is not None and entry[0]() is array:
            return entry[1]
        dtype = dtypes[position]
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise TypeError(
                f"cascade kernel argument {position} must be a C-contiguous "
                f"{np.dtype(dtype).name} array, got {array.dtype.name} "
                f"(C-contiguous: {array.flags.c_contiguous})"
            )
        found = array.ctypes.data
        memo[position] = (weakref.ref(array), found)
        return found

    return address


# Per-process kernel singleton: False = unresolved, None = resolved absent.
_KERNEL: "CascadeKernel | None | bool" = False


def native_disabled() -> bool:
    """Whether ``REPRO_NO_NATIVE_KERNEL`` forces the interpreted path.

    Parsed through :func:`repro.utils.env.env_flag`, so ``0``/``false``/
    ``no``/``off``/empty behave exactly like leaving the variable unset —
    only a truthy spelling disables the native kernel.
    """
    return env_flag(DISABLE_ENV)


def load_kernel() -> Optional[CascadeKernel]:
    """The process-wide native kernel, or ``None`` when unavailable.

    The C library is compiled (or loaded from the disk cache) on first use;
    without a compiler the answer is ``None``.  The result is cached for the
    life of the process; tests use :func:`reset_kernel_cache` to re-resolve
    after monkeypatching :func:`_build_cc_library`.
    """
    global _KERNEL
    if native_disabled():
        return None
    if _KERNEL is False:
        library, compile_seconds = _build_cc_library()
        if library is None:
            logger.debug("no native cascade kernel backend available")
            _KERNEL = None
        else:
            _KERNEL = CascadeKernel(library, compile_seconds)
    return _KERNEL


def kernel_backend() -> Optional[str]:
    """Name of the resolved native backend (``"cc"``) or ``None``."""
    kernel = load_kernel()
    return kernel.backend if kernel is not None else None


def reset_kernel_cache() -> None:
    """Forget the resolved backend (test hook for forced-fallback suites)."""
    global _KERNEL
    _KERNEL = False
