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

A fourth entry, :meth:`CascadeKernel.draw_worlds`, materialises a block of
live-edge worlds of a PCG64 :class:`~repro.diffusion.engine.WorldSampler`,
which is what every block of worlds costs: the resident block at
construction, each block of a sharded grid or a pool worker, and the block
carried across an event batch.  It reads the sampler's layered streams
without drawing them.  World ``w``'s double at offset ``j`` of a layer is the
output of step ``w × width + j + 1`` from the layer's frozen state, so each
call jumps every layer to its first world by numpy's LCG jump
(``pcg_advance_lcg_128``), walks the layer's positions with one LCG step
each, and moves each position's coin on to the next world with one 128-bit
multiply-add.  Per world it scans the CSR (``indptr``, ``indices``,
``edge_pos``, ``probs``) node by node, writing the int32 targets of the
slots whose double lies below their probability with the world's row of
absolute int64 offsets, and reads the doubles at the caller's probe
positions; given the pre-batch block of the same worlds, the rows an event
batch copied take the old rows' live targets through the node remap instead
of a scan.  The block and the probed doubles are bit for bit those of the
numpy loop (``WorldSampler._draw_block_numpy``).  A world holds at most the
scanned slots plus its old row span, so the entry stops before a world that
might not fit and the wrapper grows the buffer and resumes.  The entry needs
128-bit integers (``__SIZEOF_INT128__``; :attr:`CascadeKernel.pcg64_jump_ahead`
says whether the library has it).  Other bit generators (MT19937, Philox,
SFC64, PCG64DXSM, which only a caller-owned ``Generator`` brings), compilers
without 128-bit integers and ``REPRO_NO_NATIVE_KERNEL`` runs draw with the
numpy loop.
"""

from __future__ import annotations

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

#ifdef __SIZEOF_INT128__
#include <stdlib.h>

/* numpy's PCG64 steps a 128-bit LCG, s -> M s + inc, and outputs XSL-RR of
 * the new state; next_double turns an output x into (x >> 11) * 2^-53.  So
 * world w's double at offset j of a layer of width doubles per world is the
 * output of step w * width + j + 1 from the layer's frozen state.  A coin is
 * that state for one draw position, read without drawing the stream before
 * it, and one world's width of steps is one affine map, so the next world's
 * coin is one multiply-add. */
typedef unsigned __int128 repro_u128;
typedef struct { repro_u128 mult, plus; } repro_lcg_t;   /* s -> mult s + plus */

static const repro_u128 REPRO_PCG64_MULT =
    ((repro_u128)2549297995355413924ULL << 64) | 4865540595714422341ULL;

static repro_u128 repro_word128(const uint64_t *words)
{
    return ((repro_u128)words[0] << 64) | words[1];
}

/* steps LCG steps as one affine map: numpy's pcg_advance_lcg_128. */
static repro_lcg_t repro_pcg64_jump(repro_u128 inc, uint64_t steps)
{
    repro_u128 cur_mult = REPRO_PCG64_MULT, cur_plus = inc;
    repro_lcg_t acc = {1, 0};
    while (steps) {
        if (steps & 1) {
            acc.mult *= cur_mult;
            acc.plus = acc.plus * cur_mult + cur_plus;
        }
        cur_plus = (cur_mult + 1) * cur_plus;
        cur_mult *= cur_mult;
        steps >>= 1;
    }
    return acc;
}

/* The coin's double, then the coin moved on to the next world. */
static inline double repro_coin_flip(repro_u128 *coin, const repro_lcg_t *step)
{
    const repro_u128 state = *coin;
    const uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    *coin = step->mult * state + step->plus;
    /* Below 2^53, so the signed conversion is exact (and faster). */
    return (double)(int64_t)(((x >> rot) | (x << ((-rot) & 63))) >> 11)
        * (1.0 / 9007199254740992.0);
}

/* Worlds first + done .. first + count - 1 of a PCG64 sampler, into rows
 * done .. count - 1 of a block.  Per world, a row with a source copies that
 * old row's live targets through remap (a run of rows copying consecutive
 * old rows is one shifted span); every other row (all of them when source
 * is NULL) is scanned in CSR order as the numpy loop of
 * repro/diffusion/engine.py (WorldSampler._draw_block_numpy) scans it,
 * writing the targets of the slots whose coin lies below their probability;
 * then the doubles at the probe positions.  Each call jumps every layer to
 * world first + done and walks its positions with one LCG step each, which
 * gives every draw position its coin.  A scanned slot moves its position's
 * coin on in place (a position belongs to at most one slot); the probes
 * move copies.  A world holds at most the scanned slots plus its old row
 * span of live targets, so the call stops before a world that might not fit
 * and returns how many worlds it finished; -1 if it could not allocate its
 * coins, -2 if a copied target has no new node. */
int64_t repro_draw_worlds(
    const int64_t *indptr,       /* num_nodes + 1, from 0, non-decreasing */
    const int64_t *indices,      /* CSR slot -> target node */
    const int64_t *edge_pos,     /* CSR slot -> draw position */
    const double *probs,         /* CSR slot -> probability */
    int64_t num_nodes,
    const uint64_t *layers,      /* per layer: state high, low, inc high, low */
    const int64_t *widths,       /* per layer: draws per world */
    int64_t num_layers,
    const int64_t *source,       /* per row: its old row, or -1; or NULL */
    const int64_t *remap,        /* old node -> new node, or -1 */
    const int32_t *old_targets,
    const int64_t *old_offsets,  /* count x (old_nodes + 1), absolute */
    int64_t old_nodes,
    const int64_t *probe,        /* draw positions to read out */
    int64_t num_probe,
    double *probed,              /* count x num_probe */
    int64_t first,               /* the block's first world */
    int64_t done,                /* worlds of the block already drawn */
    int64_t count,
    int32_t *targets,            /* every world's live targets, back to back */
    int64_t capacity,            /* entries of targets */
    int64_t *offsets)            /* count x (num_nodes + 1), absolute */
{
    int64_t num_draws = 0;
    for (int64_t k = 0; k < num_layers; ++k) num_draws += widths[k];
    repro_u128 *coins = malloc((size_t)(num_draws + num_probe + 1) * sizeof *coins);
    int32_t *layer_at = malloc((size_t)(num_draws + 1) * sizeof *layer_at);
    repro_lcg_t *steps = malloc((size_t)(num_layers + 1) * sizeof *steps);
    int64_t status = -1;
    if (!coins || !layer_at || !steps) goto cleanup;
    int64_t low = 0;
    for (int64_t k = 0; k < num_layers; ++k) {
        const uint64_t *layer = layers + 4 * k;
        const repro_u128 inc = repro_word128(layer + 2);
        const repro_lcg_t to = repro_pcg64_jump(
            inc, (uint64_t)(first + done) * (uint64_t)widths[k]);
        repro_u128 state = to.mult * repro_word128(layer) + to.plus;
        steps[k] = repro_pcg64_jump(inc, (uint64_t)widths[k]);
        for (int64_t j = low; j < low + widths[k]; ++j) {
            state = REPRO_PCG64_MULT * state + inc;
            coins[j] = state;
            layer_at[j] = (int32_t)k;
        }
        low += widths[k];
    }
    repro_u128 *probe_coins = coins + num_draws;
    for (int64_t j = 0; j < num_probe; ++j) probe_coins[j] = coins[probe[j]];
    int64_t scanned = 0;
    for (int64_t u = 0; u < num_nodes; ++u)
        if (!source || source[u] < 0) scanned += indptr[u + 1] - indptr[u];

    const int64_t stride = num_nodes + 1;
    const int64_t old_stride = old_nodes + 1;
    int64_t tail = done > 0 ? offsets[done * stride - 1] : 0;
    int64_t w = done;
    for (; w < count; ++w) {
        const int64_t *old_row = source ? old_offsets + w * old_stride : 0;
        const int64_t copied = source ? old_row[old_nodes] - old_row[0] : 0;
        if (tail + scanned + copied > capacity) break;
        int64_t *row = offsets + w * stride;
        int64_t u = 0;
        while (u < num_nodes) {
            const int64_t old = source ? source[u] : -1;
            if (old < 0) {
                row[u] = tail;
                const int64_t high = indptr[u + 1];
                for (int64_t slot = indptr[u]; slot < high; ++slot) {
                    const int64_t pos = edge_pos[slot];
                    /* One layer (every fresh sampler): one step, no lookup. */
                    const repro_lcg_t *step = num_layers == 1 ? steps : steps + layer_at[pos];
                    /* Branch-free: write always, keep the write when live.
                     * The capacity check above keeps every write in bounds. */
                    targets[tail] = (int32_t)indices[slot];
                    tail += repro_coin_flip(coins + pos, step) < probs[slot];
                }
                ++u;
                continue;
            }
            int64_t end = u + 1;
            while (end < num_nodes && source[end] == old + (end - u)) ++end;
            const int64_t shift = tail - old_row[old];
            for (int64_t v = u; v < end; ++v) row[v] = old_row[old + (v - u)] + shift;
            const int64_t high = old_row[old + (end - u)];
            for (int64_t pos = old_row[old]; pos < high; ++pos) {
                const int64_t target = remap[old_targets[pos]];
                if (target < 0) {
                    status = -2;
                    goto cleanup;
                }
                targets[tail++] = (int32_t)target;
            }
            u = end;
        }
        row[num_nodes] = tail;
        double *probe_row = probed + w * num_probe;
        for (int64_t j = 0; j < num_probe; ++j)
            probe_row[j] = repro_coin_flip(probe_coins + j, steps + layer_at[probe[j]]);
    }
    status = w - done;
cleanup:
    free(coins);
    free(layer_at);
    free(steps);
    return status;
}
#endif
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
        #: Whether the library has the world draw, which reads PCG64 streams
        #: by jump-ahead and needs a compiler with 128-bit integers
        #: (:meth:`draw_worlds`).
        self.pcg64_jump_ahead = hasattr(library, "repro_draw_worlds")
        if self.pcg64_jump_ahead:
            self._draw_raw = library.repro_draw_worlds
            self._draw_raw.argtypes = [
                ptr, ptr, ptr, ptr, c_i64, ptr, ptr, c_i64, ptr, ptr, ptr, ptr,
                c_i64, ptr, c_i64, ptr, c_i64, c_i64, c_i64, ptr, c_i64, ptr,
            ]
            self._draw_raw.restype = c_i64
        self._block_at = _address_memo(i32, i64, i32, i64, i64, i32, i64)
        self._instrumented_at = _address_memo(
            i32, i64, i64, i32, i64, i64, i32, i32, i64
        )
        self._rr_at = _address_memo(i64, i64, np.float64, i64, i64, i64, i64)
        self._draw_at = _address_memo(
            i64, i64, i64, np.float64, i64, i64, i32, i64, i64
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
        layers: Sequence[Tuple[dict, int]],
        first: int,
        count: int,
        probe: np.ndarray,
        *,
        source: Optional[np.ndarray] = None,
        remap: Optional[np.ndarray] = None,
        old_targets: Optional[np.ndarray] = None,
        old_offsets: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Worlds ``first .. first + count - 1`` of a PCG64 sampler, as one block.

        ``layers`` are the sampler's ``(frozen PCG64 state, width)`` pairs
        and ``indptr`` / ``indices`` / ``edge_pos`` / ``probs`` its graph's
        CSR.  Each row is scanned as
        :meth:`~repro.diffusion.engine.WorldSampler._draw_block_numpy` scans
        it, each slot's double read by jump-ahead.  An old block of the same
        worlds (``source``, ``remap``, ``old_targets`` and ``old_offsets``,
        all or none) spares the scan: new row ``u`` with ``source[u] >= 0``
        copies old row ``source[u]`` in every world, each target mapped
        through ``remap``.  Such a row must have the old row's slots,
        probabilities and draw positions, and a target the remap retires
        (``-1``) raises.  Returns ``(targets, offsets, probed)``: the block
        the numpy loop draws, and the worlds' doubles at ``probe``.
        """
        widths = np.array([width for _, width in layers], dtype=np.int64)
        num_nodes = _check_stream(indptr, indices, edge_pos, probs, widths)
        num_draws = int(widths.sum())
        if not (first >= 0 and count >= 0):
            raise ValueError(f"{count} worlds from world {first}")
        if probe.size and not 0 <= probe.min() <= probe.max() < num_draws:
            raise ValueError(
                f"probe positions outside the {num_draws} draws of a world"
            )
        words = _pcg64_words([state for state, _ in layers])
        at = self._draw_at
        old = (source, remap, old_targets, old_offsets)
        if all(array is None for array in old):
            # The expected live targets plus one world's worth of slack.
            expected = count * float(probs.sum())
            slack = int(indptr[-1])
            old_args = (None, None, None, None, 0)
        else:
            old_nodes = _check_old_block(num_nodes, count, *old)
            row_slots = np.diff(indptr)
            scanned = source < 0
            spans = old_offsets[:, -1] - old_offsets[:, 0]
            expected = spans.sum() + count * float(
                probs[np.repeat(scanned, row_slots)].sum()
            )
            slack = int(row_slots[scanned].sum()) + int(spans.max(initial=0))
            old_args = (
                at(4, source), at(5, remap), at(6, old_targets),
                at(7, old_offsets), old_nodes,
            )
        targets = np.empty(int(expected) + slack, dtype=np.int32)
        offsets = np.empty((count, num_nodes + 1), dtype=np.int64)
        probed = np.empty((count, probe.shape[0]), dtype=np.float64)
        done = 0
        while True:
            # A call stops before a world that might not fit; the buffer
            # grows and the next call resumes there.
            finished = self._draw_raw(
                at(0, indptr), at(1, indices), at(2, edge_pos), at(3, probs),
                num_nodes, words.ctypes.data, widths.ctypes.data,
                widths.shape[0], *old_args, at(8, probe), probe.shape[0],
                probed.ctypes.data, first, done, count, targets.ctypes.data,
                targets.shape[0], offsets.ctypes.data,
            )
            if finished == -1:
                raise MemoryError("draw_worlds could not allocate its coins")
            if finished == -2:
                raise ValueError("a copied row holds a target the remap retires")
            done += finished
            if done == count:
                break
            used = int(offsets[done - 1, -1]) if done else 0
            grown = np.empty(max(2 * targets.shape[0], used + slack), np.int32)
            grown[:used] = targets[:used]
            targets = grown
        used = int(offsets[-1, -1]) if count else 0
        return targets[:used].copy(), offsets, probed

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


def _check_stream(indptr, indices, edge_pos, probs, widths) -> int:
    """Check a CSR against stream layer ``widths``; its node count."""
    num_nodes = indptr.shape[0] - 1
    num_slots = int(indptr[-1]) if num_nodes >= 0 else -1
    if (
        num_slots < 0
        or indptr[0] != 0
        or (indptr[1:] < indptr[:-1]).any()
        or not indices.shape == edge_pos.shape == probs.shape == (num_slots,)
    ):
        raise ValueError("CSR indptr, indices, edge_pos and probs disagree")
    num_draws = widths.sum()
    if (widths < 0).any() or (
        num_slots and not 0 <= edge_pos.min() <= edge_pos.max() < num_draws
    ):
        raise ValueError(
            f"layer widths {widths.tolist()} do not cover the edges' draw "
            f"positions"
        )
    return num_nodes


def _check_old_block(num_nodes, count, source, remap, old_targets, old_offsets) -> int:
    """Check an old block of ``count`` worlds and its row plan; its node count."""
    if any(array is None for array in (source, remap, old_targets, old_offsets)):
        raise ValueError("an old block needs source, remap, old targets and offsets")
    old_nodes = old_offsets.shape[1] - 1 if old_offsets.ndim == 2 else -1
    if (
        old_nodes < 0
        or old_offsets.shape[0] != count
        or (
            old_offsets.size
            and (
                old_offsets.min() < 0
                or old_offsets.max() > old_targets.shape[0]
                or (old_offsets[:, 1:] < old_offsets[:, :-1]).any()
            )
        )
    ):
        raise ValueError(
            f"old offsets of shape {old_offsets.shape} are not {count} rows of "
            f"non-decreasing indices into {old_targets.shape[0]} targets"
        )
    if old_targets.size and not (
        0 <= old_targets.min() <= old_targets.max() < old_nodes
    ):
        raise ValueError(f"old targets outside the {old_nodes} old nodes")
    if (
        remap.shape != (old_nodes,)
        or source.shape != (num_nodes,)
        or (remap.size and remap.max() >= num_nodes)
        or (source.size and not -1 <= source.min() <= source.max() < old_nodes)
        or np.bincount(source[source >= 0], minlength=1).max() > 1
    ):
        raise ValueError(
            f"remap of shape {remap.shape} and source of shape "
            f"{source.shape} for {old_nodes} old and {num_nodes} new rows"
        )
    return old_nodes


def _pcg64_words(states: Sequence[dict]) -> np.ndarray:
    """Frozen PCG64 states as uint64 rows ``[state high, low, inc high, low]``."""
    words = np.empty((len(states), 4), dtype=np.uint64)
    mask = (1 << 64) - 1
    for row, state in zip(words, states):
        if state.get("bit_generator") != "PCG64":
            raise ValueError(
                f"jump-ahead reads PCG64 streams, not {state.get('bit_generator')}"
            )
        value, inc = state["state"]["state"], state["state"]["inc"]
        row[:] = (value >> 64, value & mask, inc >> 64, inc & mask)
    return words


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
