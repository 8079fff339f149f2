"""Parity suite: the CSR RR-set sampler vs the dict-adjacency oracle.

The CSR backend of :class:`~repro.diffusion.rr_sets.RRSetSampler` promises
*bit-identity* with the original dict-adjacency reverse BFS, on both of its
paths: the native entry
(:meth:`~repro.diffusion.kernels.CascadeKernel.sample_rr_sets`), which draws
from the sampler's own generator through numpy's ``bitgen_t`` interface, and
the numpy loop kept for hosts without a native backend.  Each draws the same
target (``integers(0, n)``) and one coin per not-yet-visited in-neighbour in
``in_neighbors`` order, so the same sets are sampled and the generator ends
where the oracle leaves it, for any graph, seed and bit generator.  These
tests pin that contract at the sampler level (sets, roots, flat-array shape,
the generator's following stream), at the native entry itself (stopping on a
full buffer and resuming, the bounded draw's rejection branch), at the
coverage level, and through
:class:`~repro.diffusion.rr_sets.RRBenefitEstimator`'s probability and
benefit surfaces, including the vectorized screening bound the two-tier
estimator runs on.
"""

from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.random import MT19937, PCG64, Generator, Philox

from repro.diffusion import kernels
from repro.diffusion.rr_sets import RRBenefitEstimator, RRSetSampler
from repro.graph.generators import erdos_renyi_graph
from repro.graph.social_graph import SocialGraph

NUM_SETS = 40

requires_native = pytest.mark.skipif(
    kernels.load_kernel() is None,
    reason="no native kernel backend resolves in this environment",
)


def sampling_paths():
    """The CSR sampler's paths on this host: the native entry, when a
    backend resolves, and the numpy fallback."""
    return (["native"] if kernels.load_kernel() is not None else []) + ["numpy"]


@contextmanager
def sampling_path(path):
    """Sample on the native entry, or on the numpy loop with every backend off."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setenv(kernels.DISABLE_ENV, "1")
            kernels.reset_kernel_cache()
        assert (kernels.load_kernel() is None) == (path == "numpy")
        yield
    if path == "numpy":
        kernels.reset_kernel_cache()


@st.composite
def graph_instance(draw):
    """Random attributed digraph (possibly sparse, possibly disconnected)."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    nodes = list(range(num_nodes))
    graph = SocialGraph()
    for node in nodes:
        graph.add_node(
            node,
            benefit=draw(st.floats(min_value=0.0, max_value=5.0)),
            sc_cost=1.0,
            seed_cost=1.0,
        )
    possible = [(u, v) for u in nodes for v in nodes if u != v]
    chosen = draw(
        st.lists(
            st.sampled_from(possible), max_size=min(30, len(possible)), unique=True
        )
        if possible
        else st.just([])
    )
    for source, target in chosen:
        graph.add_edge(source, target, draw(st.floats(min_value=0.0, max_value=1.0)))
    return graph


def _csr_sampler(graph, seed, path):
    with sampling_path(path):
        return RRSetSampler(graph, num_sets=NUM_SETS, seed=seed, backend="csr")


def _assert_same_sets(csr, oracle):
    assert csr.roots == oracle.roots
    assert (csr.root_index == oracle.root_index).all()
    assert csr.rr_sets == oracle.rr_sets
    # Same per-set sizes, so the flat storage agrees structurally too.
    assert (csr.rr_offsets == oracle.rr_offsets).all()


def _assert_same_stream(rng, oracle_rng):
    """Both generators go on identically: doubles, and bounded draws that
    read a buffered 32-bit half-word."""
    assert rng.random() == oracle_rng.random()
    assert (rng.integers(0, 300, size=3) == oracle_rng.integers(0, 300, size=3)).all()


@settings(max_examples=30, deadline=None)
@given(
    graph_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([PCG64, MT19937, Philox]),
)
def test_csr_sampler_bit_identical_to_dict_oracle(graph, seed, bit_generator):
    for path in sampling_paths():
        # Caller-owned generators: the sampler draws from them in place.
        rng = Generator(bit_generator(seed))
        oracle_rng = Generator(bit_generator(seed))
        csr = _csr_sampler(graph, rng, path)
        oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=oracle_rng, backend="dict")
        _assert_same_sets(csr, oracle)
        _assert_same_stream(rng, oracle_rng)


@requires_native
@settings(max_examples=30, deadline=None)
@given(graph_instance(), st.integers(min_value=0, max_value=2**31 - 1))
def test_native_entry_writes_the_numpy_loops_arrays(graph, seed):
    native = _csr_sampler(graph, seed, "native")
    fallback = _csr_sampler(graph, seed, "numpy")
    # Members in BFS visit order, not just as sets.
    assert (native.rr_flat == fallback.rr_flat).all()
    assert (native.rr_offsets == fallback.rr_offsets).all()
    assert (native.root_index == fallback.root_index).all()


def _unit_graph(num_nodes, edge_probability, seed):
    graph = erdos_renyi_graph(num_nodes, edge_probability, seed=seed)
    for node in graph.nodes():
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    return graph


def _reverse_csr(graph):
    """A sampler's reverse CSR, taken from a one-set sampler of ``graph``."""
    sampler = RRSetSampler(graph, num_sets=1, seed=0)
    return sampler._rin_offsets, sampler._rin_sources, sampler._rin_probs


@requires_native
def test_native_entry_stops_on_a_full_buffer_and_resumes():
    graph = _unit_graph(30, 0.15, seed=2)
    num_nodes = graph.num_nodes
    rin = _reverse_csr(graph)
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    root_index = np.empty(NUM_SETS, dtype=np.int64)
    rr_offsets = np.zeros(NUM_SETS + 1, dtype=np.int64)
    stamp = np.full(num_nodes, -1, dtype=np.int64)
    kernel = kernels.load_kernel()
    # A buffer of num_nodes entries fits one set from empty, and the next
    # set might not fit after it: every call finishes exactly one set.
    flat = np.empty(num_nodes, dtype=np.int64)
    done = 0
    while done < NUM_SETS:
        finished = kernel.sample_rr_sets(
            *rin, rng, done, root_index, rr_offsets, flat, stamp
        )
        assert finished == 1
        done += finished
        used = rr_offsets[done]
        grown = np.empty(used + num_nodes, dtype=np.int64)
        grown[:used] = flat[:used]
        flat = grown
    # A call with nothing left to sample draws nothing.
    state = rng.bit_generator.state
    assert kernel.sample_rr_sets(
        *rin, rng, NUM_SETS, root_index, rr_offsets, flat, stamp
    ) == 0
    assert rng.bit_generator.state == state

    oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=oracle_rng, backend="dict")
    assert (root_index == oracle.root_index).all()
    assert (rr_offsets == oracle.rr_offsets).all()
    assert [
        frozenset(flat[rr_offsets[i] : rr_offsets[i + 1]].tolist())
        for i in range(NUM_SETS)
    ] == oracle.rr_sets
    _assert_same_stream(rng, oracle_rng)


#: ``PCG64(0)`` advanced this far makes the first ``integers(0, 300)`` draw
#: reject: numpy's bounded 32-bit draw (Lemire's) rejects when the low word
#: of ``next_uint32 * 300`` falls below ``(2**32 - 300) % 300``.
REJECTING_ADVANCE = 16_633_070


def test_target_draw_rejection_branch_matches_oracle():
    graph = _unit_graph(300, 0.01, seed=4)

    def rejecting():
        return Generator(PCG64(0).advance(REJECTING_ADVANCE))

    # The branch is really taken: the first draw's low word is below the
    # threshold (PCG64's next_uint32 is the low half of one 64-bit output).
    low_word = (rejecting().bit_generator.random_raw() & 0xFFFFFFFF) * 300
    assert low_word & 0xFFFFFFFF < (2**32 - 300) % 300

    for path in sampling_paths():
        rng, oracle_rng = rejecting(), rejecting()
        csr = _csr_sampler(graph, rng, path)
        oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=oracle_rng, backend="dict")
        _assert_same_sets(csr, oracle)
        _assert_same_stream(rng, oracle_rng)


@requires_native
def test_native_entry_checks_its_arguments():
    kernel = kernels.load_kernel()
    rin = _reverse_csr(_unit_graph(5, 0.5, seed=1))
    rng = np.random.default_rng(1)
    roots, offsets = np.empty(3, np.int64), np.zeros(4, np.int64)
    flat, stamp = np.empty(5, np.int64), np.full(5, -1, np.int64)
    with pytest.raises(ValueError, match="reverse CSR"):
        kernel.sample_rr_sets(
            rin[0], rin[1][:-1], rin[2], rng, 0, roots, offsets, flat, stamp
        )
    with pytest.raises(ValueError, match="rr_offsets"):
        kernel.sample_rr_sets(*rin, rng, 0, roots, offsets[:3], flat, stamp)
    with pytest.raises(ValueError, match="rr_offsets"):
        kernel.sample_rr_sets(*rin, rng, 4, roots, offsets, flat, stamp)
    with pytest.raises(ValueError, match="stamp"):
        kernel.sample_rr_sets(*rin, rng, 0, roots, offsets, flat, stamp[:4])
    if kernel.backend == "cc":  # raw addresses: dtypes are checked first
        with pytest.raises(TypeError):
            kernel.sample_rr_sets(
                *rin, rng, 0, roots, offsets, flat.astype(np.int32), stamp
            )
    # Beyond 2**32 - 1 nodes numpy leaves the bounded 32-bit draw; a
    # zero-stride view stands in for such a graph's offsets.
    huge = np.lib.stride_tricks.as_strided(
        rin[0][:1], shape=(kernels.MAX_SKETCH_NODES + 2,), strides=(0,)
    )
    with pytest.raises(ValueError, match="32-bit"):
        kernel.sample_rr_sets(huge, *rin[1:], rng, 0, roots, offsets, flat, stamp)


@settings(max_examples=20, deadline=None)
@given(
    graph_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_coverage_and_spread_match_across_backends(graph, seed, data):
    oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=seed, backend="dict")
    nodes = list(graph.nodes())
    seeds = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    indices = [oracle.index_of[node] for node in seeds]
    for path in sampling_paths():
        csr = _csr_sampler(graph, seed, path)
        assert csr.coverage(seeds) == oracle.coverage(seeds)
        assert csr.expected_spread(seeds) == oracle.expected_spread(seeds)
        assert (csr.hit_mask(indices) == oracle.hit_mask(indices)).all()
        assert (csr.hit_root_counts(indices) == oracle.hit_root_counts(indices)).all()


@settings(max_examples=20, deadline=None)
@given(
    graph_instance(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.data(),
)
def test_rr_estimator_probabilities_and_bounds_match(graph, seed, data):
    oracle = RRBenefitEstimator(graph, num_sets=NUM_SETS, seed=seed, backend="dict")
    nodes = list(graph.nodes())
    seeds = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    for path in sampling_paths():
        with sampling_path(path):
            csr = RRBenefitEstimator(
                graph, num_sets=NUM_SETS, seed=seed, backend="csr"
            )
        assert csr.activation_probabilities(seeds, {}) == (
            oracle.activation_probabilities(seeds, {})
        )
        assert csr.expected_benefit(seeds, {}) == oracle.expected_benefit(seeds, {})
        # The vectorized screening score agrees with the per-slot benefit up
        # to float summation order — the tolerance the tier's >=-band absorbs.
        assert csr.benefit_bound(seeds) == pytest.approx(
            csr.expected_benefit(seeds, {}), rel=1e-9, abs=1e-9
        )
        assert csr.benefit_bounds([(seeds, {}), (seeds, {"ignored": 3})])[0] == (
            csr.benefit_bounds([(seeds, {})])[0]
        )


def test_greedy_seeds_identical_across_backends():
    rng = np.random.default_rng(7)
    graph = SocialGraph()
    for node in range(30):
        graph.add_node(node, benefit=1.0, sc_cost=1.0, seed_cost=1.0)
    for _ in range(120):
        source, target = rng.integers(0, 30, size=2)
        if source != target:
            graph.add_edge(int(source), int(target), float(rng.random()))
    oracle = RRSetSampler(graph, num_sets=NUM_SETS, seed=13, backend="dict")
    for path in sampling_paths():
        csr = _csr_sampler(graph, 13, path)
        assert csr.greedy_seeds(5) == oracle.greedy_seeds(5)
