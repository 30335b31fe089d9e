"""Equivalence suite: array-native fast paths vs their scalar references.

The host fast paths (the matrix reduce's tuple-class rank join,
precomputed hash slots, vectorized atomic CAS) are only admissible if
they are *bit-identical* to their references: same match vectors AND
same CostLedger op totals, on every workload shape.  This suite pins
that invariant down, plus the fast path's memory bound.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import (matching_workload, ordered_workload,
                                 partial_workload, reversed_workload)
from repro.core.envelope import (ANY_SOURCE, ANY_TAG, MAX_COMM, MAX_SRC,
                                 MAX_TAG, Envelope, EnvelopeBatch)
from repro.core.hash_matching import HashMatcher
from repro.core.matrix_matching import MatrixMatcher, _pack_block_votes
from repro.core.partitioned import PartitionedMatcher
from repro.obs import Observability
from repro.simt.memory import GlobalMemory
from repro.simt.timing import CostLedger


def wildcard_workload(n, seed=0):
    """Random workload with heavy MPI_ANY_SOURCE / MPI_ANY_TAG use."""
    msgs, reqs = matching_workload(n, seed=seed)
    src = reqs.src.copy()
    tag = reqs.tag.copy()
    src[::2] = ANY_SOURCE
    tag[::3] = ANY_TAG
    return msgs, EnvelopeBatch(src, tag, reqs.comm)


def duplicate_workload(n, seed=0):
    """Few tuple classes holding many messages each -- the duplicate
    tuples Table I measures: 2 comms x 2-4 srcs x 2-4 tags, requests a
    random permutation of the messages."""
    rng = np.random.default_rng(seed)
    n_src, n_tag = rng.integers(2, 5, size=2)
    msgs = EnvelopeBatch(rng.integers(0, n_src, n), rng.integers(0, n_tag, n),
                         rng.integers(0, 2, n))
    return msgs, msgs.take(rng.permutation(n))


WORKLOADS = {
    "random": matching_workload,
    "ordered": ordered_workload,
    "reversed": reversed_workload,
    "partial": lambda n, seed=0: partial_workload(n, 0.3, seed=seed),
    "wildcard": wildcard_workload,
    "duplicate": duplicate_workload,
}

# crosses the 1024-message pipelining knee and block boundaries
SIZES = (96, 513, 1536, 2600)
SEEDS = (0, 1)


def ledger_signature(ledger: CostLedger) -> dict:
    """Per-phase per-op totals, keyed order-independently."""
    sig = {}
    for p in ledger.phases:
        key = (p.name, p.active_warps, str(p.overlap_group))
        assert key not in sig, "ledger merged phases must be unique"
        sig[key] = dict(p.counts)
    return sig


# -- rank join vs scalar reference --------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_batched_equals_scalar(workload, n, seed):
    msgs, reqs = WORKLOADS[workload](n, seed=seed)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    fast = MatrixMatcher(reduce_impl="batched")
    slow = MatrixMatcher(reduce_impl="scalar")
    out_fast, it_fast = fast.execute(msgs, reqs, fast_ledger)
    out_slow, it_slow = slow.execute(msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert it_fast == it_slow
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)


@pytest.mark.parametrize("warps_per_cta,window", [(2, 8), (4, 16)])
def test_matrix_batched_equals_scalar_small_blocks(warps_per_cta, window):
    """Non-default geometry: many tiny blocks exercise the join's early
    exit and the columns it leaves open for the next block."""
    msgs, reqs = reversed_workload(700, seed=3)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    kw = dict(warps_per_cta=warps_per_cta, window=window)
    out_fast, _ = MatrixMatcher(reduce_impl="batched", **kw).execute(
        msgs, reqs, fast_ledger)
    out_slow, _ = MatrixMatcher(reduce_impl="scalar", **kw).execute(
        msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)


@pytest.mark.parametrize("warp_size", [4, 16])
def test_matrix_batched_equals_scalar_narrow_warps(warp_size):
    msgs, reqs = matching_workload(300, seed=2)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    out_fast, _ = MatrixMatcher(warp_size=warp_size,
                                reduce_impl="batched").execute(
        msgs, reqs, fast_ledger)
    out_slow, _ = MatrixMatcher(warp_size=warp_size,
                                reduce_impl="scalar").execute(
        msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)


# -- lane-bounded vote packing -------------------------------------------------


def _pack_block_votes_all_lanes(block_matrix, n_warps, warp_size):
    """Reference packing: visit every lane of the warp, whatever the block
    holds (lanes past the block's messages read the zero padding)."""
    n_block, n_req = block_matrix.shape
    padded = np.zeros((n_warps * warp_size, n_req), dtype=bool)
    padded[:n_block] = block_matrix
    lanes = padded.reshape(n_warps, warp_size, n_req)
    votes = np.zeros((n_warps, n_req), dtype=np.int64)
    for lane in range(warp_size):
        votes |= lanes[:, lane, :].astype(np.int64) << np.int64(lane)
    return votes


@pytest.mark.parametrize("n_block", [1, 2, 31, 32, 33, 1000, 1024])
@pytest.mark.parametrize("warp_size", [4, 8, 16, 32])
@pytest.mark.parametrize("n_req", [0, 97])
def test_pack_block_votes_lane_bound_equals_all_lanes(n_block, warp_size,
                                                      n_req):
    rng = np.random.default_rng(n_block * 131 + warp_size * 7 + n_req)
    block = rng.random((n_block, n_req)) < 0.3
    n_warps = -(-n_block // warp_size)
    fast = _pack_block_votes(block, n_warps, warp_size)
    ref = _pack_block_votes_all_lanes(block, n_warps, warp_size)
    assert fast.dtype == ref.dtype == np.int64
    assert fast.shape == ref.shape == (n_warps, n_req)
    assert np.array_equal(fast, ref)


# -- one-warp blocks: rank join vs scalar reference ----------------------------


def one_warp_block(n, seed=0):
    """A block of ``n <= 32`` messages whose request queue mixes wildcard
    requests, columns no message matches, and trailing full-wildcard
    columns that soak up the leftovers, so the block's messages run out
    before its last column (the early exit)."""
    rng = np.random.default_rng(seed * 101 + n)
    msgs = EnvelopeBatch.random(n, n_ranks=4, n_tags=4, rng=rng)
    exact = msgs.take(rng.permutation(n))
    src = np.where(rng.random(n) < 0.3, ANY_SOURCE, exact.src)
    tag = np.where(rng.random(n) < 0.3, ANY_TAG, exact.tag)
    n_miss = 1 + n // 4
    miss_src = rng.integers(0, 4, n_miss)
    miss_tag = np.full(n_miss, 99)              # no message carries tag 99
    n_tail = n + 3
    src = np.concatenate([src, miss_src, np.full(n_tail, ANY_SOURCE)])
    tag = np.concatenate([tag, miss_tag, np.full(n_tail, ANY_TAG)])
    head = rng.permutation(n + n_miss)          # misses interleave the head
    order = np.concatenate([head, np.arange(n + n_miss, n + n_miss + n_tail)])
    return msgs, EnvelopeBatch(src[order], tag[order])


@pytest.mark.parametrize("n", range(1, 33))
def test_matrix_one_warp_reduce_equals_scalar(n):
    """The join on a block of 1-32 messages (one vote row) equals the
    scalar reduce, early exit included; the pedantic simulator agrees."""
    msgs, reqs = one_warp_block(n)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    fast = MatrixMatcher(reduce_impl="batched")
    out_fast, it_fast = fast.execute(msgs, reqs, fast_ledger)
    out_slow, it_slow = MatrixMatcher(reduce_impl="scalar").execute(
        msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert it_fast == it_slow == 1
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)
    ops = ("smem_load", "ballot", "alu", "branch", "smem_store", "gmem_store")
    reduce_sig = {op: c for (name, _, _), counts in
                  ledger_signature(fast_ledger).items() if name == "reduce"
                  for op, c in counts.items()}
    assert set(ops) <= set(reduce_sig)
    # every message is consumed before the trailing wildcard columns end
    assert np.count_nonzero(out_fast != -1) == n
    assert reduce_sig["branch"] < len(reqs)      # columns visited
    pedantic = fast.match_pedantic(msgs, reqs)
    assert np.array_equal(pedantic.request_to_message, out_fast)
    assert pedantic.matched_count == n


@pytest.mark.parametrize("n,warp_size", [(1, 4), (3, 4), (4, 4), (3, 8),
                                         (8, 8), (16, 16)])
def test_matrix_one_warp_reduce_narrow_warps(n, warp_size):
    """The same on narrow warps, whose block fills one narrow vote row."""
    msgs, reqs = one_warp_block(n, seed=1)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    out_fast, _ = MatrixMatcher(warp_size=warp_size).execute(
        msgs, reqs, fast_ledger)
    out_slow, _ = MatrixMatcher(warp_size=warp_size,
                                reduce_impl="scalar").execute(
        msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)


@pytest.mark.parametrize("tail", [1, 5, 32])
def test_matrix_one_warp_tail_block_equals_scalar(tail):
    """The join resolves a last block that fits one vote row."""
    msgs, reqs = reversed_workload(1024 + tail, seed=4)
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    out_fast, it_fast = MatrixMatcher().execute(msgs, reqs, fast_ledger)
    out_slow, it_slow = MatrixMatcher(reduce_impl="scalar").execute(
        msgs, reqs, slow_ledger)
    assert it_fast == it_slow == 2
    assert np.array_equal(out_fast, out_slow)
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)


@pytest.mark.parametrize("n", [4, 17, 60, 100])
@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_short_queues_batched_equals_scalar(n, seed):
    """The join resolves per-queue blocks shorter than a warp."""
    msgs, reqs = matching_workload(n, seed=seed)
    fast = PartitionedMatcher(n_queues=4, reduce_impl="batched").match(
        msgs, reqs)
    slow = PartitionedMatcher(n_queues=4, reduce_impl="scalar").match(
        msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.iterations == slow.iterations
    assert fast.meta == slow.meta


# -- rank join: random shapes and hand-built corner cases ----------------------


def _join_and_scalar(msgs, reqs, **kw):
    """Run both reduce implementations; assert they agree on the match
    vector, the block count and the ledger; return the join's outputs."""
    fast_ledger, slow_ledger = CostLedger(), CostLedger()
    out_fast, it_fast = MatrixMatcher(**kw).execute(msgs, reqs, fast_ledger)
    out_slow, it_slow = MatrixMatcher(reduce_impl="scalar", **kw).execute(
        msgs, reqs, slow_ledger)
    assert np.array_equal(out_fast, out_slow)
    assert it_fast == it_slow
    assert ledger_signature(fast_ledger) == ledger_signature(slow_ledger)
    return out_fast, fast_ledger


def _reduce_columns_visited(ledger):
    """Columns the reduce walked: one ``branch`` is charged per column."""
    return sum(p.counts["branch"] for p in ledger.phases
               if p.name == "reduce")


SHAPES = [(w, ws) for w in (1, 2, 5, 32) for ws in (4, 8, 32)]


@pytest.mark.parametrize("warps_per_cta,warp_size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_rank_join_random_shapes_equal_scalar(warps_per_cta, warp_size,
                                              seed):
    """Seeded sweep: 1-2,500 entries per side, duplicate-heavy classes
    over 2 comms and 5-10% src/tag wildcards, on every block geometry."""
    rng = np.random.default_rng(1000 * seed + 10 * warps_per_cta + warp_size)
    n_msg, n_req = rng.integers(1, 2501, size=2)
    n_src, n_tag = rng.integers(2, 6, size=2)
    msgs = EnvelopeBatch(rng.integers(0, n_src, n_msg),
                         rng.integers(0, n_tag, n_msg),
                         rng.integers(0, 2, n_msg))
    wild = rng.uniform(0.05, 0.10)
    src = np.where(rng.random(n_req) < wild, ANY_SOURCE,
                   rng.integers(0, n_src + 1, n_req))
    tag = np.where(rng.random(n_req) < wild, ANY_TAG,
                   rng.integers(0, n_tag + 1, n_req))
    reqs = EnvelopeBatch(src, tag, rng.integers(0, 2, n_req))
    _join_and_scalar(msgs, reqs, warps_per_cta=warps_per_cta,
                     warp_size=warp_size)


def test_rank_join_wildcard_consumes_class_head():
    """A wildcard column that takes the head of a concrete class makes the
    class's later columns skip it; a wildcard column after a concrete one
    skips the message the concrete column took."""
    a, b = (0, 0), (1, 0)
    msgs = EnvelopeBatch.from_envelopes(
        Envelope(*t) for t in (a, a, b, a, b))
    reqs = EnvelopeBatch.from_envelopes([
        Envelope(ANY_SOURCE, 0),   # takes msg 0, the head of class a
        Envelope(*a),              # must skip msg 0 -> msg 1
        Envelope(*b),              # msg 2
        Envelope(ANY_SOURCE, 0),   # msgs 0-2 consumed -> msg 3
        Envelope(*a),              # class a exhausted -> no match
        Envelope(ANY_SOURCE, ANY_TAG),  # msg 4, the last one
    ])
    out, ledger = _join_and_scalar(msgs, reqs)
    assert out.tolist() == [0, 1, 2, 3, -1, 4]
    assert _reduce_columns_visited(ledger) == 6
    pedantic = MatrixMatcher().match_pedantic(msgs, reqs)
    assert np.array_equal(pedantic.request_to_message, out)


def test_rank_join_early_exit_inside_concrete_run():
    """4-message blocks: each block's last message is consumed by a
    concrete column followed by more concrete columns, which that block
    never visits and the next block resolves."""
    a, b, c = Envelope(0, 0), Envelope(1, 0), Envelope(2, 0)
    msgs = EnvelopeBatch.from_envelopes([a, b, a, b, a, a, b, b])
    reqs = EnvelopeBatch.from_envelopes([a, a, c, b, b, a, b, a, b, a])
    out, ledger = _join_and_scalar(msgs, reqs, warps_per_cta=1, warp_size=4)
    assert out.tolist() == [0, 2, -1, 1, 3, 4, 6, 5, 7, -1]
    # block 0 stops at column 4 (5 visited); block 1 walks the 6 columns
    # left open and stops at column 8 -- before column 9 (5 visited)
    assert _reduce_columns_visited(ledger) == 5 + 5


def test_rank_join_extreme_field_values():
    """Class keys stay distinct at the field limits: communicators at and
    above 2**15 (the sign bit of a packed int64 word), the largest
    source and tag, with wildcards."""
    rng = np.random.default_rng(5)
    n = 300
    msgs = EnvelopeBatch(rng.choice([0, MAX_SRC], n),
                         rng.choice([0, MAX_TAG], n),
                         rng.choice([0, 2 ** 15, MAX_COMM], n))
    exact = msgs.take(rng.permutation(n))
    reqs = EnvelopeBatch(
        np.where(rng.random(n) < 0.2, ANY_SOURCE, exact.src),
        np.where(rng.random(n) < 0.2, ANY_TAG, exact.tag), exact.comm)
    out, _ = _join_and_scalar(msgs, reqs, warps_per_cta=2)
    assert np.count_nonzero(out != -1) > n // 2


@pytest.mark.parametrize("workload", ["wildcard", "duplicate"])
@pytest.mark.parametrize("n", [96, 1536])
def test_obs_metrics_equal_scalar(workload, n):
    """Observability sees the same blocks, vote occupancy, visited columns
    and matches whichever reduce resolves the blocks."""
    msgs, reqs = WORKLOADS[workload](n, seed=1)
    snaps = {}
    for impl in ("batched", "scalar"):
        obs = Observability.enabled()
        MatrixMatcher(reduce_impl=impl, obs=obs).match(msgs, reqs)
        snaps[impl] = obs.snapshot()
    assert snaps["batched"] == snaps["scalar"]
    metrics = snaps["batched"]
    for name in ("matrix.blocks", "matrix.columns_visited",
                 "matrix.matches"):
        assert metrics["counters"][name] > 0
    assert metrics["histograms"]["matrix.vote_occupancy"]["count"] == \
        metrics["counters"]["matrix.blocks"]


# -- fast path vs pedantic simulator ------------------------------------------


@pytest.mark.parametrize("workload", ["random", "wildcard", "reversed"])
@pytest.mark.parametrize("n", [48, 96, 160])
def test_matrix_fast_matches_pedantic(workload, n):
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    matcher = MatrixMatcher(warps_per_cta=2, window=8)
    fast = matcher.match(msgs, reqs)
    pedantic = matcher.match_pedantic(msgs, reqs)
    assert np.array_equal(fast.request_to_message,
                          pedantic.request_to_message)
    assert fast.matched_count == pedantic.matched_count


# -- partitioned matcher rides the same reduce --------------------------------


@pytest.mark.parametrize("workload", ["random", "ordered", "partial"])
@pytest.mark.parametrize("n", [513, 1536])
def test_partitioned_batched_equals_scalar(workload, n):
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    fast = PartitionedMatcher(n_queues=4, reduce_impl="batched").match(
        msgs, reqs)
    slow = PartitionedMatcher(n_queues=4, reduce_impl="scalar").match(
        msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.iterations == slow.iterations


# -- hash matcher: precomputed slots ------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 64, 300, 2000])
def test_hash_precompute_equals_reference(n):
    msgs, reqs = matching_workload(n, seed=0)
    fast = HashMatcher(precompute_slots=True).match(msgs, reqs)
    slow = HashMatcher(precompute_slots=False).match(msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.iterations == slow.iterations


def test_hash_precompute_equals_reference_duplicates():
    # heavy duplicate keys drive the eviction/offset-probing paths
    src = np.zeros(200, dtype=np.int64)
    tag = np.repeat(np.arange(10), 20).astype(np.int64)
    comm = np.zeros(200, dtype=np.int64)
    msgs = EnvelopeBatch(src, tag, comm)
    reqs = msgs.take(np.random.default_rng(0).permutation(200))
    fast = HashMatcher(precompute_slots=True).match(msgs, reqs)
    slow = HashMatcher(precompute_slots=False).match(msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.matched_count == 200


# -- vectorized atomic CAS ----------------------------------------------------


def _scalar_cas_reference(data, addrs, expected, desired, active):
    """The pre-vectorization per-lane loop, lowest lane first."""
    success = np.zeros(addrs.size, dtype=bool)
    for i in range(addrs.size):
        if not active[i]:
            continue
        if data[addrs[i]] == expected[i]:
            data[addrs[i]] = desired[i]
            success[i] = True
    return success


@pytest.mark.parametrize("seed", range(20))
def test_atomic_cas_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    mem = GlobalMemory(16)
    mem.data[:] = rng.integers(0, 3, size=16)
    ref_data = mem.data.copy()
    addrs = rng.integers(0, 16, size=32)
    expected = rng.integers(0, 3, size=32)
    desired = rng.integers(10, 20, size=32)
    active = rng.random(32) < 0.8
    success = mem.atomic_cas(addrs, expected, desired, active=active)
    ref_success = _scalar_cas_reference(ref_data, addrs, expected, desired,
                                        active)
    assert np.array_equal(success, ref_success)
    assert np.array_equal(mem.data, ref_data)


def test_atomic_cas_chains_same_address():
    """A later lane whose expected equals an earlier lane's desired value
    must still win: same-address lanes replay against updated memory."""
    mem = GlobalMemory(4)
    addrs = np.array([1, 1, 1])
    expected = np.array([0, 7, 9])
    desired = np.array([7, 9, 11])
    success = mem.atomic_cas(addrs, expected, desired)
    assert success.all()
    assert mem.data[1] == 11


# -- blockwise scan memory bound ----------------------------------------------


def _obs_pair(factory, msgs, reqs):
    """Run the same matcher with and without observability attached and
    return both outcomes (obs run first so tracer state can't leak)."""
    traced = factory(Observability.enabled()).match(msgs, reqs)
    plain = factory(None).match(msgs, reqs)
    return traced, plain


@pytest.mark.parametrize("factory,workload", [
    (lambda obs: MatrixMatcher(obs=obs), "random"),
    (lambda obs: MatrixMatcher(obs=obs), "wildcard"),
    (lambda obs: MatrixMatcher(obs=obs), "partial"),
    # partitioned matching rejects the ANY_SOURCE workload by design
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "random"),
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "ordered"),
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "partial"),
], ids=["matrix-random", "matrix-wildcard", "matrix-partial",
        "partitioned-random", "partitioned-ordered", "partitioned-partial"])
def test_obs_attachment_is_bit_identical(workload, factory):
    """The zero-overhead-when-off contract's flip side: attaching the
    observability layer must not perturb the *model* -- same assignment,
    same modeled cycles, same iteration count."""
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    traced, plain = _obs_pair(factory, msgs, reqs)
    assert np.array_equal(traced.request_to_message,
                          plain.request_to_message)
    assert traced.cycles == plain.cycles
    assert traced.iterations == plain.iterations
    assert traced.matched_count == plain.matched_count


@pytest.mark.parametrize("workload", ["random", "partial"])
def test_obs_attachment_is_bit_identical_hash(workload):
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    traced, plain = _obs_pair(lambda obs: HashMatcher(obs=obs), msgs, reqs)
    assert np.array_equal(traced.request_to_message,
                          plain.request_to_message)
    assert traced.cycles == plain.cycles
    assert traced.iterations == plain.iterations


def test_obs_attachment_preserves_ledger():
    """The cost ledger -- per-phase op totals -- is part of the model
    output too; the tracer must never add or merge phases."""
    msgs, reqs = WORKLOADS["random"](700, seed=2)
    obs_ledger, plain_ledger = CostLedger(), CostLedger()
    out_obs, it_obs = MatrixMatcher(obs=Observability.enabled()).execute(
        msgs, reqs, obs_ledger)
    out_plain, it_plain = MatrixMatcher().execute(msgs, reqs, plain_ledger)
    assert np.array_equal(out_obs, out_plain)
    assert it_obs == it_plain
    assert ledger_signature(obs_ledger) == ledger_signature(plain_ledger)


# -- sanitizer: zero overhead when off, bit-identical when on ------------------


@pytest.mark.parametrize("workload", ["random", "wildcard", "reversed"])
@pytest.mark.parametrize("n", [96, 160])
def test_sanitize_attachment_is_bit_identical_matrix_pedantic(workload, n):
    """Attaching the sanitizer must not perturb the model: the pedantic
    path's match vector, modeled cycles, and per-phase ledger totals are
    identical with and without the analysis pass (and the shipped kernel
    is clean, so nothing is even recorded)."""
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    kw = dict(warps_per_cta=2, window=8)
    san = Sanitizer()
    inst = MatrixMatcher(sanitize=san, **kw).match_pedantic(msgs, reqs)
    plain = MatrixMatcher(**kw).match_pedantic(msgs, reqs)
    assert san.report.clean, san.report.summary()
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles
    assert inst.iterations == plain.iterations


@pytest.mark.parametrize("n", [64, 300])
def test_sanitize_attachment_is_bit_identical_hash_pedantic(n):
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = matching_workload(n, seed=1)
    san = Sanitizer()
    inst = HashMatcher(sanitize=san).match_pedantic(msgs, reqs)
    plain = HashMatcher().match_pedantic(msgs, reqs)
    assert san.report.clean, san.report.summary()
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles


@pytest.mark.parametrize("factory,workload", [
    (lambda san: MatrixMatcher(sanitize=san), "random"),
    (lambda san: MatrixMatcher(sanitize=san), "wildcard"),
    (lambda san: PartitionedMatcher(n_queues=4, sanitize=san), "ordered"),
    (lambda san: HashMatcher(sanitize=san), "partial"),
], ids=["matrix-random", "matrix-wildcard", "partitioned-ordered",
        "hash-partial"])
def test_sanitize_attachment_is_bit_identical_fast_paths(factory, workload):
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    san = Sanitizer()
    inst = factory(san).match(msgs, reqs)
    plain = factory(None).match(msgs, reqs)
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles
    assert inst.iterations == plain.iterations


def test_sanitize_attachment_preserves_pedantic_ledger():
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS["random"](160, seed=2)
    kw = dict(warps_per_cta=2, window=8)
    san = Sanitizer()
    inst = MatrixMatcher(sanitize=san, **kw).match_pedantic(msgs, reqs)
    plain = MatrixMatcher(**kw).match_pedantic(msgs, reqs)
    assert inst.cycles == plain.cycles
    assert san.report.clean


def test_blockwise_scan_memory_bound():
    """Matching 10^5 messages must not materialize the dense
    n_msg x n_req matrix: peak extra memory is O(block x n_req)."""
    n_msg, n_req = 100_000, 4_096
    msgs = EnvelopeBatch(np.arange(n_msg, dtype=np.int64) % 30_000,
                         np.arange(n_msg, dtype=np.int64) // 30_000,
                         np.zeros(n_msg, dtype=np.int64))
    # request k targets message k*24 exactly (unique envelope per message)
    want = np.arange(n_req, dtype=np.int64) * 24
    reqs = msgs.take(want)
    matcher = MatrixMatcher()
    ledger = CostLedger()
    tracemalloc.start()
    out, iterations = matcher.execute(msgs, reqs, ledger)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.array_equal(out, want)
    assert iterations == 98  # ceil(100_000 / 1024): all blocks were scanned
    dense_bytes = n_msg * n_req  # the full bool match matrix
    assert peak < dense_bytes / 4
    assert peak < 100 * 2 ** 20
