"""The paper's MPI-compliant matrix matching algorithm (Section V).

Two-phase structure:

**Scan** (Algorithm 1, parallel): each thread owns one message; for every
receive request in the current *window* the warp votes via ``ballot``
whether its lanes' messages match, and writes the resulting 32-bit vector
into a (warps x window) vote matrix in shared memory.

**Reduce** (Algorithm 2, sequential over columns): one warp walks the
columns (receive requests) in posted order.  Each lane holds one warp-row
of the matrix and a 32-bit *mask* of its still-unmatched messages.  A
``ballot`` finds which lanes still have candidates; ``ffs`` picks the
lowest lane (earliest warp), and a second ``ffs`` picks the lowest bit
(earliest message within the warp) -- preserving MPI's non-overtaking
order.  The winning message's mask bit is cleared so it cannot be matched
again.

Both phases pipeline: while the reduce warp drains one window of columns,
the scan warps fill the next.  The pipelining collapses at 1024 messages
(all 32 warps needed for scan), which is the performance knee in Figure 4.

Two interchangeable implementations are provided:

* :meth:`MatrixMatcher.match` -- host fast path.  The modeled GPU still
  scans and reduces column by column, but the host resolves each message
  block by a **rank join** and never builds the vote matrix: the reduce's
  ffs pick is "the lowest-index still-unconsumed message the column
  accepts", and without wildcards every (comm, src, tag) tuple class is
  an independent FIFO queue (Section VI).  The block's messages are
  bucketed by packed key in index order; the open columns are walked in
  posted order, a concrete column taking the head of its class and a
  wildcard column the head of the bucket of messages that agree on its
  non-wildcard fields (buckets of consumed messages are skipped); the
  walk stops at the column that consumes the block's last message.  The
  walk yields each block's ``(visited, matched)`` counts, from which the
  scan and reduce costs are charged analytically with one ``add`` per op
  kind -- totals bit-identical to per-column charging.  Used by
  benchmarks.  The vote matrix of a block is built only when
  observability is attached (for ``matrix.vote_occupancy``).
* :meth:`MatrixMatcher.match_pedantic` -- executes Algorithms 1 and 2
  verbatim on the :class:`~repro.simt.cta.CTA` / :class:`~repro.simt.warp.Warp`
  simulator, one warp instruction at a time.  Used by tests to validate
  the fast path (identical assignments).

The per-column vote-matrix reduce is retained as ``reduce_impl="scalar"``
and is asserted bit-identical (match vector and per-op ledger totals) to
the rank join by ``tests/core/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..simt.cta import CTA, MAX_WARPS_PER_CTA
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from ..simt.memory import SMEM_WORD_BYTES
from ..simt.timing import CostLedger, TimingModel
from ..simt.warp import WARP_SIZE, ffs32, full_active
from .envelope import ANY_SOURCE, ANY_TAG, MAX_SRC, MAX_TAG, EnvelopeBatch
from .result import NO_MATCH, MatchOutcome

__all__ = ["MatrixMatcher", "DEFAULT_WINDOW"]

#: Receive-request columns scanned per pipeline stage.  32 warps x 64
#: columns of int32 votes = 8 KiB of shared memory per buffer; double
#: buffering for the scan/reduce pipeline stays well under the 48 KiB
#: per-CTA limit.
DEFAULT_WINDOW = 64

#: Bits of a packed ``comm:16 | src:32 | tag:16`` key that a request
#: compares, indexed by its wildcard family ``any_source + 2 * any_tag``.
_FAMILY_MASKS = (
    (1 << 64) - 1,
    ((1 << 64) - 1) ^ (MAX_SRC << 16),
    ((1 << 64) - 1) ^ MAX_TAG,
    ((1 << 64) - 1) ^ ((MAX_SRC << 16) | MAX_TAG),
)


@dataclass
class _PhasePlan:
    """Per-iteration bookkeeping shared by cost accounting and tests."""

    n_block_msgs: int
    n_warps: int
    n_columns: int
    n_chunks: int


class MatrixMatcher:
    """MPI-compliant GPU matching (scan + ordered reduce).

    Parameters
    ----------
    spec:
        Simulated device (default: the paper's Pascal GTX 1080).
    warps_per_cta:
        Scan warps, i.e. matrix height; 32 (=1024 messages/iteration) in
        the paper.
    window:
        Columns per pipeline stage.
    compaction:
        Append a queue-compaction pass after matching (prefix scan +
        moves).  The paper measures this at roughly 10% of the matching
        rate; it is required whenever unexpected messages exist, and
        skippable under the *no unexpected messages* relaxation.
    compaction_policy:
        ``"always"`` or ``"adaptive"``.  Adaptive implements the paper's
        remark "in cases when the number of matches is very low, the
        bubbles can be tolerated and the compaction can be skipped": the
        pass only runs when at least :data:`COMPACTION_MIN_FRACTION` of
        the requests matched.
    warp_size:
        Lanes per warp.  32 on all real generations; smaller values model
        the *variable warp size* architectural feature the paper endorses
        for short queues (Section VII-C): narrow warps waste fewer lanes
        on queues shorter than 32 and let more matrix rows pack into the
        same thread budget.
    reduce_impl:
        ``"batched"`` (default) resolves each message block by the
        tuple-class rank join, without a vote matrix; ``"scalar"`` builds
        the block's vote matrix and walks it column by column with the
        ffs picks of Algorithm 2, kept as the bit-identical reference for
        equivalence tests.  Both produce the same matches and the same
        ledger totals.
    obs:
        Optional :class:`~repro.obs.Observability` handle.  When absent
        (default) the hot path takes a single ``is None`` branch and the
        outcome -- match vector, ledger, cycles -- is bit-identical.
    sanitize:
        Optional :class:`~repro.simt.sanitize.Sanitizer`; ``None``
        (default) falls back to ``spec.sanitize``.  Threaded the same way
        as ``obs`` -- the instrumented pedantic path is bit-identical
        when off.  The fast path is analytic (no simulated memories), so
        the sanitizer observes the pedantic execution.
    """

    name = "matrix"

    def __init__(self, spec: GPUSpec = PASCAL_GTX1080,
                 warps_per_cta: int = MAX_WARPS_PER_CTA,
                 window: int = DEFAULT_WINDOW,
                 compaction: bool = False,
                 warp_size: int = WARP_SIZE,
                 compaction_policy: str = "always",
                 reduce_impl: str = "batched",
                 obs=None, sanitize=None) -> None:
        if compaction_policy not in ("always", "adaptive"):
            raise ValueError("compaction_policy must be 'always' or "
                             "'adaptive'")
        if reduce_impl not in ("batched", "scalar"):
            raise ValueError("reduce_impl must be 'batched' or 'scalar'")
        if not 1 <= warps_per_cta <= MAX_WARPS_PER_CTA:
            raise ValueError("warps_per_cta must be in [1, 32]")
        if window < 1:
            raise ValueError("window must be positive")
        if not 1 <= warp_size <= WARP_SIZE:
            raise ValueError(f"warp_size must be in [1, {WARP_SIZE}]")
        # double-buffered vote matrix must fit the CTA's shared memory:
        # 2 buffers x warps x window x 4-byte vote words
        smem_needed = 2 * warps_per_cta * window * SMEM_WORD_BYTES
        if smem_needed > spec.shared_mem_per_cta:
            raise ValueError(
                f"window {window} needs {smem_needed} B of shared memory "
                f"for the double-buffered vote matrix; {spec.name} allows "
                f"{spec.shared_mem_per_cta} B per CTA")
        self.spec = spec
        self.warps_per_cta = warps_per_cta
        self.window = window
        self.compaction = compaction
        self.compaction_policy = compaction_policy
        self.warp_size = warp_size
        self.reduce_impl = reduce_impl
        self._obs = obs
        self._san = sanitize if sanitize is not None else spec.sanitize
        self._model = TimingModel(spec)

    # -- public API ------------------------------------------------------------

    @property
    def messages_per_iteration(self) -> int:
        """Matrix capacity: one message per thread."""
        return self.warps_per_cta * self.warp_size

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Match with the vectorized fast path and price the execution."""
        ledger = CostLedger()
        out, iterations = self.execute(messages, requests, ledger)
        return self._finish(out, len(messages), len(requests), ledger,
                            iterations=iterations)

    def execute(self, messages: EnvelopeBatch, requests: EnvelopeBatch,
                ledger: CostLedger) -> tuple[np.ndarray, int]:
        """Fast-path matching, charging costs into a caller-owned ledger.

        Used directly by :class:`~repro.core.partitioned.PartitionedMatcher`,
        which prices several queue ledgers jointly.  Returns the
        request->message vector and the iteration (message block) count.
        """
        messages.assert_concrete("message queue")
        n_msg, n_req = len(messages), len(requests)
        out = np.full(n_req, NO_MATCH, dtype=np.int64)
        if n_msg == 0 or n_req == 0:
            return out, 0

        block = self.messages_per_iteration
        n_blocks = math.ceil(n_msg / block)
        scalar = self.reduce_impl == "scalar"
        if scalar:
            unmatched_cols = np.ones(n_req, dtype=bool)
        else:
            msg_keys, _ = _class_keys(messages)
            req_keys, families = _class_keys(requests)
        cols = list(range(n_req))          # open columns, posted order
        hit_cols: list[int] = []
        hit_msgs: list[int] = []

        for b in range(n_blocks):
            lo, hi = b * block, min((b + 1) * block, n_msg)
            plan = self._plan(hi - lo, len(cols))
            if scalar or self._obs is not None:
                # Blockwise scan: only this block's rows and only the
                # still open columns are materialized.
                open_idx = np.asarray(cols, dtype=np.int64)
                block_mtx = messages.match_block(requests[open_idx], lo, hi)
            if self._obs is not None:
                self._obs.count("matrix.blocks")
                if block_mtx.size:
                    self._obs.observe(
                        "matrix.vote_occupancy",
                        float(np.count_nonzero(block_mtx)) / block_mtx.size)
            if scalar:
                votes = _pack_block_votes(block_mtx, plan.n_warps,
                                          self.warp_size)
                visited = self._reduce_block_scalar(
                    votes, open_idx, unmatched_cols, out, lo, ledger, plan)
                cols = open_idx[unmatched_cols[open_idx]].tolist()
            else:
                reduce_phase = ledger.phase(
                    "reduce", active_warps=1,
                    overlap_group=self._overlap_group(plan))
                visited, matched, cols = _rank_join(
                    msg_keys, lo, hi, cols, req_keys, families,
                    hit_cols, hit_msgs)
                self._charge_reduce(reduce_phase, visited, matched)
            if self._obs is not None:
                self._obs.count("matrix.columns_visited", float(visited))
            # The scan pipeline only fills the windows the reduce actually
            # consumed: once every message of the block is matched the
            # remaining columns are skipped (this is why an in-order
            # receive queue is cheap beyond 1024 entries and a reversed
            # one is not -- Section V-B).
            scanned = min(plan.n_columns,
                          math.ceil(visited / self.window) * self.window)
            self._charge_scan(ledger, self._plan(hi - lo, scanned))
            if not cols:
                break
        if hit_cols:
            out[hit_cols] = hit_msgs
        if self.compaction and self._should_compact(out, n_req):
            self._charge_compaction(ledger, n_msg, n_req)
        return out, n_blocks

    #: Minimum matched fraction below which adaptive compaction tolerates
    #: the bubbles and skips the pass (Section V-A).
    COMPACTION_MIN_FRACTION = 0.25

    def _should_compact(self, out: np.ndarray, n_req: int) -> bool:
        if self.compaction_policy == "always":
            return True
        matched = int(np.count_nonzero(out != NO_MATCH))
        return matched >= self.COMPACTION_MIN_FRACTION * max(1, n_req)

    # -- fast-path internals -----------------------------------------------------

    def _plan(self, n_block_msgs: int, n_open_columns: int) -> _PhasePlan:
        n_warps = math.ceil(n_block_msgs / self.warp_size)
        n_chunks = math.ceil(n_open_columns / self.window) if n_open_columns else 0
        return _PhasePlan(n_block_msgs=n_block_msgs, n_warps=n_warps,
                          n_columns=n_open_columns, n_chunks=n_chunks)

    def _charge_reduce(self, reduce_phase, visited: int,
                       matched: int) -> None:
        """Batched cost accounting: one add per op kind per block.

        The totals are identical to charging per column (smem_load,
        ballot, 4 alu, branch per visited column; 3 alu, smem_store per
        match).
        """
        reduce_phase.add("smem_load", float(visited))
        reduce_phase.add("ballot", float(visited))
        reduce_phase.add("alu", 4.0 * visited + 3.0 * matched)
        reduce_phase.add("branch", float(visited))
        if matched:
            reduce_phase.add("smem_store", float(matched))
        # Results stage in shared memory and flush coalesced per window
        # chunk, so per-column cost barely depends on whether it matched
        # ("performance decreases linearly with the number of matched
        # messages": rate ~ matches, time ~ columns).
        reduce_phase.add("gmem_store",
                         2.0 * math.ceil(max(1, visited) / self.window))

    def _reduce_block_scalar(self, votes: np.ndarray, open_idx: np.ndarray,
                             unmatched_cols: np.ndarray, out: np.ndarray,
                             msg_base: int, ledger: CostLedger,
                             plan: _PhasePlan) -> int:
        """Pre-batching per-column reduce, kept as the reference
        implementation for the equivalence suite.  Returns the number of
        columns visited before the block's messages were exhausted."""
        n_warps = votes.shape[0]
        block_msgs = plan.n_block_msgs
        mask = np.full(n_warps, (1 << self.warp_size) - 1, dtype=np.int64)
        reduce_phase = ledger.phase("reduce", active_warps=1,
                                    overlap_group=self._overlap_group(plan))
        visited = 0
        matched_in_block = 0
        for c in range(open_idx.size):
            visited += 1
            # lane loads, masked vote, ballot over lanes with candidates
            masked = votes[:, c] & mask
            reduce_phase.add("smem_load", 1)
            reduce_phase.add("ballot", 1)
            reduce_phase.add("alu", 4)
            reduce_phase.add("branch", 1)
            bidders = np.nonzero(masked)[0]
            if bidders.size:
                w = int(bidders[0])              # ffs over the lane ballot
                lane = ffs32(int(masked[w])) - 1  # ffs within the vote word
                j = open_idx[c]
                out[j] = msg_base + w * self.warp_size + lane
                mask[w] &= ~(1 << lane)
                unmatched_cols[j] = False
                reduce_phase.add("alu", 3)
                reduce_phase.add("smem_store", 1)
                matched_in_block += 1
                if matched_in_block == block_msgs:
                    break  # every message of this block is consumed
        reduce_phase.add("gmem_store",
                         2.0 * math.ceil(max(1, visited) / self.window))
        return visited

    def _overlap_group(self, plan: _PhasePlan) -> str | None:
        """Scan/reduce pipelining: possible only while spare warps exist.

        With all 32 warps scanning (1024-message iterations) the reduce
        cannot be overlapped any more -- the Figure 4 knee.
        """
        return "pipeline" if plan.n_warps < MAX_WARPS_PER_CTA else None

    def _charge_scan(self, ledger: CostLedger, plan: _PhasePlan) -> None:
        """Analytic cost of Algorithm 1 for one message block.

        Per warp: one coalesced 64-bit load of its 32 message envelopes
        (2 x 128 B transactions), then per scanned column a broadcast
        request load (staged through shared memory by the prefetcher), a
        64-bit compare, the ballot, and the vote-matrix store.
        """
        scan = ledger.phase("scan", active_warps=max(1, plan.n_warps),
                            overlap_group=self._overlap_group(plan))
        w, c = plan.n_warps, plan.n_columns
        scan.add("gmem_load", 2 * w)
        scan.add("smem_load", float(w * c))
        scan.add("alu", float(w * c))
        scan.add("ballot", float(w * c))
        scan.add("smem_store", float(w * c))
        # Pipeline handoff barrier per window chunk.
        scan.add("sync", float(plan.n_chunks))

    def _charge_compaction(self, ledger: CostLedger, n_msg: int,
                           n_req: int) -> None:
        """Queue compaction after matching (both queues), at CTA width.

        The paper measures the overall impact at about 10% of the
        matching rate.
        """
        from .compaction import charge_compaction
        charge_compaction(ledger, n_msg + n_req, max_warps=self.warps_per_cta)

    def _finish(self, out: np.ndarray, n_msg: int, n_req: int,
                ledger: CostLedger, iterations: int) -> MatchOutcome:
        timing = self._model.evaluate(ledger)
        if self._obs is not None:
            matched = int(np.count_nonzero(out != NO_MATCH))
            self._obs.count("matrix.matches", float(matched))
            self._obs.match_span(
                "matrix.match", timing.seconds, timing.per_phase_cycles,
                self.spec.clock_hz, n_messages=n_msg, n_requests=n_req,
                matched=matched, iterations=max(1, iterations))
        return MatchOutcome(
            request_to_message=out, n_messages=n_msg, n_requests=n_req,
            seconds=timing.seconds, cycles=timing.cycles,
            iterations=max(1, iterations),
            meta={"phase_cycles": timing.per_phase_cycles,
                  "device": self.spec.name,
                  "warps_per_cta": self.warps_per_cta,
                  "window": self.window,
                  "warp_size": self.warp_size,
                  "compaction": self.compaction})

    # -- pedantic path -------------------------------------------------------------

    def match_pedantic(self, messages: EnvelopeBatch,
                       requests: EnvelopeBatch) -> MatchOutcome:
        """Execute Algorithms 1-2 verbatim on the warp simulator.

        Functionally identical to :meth:`match`; costs are recorded by the
        :class:`~repro.simt.warp.Warp` primitives themselves.  Intended for
        validation at small sizes (it loops in Python per warp per column).
        """
        if self.warp_size != WARP_SIZE:
            raise ValueError("the pedantic path executes physical 32-lane "
                             "warps; variable warp sizes are fast-path only")
        messages.assert_concrete("message queue")
        n_msg, n_req = len(messages), len(requests)
        out = np.full(n_req, NO_MATCH, dtype=np.int64)
        if n_msg == 0 or n_req == 0:
            ledger = CostLedger()
            return self._finish(out, n_msg, n_req, ledger, iterations=0)

        block = self.messages_per_iteration
        n_blocks = math.ceil(n_msg / block)
        unmatched = np.ones(n_req, dtype=bool)
        ledger = CostLedger()
        san = self._san
        if san is not None:
            prev_kernel = san.current_kernel
            san.current_kernel = "matrix.match_pedantic"

        for b in range(n_blocks):
            lo, hi = b * block, min((b + 1) * block, n_msg)
            n_block = hi - lo
            n_warps = math.ceil(n_block / WARP_SIZE)
            cta = CTA(num_warps=n_warps,
                      shared_words=n_warps * self.window, ledger=ledger,
                      cta_id=b, sanitize=san)
            cols = np.nonzero(unmatched)[0]
            plan = self._plan(n_block, cols.size)
            group = self._overlap_group(plan)
            # Per-lane message masks persist across window chunks: a message
            # matched in an earlier chunk must stay consumed for the rest of
            # the block (Algorithm 2 keeps the mask in registers).
            lanes = cta.warps[0].lanes
            holds_row = lanes < n_warps
            mask = np.where(holds_row, (1 << WARP_SIZE) - 1, 0).astype(np.int64)
            block_exhausted = False
            for chunk_start in range(0, cols.size, self.window):
                chunk = cols[chunk_start:chunk_start + self.window]
                self._pedantic_scan(cta, messages, requests,
                                    lo, n_block, chunk, group)
                cta.syncthreads()
                block_exhausted = self._pedantic_reduce(
                    cta, chunk, out, lo, unmatched, group, n_warps, mask,
                    holds_row, n_block)
                cta.syncthreads()
                if block_exhausted:
                    break  # all of this block's messages are consumed
        if san is not None:
            san.finalize()
            san.current_kernel = prev_kernel
        return self._finish(out, n_msg, n_req, ledger, iterations=n_blocks)

    def _pedantic_scan(self, cta: CTA, messages: EnvelopeBatch,
                       requests: EnvelopeBatch,
                       msg_base: int, n_block: int, chunk: np.ndarray,
                       group: str | None) -> None:
        """Algorithm 1: every warp votes its lanes' messages per column."""
        cta.ledger.phase("scan", active_warps=cta.num_warps,
                         overlap_group=group)
        for warp in cta.warps:
            lane_msg = msg_base + warp.warp_id * WARP_SIZE + warp.lanes
            in_range = lane_msg - msg_base < n_block
            warp.active = in_range.copy()
            warp._issue("gmem_load", 2)  # coalesced 64-bit envelope fetch
            for i, j in enumerate(chunk):
                req = requests[int(j)]
                warp._issue("smem_load", 1)  # broadcast request word
                pred = _accepts_vector(req, messages, lane_msg, in_range)
                warp._issue("alu", 1)
                vote = warp.ballot(pred)
                cta.shared.store(
                    np.array([warp.warp_id * self.window + i]),
                    np.array([vote]), warp_id=warp.warp_id)
            warp.active = full_active(WARP_SIZE)

    def _pedantic_reduce(self, cta: CTA, chunk: np.ndarray, out: np.ndarray,
                         msg_base: int, unmatched: np.ndarray,
                         group: str | None, n_warps: int,
                         mask: np.ndarray, holds_row: np.ndarray,
                         n_block: int) -> bool:
        """Algorithm 2: one warp reduces the chunk's columns in order.

        Returns True once every message of the block has been matched
        (the early-exit condition shared with the fast path)."""
        cta.ledger.phase("reduce", active_warps=1, overlap_group=group)
        warp = cta.warps[0]
        lanes = warp.lanes
        full = (1 << WARP_SIZE) - 1
        for i, j in enumerate(chunk):
            addrs = np.minimum(lanes, n_warps - 1) * self.window + i
            votes = cta.shared.load(addrs, warp_id=warp.warp_id)
            votes = np.where(holds_row, votes, 0)
            masked = warp.op(votes & mask, count=1)
            bidders = warp.ballot(masked != 0)
            warp.op(masked, count=3)  # ffs compare, index arithmetic, branch
            if bidders:
                w = ffs32(bidders) - 1
                lane_match = ffs32(int(masked[w])) - 1
                out[j] = msg_base + w * WARP_SIZE + lane_match
                mask[w] &= ~(1 << lane_match)
                unmatched[j] = False
                warp.op(masked, count=3)
                warp._issue("smem_store", 1)
                consumed = sum(
                    bin(full & ~int(m)).count("1")
                    for m, h in zip(mask, holds_row) if h)
                if consumed == n_block:
                    warp._issue("gmem_store", 2)
                    return True
        # coalesced flush of the chunk's staged results
        warp._issue("gmem_store", 2)
        return False


def _class_keys(batch: EnvelopeBatch) -> tuple[list[int], list[int]]:
    """Tuple-class keys of a batch and the wildcard families it uses.

    A key is the packed ``comm:16 | src:32 | tag:16`` word (as an
    unsigned int) with the wildcarded fields zeroed, plus the entry's
    wildcard family (``any_source + 2 * any_tag``) above bit 64, so one
    dict holds the buckets of every family without collisions.
    """
    any_src = batch.src == ANY_SOURCE
    any_tag = batch.tag == ANY_TAG
    wild = (any_src | any_tag).nonzero()[0]
    if not wild.size:
        words = (batch.comm << 48) | (batch.src << 16) | batch.tag
        return words.view(np.uint64).tolist(), [0]
    words = ((batch.comm << 48) | (np.where(any_src, 0, batch.src) << 16)
             | np.where(any_tag, 0, batch.tag))
    keys = words.view(np.uint64).tolist()
    family = any_src + 2 * any_tag.astype(np.int64)
    for c, f in zip(wild.tolist(), family[wild].tolist()):
        keys[c] |= f << 64
    return keys, np.unique(family).tolist()


def _rank_join(msg_keys: list[int], lo: int, hi: int, cols: list[int],
               req_keys: list[int], families: list[int],
               hit_cols: list[int], hit_msgs: list[int],
               ) -> tuple[int, int, list[int]]:
    """Resolve message block ``[lo, hi)`` against the open columns.

    Equals the sequential column reduce: each column, in posted order,
    takes the lowest-index still-unconsumed message it accepts.  The
    block's messages are bucketed by class key in index order, once per
    wildcard family the requests use, so that pick is the head of the
    column's bucket; a message consumed through one family's bucket is
    skipped when it reaches the head of another's.  The walk stops at the
    column that consumes the block's last message.  Matches are appended
    to ``hit_cols``/``hit_msgs``; returns ``(visited, matched, still
    open columns)``.
    """
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for f in families:
        mask, family = _FAMILY_MASKS[f], f << 64
        for i in range(hi - 1, lo - 1, -1):    # reversed: pop() is the head
            buckets[(msg_keys[i] & mask) | family].append(i)
    taken = bytearray(hi - lo)
    left = hi - lo
    still_open: list[int] = []
    for pos, c in enumerate(cols):
        bucket = buckets.get(req_keys[c])
        while bucket and taken[bucket[-1] - lo]:
            bucket.pop()
        if not bucket:
            still_open.append(c)
            continue
        i = bucket.pop()
        taken[i - lo] = 1
        hit_cols.append(c)
        hit_msgs.append(i)
        left -= 1
        if not left:
            return pos + 1, hi - lo, still_open + cols[pos + 1:]
    return len(cols), hi - lo - left, still_open


def _pack_block_votes(block_matrix: np.ndarray, n_warps: int,
                      warp_size: int = WARP_SIZE) -> np.ndarray:
    """Collapse a (block_msgs x n_req) boolean matrix into per-warp vote words.

    Accumulates one lane at a time so the largest temporary is a single
    (n_warps x n_req) int64 plane, not an (n_warps x warp_size x n_req)
    cube.  Only the first ``min(warp_size, block_msgs)`` lanes are
    visited: a lane at or beyond the block's message count sits in the
    zero padding of every warp and would contribute nothing, so a
    2-message block costs two lane steps, not ``warp_size``.
    """
    n_block, n_req = block_matrix.shape
    padded = np.zeros((n_warps * warp_size, n_req), dtype=bool)
    padded[:n_block] = block_matrix
    lanes = padded.reshape(n_warps, warp_size, n_req)
    votes = np.zeros((n_warps, n_req), dtype=np.int64)
    for lane in range(min(warp_size, n_block)):
        votes |= lanes[:, lane, :].astype(np.int64) << np.int64(lane)
    return votes


def _accepts_vector(req, messages: EnvelopeBatch, lane_msg: np.ndarray,
                    in_range: np.ndarray) -> np.ndarray:
    """Per-lane predicate: does ``req`` accept each lane's message?"""
    idx = np.where(in_range, lane_msg, 0)
    src_ok = (req.src == -1) | (messages.src[idx] == req.src)
    tag_ok = (req.tag == -1) | (messages.tag[idx] == req.tag)
    comm_ok = messages.comm[idx] == req.comm
    return src_ok & tag_ok & comm_ok & in_range
