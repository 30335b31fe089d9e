"""Queue reconstruction from traces (the Figure 2 analysis).

"Based on the trace files, we reconstruct the queues to assess their
maximum length at any matching attempt" (Section IV-A).  This module
replays a :class:`~repro.traces.events.Trace` through per-rank UMQ/PRQ
pairs with full MPI matching semantics and records depth statistics.

The replay is an *analysis tool* (the paper used Python/R scripts for
the same job), so unlike the GPU matchers it is free to use indexed
lookups: messages and requests are bucketed by their concrete fields
with lazy deletion, making the replay O(events) even for the NEKBONE /
MultiGrid traces whose queues reach thousands of entries.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .events import BARRIER, SEND, Trace

__all__ = ["QueueDepthStats", "RankReplay", "replay", "figure2_summary"]

_WILD = -1


@dataclass
class QueueDepthStats:
    """Depth observations of one queue during replay."""

    max_depth: int = 0
    _sum: int = 0
    _n: int = 0

    def observe(self, depth: int) -> None:
        self.max_depth = max(self.max_depth, depth)
        self._sum += depth
        self._n += 1

    @property
    def mean_depth(self) -> float:
        return self._sum / self._n if self._n else 0.0

    @property
    def attempts(self) -> int:
        return self._n


class _IndexedQueue:
    """Order-preserving matching queue with bucketed lookup.

    Entries carry a monotonically increasing sequence number (queue
    order).  ``find_earliest(keys)`` returns the live entry with the
    smallest sequence number among any of the candidate buckets --
    exactly "first match in queue order" without a linear walk.
    Removal is lazy: buckets keep stale heads that are skipped on access.
    """

    def __init__(self) -> None:
        self._buckets: dict = defaultdict(deque)
        self._live: set[int] = set()
        self._meta: dict[int, tuple] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._live)

    def add(self, keys: tuple, meta: tuple = ()) -> int:
        """Insert an entry reachable under each of ``keys``."""
        seq = self._next_seq
        self._next_seq += 1
        for key in keys:
            self._buckets[key].append(seq)
        self._live.add(seq)
        self._meta[seq] = meta
        return seq

    def find_earliest(self, keys: tuple) -> int | None:
        """Smallest live sequence number reachable under any key."""
        best = None
        for key in keys:
            bucket = self._buckets.get(key)
            if not bucket:
                continue
            while bucket and bucket[0] not in self._live:
                bucket.popleft()  # lazy deletion
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        return best

    def remove(self, seq: int) -> tuple:
        """Remove an entry; returns its metadata."""
        self._live.discard(seq)
        return self._meta.pop(seq)


@dataclass
class RankReplay:
    """Replay state and statistics of one rank."""

    rank: int
    umq: _IndexedQueue = field(default_factory=_IndexedQueue)
    prq: _IndexedQueue = field(default_factory=_IndexedQueue)
    umq_stats: QueueDepthStats = field(default_factory=QueueDepthStats)
    prq_stats: QueueDepthStats = field(default_factory=QueueDepthStats)
    unexpected_total: int = 0
    expected_total: int = 0

    # -- event handlers ---------------------------------------------------------

    def on_message(self, src: int, tag: int, comm: int) -> None:
        """A message arrived: search the PRQ, else join the UMQ."""
        self.umq_stats.observe(len(self.umq))
        self.prq_stats.observe(len(self.prq))
        # a message can satisfy any of the four request wildcard forms
        candidates = ((src, tag, comm), (src, _WILD, comm),
                      (_WILD, tag, comm), (_WILD, _WILD, comm))
        seq = self.prq.find_earliest(candidates)
        if seq is not None:
            self.prq.remove(seq)
            self.expected_total += 1
        else:
            self.umq.add(((src, tag, comm),))
            self.unexpected_total += 1

    def on_post(self, src: int, tag: int, comm: int) -> None:
        """A receive was posted: search the UMQ, else join the PRQ."""
        self.umq_stats.observe(len(self.umq))
        self.prq_stats.observe(len(self.prq))
        if src != _WILD and tag != _WILD:
            candidates = ((src, tag, comm),)
        else:
            # wildcard requests scan every message bucket they reach; the
            # indexed queue needs the message-side key, which is concrete,
            # so wildcard forms fall back to a filtered linear candidate
            # set over bucket keys.
            candidates = tuple(
                key for key in self.umq._buckets
                if key[2] == comm
                and (src == _WILD or key[0] == src)
                and (tag == _WILD or key[1] == tag))
        seq = self.umq.find_earliest(candidates)
        if seq is not None:
            self.umq.remove(seq)
        else:
            keys = ((src, tag, comm),)
            self.prq.add(keys)

    def summary(self) -> dict:
        """Per-rank statistics dictionary."""
        return {
            "rank": self.rank,
            "umq_max": self.umq_stats.max_depth,
            "umq_mean": self.umq_stats.mean_depth,
            "prq_max": self.prq_stats.max_depth,
            "prq_mean": self.prq_stats.mean_depth,
            "unexpected": self.unexpected_total,
            "expected": self.expected_total,
            "attempts": self.umq_stats.attempts,
        }


def replay(trace: Trace) -> list[RankReplay]:
    """Replay a trace; returns per-rank replay states with statistics.

    Sends are delivered to the destination instantly (the GAS write
    model), so arrival order equals global trace order -- which preserves
    pair ordering, the property MPI matching needs.
    """
    ranks = [RankReplay(rank=r) for r in range(trace.n_ranks)]
    # barriers carry no queue traffic
    live = trace.kind != BARRIER
    rows = zip(*(trace.columns[name][live].tolist()
                 for name in ("kind", "rank", "peer", "tag", "comm")))
    for kind, rank, peer, tag, comm in rows:
        if kind == SEND:
            ranks[peer].on_message(rank, tag, comm)
        else:
            ranks[rank].on_post(peer, tag, comm)
    return ranks


def figure2_summary(trace: Trace) -> dict:
    """The Figure 2 statistic set for one application trace.

    Returns mean/median/max across ranks of the per-rank maximum queue
    depths, for both UMQ and PRQ.
    """
    states = replay(trace)
    umq_max = np.array([s.umq_stats.max_depth for s in states])
    prq_max = np.array([s.prq_stats.max_depth for s in states])
    return {
        "app": trace.app,
        "n_ranks": trace.n_ranks,
        "umq_max_mean": float(umq_max.mean()),
        "umq_max_median": float(np.median(umq_max)),
        "umq_max_max": int(umq_max.max()),
        "prq_max_mean": float(prq_max.mean()),
        "prq_max_median": float(np.median(prq_max)),
        "prq_max_max": int(prq_max.max()),
        "unexpected_fraction": (
            sum(s.unexpected_total for s in states)
            / max(1, sum(s.unexpected_total + s.expected_total
                         for s in states))),
    }
