"""Live workload profiling: Table I statistics over a tenant's stream.

The paper's core result is that the right matcher is a *function of
measurable workload properties*: Table I's per-application statistics
(wildcard usage, peer counts, communicator counts, queue depths, tuple
distributions) decide which Table II relaxation point is safe and
profitable.  This module computes the same statistics **online**, over a
sliding window of a tenant's flushed batches, so the autotuner can make
that decision continuously instead of once per application port.

The statistics mirror :mod:`repro.traces.analyzer` (the offline Table I
reconstruction) and reuse its entropy machinery; UMQ/PRQ depth proxies
come from the per-flush unmatched counts, exactly what the Figure 2
queue replay measures offline.

Statistics are computed when the window is *read*, not when a flush is
ingested: :meth:`StreamProfiler.ingest` only queues the flush's batches
and queue depths.  A queued flush's statistics fall into three tiers,
each computed on its first read and cached in the window entry:

* **counts** -- message and request counts, src/tag wildcard counts;
* **tuple** -- duplicate and hottest-tuple counts, from one
  ``np.unique`` over the packed key column;
* **sets** -- the peer, communicator and tag sets and the tag counts.

The autotuner reads only what its decision needs.  After each flush of
an autotuned tenant it asks :attr:`StreamProfiler.uses_wildcards` (the
counts tier), and :attr:`StreamProfiler.hash_friendly` (adding the tuple
tier) only for a wildcard-free, unordered, unpartitioned tenant.
:attr:`StreamProfiler.n_messages`, the cluster's load signal, reads the
counts tier.  The full Table I statistics -- :meth:`~StreamProfiler.profile`
and :meth:`~StreamProfiler.export_state` -- compute every tier of every
windowed flush; they are read when a retune is recorded (for its
reason), when the tenant is snapshotted, or when a caller asks for the
profile.  A pinned tenant pays nothing per flush, and a flush that ages
out of the window unread costs nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch
from ..core.result import MatchOutcome
from ..traces.analyzer import normalized_entropy

__all__ = ["WorkloadProfile", "StreamProfiler"]


#: A window is hash-friendly while its dominant-tuple fraction stays
#: below this (see :attr:`WorkloadProfile.hash_friendly`).
_DOMINANCE_GATE = 0.25


def _finite(x: float) -> float:
    """Clamp a windowed statistic to a finite float.

    Degenerate streams -- tiny tuple cardinality under huge message
    counts (Kripke-style sweeps, partitioned re-fires), or snapshot
    round-trips that widened counters to floats -- must never leak
    NaN/inf into a profile: every consumer (autotuner gates, bench
    records, EXPERIMENTS tables) treats these as ordinary numbers.
    """
    x = float(x)
    return x if np.isfinite(x) else 0.0


@dataclass(frozen=True)
class WorkloadProfile:
    """Table I-style statistics of a tenant's recent stream.

    All fields aggregate over the profiler's sliding window of flushes.
    """

    window_flushes: int
    n_messages: int
    n_requests: int
    src_wildcard_fraction: float
    tag_wildcard_fraction: float
    n_peers: int
    n_comms: int
    duplicate_tuple_fraction: float
    tag_entropy: float
    umq_depth_mean: float
    prq_depth_mean: float
    #: windowed sum of each flush's *excess* hottest-tuple multiplicity
    #: (max multiplicity - 1) over the windowed message count -- how much
    #: of the stream piles onto its single hottest tuple (the
    #: probe-chain length driver).  0.0 for an all-unique stream of any
    #: size; ~1.0 when one tuple carries a whole flush.
    dominant_tuple_fraction: float = 0.0

    @property
    def wildcard_fraction(self) -> float:
        """Requests wildcarding src or tag (upper bound of the two)."""
        return max(self.src_wildcard_fraction, self.tag_wildcard_fraction)

    @property
    def uses_wildcards(self) -> bool:
        """Did any windowed request carry a wildcard?"""
        return self.wildcard_fraction > 0.0

    @property
    def hash_friendly(self) -> bool:
        """Is the tuple stream diverse enough for the hash path?

        The paper's Figure 6(a) argument: a *dominant* duplicated tuple
        collides every probe chain.  Hash-table chain length is driven
        by the multiplicity of the hottest tuple, not by the aggregate
        duplicate count: a stream that repeats many *different* tuples
        a few times each (df_AMG re-sends the same neighbour/tag pairs
        every solver sweep, duplicate fraction ~0.9) keeps every chain
        short, while one tuple carrying a quarter of the stream
        serializes a quarter of the probes.  Gate on dominance, not on
        duplication.
        """
        return self.dominant_tuple_fraction < _DOMINANCE_GATE


def _counts_tier(messages: EnvelopeBatch,
                 requests: EnvelopeBatch) -> tuple[int, int, int, int]:
    """One flush's counts tier: message and request counts plus the
    src/tag wildcard counts of its requests."""
    return (len(messages), len(requests),
            int(np.count_nonzero(requests.src == ANY_SOURCE)),
            int(np.count_nonzero(requests.tag == ANY_TAG)))


def _tuple_tier(messages: EnvelopeBatch) -> tuple[int, int]:
    """One flush's tuple tier: duplicate messages and the hottest tuple's
    excess multiplicity.

    Pure column work: one ``np.unique`` over the flush's packed64 key
    column (reusing the batch's cached keys when the columnar data plane
    already packed them), never per-envelope Python iteration.
    """
    if not len(messages):
        return 0, 0
    packed = messages._packed
    if packed is None:
        packed = (messages.comm << 48) | (messages.src << 16) | messages.tag
    _, tuple_counts = np.unique(packed, return_counts=True)
    return (len(messages) - int(tuple_counts.size),
            int(tuple_counts.max()) - 1)


def _sets_tier(messages: EnvelopeBatch, requests: EnvelopeBatch
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One flush's sets tier: sorted unique peers, communicators and
    tags, plus each tag's message count."""
    empty = np.array([], dtype=np.int64)
    if len(messages):
        peers = np.unique(messages.src)
        tags, counts = np.unique(messages.tag, return_counts=True)
    else:
        peers = empty
        tags, counts = empty, empty
    comms = (np.unique(np.concatenate([messages.comm, requests.comm]))
             if (len(messages) or len(requests)) else empty)
    return peers, comms, tags, counts


class _FlushEntry:
    """One windowed flush: its unmatched depths and its three statistics
    tiers, each computed from the flush's batches on first read.

    ``n_messages``, ``duplicates`` and ``peers`` are ``None`` until their
    tier is computed.  Once every tier is, the batches are released.
    Set-valued stats are kept as the sorted unique *arrays* ``np.unique``
    already produced -- the window aggregation is then a
    unique-of-concatenation, never a Python set union over items.
    """

    __slots__ = ("messages", "requests", "umq_depth", "prq_depth",
                 "n_messages", "n_requests", "src_wildcards",
                 "tag_wildcards", "duplicates", "dominant",
                 "peers", "comms", "tags", "tag_counts")

    def __init__(self, messages: EnvelopeBatch | None,
                 requests: EnvelopeBatch | None,
                 umq_depth: int, prq_depth: int) -> None:
        self.messages = messages
        self.requests = requests
        self.umq_depth = umq_depth
        self.prq_depth = prq_depth
        self.n_messages = None
        self.duplicates = None
        self.peers = None

    def counts(self) -> _FlushEntry:
        if self.n_messages is None:
            (self.n_messages, self.n_requests, self.src_wildcards,
             self.tag_wildcards) = _counts_tier(self.messages,
                                                self.requests)
        return self

    def tuples(self) -> _FlushEntry:
        if self.duplicates is None:
            self.duplicates, self.dominant = _tuple_tier(self.messages)
        return self

    def full(self) -> _FlushEntry:
        """Every tier computed; the batches are no longer needed."""
        self.counts().tuples()
        if self.peers is None:
            (self.peers, self.comms, self.tags,
             self.tag_counts) = _sets_tier(self.messages, self.requests)
        self.messages = self.requests = None
        return self


def _wildcard_fractions(w: list[_FlushEntry]) -> tuple[float, float]:
    """Windowed src and tag wildcard fractions of the requests."""
    n_reqs = sum(s.n_requests for s in w)
    if not n_reqs:
        return 0.0, 0.0
    return (sum(s.src_wildcards for s in w) / n_reqs,
            sum(s.tag_wildcards for s in w) / n_reqs)


def _dominant_fraction(w: list[_FlushEntry]) -> float:
    """Windowed excess hottest-tuple multiplicity per message."""
    n_msgs = sum(s.n_messages for s in w)
    return _finite(sum(s.dominant for s in w) / n_msgs if n_msgs else 0.0)


class StreamProfiler:
    """Sliding-window Table I statistics over flushed batches.

    Parameters
    ----------
    window_flushes:
        Number of most-recent flushes the profile aggregates over.  The
        window is what lets a tenant *recover* promotions: a one-off
        wildcard burst ages out instead of pinning the tenant to the
        matrix path forever.
    """

    def __init__(self, window_flushes: int = 8) -> None:
        if window_flushes < 1:
            raise ValueError("window_flushes must be >= 1")
        self.window_flushes = window_flushes
        # a _FlushEntry, or a queued (messages, requests, umq_depth,
        # prq_depth) flush not read yet
        self._window: deque[_FlushEntry | tuple] = deque(
            maxlen=window_flushes)
        self.total_flushes = 0

    def ingest(self, messages: EnvelopeBatch, requests: EnvelopeBatch,
               outcome: MatchOutcome) -> None:
        """Queue one flush for the window.

        Keeps the flush's batches by reference plus its unmatched
        (UMQ/PRQ) depths; the statistics are computed when the window is
        read.  Submitted batches must therefore not be mutated after
        ``submit`` -- the batch accumulator already aliases them until
        the flush.
        """
        matched = outcome.matched_count
        self._window.append((messages, requests,
                             outcome.n_messages - matched,
                             outcome.n_requests - matched))
        self.total_flushes += 1

    def _entries(self) -> list[_FlushEntry]:
        """The window's entries; a queued flush becomes an entry on its
        first read, with no tier computed yet."""
        window = self._window
        for i in range(len(window)):
            if not isinstance(window[i], _FlushEntry):
                window[i] = _FlushEntry(*window[i])
        return list(window)

    def _counted(self) -> list[_FlushEntry]:
        return [e.counts() for e in self._entries()]

    # -- the autotuner's reads ----------------------------------------------------

    @property
    def n_messages(self) -> int:
        """Windowed message volume (counts tier)."""
        return sum(e.n_messages for e in self._counted())

    @property
    def uses_wildcards(self) -> bool:
        """Did any windowed request carry a wildcard? (counts tier)

        Equal to ``profile().uses_wildcards``.
        """
        return max(_wildcard_fractions(self._counted())) > 0.0

    @property
    def hash_friendly(self) -> bool:
        """Is the window's tuple stream diverse enough for the hash path?
        (counts and tuple tiers)

        Equal to ``profile().hash_friendly``.
        """
        w = [e.counts().tuples() for e in self._entries()]
        return _dominant_fraction(w) < _DOMINANCE_GATE

    # -- snapshot format ----------------------------------------------------------

    def export_state(self) -> dict:
        """Window contents for the serve snapshot format."""
        return {"window_flushes": self.window_flushes,
                "total_flushes": self.total_flushes,
                "window": [{"n_messages": s.n_messages,
                            "n_requests": s.n_requests,
                            "src_wildcards": s.src_wildcards,
                            "tag_wildcards": s.tag_wildcards,
                            "peers": s.peers,
                            "comms": s.comms,
                            "duplicates": s.duplicates,
                            "dominant": s.dominant,
                            "tags": s.tags,
                            "tag_counts": s.tag_counts,
                            "umq_depth": s.umq_depth,
                            "prq_depth": s.prq_depth}
                           for s in self._full()]}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`; restored entries are fully
        computed."""
        self.window_flushes = int(state["window_flushes"])
        self.total_flushes = int(state["total_flushes"])
        self._window = deque(maxlen=self.window_flushes)
        for s in state["window"]:
            e = _FlushEntry(None, None, int(s["umq_depth"]),
                            int(s["prq_depth"]))
            e.n_messages = int(s["n_messages"])
            e.n_requests = int(s["n_requests"])
            e.src_wildcards = int(s["src_wildcards"])
            e.tag_wildcards = int(s["tag_wildcards"])
            e.duplicates = int(s["duplicates"])
            e.dominant = int(s["dominant"])
            e.peers = np.asarray(s["peers"], dtype=np.int64)
            e.comms = np.asarray(s["comms"], dtype=np.int64)
            e.tags = np.asarray(s["tags"], dtype=np.int64)
            e.tag_counts = np.asarray(s["tag_counts"])
            self._window.append(e)

    # -- the full Table I profile -------------------------------------------------

    def _full(self) -> list[_FlushEntry]:
        return [e.full() for e in self._entries()]

    def profile(self) -> WorkloadProfile:
        """The aggregated profile of the current window (every tier)."""
        w = self._full()
        n_msgs = sum(s.n_messages for s in w)
        n_reqs = sum(s.n_requests for s in w)
        n_peers = int(np.unique(np.concatenate(
            [s.peers for s in w])).size) if w else 0
        n_comms = int(np.unique(np.concatenate(
            [s.comms for s in w])).size) if w else 0
        # merge the per-flush (tag, count) columns by tag
        if w:
            all_tags = np.concatenate([s.tags for s in w])
            all_counts = np.concatenate([s.tag_counts for s in w])
            if all_tags.size:
                _, inverse = np.unique(all_tags, return_inverse=True)
                merged_counts = np.bincount(inverse, weights=all_counts)
            else:
                merged_counts = np.array([])
        else:
            merged_counts = np.array([])
        src_wc, tag_wc = _wildcard_fractions(w)
        return WorkloadProfile(
            window_flushes=len(w),
            n_messages=n_msgs,
            n_requests=n_reqs,
            src_wildcard_fraction=src_wc,
            tag_wildcard_fraction=tag_wc,
            n_peers=n_peers,
            n_comms=n_comms,
            duplicate_tuple_fraction=_finite(
                sum(s.duplicates for s in w) / n_msgs if n_msgs else 0.0),
            tag_entropy=_finite(normalized_entropy(merged_counts)),
            umq_depth_mean=_finite(np.mean([s.umq_depth for s in w])
                                   if w else 0.0),
            prq_depth_mean=_finite(np.mean([s.prq_depth for s in w])
                                   if w else 0.0),
            dominant_tuple_fraction=_dominant_fraction(w),
        )
