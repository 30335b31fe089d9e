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
and queue depths, and :meth:`~StreamProfiler.profile` or
:meth:`~StreamProfiler.export_state` turn each queued flush into its
statistics once.  An autotuned tenant reads its profile after every
flush; a pinned tenant pays only when it is snapshotted or its volume is
asked for, and a flush that ages out of the window unread costs nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch
from ..core.result import MatchOutcome
from ..traces.analyzer import normalized_entropy

__all__ = ["WorkloadProfile", "StreamProfiler"]


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
        return self.dominant_tuple_fraction < 0.25


@dataclass
class _FlushStats:
    """Per-flush raw counters the window aggregates.

    Set-valued stats are kept as the sorted unique *arrays*
    ``np.unique`` already produced -- the window aggregation is then a
    unique-of-concatenation, never a Python set union over items.
    """

    n_messages: int
    n_requests: int
    src_wildcards: int
    tag_wildcards: int
    peers: np.ndarray
    comms: np.ndarray
    duplicates: int
    dominant: int
    tags: np.ndarray
    tag_counts: np.ndarray
    umq_depth: int
    prq_depth: int


def _flush_stats(messages: EnvelopeBatch, requests: EnvelopeBatch,
                 umq_depth: int, prq_depth: int) -> _FlushStats:
    """One flush's Table I counters.

    Pure column work: the tuple statistics come from one ``np.unique``
    over the flush's packed64 key column (reusing the batch's cached keys
    when the columnar data plane already packed them), never from
    per-envelope Python iteration.
    """
    src_wc = int(np.count_nonzero(requests.src == ANY_SOURCE))
    tag_wc = int(np.count_nonzero(requests.tag == ANY_TAG))
    empty = np.array([], dtype=np.int64)
    if len(messages):
        packed = messages._packed
        if packed is None:
            packed = ((messages.comm << 48)
                      | (messages.src << 16) | messages.tag)
        _, tuple_counts = np.unique(packed, return_counts=True)
        duplicates = len(messages) - int(tuple_counts.size)
        dominant = int(tuple_counts.max()) - 1
        peers = np.unique(messages.src)
        tags, counts = np.unique(messages.tag, return_counts=True)
    else:
        duplicates = 0
        dominant = 0
        peers = empty
        tags, counts = empty, empty
    comms = (np.unique(np.concatenate([messages.comm, requests.comm]))
             if (len(messages) or len(requests)) else empty)
    return _FlushStats(
        n_messages=len(messages),
        n_requests=len(requests),
        src_wildcards=src_wc,
        tag_wildcards=tag_wc,
        peers=peers,
        comms=comms,
        duplicates=duplicates,
        dominant=dominant,
        tags=tags,
        tag_counts=counts,
        umq_depth=umq_depth,
        prq_depth=prq_depth,
    )


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
        # computed _FlushStats, or a queued (messages, requests,
        # umq_depth, prq_depth) flush not read yet
        self._window: deque[_FlushStats | tuple] = deque(
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

    def _stats(self) -> list[_FlushStats]:
        """The window's statistics; a queued flush is computed once and
        replaced by its result."""
        window = self._window
        for i in range(len(window)):
            if not isinstance(window[i], _FlushStats):
                window[i] = _flush_stats(*window[i])
        return list(window)

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
                           for s in self._stats()]}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self.window_flushes = int(state["window_flushes"])
        self.total_flushes = int(state["total_flushes"])
        self._window = deque(
            (_FlushStats(
                n_messages=int(s["n_messages"]),
                n_requests=int(s["n_requests"]),
                src_wildcards=int(s["src_wildcards"]),
                tag_wildcards=int(s["tag_wildcards"]),
                peers=np.asarray(s["peers"], dtype=np.int64),
                comms=np.asarray(s["comms"], dtype=np.int64),
                duplicates=int(s["duplicates"]),
                dominant=int(s["dominant"]),
                tags=np.asarray(s["tags"], dtype=np.int64),
                tag_counts=np.asarray(s["tag_counts"]),
                umq_depth=int(s["umq_depth"]),
                prq_depth=int(s["prq_depth"]))
             for s in state["window"]),
            maxlen=self.window_flushes)

    def profile(self) -> WorkloadProfile:
        """The aggregated profile of the current window."""
        w = self._stats()
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
        return WorkloadProfile(
            window_flushes=len(w),
            n_messages=n_msgs,
            n_requests=n_reqs,
            src_wildcard_fraction=(sum(s.src_wildcards for s in w) / n_reqs
                                   if n_reqs else 0.0),
            tag_wildcard_fraction=(sum(s.tag_wildcards for s in w) / n_reqs
                                   if n_reqs else 0.0),
            n_peers=n_peers,
            n_comms=n_comms,
            duplicate_tuple_fraction=_finite(
                sum(s.duplicates for s in w) / n_msgs if n_msgs else 0.0),
            tag_entropy=_finite(normalized_entropy(merged_counts)),
            umq_depth_mean=_finite(np.mean([s.umq_depth for s in w])
                                   if w else 0.0),
            prq_depth_mean=_finite(np.mean([s.prq_depth for s in w])
                                   if w else 0.0),
            dominant_tuple_fraction=_finite(
                sum(s.dominant for s in w) / n_msgs if n_msgs else 0.0),
        )
