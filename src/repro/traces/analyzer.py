"""Table I statistics over a trace.

Computes the characteristics the paper extracts from the dumpi traces
(Section IV-A): wildcard usage, communicator count, peer counts, tag/src
space size and distribution, and the rank-usage uniformity that decides
whether statically partitioned queues stay balanced (Section VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import POST, SEND, Trace

__all__ = ["TableIRow", "analyze", "rank_usage_uniformity",
           "tag_distribution", "normalized_entropy", "distinct_rows"]


@dataclass(frozen=True)
class TableIRow:
    """One application's row of (our reconstruction of) Table I."""

    app: str
    n_ranks: int
    sends: int
    src_wildcards: int
    tag_wildcards: int
    n_communicators: int
    peers_mean: float
    peers_max: int
    n_tags: int
    tag_bits_needed: int
    rank_usage_cov: float
    tag_entropy: float

    @property
    def tags_hashable(self) -> bool:
        """Is the tag usage diverse enough for hash tables / balanced
        enough for tag partitioning?  (Normalized entropy > 0.5 means no
        single tag dominates.)"""
        return self.tag_entropy > 0.5

    @property
    def uses_src_wildcard(self) -> bool:
        """Does the app post any MPI_ANY_SOURCE receive?"""
        return self.src_wildcards > 0

    @property
    def uses_tag_wildcard(self) -> bool:
        """Does the app post any MPI_ANY_TAG receive?"""
        return self.tag_wildcards > 0

    @property
    def header_fits_64bit(self) -> bool:
        """Can {src, tag, comm} pack into one 64-bit word (16-bit tags)?

        The paper: "none of the applications needs tag values longer than
        16 bits ... the entire header could fit into a single 64-bit
        word."
        """
        return self.tag_bits_needed <= 16


def distinct_rows(*cols: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct rows of equal-length integer columns, in lexicographic
    order, and how often each occurs.

    Rows are packed into one int64 key (each column offset by its
    minimum and scaled by its span), so the grouping is a single 1-D
    ``np.unique``; columns whose spans do not fit 63 bits together fall
    back to a row-wise unique.
    """
    lows = [int(c.min()) if c.size else 0 for c in cols]
    spans = [int(c.max()) - lo + 1 if c.size else 1
             for c, lo in zip(cols, lows)]
    if math.prod(spans) >= 2**63:
        rows, counts = np.unique(np.stack(cols, axis=1), axis=0,
                                 return_counts=True)
        return list(rows.T), counts
    key = np.zeros(cols[0].shape, dtype=np.int64)
    for col, lo, span in zip(cols, lows, spans):
        key = key * span + (col.astype(np.int64) - lo)
    keys, counts = np.unique(key, return_counts=True)
    rows = []
    for lo, span in zip(reversed(lows), reversed(spans)):
        keys, rem = np.divmod(keys, span)
        rows.append(rem + lo)
    return rows[::-1], counts


def _first_seen_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` and their counts, in order of first occurrence
    (the order a ``Counter`` walk over the stream would give)."""
    uniq, first, counts = np.unique(values, return_index=True,
                                    return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order], counts[order]


def analyze(trace: Trace) -> TableIRow:
    """Compute the Table I row for one trace."""
    sends = trace.kind == SEND
    posts = trace.kind == POST
    src, dst = trace.rank[sends], trace.peer[sends]
    # peers of a rank: everyone it sends to or receives from
    (ends, _), _ = distinct_rows(np.concatenate([src, dst]),
                                 np.concatenate([dst, src]))
    peer_counts = np.bincount(ends, minlength=trace.n_ranks)
    tags, tag_counts = _first_seen_counts(trace.tag[sends])
    max_tag = int(tags.max()) if tags.size else 0
    return TableIRow(
        app=trace.app,
        n_ranks=trace.n_ranks,
        sends=int(src.size),
        src_wildcards=int(np.count_nonzero(trace.peer[posts] == -1)),
        tag_wildcards=int(np.count_nonzero(trace.tag[posts] == -1)),
        n_communicators=int(np.unique(trace.comm[sends | posts]).size),
        peers_mean=float(peer_counts.mean()) if peer_counts.size else 0.0,
        peers_max=int(peer_counts.max()) if peer_counts.size else 0,
        n_tags=int(tags.size),
        tag_bits_needed=max_tag.bit_length(),
        rank_usage_cov=rank_usage_uniformity(trace),
        tag_entropy=normalized_entropy(tag_counts),
    )


def rank_usage_uniformity(trace: Trace) -> float:
    """Coefficient of variation of per-destination message counts.

    The paper: "We analyzed how often a given rank addresses any other
    rank.  While most of the applications show a regular and uniform
    behavior, CESAR Nekbone and AMR Boxlib showed a rather irregular
    communication behavior."  A near-zero CoV is uniform (queues balance
    under static partitioning); a large CoV is irregular.
    """
    dst = trace.peer[trace.kind == SEND]
    arr = np.bincount(dst, minlength=trace.n_ranks).astype(float)
    mean = arr.mean()
    return float(arr.std() / mean) if mean else 0.0


def normalized_entropy(counts) -> float:
    """Shannon entropy of a count vector, normalized to [0, 1].

    1.0 = perfectly uniform usage, 0.0 = a single value dominates (or
    only one value exists).  The paper's "Distribution of src and tag
    space" paragraph observes that this "varies significantly across the
    applications" -- and it decides whether tag partitioning balances
    (EXT3) and how hash tables collide (Figure 6(a)).
    """
    arr = np.asarray(counts if isinstance(counts, np.ndarray)
                     else list(counts), dtype=float).ravel()
    # non-finite counts (overflowed accumulators, corrupt snapshots)
    # would propagate NaN through p*log2(p); treat them as absent
    arr = arr[np.isfinite(arr) & (arr > 0)]
    if arr.size <= 1:
        return 0.0
    p = arr / arr.sum()
    h = -(p * np.log2(p)).sum()
    return float(h / np.log2(arr.size))


def tag_distribution(trace: Trace) -> dict[int, int]:
    """Messages per tag value (the raw distribution behind the entropy)."""
    tags, counts = _first_seen_counts(trace.tag[trace.kind == SEND])
    return dict(zip(tags.tolist(), counts.tolist()))
