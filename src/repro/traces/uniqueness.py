"""{src, tag} tuple uniqueness (the Figure 6(a) analysis).

"In Figure 6(a) we show the uniqueness of {src, tag} tuples among all
destinations within an application.  For example, a value of 50% means
that a single tuple appears in 50% of all messages to a given
destination.  This would be a bad case for hash tables ..."  Most
applications land in single-digit percentages, supporting the two-level
hash table of Section VI-C.
"""

from __future__ import annotations

import numpy as np

from .analyzer import distinct_rows
from .events import SEND, Trace

__all__ = ["tuple_uniqueness", "per_destination_shares"]


def _dominant_shares(trace: Trace) -> tuple[np.ndarray, np.ndarray, int]:
    """Destinations (first-send order), each one's dominant-tuple share,
    and the number of distinct ``(dst, src, tag)`` tuples."""
    sends = trace.kind == SEND
    dst = trace.peer[sends]
    (tuple_dst, _, _), counts = distinct_rows(dst, trace.rank[sends],
                                              trace.tag[sends])
    # distinct rows sort by dst first, so each destination's tuples are
    # one contiguous run
    dsts, starts = np.unique(tuple_dst, return_index=True)
    top = (np.maximum.reduceat(counts, starts) if counts.size
           else counts)
    total = np.bincount(dst, minlength=trace.n_ranks)[dsts]
    _, first = np.unique(dst, return_index=True)
    order = np.argsort(first, kind="stable")
    return dsts[order], (top / total)[order], int(counts.size)


def per_destination_shares(trace: Trace) -> dict[int, float]:
    """Per destination: the share of its traffic owned by its most
    common {src, tag} tuple (1.0 = every message identical)."""
    dsts, shares, _ = _dominant_shares(trace)
    return dict(zip(dsts.tolist(), shares.tolist()))


def tuple_uniqueness(trace: Trace) -> dict:
    """Figure 6(a)'s statistic for one application.

    Returns the mean/median/max over destinations of the dominant-tuple
    share, plus the overall duplicate fraction (messages whose tuple has
    already been sent to the same destination).
    """
    _, vals, n_tuples = _dominant_shares(trace)
    if not vals.size:
        return {"app": trace.app, "dominant_share_mean": 0.0,
                "dominant_share_median": 0.0, "dominant_share_max": 0.0,
                "duplicate_fraction": 0.0}
    total = int(np.count_nonzero(trace.kind == SEND))
    return {
        "app": trace.app,
        "dominant_share_mean": float(vals.mean()),
        "dominant_share_median": float(np.median(vals)),
        "dominant_share_max": float(vals.max()),
        "duplicate_fraction": (total - n_tuples) / total,
    }
