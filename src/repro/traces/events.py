"""Trace event records and the columnar trace container.

The paper analyzes DOE exascale proxy applications from **dumpi** trace
files (Section II-C).  Those multi-gigabyte traces are not shipped with
the mini-apps, so this package generates *synthetic* traces whose
matching-relevant statistics land on the values the paper reports
(Table I, Figure 2, Figure 6(a)) -- see DESIGN.md section 2 for the
substitution argument.  The event schema below mirrors the dumpi fields
the paper's analysis needs.

A :class:`Trace` is a globally time-ordered event stream stored as a
struct of arrays, one row per event:

* ``kind`` -- :data:`SEND` (rank issued MPI_(I)Send(dst, tag, comm)),
  :data:`POST` (rank posted MPI_(I)Recv(src, tag, comm), where src/tag
  may be wildcards) or :data:`BARRIER` (collective synchronization
  marker: ends a BSP superstep; tags may be reused afterwards);
* ``time``, ``rank``;
* ``peer`` -- the dst of a send, the possibly-wildcard src of a post,
  -1 for a barrier;
* ``tag``, ``comm``, ``nbytes`` (0 for posts and barriers, as are a
  barrier's tag and comm).

The analyses read these columns directly.  :attr:`Trace.events` is a lazy
read-only view that builds :class:`SendEvent` / :class:`RecvPostEvent` /
:class:`BarrierEvent` records on demand, for per-event walks and for
callers that want objects: a real dumpi parser could emit either form
and everything downstream would work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = ["SendEvent", "RecvPostEvent", "BarrierEvent", "Trace",
           "EventView", "SEND", "POST", "BARRIER", "COLUMNS"]

#: ``kind`` codes
SEND, POST, BARRIER = 0, 1, 2

#: Column names and storage dtypes, in schema order.
COLUMNS: dict[str, np.dtype] = {
    "kind": np.dtype(np.int8),
    "time": np.dtype(np.float64),
    "rank": np.dtype(np.int32),
    "peer": np.dtype(np.int32),
    "tag": np.dtype(np.int32),
    "comm": np.dtype(np.int32),
    "nbytes": np.dtype(np.int64),
}


@dataclass(frozen=True)
class SendEvent:
    """A send operation as recorded at the source rank."""

    time: float
    rank: int
    dst: int
    tag: int
    comm: int = 0
    nbytes: int = 8

    kind = "send"


@dataclass(frozen=True)
class RecvPostEvent:
    """A receive request being posted (src/tag may be -1 wildcards)."""

    time: float
    rank: int
    src: int
    tag: int
    comm: int = 0

    kind = "post_recv"


@dataclass(frozen=True)
class BarrierEvent:
    """A synchronization point across all ranks (superstep boundary)."""

    time: float
    rank: int

    kind = "barrier"


def _as_column(name: str, values) -> np.ndarray:
    """``values`` in the storage dtype of column ``name``; raises
    ``ValueError`` when a value does not fit it."""
    raw = np.asarray(values)
    col = raw.astype(COLUMNS[name], copy=False)
    if col is not raw and not np.array_equal(col, raw):
        raise ValueError(f"trace column {name!r} values do not fit "
                         f"{COLUMNS[name]}")
    return col


def _event_row(ev) -> tuple:
    if ev.kind == "send":
        return (SEND, ev.time, ev.rank, ev.dst, ev.tag, ev.comm, ev.nbytes)
    if ev.kind == "post_recv":
        return (POST, ev.time, ev.rank, ev.src, ev.tag, ev.comm, 0)
    if ev.kind == "barrier":
        return (BARRIER, ev.time, ev.rank, -1, 0, 0, 0)
    raise ValueError(f"unknown event kind {ev.kind!r}")


def _make_event(kind, time, rank, peer, tag, comm, nbytes):
    if kind == SEND:
        return SendEvent(time, rank, peer, tag, comm, nbytes)
    if kind == POST:
        return RecvPostEvent(time, rank, peer, tag, comm)
    return BarrierEvent(time, rank)


#: rows materialized per step while iterating a view (bounds the
#: temporary Python objects of a walk over a large trace)
_ITER_CHUNK = 1 << 16


class EventView:
    """Lazy, sized, sliceable read-only view of a trace's events.

    ``rows`` selects the trace rows in view order: a contiguous
    ``range`` or an index array.  Indexing, slicing and iteration build
    event records from the columns on demand, with plain Python
    scalars; nothing is cached.
    """

    __slots__ = ("_trace", "_rows")

    def __init__(self, trace: "Trace", rows: range | np.ndarray) -> None:
        self._trace = trace
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def _select(self, lo: int, hi: int) -> slice | np.ndarray:
        rows = self._rows
        if isinstance(rows, range) and rows.step == 1:
            return slice(rows.start + lo, rows.start + hi)
        return np.asarray(rows[lo:hi])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return EventView(self._trace, self._rows[item])
        row = self._rows[range(len(self))[item]]
        return _make_event(*(col[row].item()
                             for col in self._trace.columns.values()))

    def __iter__(self) -> Iterator:
        cols = self._trace.columns.values()
        for lo in range(0, len(self), _ITER_CHUNK):
            sel = self._select(lo, min(lo + _ITER_CHUNK, len(self)))
            for row in zip(*(col[sel].tolist() for col in cols)):
                yield _make_event(*row)


class Trace:
    """A time-ordered event stream for one application run.

    Parameters
    ----------
    app:
        Application name (e.g. ``"exmatex_lulesh"``).
    n_ranks:
        Ranks in the run.
    events:
        Event records in global time order (ignored when ``columns`` is
        given).
    meta:
        Generator parameters (steps, seed, geometry, ...), recorded for
        reproducibility.
    columns:
        The event columns (see :data:`COLUMNS`), equal-length 1-D
        arrays; adopted without a copy where the dtype already matches,
        and exposed read-only.

    Either form is validated on construction (time order, rank and
    send-dst range).  Each column is then a read-only attribute of the
    trace, named as in :data:`COLUMNS`.
    """

    kind: np.ndarray
    time: np.ndarray
    rank: np.ndarray
    peer: np.ndarray
    tag: np.ndarray
    comm: np.ndarray
    nbytes: np.ndarray

    def __init__(self, app: str, n_ranks: int, events: Iterable = (),
                 meta: dict | None = None, *,
                 columns: Mapping[str, np.ndarray] | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.app = app
        self.n_ranks = n_ranks
        self.meta = dict(meta or {})
        if columns is None:
            rows = [_event_row(ev) for ev in events]
            cols = list(zip(*rows)) if rows else [()] * len(COLUMNS)
            columns = dict(zip(COLUMNS, cols))
        for name in COLUMNS:
            col = _as_column(name, columns[name]).view()
            col.flags.writeable = False
            setattr(self, name, col)
        if len({c.shape for c in self.columns.values()}) != 1 \
                or self.kind.ndim != 1:
            raise ValueError("trace columns must be equal-length 1-D arrays")
        self._validate()

    def _validate(self) -> None:
        time, rank, peer = self.time, self.rank, self.peer
        back = np.flatnonzero(time[1:] < time[:-1])
        if back.size:
            i = int(back[0]) + 1
            raise ValueError(f"events out of time order at t={time[i]} "
                             f"(< {time[i - 1]})")
        bad = np.flatnonzero((rank < 0) | (rank >= self.n_ranks))
        if bad.size:
            raise ValueError(f"event rank {rank[bad[0]]} out of range")
        bad = np.flatnonzero((self.kind == SEND)
                             & ((peer < 0) | (peer >= self.n_ranks)))
        if bad.size:
            raise ValueError(f"send dst {peer[bad[0]]} out of range")

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The event columns by name, in :data:`COLUMNS` order."""
        return {name: getattr(self, name) for name in COLUMNS}

    # -- container protocol ------------------------------------------------------

    @property
    def events(self) -> EventView:
        """All events, as a lazy record view."""
        return EventView(self, range(len(self)))

    def __len__(self) -> int:
        return int(self.kind.size)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __repr__(self) -> str:
        return (f"Trace(app={self.app!r}, ranks={self.n_ranks}, "
                f"events={len(self)})")

    # -- filters -----------------------------------------------------------------

    def sends(self) -> EventView:
        """All send events, time order."""
        return EventView(self, np.flatnonzero(self.kind == SEND))

    def recv_posts(self) -> EventView:
        """All receive-post events, time order."""
        return EventView(self, np.flatnonzero(self.kind == POST))

    def barriers(self) -> EventView:
        """All barrier markers."""
        return EventView(self, np.flatnonzero(self.kind == BARRIER))

    def for_rank(self, rank: int) -> EventView:
        """Events local to one rank (sends it issued, recvs it posted)."""
        return EventView(self, np.flatnonzero(self.rank == rank))

    def validate_balance(self) -> dict:
        """Sanity counters: sends vs receive posts per (src, dst) channel.

        Synthetic generators should produce balanced traces (every send
        eventually receivable); the replay tolerates imbalance but the
        generator tests check this.
        """
        sends = int(np.count_nonzero(self.kind == SEND))
        posts = int(np.count_nonzero(self.kind == POST))
        return {"sends": sends, "recv_posts": posts,
                "balanced": sends == posts}
