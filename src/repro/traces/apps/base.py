"""Common machinery for the synthetic proxy-application models.

Each application model is an :class:`AppModel` subclass that declares its
Table-I-visible identity (suite, wildcard usage, communicator count) and
implements :meth:`build` using the :class:`TraceBuilder` and the topology
helpers below.  The models are *communication skeletons*: they reproduce
the pattern, tag discipline, posting discipline, and volume of the real
mini-app's point-to-point traffic -- the properties the paper's matching
analysis depends on -- not its numerics.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ..events import BARRIER, COLUMNS, POST, SEND, Trace

__all__ = ["AppModel", "TraceBuilder", "grid_dims", "grid_neighbors",
           "neighbor_pairs", "ring_neighbors", "random_neighbors",
           "skewed_neighbors"]


class TraceBuilder:
    """Accumulates events as column blocks with a monotonically
    increasing clock.

    Every emit appends one column block: :meth:`emit` a run of sends
    and posts given as arrays, :meth:`exchange` a whole phase over a
    ``(src, dst)`` pair array, :meth:`barrier` one mark per rank.
    :meth:`send` and :meth:`post` are one-row :meth:`emit` calls, for
    tests and small hand-written streams; the models emit blocks.
    ``len(builder)`` counts every event emitted so far (the phase marks
    of the Benchpark models).

    The synthetic clock ticks once per event.  It has no physical
    meaning; only the *order* of events matters to the analyses (it
    decides queue interleavings).
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._n = 0
        self._t = 0.0

    def __len__(self) -> int:
        return self._n

    def _ticks(self, n: int) -> np.ndarray:
        """Clock values of the next ``n`` events."""
        times = self._t + np.arange(1, n + 1, dtype=np.float64)
        self._t += n
        return times

    def _append(self, kind, times, rank, peer, tag, comm, nbytes) -> None:
        self._blocks.append((kind, times, rank, peer, tag, comm, nbytes))
        self._n += int(times.size)

    def emit(self, kind, rank, peer, tag, comm=0, nbytes=0) -> None:
        """Append sends and/or posts in the given order, one clock tick
        each.

        ``kind`` is :data:`SEND` or :data:`POST` per row; ``peer`` is a
        send's dst or a post's (possibly wildcard ``-1``) src.  Scalars
        broadcast against the array arguments.
        """
        kind, rank, peer, tag, comm, nbytes = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(c, dtype=np.int64))
              for c in (kind, rank, peer, tag, comm, nbytes)))
        self._append(kind, self._ticks(kind.size), rank, peer, tag, comm,
                     nbytes)

    def send(self, rank: int, dst: int, tag: int, comm: int = 0,
             nbytes: int = 8) -> None:
        """Record one send."""
        self.emit(SEND, rank, dst, tag, comm, nbytes)

    def post(self, rank: int, src: int, tag: int, comm: int = 0) -> None:
        """Record one receive post (src/tag may be -1)."""
        self.emit(POST, rank, src, tag, comm)

    def barrier(self, n_ranks: int) -> None:
        """Record a superstep boundary on every rank (one clock tick)."""
        self._t += 1.0
        zeros = np.zeros(n_ranks, dtype=np.int64)
        self._append(np.full(n_ranks, BARRIER), np.full(n_ranks, self._t),
                     np.arange(n_ranks), np.full(n_ranks, -1), zeros, zeros,
                     zeros)

    def exchange(self, pairs: np.ndarray | Sequence[tuple[int, int]],
                 tag_of: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  np.ndarray | int],
                 comm_of: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                   np.ndarray | int] | None = None,
                 msgs_per_pair: int = 1,
                 prepost_fraction: float = 1.0,
                 rng: np.random.Generator | None = None,
                 wildcard_src_fraction: float = 0.0,
                 nbytes: int = 8) -> None:
        """One exchange phase over directed ``(src, dst)`` pairs.

        ``pairs`` is an ``(n, 2)`` integer array (as built once per
        topology by :func:`neighbor_pairs`) or any sequence of
        ``(src, dst)`` tuples.  ``tag_of(src, dst, k)`` names the tag of
        the k-th message on a pair; ``comm_of`` likewise for the
        communicator (default 0).  Both are called once with the phase's
        whole ``src``/``dst``/``k`` arrays (pair-major, ``k`` fastest)
        and may return an array or a scalar.

        ``prepost_fraction`` of the receives are posted *before* any send
        of the phase (they land in the PRQ and wait); the rest are posted
        after all sends (those messages sit in the UMQ as unexpected).
        ``wildcard_src_fraction`` of the receives use MPI_ANY_SOURCE.

        RNG draws, in order: one uniform per receive (wildcard or not),
        the shuffle of the receive order, the shuffle of the send order
        over pairs.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        m = msgs_per_pair
        src = np.repeat(pairs[:, 0], m)
        dst = np.repeat(pairs[:, 1], m)
        k = np.tile(np.arange(m, dtype=np.int64), len(pairs))
        n = src.size
        tag = np.broadcast_to(tag_of(src, dst, k), (n,))
        comm = (np.zeros(n, dtype=np.int64) if comm_of is None
                else np.broadcast_to(comm_of(src, dst, k), (n,)))
        wild = rng.random(n) < wildcard_src_fraction
        recvs = np.arange(n)
        rng.shuffle(recvs)
        n_pre = int(round(prepost_fraction * n))
        order = np.arange(len(pairs))
        rng.shuffle(order)
        sends = (order[:, None] * m + np.arange(m)).ravel()
        # segments: receives posted before the sends, the sends, the rest
        pre, late = recvs[:n_pre], recvs[n_pre:]
        rows = np.concatenate([pre, sends, late])
        recv_peer = np.where(wild, -1, src)
        self._append(
            np.repeat(np.array([POST, SEND, POST], dtype=np.int64),
                      [n_pre, n, n - n_pre]),
            self._ticks(2 * n),
            np.concatenate([dst[pre], src[sends], dst[late]]),
            np.concatenate([recv_peer[pre], dst[sends], recv_peer[late]]),
            tag[rows], comm[rows],
            np.repeat(np.array([0, nbytes, 0], dtype=np.int64),
                      [n_pre, n, n - n_pre]))

    def flood(self, bursts: np.ndarray,
              tag_of: Callable[[np.ndarray], np.ndarray],
              comm: int = 0, nbytes: int = 8) -> None:
        """Gather floods onto every rank in turn, as one block.

        Rank ``d`` (in rank order) receives ``bursts[d] // (n - 1)`` (at
        least one) messages from every other rank: first all of the
        flood's sends, source-major with ``k`` fastest, then ``d``'s
        matching receive posts in the same order -- so the whole flood
        sits in ``d``'s UMQ before the first post.  ``tag_of(k)`` names
        the tag of a source's k-th message.  No RNG draws.
        """
        bursts = np.asarray(bursts, dtype=np.int64)
        n = bursts.size
        per_src = np.maximum(1, bursts // (n - 1))
        # every (dst, src != dst) pair, dst-major, src ascending
        pair_dst = np.repeat(np.arange(n), n - 1)
        pair_src = np.tile(np.arange(n - 1), n)
        pair_src += pair_src >= pair_dst
        counts = per_src[pair_dst]
        first = np.cumsum(counts) - counts
        src = np.repeat(pair_src, counts)
        dst = np.repeat(pair_dst, counts)
        k = np.arange(src.size) - np.repeat(first, counts)
        tag = np.broadcast_to(tag_of(k), k.shape)
        # each message twice, as a send and as a post; a stable sort on
        # (dst, send-before-post) keeps message order within each run
        rows = np.argsort(np.concatenate([2 * dst, 2 * dst + 1]),
                          kind="stable")
        n_msgs = src.size
        self.emit(np.repeat([SEND, POST], n_msgs)[rows],
                  np.concatenate([src, dst])[rows],
                  np.concatenate([dst, src])[rows],
                  np.concatenate([tag, tag])[rows], comm,
                  np.repeat([nbytes, 0], n_msgs)[rows])

    def build(self, app: str, n_ranks: int, meta: dict | None = None) -> Trace:
        """Finalize into a :class:`Trace`."""
        # blocks keep their natural int64/float64 lanes; the trace casts
        # each concatenated column to its storage dtype once
        columns = {name: (np.concatenate([b[i] for b in self._blocks])
                          if self._blocks else ())
                   for i, name in enumerate(COLUMNS)}
        return Trace(app=app, n_ranks=n_ranks, meta=meta, columns=columns)


class AppModel:
    """Base class for application communication models.

    Subclasses override the class attributes and implement :meth:`build`.
    (Deliberately *not* a dataclass: the identity fields are class-level
    constants of each model, not per-instance state.)
    """

    #: short identifier, e.g. ``"exmatex_lulesh"``
    name: str = "base"
    #: human-readable name as it appears in the paper's Table I
    full_name: str = "base"
    #: proxy-app suite (designforward / cesar / exact / exmatex / amr)
    suite: str = "none"
    #: one-line description of the modelled communication skeleton
    description: str = ""
    #: does the app post MPI_ANY_SOURCE receives? (Table I: only
    #: Design Forward MiniDFT and MiniFE do)
    uses_src_wildcard: bool = False
    #: does the app use MPI_ANY_TAG? (Table I: none do)
    uses_tag_wildcard: bool = False
    #: distinct communicators carrying point-to-point traffic
    n_communicators: int = 1
    #: default rank count for `generate()`
    default_ranks: int = 32
    #: default superstep count
    default_steps: int = 10

    def generate(self, n_ranks: int | None = None, steps: int | None = None,
                 seed: int = 0) -> Trace:
        """Generate a trace at the given scale (defaults per app)."""
        n_ranks = self.default_ranks if n_ranks is None else n_ranks
        steps = self.default_steps if steps is None else steps
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks to communicate")
        if steps < 1:
            raise ValueError("steps must be positive")
        rng = np.random.default_rng(seed + 0x5EED)
        builder = TraceBuilder()
        self.build(builder, n_ranks, steps, rng)
        return builder.build(self.name, n_ranks,
                             meta={"steps": steps, "seed": seed,
                                   "suite": self.suite})

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        """Emit the app's events into the builder (subclass hook)."""
        raise NotImplementedError


# -- topology helpers ------------------------------------------------------------


def grid_dims(n_ranks: int, ndim: int) -> tuple[int, ...]:
    """Near-cubic process grid factorization of ``n_ranks``.

    >>> grid_dims(64, 3)
    (4, 4, 4)
    """
    dims = [1] * ndim
    n = n_ranks
    f = 2
    factors = []
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def _split_lists(src: np.ndarray, dst: np.ndarray,
                 n_ranks: int) -> list[list[int]]:
    """Per-rank neighbor lists from a src-major pair array."""
    flat = dst.tolist()
    ends = np.cumsum(np.bincount(src, minlength=n_ranks)).tolist()
    return list(map(flat.__getitem__, map(slice, [0] + ends[:-1], ends)))


def neighbor_pairs(nbrs: Sequence[Sequence[int]]) -> np.ndarray:
    """The ``(n, 2)`` int64 ``(src, dst)`` pair array of per-rank
    neighbor lists, src-major in list order -- the form
    :meth:`TraceBuilder.exchange` takes, built once per topology."""
    counts = np.fromiter(map(len, nbrs), dtype=np.int64, count=len(nbrs))
    dst = np.fromiter(chain.from_iterable(nbrs), dtype=np.int64,
                      count=int(counts.sum()))
    return np.stack([np.repeat(np.arange(len(nbrs)), counts), dst], axis=1)


def grid_neighbors(n_ranks: int, ndim: int = 3, corners: bool = False,
                   ) -> list[list[int]]:
    """Cartesian halo neighbors (non-periodic) for every rank.

    ``corners=False`` gives the 2*ndim face stencil, ordered dimension-
    major with -1 before +1; ``corners=True`` the full Moore
    neighborhood (8 in 2-D, 26 in 3-D) that halo codes like LULESH
    exchange with, in lexicographic offset order.  Ranks are laid out
    row-major on :func:`grid_dims`; each list keeps the stencil order
    and drops offsets that leave the grid.
    """
    dims = grid_dims(n_ranks, ndim)
    if corners:
        offsets = np.stack(np.meshgrid(*[[-1, 0, 1]] * ndim, indexing="ij"),
                           axis=-1).reshape(-1, ndim)
        offsets = offsets[offsets.any(axis=1)]
    else:
        eye = np.eye(ndim, dtype=np.int64)
        offsets = np.stack([-eye, eye], axis=1).reshape(-1, ndim)
    coords = np.stack(np.unravel_index(np.arange(n_ranks), dims), axis=-1)
    cand = coords[:, None, :] + offsets[None, :, :]   # rank x offset x dim
    inside = ((cand >= 0) & (cand < np.asarray(dims))).all(axis=-1)
    src, which = np.nonzero(inside)
    dst = np.ravel_multi_index(tuple(cand[src, which].T), dims)
    return _split_lists(src, dst, n_ranks)


def ring_neighbors(n_ranks: int, hops: int = 1) -> list[list[int]]:
    """Bidirectional ring with ``hops`` neighbors on each side."""
    return [[(r + d) % n_ranks for d in range(-hops, hops + 1) if d != 0]
            for r in range(n_ranks)]


def _symmetric_random(n_ranks: int, degrees: np.ndarray,
                      rng: np.random.Generator) -> list[list[int]]:
    """Rank ``r`` picks ``degrees[r]`` distinct peers other than itself;
    every pick becomes an edge both ways.  Returns sorted per-rank
    neighbor lists.

    Exactly one ``rng.choice(n_ranks - 1, k, replace=False)`` per rank,
    in rank order; indices at or above ``r`` shift up by one to skip
    ``r`` itself -- the same draws as choosing from the list of the
    other ranks.
    """
    picks = [rng.choice(n_ranks - 1, size=k, replace=False)
             for k in degrees]
    src = np.repeat(np.arange(n_ranks), degrees)
    dst = np.concatenate(picks).astype(np.int64)
    dst += dst >= src
    keys = np.unique(np.concatenate([src * n_ranks + dst,
                                     dst * n_ranks + src]))
    return _split_lists(keys // n_ranks, keys % n_ranks, n_ranks)


def random_neighbors(n_ranks: int, k: int,
                     rng: np.random.Generator) -> list[list[int]]:
    """Uniform random ``k``-neighbor sets (symmetrized, so degrees are
    approximately ``k`` and communication is two-way like real halo
    exchanges).  One RNG choice per rank, in rank order."""
    return _symmetric_random(n_ranks, np.full(n_ranks, min(k, n_ranks - 1)),
                             rng)


def skewed_neighbors(n_ranks: int, k_min: int, k_max: int,
                     rng: np.random.Generator,
                     hot_fraction: float = 0.1) -> list[list[int]]:
    """Irregular neighbor sets: a few 'hot' ranks talk to many peers.

    The first ``hot_fraction`` of the ranks pick ``k_max`` peers, the
    rest ``k_min``; symmetrized like :func:`random_neighbors`.  Models
    the irregular rank-usage distribution the paper observes for CESAR
    Nekbone and AMR Boxlib (Section VI-A), which unbalances statically
    partitioned queues.
    """
    hot = max(1, int(hot_fraction * n_ranks))
    degrees = np.minimum(np.where(np.arange(n_ranks) < hot, k_max, k_min),
                         n_ranks - 1)
    return _symmetric_random(n_ranks, degrees, rng)
