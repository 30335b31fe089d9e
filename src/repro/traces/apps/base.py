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
           "ring_neighbors", "random_neighbors", "skewed_neighbors"]

_N_COLUMNS = len(COLUMNS)


class TraceBuilder:
    """Accumulates events as column blocks with a monotonically
    increasing clock.

    :meth:`exchange` and :meth:`barrier` append one column block each.
    The scalar emits (:meth:`send`, :meth:`post`) append a row to a
    pending buffer that becomes a block at the next block emit or at
    :meth:`build`, so scalar-heavy models stay cheap.  ``len(builder)``
    counts every event emitted so far (the phase marks of the Benchpark
    models).

    The synthetic clock has no physical meaning; only the *order* of
    events matters to the analyses (it decides queue interleavings).
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._n_blocked = 0
        self._rows: list = []   # pending scalar rows, flattened
        self._t = 0.0

    def __len__(self) -> int:
        return self._n_blocked + len(self._rows) // _N_COLUMNS

    def _tick(self) -> float:
        self._t += 1.0
        return self._t

    def _append(self, block: tuple[np.ndarray, ...]) -> None:
        self._blocks.append(block)
        self._n_blocked += int(block[0].size)

    def _flush(self) -> None:
        """Turn the pending scalar rows into one column block."""
        if self._rows:
            rows = np.array(self._rows, dtype=np.float64)
            rows = rows.reshape(-1, _N_COLUMNS).T
            self._rows = []
            self._append(tuple(rows))

    def send(self, rank: int, dst: int, tag: int, comm: int = 0,
             nbytes: int = 8) -> None:
        """Record a send."""
        self._rows.extend((SEND, self._tick(), rank, dst, tag, comm, nbytes))

    def post(self, rank: int, src: int, tag: int, comm: int = 0) -> None:
        """Record a receive post (src/tag may be -1)."""
        self._rows.extend((POST, self._tick(), rank, src, tag, comm, 0))

    def barrier(self, n_ranks: int) -> None:
        """Record a superstep boundary on every rank."""
        self._flush()
        t = self._tick()
        ranks = np.arange(n_ranks)
        zeros = np.zeros(n_ranks, dtype=np.int64)
        self._append((np.full(n_ranks, BARRIER), np.full(n_ranks, t), ranks,
                      np.full(n_ranks, -1), zeros, zeros, zeros))

    def exchange(self, pairs: Sequence[tuple[int, int]],
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

        ``tag_of(src, dst, k)`` names the tag of the k-th message on a
        pair; ``comm_of`` likewise for the communicator (default 0).
        Both are called once with the phase's whole ``src``/``dst``/``k``
        arrays (pair-major, ``k`` fastest) and may return an array or a
        scalar.

        ``prepost_fraction`` of the receives are posted *before* any send
        of the phase (they land in the PRQ and wait); the rest are posted
        after all sends (those messages sit in the UMQ as unexpected).
        ``wildcard_src_fraction`` of the receives use MPI_ANY_SOURCE.

        RNG draws, in order: one uniform per receive (wildcard or not),
        the shuffle of the receive order, the shuffle of the send order
        over pairs.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        self._flush()
        pairs = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                            count=2 * len(pairs)).reshape(-1, 2)
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
        # rows: receives posted before the sends, the sends, the rest
        rows = np.concatenate([recvs[:n_pre], sends, recvs[n_pre:]])
        is_send = np.zeros(2 * n, dtype=bool)
        is_send[n_pre:n_pre + n] = True
        rank = np.where(is_send, src[rows], dst[rows])
        peer = np.where(is_send, dst[rows],
                        np.where(wild[rows], -1, src[rows]))
        self._append((np.where(is_send, SEND, POST),
                      self._t + np.arange(1, 2 * n + 1, dtype=np.float64),
                      rank, peer, tag[rows], comm[rows],
                      np.where(is_send, nbytes, 0)))
        self._t += 2 * n

    def build(self, app: str, n_ranks: int, meta: dict | None = None) -> Trace:
        """Finalize into a :class:`Trace`."""
        self._flush()
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


def grid_neighbors(n_ranks: int, ndim: int = 3, corners: bool = False,
                   ) -> list[list[int]]:
    """Cartesian halo neighbors (non-periodic) for every rank.

    ``corners=False`` gives the 2*ndim face stencil; ``corners=True`` the
    full Moore neighborhood (8 in 2-D, 26 in 3-D) that halo codes like
    LULESH exchange with.
    """
    dims = grid_dims(n_ranks, ndim)
    coords = [np.unravel_index(r, dims) for r in range(n_ranks)]
    index = {c: r for r, c in enumerate(coords)}
    offsets: list[tuple[int, ...]] = []
    if corners:
        grids = np.meshgrid(*[[-1, 0, 1]] * ndim, indexing="ij")
        for off in zip(*[g.ravel() for g in grids]):
            if any(off):
                offsets.append(off)
    else:
        for d in range(ndim):
            for s in (-1, 1):
                off = [0] * ndim
                off[d] = s
                offsets.append(tuple(off))
    out: list[list[int]] = []
    for r in range(n_ranks):
        mine = []
        for off in offsets:
            c = tuple(int(x) + int(o) for x, o in zip(coords[r], off))
            if all(0 <= ci < di for ci, di in zip(c, dims)):
                mine.append(index[c])
        out.append(mine)
    return out


def ring_neighbors(n_ranks: int, hops: int = 1) -> list[list[int]]:
    """Bidirectional ring with ``hops`` neighbors on each side."""
    return [[(r + d) % n_ranks for d in range(-hops, hops + 1) if d != 0]
            for r in range(n_ranks)]


def random_neighbors(n_ranks: int, k: int,
                     rng: np.random.Generator) -> list[list[int]]:
    """Uniform random ``k``-neighbor sets (symmetrized, so degrees are
    approximately ``k`` and communication is two-way like real halo
    exchanges)."""
    k = min(k, n_ranks - 1)
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]


def skewed_neighbors(n_ranks: int, k_min: int, k_max: int,
                     rng: np.random.Generator,
                     hot_fraction: float = 0.1) -> list[list[int]]:
    """Irregular neighbor sets: a few 'hot' ranks talk to many peers.

    Models the irregular rank-usage distribution the paper observes for
    CESAR Nekbone and AMR Boxlib (Section VI-A), which unbalances
    statically partitioned queues.
    """
    hot = max(1, int(hot_fraction * n_ranks))
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        k = k_max if r < hot else k_min
        k = min(k, n_ranks - 1)
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]
