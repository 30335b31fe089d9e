"""The array-native topology helpers against their per-rank list forms.

The references below are the scalar helpers the app models used before
they built neighbor and pair arrays with NumPy.  The arrays must give
identical lists and consume the RNG identically -- the trace digests
depend on both.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.traces.apps.base import (TraceBuilder, grid_dims, grid_neighbors,
                                    neighbor_pairs, random_neighbors,
                                    skewed_neighbors)
from repro.traces.events import COLUMNS, POST, SEND

RANK_COUNTS = (2, 6, 12, 17, 64, 100, 128)


def ref_grid_neighbors(n_ranks, ndim=3, corners=False):
    dims = grid_dims(n_ranks, ndim)
    coords = [np.unravel_index(r, dims) for r in range(n_ranks)]
    index = {c: r for r, c in enumerate(coords)}
    offsets = []
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
    out = []
    for r in range(n_ranks):
        mine = []
        for off in offsets:
            c = tuple(int(x) + int(o) for x, o in zip(coords[r], off))
            if all(0 <= ci < di for ci, di in zip(c, dims)):
                mine.append(index[c])
        out.append(mine)
    return out


def ref_random_neighbors(n_ranks, k, rng):
    k = min(k, n_ranks - 1)
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]


def ref_skewed_neighbors(n_ranks, k_min, k_max, rng, hot_fraction=0.1):
    hot = max(1, int(hot_fraction * n_ranks))
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        k = min(k_max if r < hot else k_min, n_ranks - 1)
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]


@pytest.mark.parametrize("n_ranks,ndim,corners",
                         list(product(RANK_COUNTS, (1, 2, 3),
                                      (False, True))))
def test_grid_neighbors_equal_scalar_reference(n_ranks, ndim, corners):
    got = grid_neighbors(n_ranks, ndim=ndim, corners=corners)
    assert got == ref_grid_neighbors(n_ranks, ndim, corners)
    assert all(type(v) is int for ns in got for v in ns)


@pytest.mark.parametrize("n_ranks", RANK_COUNTS)
@pytest.mark.parametrize("k", (1, 4, 22))
def test_random_neighbors_equal_scalar_reference(n_ranks, k):
    a, b = np.random.default_rng(n_ranks + k), \
        np.random.default_rng(n_ranks + k)
    assert random_neighbors(n_ranks, k, a) == \
        ref_random_neighbors(n_ranks, k, b)
    assert a.random() == b.random()   # same number of draws


@pytest.mark.parametrize("n_ranks", RANK_COUNTS)
@pytest.mark.parametrize("k_min,k_max,hot", [(3, 40, 0.08), (1, 5, 0.5)])
def test_skewed_neighbors_equal_scalar_reference(n_ranks, k_min, k_max,
                                                 hot):
    a, b = np.random.default_rng(n_ranks), np.random.default_rng(n_ranks)
    assert skewed_neighbors(n_ranks, k_min, k_max, a, hot) == \
        ref_skewed_neighbors(n_ranks, k_min, k_max, b, hot)
    assert a.random() == b.random()


def test_neighbor_pairs_is_src_major_in_list_order():
    nbrs = [[2, 1], [], [0]]
    pairs = neighbor_pairs(nbrs)
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [[0, 2], [0, 1], [2, 0]]
    assert neighbor_pairs([[], []]).shape == (0, 2)


def _blocks(pairs, **kw):
    b = TraceBuilder()
    b.exchange(pairs, tag_of=lambda s, d, k: (s * 3 + d + k) % 5,
               comm_of=lambda s, d, k: s % 2, rng=np.random.default_rng(4),
               **kw)
    return b.build("t", 6)


@pytest.mark.parametrize("kw", [
    {},
    {"msgs_per_pair": 3, "prepost_fraction": 0.4,
     "wildcard_src_fraction": 0.3},
    {"prepost_fraction": 0.0, "nbytes": 64},
])
def test_exchange_takes_tuples_or_arrays_alike(kw):
    tuples = [(s, d) for s in range(6) for d in range(6) if s != d]
    as_list = _blocks(tuples, **kw)
    as_array = _blocks(np.array(tuples), **kw)
    as_pairs = _blocks(neighbor_pairs(
        [[d for d in range(6) if d != s] for s in range(6)]), **kw)
    for name in COLUMNS:
        assert np.array_equal(as_list.columns[name],
                              as_array.columns[name])
        assert np.array_equal(as_list.columns[name],
                              as_pairs.columns[name])


def test_exchange_of_no_pairs_emits_nothing():
    b = TraceBuilder()
    b.exchange([], tag_of=lambda s, d, k: 0)
    b.exchange(np.empty((0, 2), dtype=np.int64), tag_of=lambda s, d, k: 0)
    assert len(b) == 0


def test_flood_equals_scalar_emits():
    bursts = np.array([40, 9, 9, 2])

    b = TraceBuilder()
    b.flood(bursts, tag_of=lambda k: 1 + k % 4, comm=1)
    got = b.build("t", 4)

    ref = TraceBuilder()
    for dst in range(4):
        srcs = [s for s in range(4) if s != dst]
        per_src = max(1, int(bursts[dst]) // len(srcs))
        for s in srcs:
            for k in range(per_src):
                ref.send(s, dst, tag=1 + k % 4, comm=1)
        for s in srcs:
            for k in range(per_src):
                ref.post(dst, src=s, tag=1 + k % 4, comm=1)
    want = ref.build("t", 4)
    for name in COLUMNS:
        assert np.array_equal(got.columns[name], want.columns[name]), name
    assert got.kind[:3].tolist() == [SEND] * 3
    assert got.kind[13 * 3:13 * 3 + 1].tolist() == [POST]
