"""The struct-of-arrays trace: builder blocks, the lazy event view,
validation, serialization and the loadgen's column reads."""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.serve.loadgen import busiest_rank, tenant_stream_from_trace
from repro.traces import app_names, generate_trace
from repro.traces.analyzer import (TableIRow, analyze, distinct_rows,
                                   normalized_entropy, rank_usage_uniformity,
                                   tag_distribution)
from repro.traces.apps.base import TraceBuilder
from repro.traces.apps.benchpark import pattern_summary
from repro.traces.events import (BARRIER, COLUMNS, POST, SEND, RecvPostEvent,
                                 SendEvent, Trace)
from repro.traces.io import dumps, loads
from repro.traces.uniqueness import per_destination_shares, tuple_uniqueness


def _columns_equal(a: Trace, b: Trace) -> bool:
    return all(np.array_equal(a.columns[n], b.columns[n]) for n in COLUMNS)


class TestBuilder:
    def test_len_counts_pending_rows_and_blocks(self):
        b = TraceBuilder()
        b.send(0, 1, tag=3)
        b.post(1, src=0, tag=3)
        assert len(b) == 2
        b.exchange([(0, 1), (1, 0)], tag_of=lambda s, d, k: k,
                   msgs_per_pair=2, rng=np.random.default_rng(1))
        assert len(b) == 2 + 2 * 4
        b.barrier(3)
        b.send(2, 0, tag=1)
        assert len(b) == 2 + 8 + 3 + 1
        trace = b.build("t", 3)
        assert len(trace) == len(b)

    def test_scalar_rows_and_blocks_keep_emit_order(self):
        b = TraceBuilder()
        b.send(0, 1, tag=7, comm=2, nbytes=64)
        b.exchange([(1, 0)], tag_of=lambda s, d, k: 5,
                   rng=np.random.default_rng(0))
        b.post(0, src=-1, tag=9)
        b.barrier(2)
        trace = b.build("t", 2)
        assert trace.kind.tolist() == [SEND, POST, SEND, POST,
                                       BARRIER, BARRIER]
        assert trace.time.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 5.0]
        assert trace.events[0] == SendEvent(1.0, 0, 1, 7, 2, 64)
        assert trace.events[3] == RecvPostEvent(4.0, 0, -1, 9, 0)
        assert trace.peer[-2:].tolist() == [-1, -1]

    def test_exchange_matches_scalar_reference(self):
        """The vectorized exchange draws the RNG exactly like a loop of
        scalar draws over the receives, then two list shuffles."""
        pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
        def tag_of(s, d, k):
            return (s * 3 + d + k) % 5

        b = TraceBuilder()
        b.exchange(pairs, tag_of=tag_of, msgs_per_pair=3,
                   prepost_fraction=0.4, wildcard_src_fraction=0.3,
                   rng=np.random.default_rng(11))
        got = [(e.kind, e.rank, getattr(e, "dst", getattr(e, "src", None)),
                e.tag) for e in b.build("t", 4).events]

        rng = np.random.default_rng(11)
        recvs = []
        for s, d in pairs:
            for k in range(3):
                wild = rng.random() < 0.3
                recvs.append((d, -1 if wild else s, tag_of(s, d, k)))
        rng.shuffle(recvs)
        n_pre = int(round(0.4 * len(recvs)))
        order = list(range(len(pairs)))
        rng.shuffle(order)
        want = [("post_recv", *r) for r in recvs[:n_pre]]
        want += [("send", pairs[i][0], pairs[i][1],
                  tag_of(*pairs[i], k)) for i in order for k in range(3)]
        want += [("post_recv", *r) for r in recvs[n_pre:]]
        assert got == want


class TestEventView:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace("df_minidft", n_ranks=8, steps=1, seed=2)

    def test_sized_sliceable_and_indexable(self, trace):
        view = trace.events
        assert len(view) == len(trace)
        events = list(view)
        assert events[-1] == view[-1] == view[len(view) - 1]
        assert list(view[3:40:7]) == events[3:40:7]
        assert list(view[::-1][:5]) == events[::-1][:5]
        with pytest.raises(IndexError):
            view[len(view)]

    def test_filters_are_views(self, trace):
        sends = trace.sends()
        assert all(e.kind == "send" for e in sends)
        assert len(sends) + len(trace.recv_posts()) \
            + len(trace.barriers()) == len(trace)
        assert list(sends[:3]) == [e for e in trace.events
                                   if e.kind == "send"][:3]

    def test_columns_are_read_only(self, trace):
        with pytest.raises(ValueError):
            trace.tag[0] = 1


class TestTraceColumns:
    def test_events_and_columns_build_the_same_trace(self):
        trace = generate_trace("df_minife", n_ranks=8, steps=1)
        again = Trace(app=trace.app, n_ranks=8, events=list(trace.events))
        assert _columns_equal(trace, again)

    def test_validation_messages(self):
        cols = {"kind": [SEND, SEND], "time": [2.0, 1.0], "rank": [0, 0],
                "peer": [1, 1], "tag": [0, 0], "comm": [0, 0],
                "nbytes": [8, 8]}
        with pytest.raises(ValueError, match=r"out of time order at t=1\.0"):
            Trace("x", 2, columns=cols)
        with pytest.raises(ValueError, match="event rank 5 out of range"):
            Trace("x", 2, columns=dict(cols, time=[1.0, 2.0], rank=[0, 5]))
        with pytest.raises(ValueError, match="send dst 9 out of range"):
            Trace("x", 2, columns=dict(cols, time=[1.0, 2.0], peer=[1, 9]))

    def test_values_that_do_not_fit_are_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            Trace("x", 2, events=[SendEvent(1.0, 0, 1, tag=2**40)])


class TestSerialization:
    def test_busiest_rank_leaves_trace_serializable(self):
        """Loadgen reads must not leave state in ``trace.meta``: once the
        loadgen cached ndarrays there and ``dumps`` raised TypeError."""
        trace = generate_trace("df_minife", n_ranks=8, steps=2)
        meta = dict(trace.meta)
        busiest_rank(trace)
        tenant_stream_from_trace(trace, 0)
        again = loads(dumps(trace))
        assert trace.meta == meta
        assert again.meta == meta
        assert _columns_equal(trace, again)

    def test_roundtrip_keeps_wildcards_and_nbytes(self):
        trace = generate_trace("bp_laghos", n_ranks=8, steps=1)
        wild = generate_trace("df_minidft", n_ranks=16, steps=1)
        assert (wild.peer[wild.kind == POST] == -1).any()
        for t in (trace, wild):
            assert _columns_equal(loads(dumps(t)), t)


class TestLoadgenColumns:
    def test_envelope_columns_are_int64(self):
        trace = generate_trace("df_minidft", n_ranks=16, steps=1)
        assert trace.tag.dtype != np.int64   # stored narrower
        chunks = tenant_stream_from_trace(trace, busiest_rank(trace),
                                          chunk_envelopes=8)
        for msgs, reqs in chunks:
            for col in (msgs.src, msgs.tag, msgs.comm,
                        msgs.state_dict()["packed"],
                        reqs.src, reqs.tag, reqs.comm):
                assert col.dtype == np.int64


# -- the column analyses against the per-event walks they replaced ----------


def _ref_analyze(trace):
    sends, posts = list(trace.sends()), list(trace.recv_posts())
    peers = defaultdict(set)
    for s in sends:
        peers[s.rank].add(s.dst)
        peers[s.dst].add(s.rank)
    peer_counts = np.array([len(peers[r]) for r in range(trace.n_ranks)])
    tags = {s.tag for s in sends}
    return TableIRow(
        app=trace.app, n_ranks=trace.n_ranks, sends=len(sends),
        src_wildcards=sum(1 for p in posts if p.src == -1),
        tag_wildcards=sum(1 for p in posts if p.tag == -1),
        n_communicators=len({e.comm for e in sends + posts}),
        peers_mean=float(peer_counts.mean()),
        peers_max=int(peer_counts.max()),
        n_tags=len(tags),
        tag_bits_needed=int(max(tags) if tags else 0).bit_length(),
        rank_usage_cov=rank_usage_uniformity(trace),
        tag_entropy=normalized_entropy(
            list(Counter(s.tag for s in sends).values())))


def _ref_uniqueness(trace):
    per_dst = defaultdict(Counter)
    for s in trace.sends():
        per_dst[s.dst][(s.rank, s.tag)] += 1
    shares = {d: c.most_common(1)[0][1] / sum(c.values())
              for d, c in per_dst.items()}
    vals = np.array(list(shares.values()))
    n_sends = sum(sum(c.values()) for c in per_dst.values())
    n_tuples = sum(len(c) for c in per_dst.values())
    return shares, {
        "app": trace.app,
        "dominant_share_mean": float(vals.mean()),
        "dominant_share_median": float(np.median(vals)),
        "dominant_share_max": float(vals.max()),
        "duplicate_fraction": (n_sends - n_tuples) / n_sends,
    }


def _ref_rank_usage(trace):
    counts = Counter(s.dst for s in trace.sends())
    arr = np.array([counts.get(r, 0) for r in range(trace.n_ranks)],
                   dtype=float)
    return float(arr.std() / arr.mean())


@pytest.mark.parametrize("app", app_names())
def test_column_analyses_equal_event_walks(app):
    """Bit-identical, floats included: the column code keeps the event
    walks' value order wherever a float sum depends on it."""
    trace = generate_trace(app, n_ranks=12, steps=2, seed=4)
    assert analyze(trace) == _ref_analyze(trace)
    assert rank_usage_uniformity(trace) == _ref_rank_usage(trace)
    shares, uniq = _ref_uniqueness(trace)
    assert per_destination_shares(trace) == shares
    assert list(per_destination_shares(trace)) == list(shares)
    assert tuple_uniqueness(trace) == uniq
    want_tags = Counter(s.tag for s in trace.sends())
    assert tag_distribution(trace) == want_tags
    assert list(tag_distribution(trace)) == list(want_tags)


def test_distinct_rows_matches_rowwise_unique():
    rng = np.random.default_rng(3)
    small = [rng.integers(-3, 9, 500) for _ in range(3)]
    wide = [rng.integers(-2**40, 2**40, 500) for _ in range(2)]
    for cols in (small, wide, [np.empty(0, dtype=np.int32)] * 2):
        rows, counts = distinct_rows(*cols)
        want, want_counts = np.unique(np.stack(cols, axis=1), axis=0,
                                      return_counts=True)
        assert np.array_equal(np.stack(rows, axis=1).reshape(want.shape),
                              want)
        assert np.array_equal(counts, want_counts)


def _ref_pattern_phase(events):
    sends = [e for e in events if e.kind == "send"]
    tuples, pairs, peers = {}, {}, {}
    for e in sends:
        tuples[(e.rank, e.tag, e.comm)] = \
            tuples.get((e.rank, e.tag, e.comm), 0) + 1
        pairs[(e.rank, e.dst)] = pairs.get((e.rank, e.dst), 0) + 1
        peers.setdefault(e.rank, set()).add(e.dst)
    counts = sorted(tuples.values())
    pair_arr = np.array(sorted(pairs.values()), dtype=float)
    degree = np.array([len(v) for v in peers.values()], dtype=float)
    return {
        "sends": len(sends),
        "posts": sum(1 for e in events if e.kind == "post_recv"),
        "tuple_cardinality": len(tuples),
        "msgs_per_tuple_mean": len(sends) / len(tuples),
        "dominant_tuple_fraction": float(counts[-1]) / len(sends),
        "pairs": len(pairs),
        "msgs_per_pair_mean": float(pair_arr.mean()),
        "msgs_per_pair_max": int(pair_arr[-1]),
        "peers_mean": float(degree.mean()),
        "peers_max": int(degree.max()),
    }


@pytest.mark.parametrize("app", ["bp_amg2023", "bp_kripke", "bp_laghos",
                                 "df_minidft"])
def test_pattern_summary_equals_event_walk(app):
    trace = generate_trace(app, n_ranks=16, steps=2, seed=1)
    phases = trace.meta.get("phases") or {"all": (0, len(trace))}
    want = {name: _ref_pattern_phase(list(trace.events[lo:hi]))
            for name, (lo, hi) in phases.items()}
    assert pattern_summary(trace)["phases"] == want
