"""The flush path reads a tenant's window profile only when the tenant is
autotuned: a pinned tenant's flushes ingest into the profiler (volumes
and snapshots depend on it) but never aggregate the window.  Ingest only
queues a flush; its statistics are computed when the window is read, with
the same result as computing them at every flush."""

from __future__ import annotations

import numpy as np

from repro.core.envelope import EnvelopeBatch
from repro.core.list_matching import ListMatcher
from repro.serve import MatchingService, TenantSpec
from repro.serve import profiler as profiler_mod
from repro.serve.profiler import StreamProfiler
from repro.serve.shard import Shard
from repro.serve.state import dumps

MSGS = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])


def _drive(rounds: int = 6) -> MatchingService:
    svc = MatchingService(n_shards=1, seed=3, promote_after=2,
                          profile_window=2)
    svc.register(TenantSpec(name="pinned", autotune=False))
    svc.register(TenantSpec(name="tuned", ordering_required=True))
    for i in range(rounds):
        for name in ("pinned", "tuned"):
            svc.submit(name, MSGS, MSGS.take([3, 2, 1, 0]),
                       at_vt=float(i) * 0.01)
        svc.drain()
    return svc


def _events(svc: MatchingService) -> list[tuple]:
    return [(e.tenant, e.vt, e.from_label, e.to_label, e.direction,
             e.reason, e.extra_cycles, e.extra_seconds)
            for e in svc.retune_events]


def _eager_reference(monkeypatch) -> MatchingService:
    """``_drive`` with every tenant's window read after every flush, as
    the flush path did before it skipped the read for pinned tenants, so
    each flush's statistics are computed as it is ingested."""
    real_flush = Shard.flush_tenant

    def flush_and_profile(self, tenant, now_vt):
        result = real_flush(self, tenant, now_vt)
        self.tenants[tenant].profiler.profile()
        return result

    monkeypatch.setattr(Shard, "flush_tenant", flush_and_profile)
    reference = _drive()
    monkeypatch.undo()
    return reference


def test_pinned_tenant_flush_never_profiles(monkeypatch):
    reference = _eager_reference(monkeypatch)

    real_profile = StreamProfiler.profile
    guarded: list[StreamProfiler] = []

    def profile(self):
        if any(self is p for p in guarded):
            raise AssertionError("profile() read for a pinned tenant")
        return real_profile(self)

    monkeypatch.setattr(StreamProfiler, "profile", profile)
    # guard each pinned tenant's profiler as _drive registers it
    original_register = MatchingService.register

    def register(self, spec):
        original_register(self, spec)
        if not spec.autotune:
            guarded.append(self.tenant(spec.name).profiler)

    monkeypatch.setattr(MatchingService, "register", register)
    svc = _drive()
    monkeypatch.undo()

    assert len(guarded) == 1
    pinned = svc.tenant("pinned")
    assert pinned.flush_seq == reference.tenant("pinned").flush_seq == 6
    assert svc.shards[0].tenant_volumes() == \
        reference.shards[0].tenant_volumes()
    assert svc.shards[0].tenant_volumes()["pinned"] > 0
    for name in ("pinned", "tuned"):
        assert dumps(svc.tenant(name).profiler.export_state()) == \
            dumps(reference.tenant(name).profiler.export_state())
    # the autotuned tenant still reads its profile and still retunes
    assert _events(svc) == _events(reference)
    assert [e.tenant for e in svc.retune_events] == ["tuned"]
    assert svc.tenant("tuned").relaxations.label() == "nowc+ord+unexp"


def test_pinned_tenant_flush_computes_no_statistics(monkeypatch):
    reference = _eager_reference(monkeypatch)

    flushing: list[str] = []
    computed: list[str] = []
    real_flush = Shard.flush_tenant
    real_stats = profiler_mod._flush_stats

    def flush(self, tenant, now_vt):
        flushing.append(tenant)
        try:
            return real_flush(self, tenant, now_vt)
        finally:
            flushing.pop()

    def stats(*args):
        computed.append(flushing[-1] if flushing else "read")
        return real_stats(*args)

    monkeypatch.setattr(Shard, "flush_tenant", flush)
    monkeypatch.setattr(profiler_mod, "_flush_stats", stats)
    svc = _drive()
    assert "pinned" not in computed
    # the autotuned tenant reads its profile, one new flush per read
    assert computed.count("tuned") == 6
    volumes = svc.shards[0].tenant_volumes()
    pinned_window = svc.tenant("pinned").profiler.window_flushes
    assert computed.count("read") == pinned_window  # the read computes
    blobs = {name: dumps(svc.tenant(name).profiler.export_state())
             for name in ("pinned", "tuned")}
    assert computed.count("read") == pinned_window  # computed only once
    monkeypatch.undo()

    assert volumes == reference.shards[0].tenant_volumes()
    for name, blob in blobs.items():
        assert blob == dumps(reference.tenant(name).profiler.export_state())


def _flushes(n: int) -> list[tuple]:
    """``n`` varied (messages, requests, outcome) flushes: wildcards,
    duplicate tuples, empty sides and partial matches."""
    rng = np.random.default_rng(11)
    out = []
    for i in range(n):
        n_msg = 0 if i == 3 else int(rng.integers(1, 40))
        n_req = 0 if i == 5 else int(rng.integers(1, 40))
        msgs = EnvelopeBatch(rng.integers(0, 6, n_msg),
                             rng.integers(0, 4, n_msg),
                             rng.integers(0, 2, n_msg))
        reqs = EnvelopeBatch(rng.integers(-1, 6, n_req),
                             rng.integers(-1, 4, n_req),
                             rng.integers(0, 2, n_req))
        out.append((msgs, reqs, ListMatcher().match(msgs, reqs)))
    return out


def test_deferred_round_trip_equals_eager():
    flushes = _flushes(14)
    eager = StreamProfiler(window_flushes=4)
    eager_blobs = []
    for i, flush in enumerate(flushes):
        eager.ingest(*flush)
        eager.profile()
        if i in (6, 8, 13):
            eager_blobs.append(dumps(eager.export_state()))

    deferred = StreamProfiler(window_flushes=4)
    for flush in flushes[:4]:
        deferred.ingest(*flush)
    deferred.profile()                      # computed entries ...
    for flush in flushes[4:7]:
        deferred.ingest(*flush)             # ... and pending ones
    assert dumps(deferred.export_state()) == eager_blobs[0]

    restored = StreamProfiler()
    restored.restore_state(deferred.export_state())
    for flush in flushes[7:9]:
        restored.ingest(*flush)             # restored + pending entries
    assert dumps(restored.export_state()) == eager_blobs[1]
    for flush in flushes[9:]:
        restored.ingest(*flush)
    assert dumps(restored.export_state()) == eager_blobs[2]
    assert restored.profile() == eager.profile()
