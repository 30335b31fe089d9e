"""The flush path reads a tenant's window profile only when the tenant is
autotuned: a pinned tenant's flushes ingest into the profiler (volumes
and snapshots depend on it) but never aggregate the window."""

from __future__ import annotations

from repro.core.envelope import EnvelopeBatch
from repro.serve import MatchingService, TenantSpec
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


def test_pinned_tenant_flush_never_profiles(monkeypatch):
    # reference: every flush also aggregates every tenant's window, as
    # the flush path did before it skipped the read for pinned tenants
    real_flush = Shard.flush_tenant

    def flush_and_profile(self, tenant, now_vt):
        result = real_flush(self, tenant, now_vt)
        self.tenants[tenant].profiler.profile()
        return result

    monkeypatch.setattr(Shard, "flush_tenant", flush_and_profile)
    reference = _drive()
    monkeypatch.undo()

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
