"""The flush path reads window statistics only for an autotuned tenant,
and only the tiers its decision needs: a pinned tenant's flushes ingest
into the profiler (volumes and snapshots depend on it) but compute
nothing.  Ingest only queues a flush; its statistics are computed when
the window is read, with the same result as computing the full profile
at every flush."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.envelope import ANY_SOURCE, EnvelopeBatch
from repro.core.list_matching import ListMatcher
from repro.serve import Autotuner, MatchingService, TenantSpec
from repro.serve import profiler as profiler_mod
from repro.serve.profiler import StreamProfiler
from repro.serve.shard import Shard
from repro.serve.state import dumps, restore_service, snapshot_service

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


def _record_tiers(monkeypatch) -> list[tuple[str, str, bool]]:
    """Record each computed tier as ``(tier, who, in_full)``: ``who`` is
    the tenant whose flush computed it (``"read"`` outside a flush), and
    ``in_full`` says whether a full-profile read (``profile()`` or
    ``export_state()``) was running."""
    computed: list[tuple[str, str, bool]] = []
    flushing: list[str] = []
    full_reads: list[bool] = []

    def around(real, stack, mark):
        def wrapped(self, *args):
            stack.append(mark(*args))
            try:
                return real(self, *args)
            finally:
                stack.pop()
        return wrapped

    monkeypatch.setattr(Shard, "flush_tenant", around(
        Shard.flush_tenant, flushing, lambda tenant, now_vt: tenant))
    for name in ("profile", "export_state"):
        monkeypatch.setattr(StreamProfiler, name, around(
            getattr(StreamProfiler, name), full_reads, lambda: True))
    for tier in ("counts", "tuple", "sets"):
        real = getattr(profiler_mod, f"_{tier}_tier")

        def stats(*args, _real=real, _tier=tier):
            computed.append((_tier, flushing[-1] if flushing else "read",
                             bool(full_reads)))
            return _real(*args)

        monkeypatch.setattr(profiler_mod, f"_{tier}_tier", stats)
    return computed


def _tally(computed, who: str, tier: str, in_full: bool = False) -> int:
    """Tier computations by ``who`` inside (or outside) full reads."""
    return computed.count((tier, who, in_full))


def test_pinned_tenant_flush_computes_no_statistics(monkeypatch):
    reference = _eager_reference(monkeypatch)

    computed = _record_tiers(monkeypatch)
    svc = _drive()
    assert not [c for c in computed if c[1] == "pinned"]
    # the ordered autotuned tenant counts each new flush once; only its
    # one retune reads the full profile
    assert _tally(computed, "tuned", "counts") == 6
    assert _tally(computed, "tuned", "tuple") == 0
    assert _tally(computed, "tuned", "sets", in_full=True) == 2
    n_before = len(computed)
    volumes = svc.shards[0].tenant_volumes()
    pinned_window = svc.tenant("pinned").profiler.window_flushes
    # the volume read counts the pinned window, and nothing else
    assert computed[n_before:] == [("counts", "read", False)] * pinned_window
    blobs = {name: dumps(svc.tenant(name).profiler.export_state())
             for name in ("pinned", "tuned")}
    # the snapshot computes the remaining tiers, counts only once
    assert _tally(computed, "read", "counts") == pinned_window
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


# -- every tenant kind: lazy decisions against the eager profile ---------------

#: tenant -> (spec, stream kind).  Window 3 under 12 rounds evicts every
#: entry several times over.
KINDS = {
    "wild": (TenantSpec(name="wild"), "wildcard"),
    "bursty": (TenantSpec(name="bursty"), "burst"),
    "ordered": (TenantSpec(name="ordered"), "clean"),
    "unordered": (TenantSpec(name="unordered", ordering_required=False),
                  "clean"),
    "dominant": (TenantSpec(name="dominant", ordering_required=False),
                 "dominant"),
    "part": (TenantSpec(name="part", ordering_required=False,
                        partitioned=True), "clean"),
    "sess": (TenantSpec(name="sess", ordering_required=False,
                        session=True), "partial"),
    "pinned": (TenantSpec(name="pinned", autotune=False), "clean"),
}
ROUNDS = 12


def _stream(kind: str, rnd: int, seed: int) -> tuple:
    """One round's (messages, requests) for a tenant kind."""
    rng = np.random.default_rng([seed, rnd])
    n = int(rng.integers(24, 48))
    src = rng.integers(0, 8, n)
    tag = rng.integers(0, 16, n)
    if kind == "dominant":
        hot = rng.random(n) < 0.5
        src[hot], tag[hot] = 0, 0
    msgs = EnvelopeBatch(src, tag)
    reqs = msgs.take(rng.permutation(n))
    if kind == "wildcard" or (kind == "burst" and rnd in (0, 7)):
        wild = rng.random(n) < 0.3
        reqs = EnvelopeBatch(np.where(wild, ANY_SOURCE, reqs.src), reqs.tag)
    elif kind == "partial":
        # a third of the requests wait for messages of a later round
        keep = rng.random(n) < 0.67
        reqs = EnvelopeBatch(np.where(keep, reqs.src, reqs.src + 8),
                             reqs.tag)
    return msgs, reqs


def _kinds_service() -> MatchingService:
    svc = MatchingService(n_shards=2, seed=5, promote_after=2,
                          profile_window=3)
    for spec, _ in KINDS.values():
        svc.register(spec)
    return svc


def _run_kinds(svc: MatchingService, rounds: range) -> MatchingService:
    for rnd in rounds:
        for name, (_, kind) in KINDS.items():
            svc.submit(name, *_stream(kind, rnd, seed=2),
                       at_vt=float(rnd) * 0.01)
        svc.drain()
    return svc


def _kinds_fingerprint(svc: MatchingService) -> dict:
    digest = hashlib.sha256()
    for r in svc.results:
        digest.update(repr((r.tenant, r.flush_seq, r.engine_label,
                            r.outcome.seconds, r.outcome.cycles)).encode())
        digest.update(r.outcome.request_to_message.tobytes())
    return {"events": _events(svc),
            "labels": {name: svc.tenant(name).relaxations.label()
                       for name in KINDS},
            "flushes": digest.hexdigest(),
            "profilers": {name: dumps(svc.tenant(name).profiler
                                      .export_state())
                          for name in KINDS}}


def _eager_decisions(monkeypatch) -> MatchingService:
    """The kinds run with every decision handed the full ``profile()``."""
    real_consider = Autotuner.consider

    def consider(self, current, window, now_vt):
        return real_consider(self, current, window.profile(), now_vt)

    monkeypatch.setattr(Autotuner, "consider", consider)
    reference = _run_kinds(_kinds_service(), range(ROUNDS))
    monkeypatch.undo()
    return reference


def test_lazy_decisions_equal_eager_profile(monkeypatch):
    reference = _eager_decisions(monkeypatch)
    lazy = _run_kinds(_kinds_service(), range(ROUNDS))
    expected = _kinds_fingerprint(reference)
    assert _kinds_fingerprint(lazy) == expected

    labels = expected["labels"]
    assert labels["wild"] == "wc+ord+unexp"
    assert labels["ordered"] == labels["part"] == "nowc+ord+unexp"
    assert labels["dominant"] == "nowc+ord+unexp"
    assert labels["unordered"] == labels["sess"] == "nowc+noord+unexp"
    assert labels["pinned"] == "wc+ord+unexp"
    # the round-0 burst ages out of the window and the tenant is
    # promoted; the round-7 burst demotes it (in the engine, mid-match)
    # until that burst ages out too
    assert [e.direction for e in reference.retune_events
            if e.tenant == "bursty"] == ["promote", "demote", "promote"]
    # a partial-profile reason would print a 0% duplicate fraction
    assert any(e.tenant == "dominant" and "duplicate tuples" in e.reason
               and "(0%)" not in e.reason
               for e in reference.retune_events)


@pytest.mark.parametrize("cut", [3, 10])
def test_restore_mid_window_continues_lazy_decisions(cut):
    """Cut where the window holds entries with only some tiers computed,
    and ``bursty`` is one window into a promotion streak."""
    uninterrupted = _run_kinds(_kinds_service(), range(ROUNDS))
    live = _run_kinds(_kinds_service(), range(cut))
    twin = _run_kinds(restore_service(snapshot_service(live)),
                      range(cut, ROUNDS))
    assert _kinds_fingerprint(twin) == _kinds_fingerprint(uninterrupted)


def test_decisions_compute_only_the_tiers_they_read(monkeypatch):
    computed = _record_tiers(monkeypatch)
    svc = _run_kinds(_kinds_service(), range(ROUNDS))
    flushes = {name: svc.tenant(name).flush_seq for name in KINDS}
    assert all(n >= ROUNDS for n in flushes.values())

    # outside the full reads, each flush computes each tier it needs
    # exactly once, and the sets tier never
    for name in ("wild", "bursty", "ordered", "part"):
        assert _tally(computed, name, "counts") == flushes[name]
        assert _tally(computed, name, "tuple") == 0
    for name in ("unordered", "dominant", "sess"):
        assert _tally(computed, name, "counts") == flushes[name]
        assert _tally(computed, name, "tuple") == flushes[name]
    assert not [c for c in computed if c[1] == "pinned"]
    assert not [c for c in computed if c[0] == "sets" and not c[2]]
    # full reads happen only on a retune
    for name in KINDS:
        moves = sum(1 for e in svc.retune_events if e.tenant == name)
        assert bool(_tally(computed, name, "sets", in_full=True)) == \
            bool(moves)
