"""Cross-process determinism: a same-seed cluster run is bit-identical
to the in-process :class:`MatchingService`.

The contract under test is the cluster's core relaxation payoff: serve
decisions never read wall clocks or process identity, and placement is
the same stable CRC32 hash whether ``n`` counts in-process shards or
worker processes -- so ``ClusterService(n_workers=N)`` must reproduce
``MatchingService(n_shards=N)`` exactly: same tickets, same flush
results (virtual timestamps, covered seqs, per-request latencies,
engine labels), same report dict.  Identity must survive admission
shedding (shed decisions are part of the deterministic record, not an
exception to it) and session tenants (carried state crosses flushes).

Each test class runs on ``fork`` workers and again, as its ``Inline``
subclass, on ``inline`` workers -- the same router, journal and
recovery protocol with no process boundary; one smoke pins the
``spawn`` contract (workers must rebuild everything from the wire init
blob, never inherit router memory).
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.envelope import EnvelopeBatch
from repro.serve import (AdmissionPolicy, BatchPolicy, ClusterError,
                         ClusterService, MatchingService, TenantSpec,
                         merge_workloads, run_cluster_workload, run_workload,
                         stable_shard, workload_from_app)
from repro.serve.loadgen import ServeWorkload


def mixed_workload(seed: int = 7, *, steps: int = 3, n_ranks: int = 24,
                   session: bool = False):
    parts = [workload_from_app("df_minife", rate_rps=2000.0,
                               n_ranks=n_ranks, steps=steps, seed=seed,
                               tenant_name="mini", session=session),
             workload_from_app("df_amg", rate_rps=1500.0, n_ranks=n_ranks,
                               steps=steps, seed=seed + 1,
                               ordering_required=False, tenant_name="amg",
                               session=session)]
    return merge_workloads("mix", parts)


def keyed_flushes(results):
    """Flush results keyed for order-independent comparison.

    The router interleaves response queues nondeterministically in wall
    time, so ``results`` list order may differ between runs; the keyed
    *content* -- everything virtual-time-derived -- may not.
    """
    out = {}
    for r in results:
        key = (r.tenant, r.flush_seq)
        assert key not in out, f"duplicate flush {key}"
        out[key] = (r.shard_id, r.flush_vt, r.covered_seqs,
                    r.latencies_vt, r.engine_label,
                    r.outcome.matched_count)
    return out


def assert_identical(cluster, service):
    assert keyed_flushes(cluster.results) == keyed_flushes(service.results)
    assert cluster.ticket_list() == service.tickets
    assert cluster.report() == service.report()


class TestClusterIdentity:
    start_method = "fork"

    def test_two_workers_match_two_shards(self):
        wl = mixed_workload(seed=7)
        svc, _ = run_workload(wl, n_shards=2, seed=7)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=7,
                                          start_method=self.start_method)
        assert cluster.report()["matched"] > 0
        assert_identical(cluster, svc)

    def test_single_worker_matches_single_shard(self):
        wl = mixed_workload(seed=11, steps=2)
        svc, _ = run_workload(wl, n_shards=1, seed=11)
        cluster, _ = run_cluster_workload(wl, n_workers=1, seed=11,
                                          start_method=self.start_method)
        assert_identical(cluster, svc)

    def test_identity_under_admission_shedding(self):
        """Shed tickets are deterministic serve decisions: the cluster
        must shed the *same* requests with the same retry hints."""
        wl = mixed_workload(seed=13)
        admission = AdmissionPolicy(capacity=192, soft_fraction=0.5)
        batching = BatchPolicy(max_envelopes=256, max_delay_vt=0.05)
        svc, _ = run_workload(wl, n_shards=2, seed=13,
                              admission=admission, batching=batching)
        shed = svc.shed_counts
        assert shed["retryable"] + shed["overloaded"] > 0, \
            "scenario must actually shed"
        cluster, _ = run_cluster_workload(
            wl, n_workers=2, seed=13, admission=admission,
            batching=batching, start_method=self.start_method)
        assert cluster.shed_counts == shed
        assert_identical(cluster, svc)

    def test_identity_with_session_tenants(self):
        """Persistent-UMQ carry-over crosses flush boundaries; the
        worker's carried state must evolve exactly like the shard's."""
        wl = mixed_workload(seed=17, session=True)
        svc, _ = run_workload(wl, n_shards=2, seed=17)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=17,
                                          start_method=self.start_method)
        assert_identical(cluster, svc)

    def test_spawn_smoke(self):
        """The spawn-safety contract: a spawned worker holds no forked
        router memory; everything arrives via the wire init blob."""
        wl = mixed_workload(seed=19, steps=2, n_ranks=8)
        svc, _ = run_workload(wl, n_shards=2, seed=19)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=19,
                                          start_method="spawn")
        assert_identical(cluster, svc)


class TestRouterMechanics:
    start_method = "fork"

    def test_placement_is_the_stable_hash(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=7,
                                          start_method=self.start_method)
        report = cluster.report()
        for spec in wl.tenants:
            assert report["tenants"][spec.name]["shard"] == \
                stable_shard(spec.name, 2)

    def test_tickets_cover_every_submission_after_sync(self):
        wl = mixed_workload(seed=23, steps=2, n_ranks=8)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=23,
                                          start_method=self.start_method)
        tickets = cluster.ticket_list()
        assert len(tickets) == len(wl.arrivals)
        assert [t.seq for t in tickets] == list(range(len(wl.arrivals)))

    def test_virtual_time_cannot_run_backward(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster = ClusterService(n_workers=2, seed=7,
                                 start_method=self.start_method)
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            a = wl.arrivals[0]
            cluster.submit(a.tenant, a.messages, a.requests, at_vt=1.0)
            with pytest.raises(ClusterError, match="backward"):
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=0.5)
            with pytest.raises(ClusterError, match="backward"):
                cluster.advance_to(0.25)

    def test_register_after_start_rejected(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster = ClusterService(n_workers=2, seed=7,
                                 start_method=self.start_method)
        cluster.register(wl.tenants[0])
        with cluster:
            with pytest.raises(ClusterError, match="before start"):
                cluster.register(wl.tenants[1])

    def test_worker_stats_require_sync(self):
        cluster = ClusterService(n_workers=1, seed=0,
                                 start_method=self.start_method)
        cluster.register(mixed_workload(steps=2, n_ranks=8).tenants[0])
        with cluster:
            with pytest.raises(ClusterError, match="sync"):
                cluster.worker_stats()
            cluster.sync()
            assert len(cluster.worker_stats()) == 1

    def test_checkpoint_identity_is_preserved(self):
        """An explicit mid-run checkpoint (journal truncation included)
        must not perturb the deterministic record."""
        wl = mixed_workload(seed=29, steps=2)
        svc, _ = run_workload(wl, n_shards=2, seed=29)
        cluster = ClusterService(n_workers=2, seed=29,
                                 start_method=self.start_method)
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.checkpoint_now()
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert_identical(cluster, svc)


class TestRouterHardening:
    """Regressions for router races around checkpointing, shutdown, and
    harness cleanup."""

    start_method = "fork"

    def test_no_checkpoint_mark_while_sending(self):
        """A checkpoint request marked while a journaled frame is still
        mid-delivery would truncate that frame from the journal without
        its effects being in the blob -- ``_maybe_checkpoint`` must be a
        no-op during ``_send``."""
        cluster = ClusterService(n_workers=1, seed=0,
                                 start_method=self.start_method,
                                 checkpoint_every=1)
        cluster.register(mixed_workload(steps=2, n_ranks=8).tenants[0])
        with cluster:
            w = cluster._workers[0]
            w.flushes_since_ckpt = cluster.checkpoint_every  # past cadence
            cluster._in_send = True
            try:
                cluster._maybe_checkpoint()
                assert w.ckpt_mark is None, \
                    "checkpoint marked while a send was in flight"
            finally:
                cluster._in_send = False
            cluster._maybe_checkpoint()
            assert w.ckpt_mark is not None  # cadence fires once send ends

    def test_checkpoint_cadence_identity_under_tiny_queue(self):
        """checkpoint_every=1 with a depth-1 command queue maximises
        checkpoint requests racing full-queue sends; the record must
        stay bit-identical to the in-process service."""
        wl = mixed_workload(seed=37, steps=2)
        svc, _ = run_workload(wl, n_shards=2, seed=37)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=37,
                                          start_method=self.start_method,
                                          checkpoint_every=1,
                                          queue_depth=1)
        assert_identical(cluster, svc)

    def test_stop_does_not_recover_dead_workers(self):
        """A worker found dead during shutdown is terminated at the
        join, never respawned for a journal replay it would only be
        killed after."""
        cluster = ClusterService(n_workers=2, seed=0,
                                 start_method=self.start_method)
        wl = mixed_workload(steps=2, n_ranks=8)
        for spec in wl.tenants:
            cluster.register(spec)
        cluster.start()
        victim = cluster._workers[0]
        victim.proc.terminate()
        victim.proc.join(timeout=5.0)
        cluster.stop()
        assert cluster.recoveries == []
        assert all(not w.alive() for w in cluster._workers)

    def test_replayed_export_does_not_accumulate_blobs(self):
        """A source recovery after a completed migration replays the
        journaled export_tenant frame; the re-posted tenant_state has no
        consumer and must be dropped, not accumulated."""
        wl = mixed_workload(seed=41, steps=2)
        cluster = ClusterService(n_workers=2, seed=41,
                                 start_method=self.start_method)
        for spec in wl.tenants:
            cluster.register(spec)
        moved = wl.tenants[0].name
        src = stable_shard(moved, 2)
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.begin_migration(moved, 1 - src)
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            assert cluster.migrations, "migration must have cut over"
            source = cluster._workers[src]
            source.proc.terminate()
            source.proc.join(timeout=5.0)
            cluster.drain()     # finds the dead source; journal replays
            cluster.sync()
            assert any(r.worker_id == src for r in cluster.recoveries)
            assert cluster._tenant_blobs == {}

    def test_checkpoint_size_does_not_grow_with_run_length(self):
        """A worker checkpoint holds live state only: flush results and
        tickets already posted to the router are its record, not the
        worker's, so a steady stream's checkpoint stays flat."""
        n = 16
        msgs = EnvelopeBatch(src=np.arange(n) % 4, tag=np.arange(n) % 3)
        cluster = ClusterService(
            n_workers=1, seed=0, start_method=self.start_method,
            checkpoint_every=10**6,
            batching=BatchPolicy(max_envelopes=n, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="steady", autotune=False))
        sizes = []
        with cluster:
            vt = 0.0
            for _ in range(2):
                for _ in range(32):
                    vt += 1e-3
                    cluster.submit("steady", msgs, msgs, at_vt=vt)
                cluster.sync()
                cluster.checkpoint_now()
                sizes.append(len(cluster._workers[0].checkpoint))
            assert len(cluster.results) == 64   # one flush per submit
        assert sizes[1] < 1.5 * sizes[0]

    def test_arm_exit_reports_delivery(self):
        cluster = ClusterService(n_workers=1, seed=0,
                                 start_method=self.start_method)
        cluster.register(mixed_workload(steps=2, n_ranks=8).tenants[0])
        with cluster:
            assert cluster.arm_worker_exit(0, after_flushes=100) is True

    def test_workload_harness_stops_workers_on_error(self):
        """An exception mid-drive (here: an arrival for an unregistered
        tenant) must still stop the worker processes, and the harness
        must forward the service knobs it advertises."""
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        bad = ServeWorkload(name="bad", tenants=wl.tenants[:1],
                            arrivals=wl.arrivals)
        assert any(a.tenant != wl.tenants[0].name for a in bad.arrivals)
        with pytest.raises(KeyError):
            run_cluster_workload(bad, n_workers=1, seed=7,
                                 start_method=self.start_method, verify=True,
                                 op_timeout=10.0, max_respawns=3)
        leaked = [p for p in multiprocessing.active_children()
                  if p.name.startswith("repro-serve-worker")]
        assert leaked == []


class TestClusterMigration:
    start_method = "fork"

    def test_live_migration_preserves_results(self):
        """Migrating a tenant between worker processes mid-stream loses
        nothing: every admitted request still flushes exactly once, and
        the report lands the tenant on the destination worker."""
        wl = mixed_workload(seed=31)
        cluster = ClusterService(n_workers=2, seed=31,
                                 start_method=self.start_method)
        for spec in wl.tenants:
            cluster.register(spec)
        moved = wl.tenants[0].name
        src = stable_shard(moved, 2)
        dst = 1 - src
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            mig = cluster.begin_migration(moved, dst)
            assert mig.from_worker == src and mig.to_worker == dst
            assert len(mig.state_bytes) > 0
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert mig.completed_vt is not None
            report = cluster.report()
            assert report["tenants"][moved]["shard"] == dst
            covered = sorted(s for r in cluster.results
                             for s in r.covered_seqs)
            accepted = sorted(t.seq for t in cluster.ticket_list()
                              if t.accepted)
            assert covered == accepted


class TestStop:
    @pytest.mark.parametrize("start_method", ["fork", "spawn", "inline"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_stop_drains_a_pending_checkpoint_reply(self, n_workers,
                                                    start_method):
        """A checkpoint reply still in flight at stop() carries a snapshot
        larger than the pipe buffer; the worker's queue feeder cannot
        exit until the router reads it.  stop() must pump until every
        worker exits cleanly, not sit out a join timeout and terminate."""
        cluster = ClusterService(
            n_workers=n_workers, seed=0, start_method=start_method,
            batching=BatchPolicy(max_envelopes=8192, max_delay_vt=1.0))
        names = {}
        for i in range(64):
            names.setdefault(stable_shard(f"t{i}", n_workers), f"t{i}")
        for name in names.values():
            cluster.register(TenantSpec(name=name, autotune=False))
        n = 4096   # pending envelopes: a ~100 KB snapshot per worker
        msgs = EnvelopeBatch(src=np.arange(n) % 64, tag=np.arange(n) % 7)
        cluster.start()
        try:
            for name in names.values():
                cluster.submit(name, msgs, EnvelopeBatch.empty())
            cluster.sync()
            for w in cluster._workers:
                cluster._request_checkpoint(w)
            assert all(w.ckpt_mark is not None for w in cluster._workers)
        finally:
            t0 = time.perf_counter()
            cluster.stop()
            elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert [w.proc.exitcode for w in cluster._workers] == \
            [0] * n_workers


class TestClusterIdentityInline(TestClusterIdentity):
    start_method = "inline"
    test_spawn_smoke = None   # the spawn contract has no inline analogue


class TestRouterMechanicsInline(TestRouterMechanics):
    start_method = "inline"


class TestRouterHardeningInline(TestRouterHardening):
    start_method = "inline"


class TestClusterMigrationInline(TestClusterMigration):
    start_method = "inline"
