"""Supervised serving on the inline cluster: checkpoints, chaos-kill
crash recovery with exactly-once accounting, live migration, and
hot-spot rebalancing.

One recovery protocol serves every plane -- the router's checkpoints
plus verbatim frame-journal replay (:mod:`repro.serve.cluster`).  Inline
workers run it without a process boundary, so a ticket is available as
soon as ``submit`` returns and hinted retries are re-driven explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.envelope import EnvelopeBatch
from repro.serve import (MIGRATING, OVERLOADED, BatchPolicy, ClusterService,
                         RebalancePolicy, TenantSpec, decode_frame,
                         merge_workloads, run_cluster_workload, run_workload,
                         stable_shard, workload_from_app)
from repro.serve.loadgen import ServeWorkload
from tests.conftest import drive_client

# small size watermark: every arrival chunk triggers a synchronous
# flush, so kill/checkpoint cadences have flushes to count.
BATCHING = BatchPolicy(max_envelopes=64, max_delay_vt=0.001)


def _workload(seed: int = 3, session: bool = True, names=None):
    names = names or [None, None]
    parts = [workload_from_app("df_minife", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed,
                               session=session, tenant_name=names[0]),
             workload_from_app("df_amg", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed + 1,
                               ordering_required=False, session=session,
                               tenant_name=names[1])]
    return merge_workloads("supervised", parts)


def _cluster(workload, seed: int = 5, **kw) -> ClusterService:
    cluster = ClusterService(n_workers=2, seed=seed, start_method="inline",
                             batching=BATCHING, **kw)
    for spec in workload.tenants:
        cluster.register(spec)
    return cluster


def _busiest_worker(workload) -> int:
    """Worker hosting the tenant with the most arrivals -- the one
    guaranteed to flush often enough for an armed kill to fire."""
    counts: dict[str, int] = {}
    for arrival in workload.arrivals:
        counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
    return stable_shard(max(counts, key=lambda name: (counts[name], name)),
                        2)


def _exactly_once(cluster) -> None:
    accepted = {t.seq for t in cluster.ticket_list() if t.accepted}
    covered = [s for r in cluster.results for s in r.covered_seqs]
    assert len(covered) == len(set(covered)), "a request matched twice"
    assert set(covered) == accepted, "admitted requests lost"
    keys = [(r.tenant, r.flush_seq) for r in cluster.results]
    assert len(keys) == len(set(keys)), "a flush was routed twice"


def _flush_record(results):
    return sorted((r.tenant, r.flush_seq, r.flush_vt, r.covered_seqs,
                   r.outcome.request_to_message.tolist()) for r in results)


class TestCheckpoints:
    def test_initial_checkpoint_and_cadence(self):
        """No checkpoint exists before the first cadence point (a kill
        then cold-starts from the tenant specs); afterwards each worker's
        journal holds only the frames sent since its latest checkpoint."""
        workload = _workload()
        with _cluster(workload, checkpoint_every=2) as cluster, \
                _cluster(workload, checkpoint_every=10 ** 6) as uncut:
            assert all(w.checkpoint is None for w in cluster._workers)
            drive_client(cluster, workload)
            drive_client(uncut, workload)
            flushes = [sum(r.shard_id == w.worker_id
                           for r in cluster.results)
                       for w in cluster._workers]
            assert max(flushes) >= 2
            for w, u, n in zip(cluster._workers, uncut._workers, flushes):
                assert u.checkpoint is None
                if n >= 2:
                    assert w.checkpoint is not None
                    assert len(w.journal) < len(u.journal)
            assert cluster.report() == uncut.report()

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            ClusterService(checkpoint_every=0, start_method="inline")


class TestCrashRecovery:
    def test_kill_recover_loses_nothing(self):
        """The acceptance bar: a worker killed mid-flush (after its
        accumulator drained -- the worst case) recovers from checkpoint
        + journal with zero admitted requests lost and none matched
        twice."""
        workload = _workload()
        victim = _busiest_worker(workload)
        with _cluster(workload, checkpoint_every=2) as cluster:
            assert cluster.arm_worker_exit(victim, after_flushes=2)
            run = drive_client(cluster, workload)
            assert len(cluster.recoveries) == 1
            rec = cluster.recoveries[0]
            assert rec.worker_id == victim
            assert rec.replayed_frames > 0
            assert rec.wall_seconds > 0.0
            assert [t.seq for t in run.tickets] == \
                list(range(len(workload.arrivals)))
            _exactly_once(cluster)

    @pytest.mark.parametrize("seed", [3, 11, 23])
    def test_recovery_leaves_no_trace(self, seed):
        """A kill-recovered run equals the crash-free in-process run:
        the same report, every flush with the same match pairs (session
        envelopes carried across the kill included), and no flush key
        routed twice."""
        workload = _workload(seed)
        svc, _ = run_workload(workload, n_shards=2, seed=5,
                              batching=BATCHING)
        cluster, _ = run_cluster_workload(
            workload, n_workers=2, seed=5, batching=BATCHING,
            start_method="inline", checkpoint_every=2,
            arm_exit=(_busiest_worker(workload), 2))
        assert len(cluster.recoveries) == 1
        assert cluster.report() == svc.report()
        assert cluster.report()["accepted"] == \
            sum(t.accepted for t in cluster.ticket_list())
        assert _flush_record(cluster.results) == _flush_record(svc.results)
        keys = [(r.tenant, r.flush_seq) for r in cluster.results]
        assert len(keys) == len(set(keys))

    def test_recovery_replays_only_the_victims_journal(self):
        """Each worker journals only its own frames: a cold recovery (no
        checkpoint yet) re-executes the victim's journal, never frames
        for tenants on other workers, and the survivors are untouched."""
        workload = _workload()
        victim = _busiest_worker(workload)
        with _cluster(workload, checkpoint_every=100) as cluster:
            cluster.arm_worker_exit(victim, after_flushes=1)
            drive_client(cluster, workload)
            assert len(cluster.recoveries) == 1
            assert not cluster.recoveries[0].had_checkpoint
            for w in cluster._workers:
                assert w.respawns == (1 if w.worker_id == victim else 0)
                for frame in w.journal:
                    kind, payload = decode_frame(frame)
                    if kind == "submit":
                        assert stable_shard(payload["tenant"], 2) == \
                            w.worker_id
            _exactly_once(cluster)

    def test_arm_kill_validates(self):
        with _cluster(_workload()) as cluster:
            with pytest.raises(ValueError):
                cluster.arm_worker_exit(0, after_flushes=0)


class TestMigration:
    def test_migration_under_load_never_drops(self):
        """During the gate window every submission for the moving tenant
        gets a deterministic ``migrating`` ticket whose hint *is* the
        cutover time -- never an ``overloaded`` drop -- and after the
        cutover the tenant serves from the destination worker."""
        workload = _workload()
        mover = workload.tenants[0].name
        src = stable_shard(mover, 2)
        dst = 1 - src
        trigger = len(workload.arrivals) // 3
        plan = None
        deferred = []
        with _cluster(workload, checkpoint_every=4) as cluster:
            for i, arrival in enumerate(workload.arrivals):
                if i == trigger:
                    plan = cluster.begin_migration(mover, dst)
                ticket = cluster.tickets[cluster.submit(
                    arrival.tenant, arrival.messages, arrival.requests,
                    at_vt=arrival.vt)]
                if ticket.status == MIGRATING:
                    assert arrival.tenant == mover
                    assert ticket.retry_after_vt == plan.cutover_vt
                    deferred.append(arrival)
                else:
                    assert ticket.status != OVERLOADED
            assert plan is not None
            cluster.advance_to(plan.cutover_vt + 1.0)   # fire the cutover
            assert plan.completed_vt is not None
            cluster.sync()
            assert cluster.report()["tenants"][mover]["shard"] == dst
            stats = cluster.worker_stats()
            assert mover in stats[dst]["tenant_volumes"]
            assert mover not in stats[src]["tenant_volumes"]
            for arrival in deferred:                    # retries now land
                assert cluster.tickets[cluster.submit(
                    arrival.tenant, arrival.messages,
                    arrival.requests)].accepted
            cluster.drain()
            cluster.sync()
            _exactly_once(cluster)
            assert cluster.shed_counts["overloaded"] == 0
            assert cluster.shed_counts["migrating"] == len(deferred)
            assert cluster.migrations == [plan]

    def test_migration_preserves_session_carryover(self):
        """A session tenant's carried UMQ/PRQ moves with it: envelopes
        unmatched before the migration still match after the cutover."""
        cluster = ClusterService(
            n_workers=2, start_method="inline",
            batching=BatchPolicy(max_envelopes=4, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="t", autotune=False, session=True))
        src = stable_shard("t", 2)
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[7, 7, 7, 7])
        with cluster:
            cluster.submit("t", msgs, EnvelopeBatch.empty())  # 4 unmatched
            cluster.sync()
            assert cluster.report()["tenants"]["t"]["carryover_depth"] == 4
            plan = cluster.begin_migration("t", 1 - src)
            cluster.advance_to(plan.cutover_vt + 1.0)
            cluster.sync()
            moved = cluster.report()["tenants"]["t"]
            assert moved["shard"] == plan.to_worker
            assert moved["carryover_depth"] == 4          # moved with it
            cluster.submit("t", EnvelopeBatch.empty(), msgs)
            cluster.drain()
            cluster.sync()
            assert cluster.results[-1].outcome.matched_count == 4

    def test_begin_migration_validates(self):
        workload = _workload()
        mover = workload.tenants[0].name
        with _cluster(workload) as cluster:
            with pytest.raises(ValueError):
                cluster.begin_migration(mover, stable_shard(mover, 2))
            with pytest.raises(ValueError):
                cluster.begin_migration(mover, 99)


class TestRebalance:
    def test_hot_shard_sheds_its_hottest_tenant(self):
        """Two tenants placed on one worker make it carry 100% of the
        windowed volume; the rebalancer must move one to the idle
        worker."""
        names = [n for n in (f"hot{i}" for i in range(64))
                 if stable_shard(n, 2) == 0][:2]
        workload = _workload(names=names)
        policy = RebalancePolicy(hot_fraction=0.5, min_flushes=2,
                                 cooldown_flushes=2)
        with _cluster(workload, checkpoint_every=4,
                      rebalance=policy) as cluster:
            for arrival in workload.arrivals:
                cluster.submit(arrival.tenant, arrival.messages,
                               arrival.requests, at_vt=arrival.vt)
            # ticks: the first triggers the rebalance (begin_migration),
            # a later one fires the scheduled cutover
            for _ in range(4):
                cluster.advance_to(cluster.now
                                   + 2.0 * BATCHING.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert cluster.migrations, "hot spot was never rebalanced"
            shards = {t["shard"] for t in cluster.report()["tenants"].values()}
            assert shards == {0, 1}
            _exactly_once(cluster)

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RebalancePolicy(hot_fraction=1.5)

    def test_single_tenant_shard_is_left_alone(self):
        workload = workload_from_app("df_minife", rate_rps=4000.0,
                                     n_ranks=8, steps=2,
                                     chunk_envelopes=64, seed=3)
        policy = RebalancePolicy(hot_fraction=0.5, min_flushes=1,
                                 cooldown_flushes=1)
        with _cluster(workload, rebalance=policy) as cluster:
            drive_client(cluster, workload)
            vols = cluster.shard_volumes()
            assert max(vols) > policy.hot_fraction * sum(vols)   # hot
            assert cluster.migrations == []   # moving it helps nobody


class TestRunSupervised:
    """The client-side harness: lossy transport and hinted retries."""

    def test_transport_drop_uses_a_separate_rng(self):
        """Dropping arrivals must not perturb the service's own RNG:
        lossy runs replay identically, and equal a lossless run of just
        the arrivals that survived the drop."""
        workload = _workload()

        def one(wl, drop):
            with _cluster(wl, checkpoint_every=4) as cluster:
                run = drive_client(cluster, wl, drop_fraction=drop,
                                   drop_seed=13)
                _exactly_once(cluster)
                return run, cluster.report()

        lossless, _ = one(workload, 0.0)
        (lossy_a, rep_a), (lossy_b, rep_b) = \
            one(workload, 0.1), one(workload, 0.1)
        assert lossless.transport_dropped == 0
        assert lossy_a.transport_dropped > 0

        def fp(run):
            return [(t.status, t.seq, t.retry_after_vt) for t in run.tickets]
        assert fp(lossy_a) == fp(lossy_b)
        assert rep_a == rep_b
        keep = np.random.default_rng(13).random(len(workload.arrivals))
        survivors = ServeWorkload(
            name="survivors", tenants=workload.tenants,
            arrivals=[a for a, k in zip(workload.arrivals, keep) if k >= 0.1])
        filtered, rep_f = one(survivors, 0.0)
        assert fp(filtered) == fp(lossy_a)
        assert rep_f == rep_a

    def test_rejects_bad_drop_fraction(self):
        workload = _workload()
        with pytest.raises(ValueError):
            drive_client(_cluster(workload), workload, drop_fraction=1.0)
