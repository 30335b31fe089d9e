"""Cluster chaos: SIGKILL worker processes mid-flush, prove nothing is
lost and nothing is matched twice.

Runs outside the tier-1 gate (marked ``chaos``); CI's cluster job
re-selects it with ``-m chaos``.  Seeds come from ``CHAOS_SEEDS``
(comma-separated, default ``11,23,47``), matching the other chaos
suites' matrix.  Each seed randomizes the kill point (which flush the
armed worker dies on).

The invariants are the acceptance criteria of the multi-process
subsystem:

* an admitted envelope is never lost across a worker SIGKILL -- the
  covered-seq ledger equals the accepted-ticket ledger exactly;
* no envelope is matched twice -- recovery replays the journal
  verbatim and the router dedupes flush results by
  ``(tenant, flush_seq)``;
* the recovered run is **bit-identical** to the in-process service
  (kills and recoveries leave no trace in the deterministic record);
* checkpointed recovery (journal truncated at the blob's mark) replays
  only the suffix and preserves the same identity.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serve import (BatchPolicy, ClusterService, merge_workloads,
                         run_cluster_workload, run_workload, stable_shard,
                         workload_from_app)

pytestmark = pytest.mark.chaos

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,47").split(",")]

# Small batches so both workers flush repeatedly -- the randomized kill
# point (1st-3rd non-empty flush from arming) must always be reachable
# on either worker.
BATCHING = BatchPolicy(max_envelopes=32, max_delay_vt=0.01)


def chaos_workload(seed: int):
    # Tenant names chosen so the stable hash splits them across both
    # workers of a two-worker cluster ("alpha" -> 0, "beta" -> 1);
    # killing either worker then always hits live tenant state.  The
    # small minife chunks give alpha enough arrivals to flush >= 5
    # times under BATCHING (minife's trace is tiny per step).
    parts = [workload_from_app("df_minife", rate_rps=4000.0, n_ranks=32,
                               steps=5, chunk_envelopes=4, seed=seed,
                               tenant_name="alpha", session=True),
             workload_from_app("df_amg", rate_rps=1500.0, n_ranks=16,
                               steps=3, chunk_envelopes=32, seed=seed + 1,
                               ordering_required=False, tenant_name="beta",
                               session=True)]
    return merge_workloads("cluster-chaos", parts)


def assert_exactly_once(cluster):
    """Zero admitted envelopes lost, none matched twice."""
    covered = sorted(s for r in cluster.results for s in r.covered_seqs)
    accepted = sorted(t.seq for t in cluster.ticket_list() if t.accepted)
    assert covered == accepted
    assert len(set(covered)) == len(covered)
    keys = [(r.tenant, r.flush_seq) for r in cluster.results]
    assert len(set(keys)) == len(keys)


def keyed_flushes(results):
    return {(r.tenant, r.flush_seq): (r.shard_id, r.flush_vt,
                                      r.covered_seqs, r.latencies_vt,
                                      r.engine_label,
                                      r.outcome.matched_count)
            for r in results}


def assert_replay_identity(cluster, service):
    """The chaos run's deterministic record equals the calm one's."""
    assert keyed_flushes(cluster.results) == keyed_flushes(service.results)
    assert cluster.ticket_list() == service.tickets
    assert cluster.report() == service.report()


@pytest.mark.parametrize("start_method", ["fork", "inline"])
@pytest.mark.parametrize("seed", SEEDS)
class TestWorkerKill:
    def test_cold_kill_mid_flush(self, seed, start_method):
        """SIGKILL with no checkpoint: full-journal replay recovers."""
        wl = chaos_workload(seed)
        rng = np.random.default_rng(seed)
        victim = stable_shard(wl.tenants[int(rng.integers(2))].name, 2)
        after = int(rng.integers(1, 4))
        svc, _ = run_workload(wl, n_shards=2, seed=seed,
                              batching=BATCHING)
        cluster, _ = run_cluster_workload(
            wl, n_workers=2, seed=seed, start_method=start_method,
            batching=BATCHING, arm_exit=(victim, after))
        assert len(cluster.recoveries) >= 1
        rec = cluster.recoveries[0]
        assert rec.worker_id == victim
        assert rec.respawn == 1
        assert not rec.had_checkpoint
        assert rec.replayed_frames > 0
        assert_exactly_once(cluster)
        assert_replay_identity(cluster, svc)

    def test_checkpointed_kill_mid_flush(self, seed, start_method):
        """SIGKILL after an explicit checkpoint: restore the blob, then
        replay only the journal suffix past its mark."""
        wl = chaos_workload(seed)
        rng = np.random.default_rng(seed + 1000)
        victim = stable_shard(wl.tenants[int(rng.integers(2))].name, 2)
        after = int(rng.integers(1, 4))
        svc, _ = run_workload(wl, n_shards=2, seed=seed,
                              batching=BATCHING)
        cluster = ClusterService(n_workers=2, seed=seed,
                                 start_method=start_method, batching=BATCHING,
                                 checkpoint_every=10_000)
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.checkpoint_now()
            cluster.arm_worker_exit(victim, after_flushes=after)
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert len(cluster.recoveries) >= 1
            rec = cluster.recoveries[0]
            assert rec.worker_id == victim
            assert rec.had_checkpoint
            assert_exactly_once(cluster)
            assert_replay_identity(cluster, svc)

    def test_kill_both_workers(self, seed, start_method):
        """Independent kills on both workers in one run; both recover
        and the record is still exactly-once and bit-identical."""
        wl = chaos_workload(seed)
        rng = np.random.default_rng(seed + 2000)
        svc, _ = run_workload(wl, n_shards=2, seed=seed,
                              batching=BATCHING)
        cluster = ClusterService(n_workers=2, seed=seed,
                                 start_method=start_method, batching=BATCHING)
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            cluster.arm_worker_exit(0, after_flushes=int(rng.integers(1, 4)))
            cluster.arm_worker_exit(1, after_flushes=int(rng.integers(1, 4)))
            for a in wl.arrivals:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert {r.worker_id for r in cluster.recoveries} == {0, 1}
            assert_exactly_once(cluster)
            assert_replay_identity(cluster, svc)


def test_chaos_run_is_replayable():
    """Two identical chaos runs (same seed, same kill point) produce the
    same recoveries and the same record -- chaos itself is deterministic
    up to wall-clock interleaving, which the record excludes."""
    seed = SEEDS[0]
    wl = chaos_workload(seed)
    runs = []
    for _ in range(2):
        cluster, _ = run_cluster_workload(
            wl, n_workers=2, seed=seed, start_method="fork",
            batching=BATCHING, arm_exit=(0, 2))
        runs.append(cluster)
    a, b = runs
    assert [r.worker_id for r in a.recoveries] == \
        [r.worker_id for r in b.recoveries]
    assert keyed_flushes(a.results) == keyed_flushes(b.results)
    assert a.ticket_list() == b.ticket_list()
    assert a.report() == b.report()
