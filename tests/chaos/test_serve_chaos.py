"""Serve-layer chaos: kill/recover/migrate under lossy transport.

Runs outside the tier-1 gate (marked ``chaos``; deselected by default
via ``addopts``).  CI runs it with three fixed seeds; locally:

    PYTHONPATH=src python -m pytest tests/chaos -m chaos -q

Seeds come from ``CHAOS_SEEDS`` (comma-separated), matching the MPI
chaos suite's matrix.

The invariants are the acceptance criteria of the serve fault-tolerance
protocol, driven on an inline cluster: under 10% transport drop, a
chaos-killed worker recovers from checkpoint + journal with **zero
admitted requests lost and none matched twice**; a live migration under
the same conditions sheds only deterministic ``migrating``-hinted
retries (never ``overloaded`` drops); and the whole run -- kills,
recoveries, migrations, retries -- replays bit-identically for a fixed
seed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serve import (MIGRATING, OVERLOADED, BatchPolicy, ClusterService,
                         RebalancePolicy, merge_workloads, stable_shard,
                         workload_from_app)
from tests.conftest import drive_client

pytestmark = pytest.mark.chaos

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,47").split(",")]

DROP_FRACTION = 0.1


def chaos_workload(seed: int):
    parts = [workload_from_app("df_minife", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed,
                               session=True),
             workload_from_app("df_amg", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed + 1,
                               ordering_required=False, session=True)]
    return merge_workloads("chaos", parts)


def chaos_cluster(workload, seed: int, **kw) -> ClusterService:
    cluster = ClusterService(n_workers=2, seed=seed, start_method="inline",
                             batching=BatchPolicy(max_envelopes=64,
                                                  max_delay_vt=0.001), **kw)
    for spec in workload.tenants:
        cluster.register(spec)
    return cluster


def busiest_worker(workload) -> int:
    counts: dict[str, int] = {}
    for arrival in workload.arrivals:
        counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
    return stable_shard(max(counts, key=lambda n: (counts[n], n)), 2)


def assert_exactly_once(cluster) -> None:
    accepted = {t.seq for t in cluster.ticket_list() if t.accepted}
    covered = [s for r in cluster.results for s in r.covered_seqs]
    assert len(covered) == len(set(covered)), "a request matched twice"
    assert set(covered) == accepted, "admitted requests lost"
    keys = [(r.tenant, r.flush_seq) for r in cluster.results]
    assert len(keys) == len(set(keys)), "a flush was routed twice"


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_recover_under_transport_drop(seed):
    """A chaos-killed worker under 10% drop recovers with zero loss."""
    workload = chaos_workload(seed)
    with chaos_cluster(workload, seed, checkpoint_every=2) as cluster:
        cluster.arm_worker_exit(busiest_worker(workload), after_flushes=2)
        run = drive_client(cluster, workload, drop_fraction=DROP_FRACTION,
                           drop_seed=seed + 100)
        assert cluster.recoveries, "the armed kill never fired"
        assert run.transport_dropped >= 0    # drops are seed-dependent
        assert_exactly_once(cluster)
        for rec in cluster.recoveries:
            assert rec.wall_seconds > 0.0
            assert rec.replayed_frames > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_migrate_under_transport_drop(seed):
    """A live migration under drop sheds only ``migrating``-hinted
    retries; carried session state survives the move."""
    workload = chaos_workload(seed)
    drop_rng = np.random.default_rng(seed + 200)
    mover = max(workload.tenants,
                key=lambda s: sum(a.tenant == s.name
                                  for a in workload.arrivals)).name
    dst = 1 - stable_shard(mover, 2)
    trigger = len(workload.arrivals) // 3
    plan = None
    deferred = []
    with chaos_cluster(workload, seed, checkpoint_every=4) as cluster:
        for i, arrival in enumerate(workload.arrivals):
            if i == trigger:
                plan = cluster.begin_migration(mover, dst)
            if drop_rng.random() < DROP_FRACTION:
                continue                                  # lossy transport
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
        cluster.advance_to(plan.cutover_vt + 0.01)
        assert plan.completed_vt is not None
        for arrival in deferred:                          # hinted retries
            assert cluster.tickets[cluster.submit(
                arrival.tenant, arrival.messages, arrival.requests)].accepted
        cluster.drain()
        cluster.sync()
        assert cluster.report()["tenants"][mover]["shard"] == dst
        assert_exactly_once(cluster)
        assert cluster.shed_counts["overloaded"] == 0
        assert cluster.migrations == [plan]


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_replays_bit_identically(seed):
    """Kill + rebalance + drop, run twice with the same seed: every
    ticket, flush, recovery and migration must be identical -- chaos is
    inside the deterministic replay envelope."""
    def fingerprint():
        workload = chaos_workload(seed)
        policy = RebalancePolicy(hot_fraction=0.5, min_flushes=2,
                                 cooldown_flushes=2)
        with chaos_cluster(workload, seed, checkpoint_every=2,
                           rebalance=policy) as cluster:
            cluster.arm_worker_exit(busiest_worker(workload),
                                    after_flushes=2)
            run = drive_client(cluster, workload,
                               drop_fraction=DROP_FRACTION,
                               drop_seed=seed + 300)
            assert_exactly_once(cluster)
            return {
                "tickets": [(t.status, t.seq, t.retry_after_vt)
                            for t in run.tickets],
                "results": [(r.tenant, r.flush_seq, r.flush_vt,
                             r.covered_seqs,
                             r.outcome.request_to_message.tolist())
                            for r in cluster.results],
                "recoveries": [(r.worker_id, r.respawn, r.replayed_frames,
                                r.had_checkpoint)
                               for r in cluster.recoveries],
                "migrations": [(p.tenant, p.from_worker, p.to_worker,
                                p.cutover_vt) for p in cluster.migrations],
                "report": cluster.report(),
                "dropped": run.transport_dropped,
                "retries": run.retries,
            }
    first, second = fingerprint(), fingerprint()
    assert first == second
    assert first["recoveries"], "the armed kill never fired"
