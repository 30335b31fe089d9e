"""Partitioned-channel chaos: SIGKILL a worker between channel epochs,
prove the re-fired partitions land bit-identically after recovery.

Runs outside the tier-1 gate (marked ``chaos``); CI's workloads job
re-selects it with ``-m chaos``.  Seeds come from ``CHAOS_SEEDS``
(comma-separated, default ``11,23,47``); each seed varies which worker
is armed and how deep into the epoch sequence it dies.

The invariant under test is the match-once contract's hardest case: a
binding envelope is journaled like any state-mutating frame, so a worker
SIGKILLed between a binding's match and its superstep flush replays the
match verbatim -- the channel's partition payloads (driver-side tokens)
then land exactly as in a clean run, and matching never sees a second
envelope for the epoch.
"""

from __future__ import annotations

import os

import pytest

from repro.serve import ClusterService, CollectiveBridge, TenantSpec

pytestmark = pytest.mark.chaos

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,47").split(",")]

SPAN = 4
N_WORKERS = 3
EPOCHS = 4
PARTITIONS = 8


def run_epochs(seed: int, arm: tuple[int, int] | None,
               start_method: str):
    cl = ClusterService(n_workers=N_WORKERS, seed=seed,
                        start_method=start_method)
    cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False,
                           partitioned=True))
    with cl:
        if arm is not None:
            cl.arm_worker_exit(*arm)
        bridge = CollectiveBridge(cl, "mpi")
        # two counter-directed channels so more than one shard pair
        # carries partitioned traffic
        ps_a = bridge.psend_init(0, 1, PARTITIONS, tag=3)
        pr_a = bridge.precv_init(1, 0, PARTITIONS, tag=3)
        ps_b = bridge.psend_init(1, 0, PARTITIONS, tag=4)
        pr_b = bridge.precv_init(0, 1, PARTITIONS, tag=4)
        out = []
        for epoch in range(EPOCHS):
            for req in (ps_a, pr_a, ps_b, pr_b):
                req.start()
            for i in range(PARTITIONS):
                ps_a.pready(i, (seed, epoch, "a", i))
                ps_b.pready(i, (seed, epoch, "b", i))
            ps_a.wait()
            ps_b.wait()
            out.append((pr_a.wait(), pr_b.wait()))
        keyed = {(r.tenant, r.flush_seq):
                 (r.flush_vt, tuple(r.covered_seqs), tuple(r.latencies_vt),
                  tuple(r.outcome.request_to_message.tolist()))
                 for r in cl.results}
        report = cl.report()
        recoveries = len(cl.recoveries)
    return out, keyed, report, recoveries


@pytest.mark.parametrize("start_method", ["fork", "inline"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sigkill_between_epochs_replays_identically(seed, start_method):
    clean = run_epochs(seed, arm=None, start_method=start_method)
    assert clean[3] == 0
    assert clean[0] == [
        ([(seed, e, "a", i) for i in range(PARTITIONS)],
         [(seed, e, "b", i) for i in range(PARTITIONS)])
        for e in range(EPOCHS)]
    armed_worker = [1, 2, 1][seed % 3]
    after = 1 + seed % 3
    chaos = run_epochs(seed, arm=(armed_worker, after),
                       start_method=start_method)
    assert chaos[3] >= 1, "the armed SIGKILL never fired"
    assert chaos[0] == clean[0], "re-fired partition payloads diverged"
    assert chaos[1] == clean[1], "keyed flush record diverged"
    assert chaos[2] == clean[2], "report diverged"
