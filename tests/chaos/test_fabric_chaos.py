"""Fabric chaos: SIGKILL a worker mid-superstep, prove the collective
still completes with a bit-identical record.

Runs outside the tier-1 gate (marked ``chaos``); CI's fabric job
re-selects it with ``-m chaos``.  Seeds come from ``CHAOS_SEEDS``
(comma-separated, default ``11,23,47``) like the other chaos suites;
each seed varies which worker is armed and which superstep it dies on.

The invariants extend the cluster suite's to the combining fabric:

* a ``fabric_xfer`` frame is journaled like any state-mutating frame,
  so a worker SIGKILLed between a transfer's delivery and its superstep
  flush replays the transfer verbatim -- zero envelopes lost;
* the recovered run's collective results, keyed flush record, and
  report are bit-identical to a clean run of the same seed (and hence
  to the in-process service, which the clean run is tested against in
  ``tests/serve/test_fabric.py``).
"""

from __future__ import annotations

import os

import pytest

from repro.mpi import collectives as C
from repro.serve import ClusterService, CollectiveBridge, TenantSpec

pytestmark = pytest.mark.chaos

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,47").split(",")]

SPAN = 4
N_WORKERS = 3


def run_suite(seed: int, arm: tuple[int, int] | None,
              start_method: str):
    cl = ClusterService(n_workers=N_WORKERS, seed=seed,
                        start_method=start_method)
    cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
    with cl:
        if arm is not None:
            cl.arm_worker_exit(*arm)
        bridge = CollectiveBridge(cl, "mpi")
        record = {
            "alltoall": C.alltoall(bridge, [[(i, j) for j in range(SPAN)]
                                            for i in range(SPAN)]),
            "allreduce": C.allreduce(bridge, list(range(SPAN)),
                                     lambda a, b: a + b),
            "allgather": C.allgather(bridge, [("g", r)
                                              for r in range(SPAN)]),
            "scan": C.scan(bridge, [2 ** r for r in range(SPAN)],
                           lambda a, b: a + b),
        }
        keyed = {(r.tenant, r.flush_seq):
                 (r.flush_vt, tuple(r.covered_seqs), tuple(r.latencies_vt),
                  tuple(r.outcome.request_to_message.tolist()))
                 for r in cl.results}
        report = cl.report()
        recoveries = len(cl.recoveries)
    return record, keyed, report, recoveries


@pytest.mark.parametrize("start_method", ["fork", "inline"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sigkill_mid_superstep_replays_identically(seed, start_method):
    clean = run_suite(seed, arm=None, start_method=start_method)
    assert clean[3] == 0
    # arm a worker that actually hosts sub-tenants, at a seed-varied
    # flush depth, so the kill lands inside a later superstep's flush
    armed_worker = [1, 2, 1][seed % 3]
    after = 1 + seed % 3
    chaos = run_suite(seed, arm=(armed_worker, after),
                      start_method=start_method)
    assert chaos[3] >= 1, "the armed SIGKILL never fired"
    assert chaos[0] == clean[0], "collective results diverged"
    assert chaos[1] == clean[1], "keyed flush record diverged"
    assert chaos[2] == clean[2], "report diverged"
