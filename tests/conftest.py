"""Shared fixtures and workload builders for the test suite."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests needing other seeds construct their own."""
    return np.random.default_rng(0xC0FFEE)


def permuted_pair(rng: np.random.Generator, n: int, n_ranks: int = 16,
                  n_tags: int = 8, comm: int = 0,
                  ) -> tuple[EnvelopeBatch, EnvelopeBatch]:
    """A fully-matchable workload: requests are a permutation of messages."""
    msgs = EnvelopeBatch.random(n, n_ranks=n_ranks, n_tags=n_tags, comm=comm,
                                rng=rng)
    reqs = msgs.take(rng.permutation(n))
    return msgs, reqs


def with_wildcards(rng: np.random.Generator, reqs: EnvelopeBatch,
                   p_src: float = 0.15, p_tag: float = 0.15) -> EnvelopeBatch:
    """Replace a random subset of request fields with wildcards."""
    n = len(reqs)
    src = np.where(rng.random(n) < p_src, ANY_SOURCE, reqs.src)
    tag = np.where(rng.random(n) < p_tag, ANY_TAG, reqs.tag)
    return EnvelopeBatch(src, tag, reqs.comm)


def partial_match_pair(rng: np.random.Generator, n: int, match_fraction: float,
                       n_ranks: int = 16, n_tags: int = 8,
                       ) -> tuple[EnvelopeBatch, EnvelopeBatch]:
    """A workload where only ``match_fraction`` of requests can match.

    Non-matching requests point at ranks beyond the message rank space, so
    they can never be satisfied.
    """
    msgs = EnvelopeBatch.random(n, n_ranks=n_ranks, n_tags=n_tags, rng=rng)
    reqs = msgs.take(rng.permutation(n))
    n_dead = n - int(round(match_fraction * n))
    dead = rng.choice(n, size=n_dead, replace=False)
    src = reqs.src.copy()
    src[dead] = n_ranks + 1000  # unreachable rank
    return msgs, EnvelopeBatch(src, reqs.tag, reqs.comm)


@dataclass
class ClientRun:
    """Outcome of :func:`drive_client`."""

    tickets: list = field(default_factory=list)
    transport_dropped: int = 0
    retries: int = 0
    gave_up: int = 0


def drive_client(cluster, workload, *, drop_fraction: float = 0.0,
                 drop_seed: int = 1, max_retries: int = 16) -> ClientRun:
    """Drive a workload through a started inline cluster like a client.

    ``drop_fraction`` simulates lossy transport: each arrival is dropped
    before submission with that probability, drawn in arrival order from
    a generator of its own (``drop_seed``) so transport chaos never
    perturbs the service's random stream.  ``retryable``/``migrating``
    tickets are honoured: the request re-enters the arrival queue at its
    hinted virtual time, up to ``max_retries`` times.  Ends with the
    batch-deadline run-out, a drain and a stats barrier.

    Inline workers answer a submission before ``submit`` returns, except
    when the submission killed its worker: the ticket then arrives with
    the journal replay, which the barrier drives.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    run = ClientRun()
    drop_rng = np.random.default_rng(drop_seed)
    # (vt, order, attempt, arrival) -- a retry re-enters at its hinted
    # time with a fresh order key (deterministic tie-break).
    queue = []
    for order, arrival in enumerate(workload.arrivals):
        if drop_fraction and drop_rng.random() < drop_fraction:
            run.transport_dropped += 1
        else:
            queue.append((arrival.vt, order, 0, arrival))
    heapq.heapify(queue)
    order = len(workload.arrivals)
    delay = cluster.batching.max_delay_vt
    while queue:
        vt, _, attempt, arrival = heapq.heappop(queue)
        seq = cluster.submit(arrival.tenant, arrival.messages,
                             arrival.requests, at_vt=vt)
        if seq not in cluster.tickets:
            cluster.sync()
        ticket = cluster.tickets[seq]
        run.tickets.append(ticket)
        if ticket.retry_hinted:
            if attempt + 1 > max_retries:
                run.gave_up += 1
                continue
            run.retries += 1
            retry_vt = (ticket.retry_after_vt
                        if ticket.retry_after_vt is not None
                        else cluster.now + delay)
            heapq.heappush(queue, (max(retry_vt, cluster.now), order,
                                   attempt + 1, arrival))
            order += 1
    if workload.arrivals:
        cluster.advance_to(cluster.now + 2.0 * delay)
    cluster.drain()
    cluster.sync()
    return run
