"""The matching service: many tenants, sharded, replayable.

:class:`MatchingService` is the serve layer's front door.  It owns a set
of :class:`~repro.serve.shard.Shard`\\ s, maps tenants onto them with a
stable CRC32 hash (independent of Python's randomized ``hash()``, so the
placement is identical across processes and runs), and drives everything
from one deterministic virtual-time event loop:

* ``submit()`` stamps the request with the current virtual time, runs
  admission, and may trigger a size-watermark flush synchronously;
* ``advance_to(vt)`` fires due batch-deadline timers in ``(vt, seq)``
  order;
* ``drain()`` flushes every remaining accumulator.

Because every decision reads only the virtual clock, the seeded RNG, and
the submitted stream, two runs of the same workload with the same seed
produce **identical** match outcomes, shed counts, and retune events --
pinned by the replay test in ``tests/serve/test_service.py``.

A single-tenant, no-shedding configuration is a *pass-through*: each
flush calls the tenant's engine on exactly the envelopes a direct
library user would have passed, so outcomes are bit-identical to direct
:class:`~repro.core.engine.MatchingEngine` calls (the serve-layer
analogue of the fast-path equivalence contract).
"""

from __future__ import annotations

import zlib

import numpy as np

from ..core.envelope import EnvelopeBatch
from ..obs.metrics import percentile
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from .admission import AdmissionPolicy
from .autotuner import RetuneEvent
from .batching import BatchPolicy
from .messages import FlushResult, ServeRequest, TenantSpec, Ticket
from .scheduler import EventLoop
from .shard import Shard, TenantState
from .stages import StageClock

__all__ = ["MatchingService", "stable_shard"]


def stable_shard(name: str, n_shards: int) -> int:
    """Deterministic tenant -> shard placement (CRC32, not ``hash()``).

    Process-independent by construction, which is what lets the cluster
    router (:mod:`repro.serve.cluster`) partition tenants across worker
    processes with exactly the placement the in-process service would
    have used -- the first ingredient of cross-process bit-identity.
    """
    return zlib.crc32(name.encode("utf-8")) % n_shards


#: Backwards-compatible alias (pre-cluster name).
_stable_shard = stable_shard


class MatchingService:
    """A sharded, workload-aware matching service.

    Parameters
    ----------
    n_shards:
        Shard count; tenants are placed by stable hash of their name.
    gpu:
        Simulated device each tenant engine runs on.
    admission:
        Bounded-inbox policy applied to every shard.
    batching:
        Flush watermark policy applied to every tenant.
    seed:
        Seeds the event loop's RNG (policy randomness only; ordering is
        never random).
    promote_after:
        Autotuner promotion hysteresis, in agreeing windows.
    profile_window:
        Profiler sliding window, in flushes.
    verify:
        Forwarded to every engine (reference cross-checking; slow).
    obs:
        Optional :class:`~repro.obs.Observability` handle threaded to
        every shard and engine.
    stages:
        Optional :class:`~repro.serve.stages.StageClock` threaded to
        every shard: per-stage wall-time breakdown, measurement-only.

    Examples
    --------
    >>> from repro.core.envelope import EnvelopeBatch
    >>> from repro.serve import MatchingService, TenantSpec
    >>> svc = MatchingService(n_shards=1, seed=7)
    >>> svc.register(TenantSpec(name="t0", autotune=False))
    >>> msgs = EnvelopeBatch(src=[0, 1], tag=[5, 5])
    >>> ticket = svc.submit("t0", msgs, msgs.take([1, 0]))
    >>> ticket.accepted
    True
    >>> svc.drain()
    >>> svc.results[0].outcome.matched_count
    2
    """

    def __init__(self, n_shards: int = 1, gpu: GPUSpec = PASCAL_GTX1080,
                 admission: AdmissionPolicy | None = None,
                 batching: BatchPolicy | None = None,
                 seed: int = 0, promote_after: int = 3,
                 profile_window: int = 8, verify: bool = False,
                 obs=None, stages: StageClock | None = None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._obs = obs
        self.stages = stages
        self.loop = EventLoop(seed=seed)
        self.shards = [Shard(shard_id=i, gpu=gpu, admission=admission,
                             batching=batching, promote_after=promote_after,
                             profile_window=profile_window, verify=verify,
                             obs=obs, stages=stages)
                       for i in range(n_shards)]
        self._placement: dict[str, int] = {}
        self._spans: dict[str, list[str]] = {}
        self._next_seq = 0
        self.results: list[FlushResult] = []
        self.tickets: list[Ticket] = []

    # -- tenant lifecycle ---------------------------------------------------------

    def register(self, spec: TenantSpec) -> None:
        """Register a tenant; placement is a stable hash of its name.

        A spanning tenant (``spec.span > 1``) expands into ``span``
        ordinary sub-tenants named ``name#0 .. name#span-1``, each placed
        independently; the base name routes through
        :meth:`sub_tenants` and never appears in the placement map.
        """
        if spec.name in self._placement or spec.name in self._spans:
            raise ValueError(f"tenant {spec.name!r} already registered")
        if spec.span > 1:
            subs = spec.sub_specs()
            for sub in subs:
                self.register(sub)
            self._spans[spec.name] = [s.name for s in subs]
            return
        shard_id = stable_shard(spec.name, len(self.shards))
        self.shards[shard_id].add_tenant(spec)
        self._placement[spec.name] = shard_id
        if self._obs is not None:
            self._obs.instant("serve.register", tenant=spec.name,
                              shard=shard_id)

    def sub_tenants(self, name: str) -> list[str]:
        """The sub-tenant names a registered tenant expands to.

        A spanning tenant returns its ``name#i`` list in sub-shard
        order; a plain tenant returns ``[name]``.
        """
        if name in self._spans:
            return list(self._spans[name])
        if name in self._placement:
            return [name]
        raise KeyError(f"tenant {name!r} not registered")

    def tenant(self, name: str) -> TenantState:
        """The tenant's live state (engine, profiler, retune log)."""
        return self.shards[self._placement[name]].tenants[name]

    @property
    def tenant_names(self) -> list[str]:
        """Registered tenants, registration order."""
        return list(self._placement)

    # -- virtual time -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def advance_to(self, vt: float) -> list[FlushResult]:
        """Fire due deadline timers up to ``vt``; returns their flushes."""
        fired = []
        for ev in self.loop.due(vt):
            if ev.kind != "flush":
                continue
            tenant, epoch = ev.payload
            if tenant not in self._placement:
                continue   # released by a migration; its timers linger
            shard = self.shards[self._placement[tenant]]
            acc = shard.tenants[tenant].accumulator
            if acc.epoch != epoch or len(acc) == 0:
                continue   # already flushed by a size watermark
            result = shard.flush_tenant(tenant, self.loop.now)
            if result is not None:
                fired.append(result)
                self.results.append(result)
        return fired

    # -- submission ---------------------------------------------------------------

    def submit(self, tenant: str, messages: EnvelopeBatch,
               requests: EnvelopeBatch,
               at_vt: float | None = None,
               seq: int | None = None) -> Ticket:
        """Submit one request at the current (or given) virtual time.

        ``seq`` overrides the service's own sequence counter for this
        submission (the counter continues from it).  The cluster plane
        uses this: the router owns the global sequence space, and each
        worker's single-shard service stamps the router-assigned seq so
        tickets and covered-seq ledgers line up bit-identically with an
        in-process run of the same stream.
        """
        if at_vt is not None:
            self.advance_to(at_vt)
        if seq is not None:
            self._next_seq = seq
        shard = self.shards[self._placement[tenant]]
        request = ServeRequest(tenant=tenant, seq=self._next_seq,
                               arrival_vt=self.loop.now,
                               messages=messages, requests=requests)
        self._next_seq += 1
        if self._obs is not None:
            self._obs.count("serve.submitted")
        acc = shard.tenants[tenant].accumulator
        was_empty = len(acc) == 0
        ticket, flushed = shard.submit(request, self.loop.now)
        self.tickets.append(ticket)
        if flushed is not None:
            self.results.append(flushed)
        elif ticket.accepted and was_empty and len(acc) > 0:
            # first envelope of a fresh batch: arm its deadline timer
            self.loop.schedule(acc.deadline_vt, "flush",
                               (tenant, acc.epoch))
        return ticket

    # -- fabric plane -------------------------------------------------------------
    #
    # The duck-typed surface :class:`repro.serve.fabric.Fabric` drives.
    # :class:`~repro.serve.cluster.ClusterService` exposes the same four
    # methods, which is what keeps fabric runs bit-identical between the
    # in-process and multi-process planes.

    def fabric_shard(self, tenant: str) -> int:
        """Placement of one (sub-)tenant -- the fabric's routing key."""
        return self._placement[tenant]

    def fabric_alloc_seq(self) -> int:
        """Allocate one sequence number from the global submission space.

        Fabric deliveries share the sequence space with client
        submissions so ``report()['submitted']`` counts every request
        either plane saw, in the same order.
        """
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def deliver(self, tenant: str, messages: EnvelopeBatch,
                requests: EnvelopeBatch, at_vt: float, seq: int) -> None:
        """Admit one fabric delivery into a tenant's accumulator.

        Bypasses admission control (the envelopes were already charged at
        their source shard) but still arms the batch-deadline timer, so a
        delivery that is never explicitly flushed still drains at the
        accumulator's deadline.
        """
        self._next_seq = max(self._next_seq, seq + 1)
        shard = self.shards[self._placement[tenant]]
        request = ServeRequest(tenant=tenant, seq=seq, arrival_vt=at_vt,
                               messages=messages, requests=requests)
        acc = shard.tenants[tenant].accumulator
        was_empty = len(acc) == 0
        shard.deliver(request)
        if was_empty and len(acc) > 0:
            self.loop.schedule(acc.deadline_vt, "flush", (tenant, acc.epoch))

    def fabric_deliver(self, dst_shard: int, xfer: dict) -> None:
        """Deliver one fabric transfer (see :mod:`repro.serve.fabric`).

        ``xfer['block']`` is the combined per-pair column block; each
        segment slices its tenant's rows out of it (slices reuse the
        cached packed64 column -- zero re-marshalling).
        """
        block = xfer["block"]
        for seg in xfer["segments"]:
            msgs = (block[seg["start"]:seg["stop"]] if block is not None
                    else EnvelopeBatch.empty())
            reqs = seg["requests"]
            if reqs is None:
                reqs = EnvelopeBatch.empty()
            self.deliver(seg["tenant"], msgs, reqs,
                         at_vt=xfer["at_vt"], seq=seg["seq"])

    def drain(self) -> list[FlushResult]:
        """Flush every pending accumulator at the current virtual time."""
        # run out any timers scheduled at or before now, then force-flush
        results = []
        for shard in self.shards:
            for result in shard.flush_all(self.loop.now):
                results.append(result)
                self.results.append(result)
        return results

    # -- accounting ---------------------------------------------------------------

    @property
    def retune_events(self) -> list[RetuneEvent]:
        """Every tenant's retune log, registration order."""
        events: list[RetuneEvent] = []
        for name in self._placement:
            events.extend(self.tenant(name).autotuner.events)
        return events

    @property
    def shed_counts(self) -> dict[str, int]:
        """Aggregate shed accounting across shards."""
        totals = {"retryable": 0, "overloaded": 0, "migrating": 0}
        for shard in self.shards:
            counts = shard.admission.counts()
            for key in totals:
                totals[key] += counts[key]
        return totals

    @property
    def latencies_vt(self) -> np.ndarray:
        """Per-request virtual latencies across every flush, flush order."""
        lats: list[float] = []
        for r in self.results:
            lats.extend(r.latencies_vt)
        return np.asarray(lats, dtype=float)

    def report(self) -> dict:
        """Deterministic JSON-friendly run summary.

        Latency quantiles go through the observability layer's bucketed
        :func:`~repro.obs.metrics.percentile` estimator -- over the same
        microsecond series the ``serve.latency_us`` histogram observes --
        so a report and a live metrics snapshot of the same run quote
        identical p50/p99 values.
        """
        lat = self.latencies_vt
        p50_us = percentile(lat * 1e6, 50)
        p99_us = percentile(lat * 1e6, 99)
        shed = self.shed_counts
        return {
            "virtual_seconds": self.loop.now,
            "submitted": self._next_seq,
            "accepted": sum(s.admission.admitted for s in self.shards),
            "shed_retryable": shed["retryable"],
            "shed_overloaded": shed["overloaded"],
            "shed_migrating": shed["migrating"],
            "flushes": len(self.results),
            "matched": int(sum(r.outcome.matched_count
                               for r in self.results)),
            "retunes": len(self.retune_events),
            "latency_p50_vt": p50_us / 1e6 if p50_us is not None else None,
            "latency_p99_vt": p99_us / 1e6 if p99_us is not None else None,
            "tenants": {
                name: {
                    "shard": self._placement[name],
                    "engine": self.tenant(name).relaxations.label(),
                    "flushes": self.tenant(name).flush_seq,
                    "matched": self.tenant(name).matched_total,
                    "carryover_depth": (
                        self.tenant(name).session.depth
                        if self.tenant(name).session is not None else 0),
                    "retunes": [
                        (e.from_label, e.to_label, e.direction)
                        for e in self.tenant(name).autotuner.events],
                }
                for name in self._placement
            },
        }
