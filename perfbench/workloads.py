"""The benchmark's workloads: inputs, one measured pass, output checks.

Each workload is a :class:`Workload` with four functions:

* ``make_inputs(seed)`` builds everything the program is given, from the
  seed alone (run in the parent process, outside every measurement);
* ``run(inputs, seed, rec, verify)`` performs one pass -- set-up, the
  timed region, result collection, teardown -- and returns a
  :class:`PassResult`.  ``rec`` is ``None`` for untimed/untraced passes
  and a :class:`~spans.SpanRecorder` for traced ones, which then also
  fills ``PassResult.layers``;
* ``reference`` -- the untimed ``verify=True`` pass every measured pass
  is compared with (flush digests and report fields);
* ``setup`` -- one more set-up of the workload's plane, timed alone.

Only public ``repro`` functions are called.  Why each workload exists is
recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro.serve.loadgen as loadgen
from bench_fabric import spanning_name
from repro.bench.harness import matching_workload
from repro.core.envelope import EnvelopeBatch
from repro.core.list_matching import ListMatcher
from repro.core.relaxations import RelaxationSet
from repro.mpi import CartGraph
from repro.mpi import collectives as C
from repro.serve import (BENCHPARK_BENCH_APPS, DEFAULT_BENCH_APPS,
                         BatchPolicy, ClusterService, CollectiveBridge,
                         FabricLink, MatchingService, TenantSpec)
from spans import SpanRecorder

perf = time.perf_counter

#: Trace timesteps of every generated app trace (native rank counts).
#: Shorter traces make the modeled metrics and the op-latency tail vary
#: more between seeds (serve_mixed's op p99: 0.21 of its median between
#: quartiles at 8 steps, 0.10 at 16).
STEPS = 16
#: In-process shard count of every serve plane.
SERVE_SHARDS = 2
#: ``trace_pipeline`` cuts streams finer than the serve workloads so one
#: run holds >= 1000 ``submit`` calls for the op-latency percentiles.
PIPELINE_CHUNK = 16
#: Spanning tenant of ``fabric_bsp``: 8 ranks over 2 shards.
FABRIC_SPAN = 8
FABRIC_SHARDS = 2
RING_FANOUT = 2
PARTITIONS = 64
PART_TAG = 7
PAYLOAD_BYTES = 8
ALLREDUCE_LEN = 16
#: Rounds of (ring step, neighbor_alltoall, allreduce, partitioned
#: epoch) per ``fabric_bsp`` pass.
FABRIC_ROUNDS = 32
#: The host-speed probe: the list matcher on the paper's synthetic
#: workload at this depth (fixed seed), best of 3.
PROBE_N = 256
#: The probe's time on the host the bounds were set on (a 2-vCPU Xeon VM
#: at 2.1 GHz) while no other tenant loaded its cores.
PROBE_NOMINAL_S = 6.2e-3
#: Other tenants of that host slow it by up to ~2.4x for tens of seconds
#: at a time (CPU time grows with wall time: shared cores, not
#: preemption).  Across ~180 passes of four workloads, log(pass time)
#: rose 0.41-0.59x as fast as log(probe time), so a pass's CPU-bound
#: timings are divided by (probe time / PROBE_NOMINAL_S) ** 0.5: they
#: read as seconds on the unloaded host.
CONTENTION_EXPONENT = 0.5
#: Flush-cost curve: envelopes per flush -> flushes timed.
CURVE_POINTS = {1: 400, 16: 400, 256: 100, 4096: 10}

#: The report fields every pass must reproduce exactly.
SUMMARY_KEYS = ("submitted", "accepted", "flushes", "matched", "retunes",
                "latency_p50_vt", "latency_p99_vt")


@dataclass
class PassResult:
    """One pass: timings, the deterministic summary, and check results."""

    wall: float
    matched: int
    op_s: list[float]
    setup_s: float
    teardown_s: float
    summary: dict[str, Any]
    digests: dict[tuple[str, int], str]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    #: set by the caller from the probes around the pass: see host_factor()
    host_factor: float = 1.0

    def fail(self, n: int, problem: str) -> None:
        if n:
            self.failed += n
            self.problems.append(problem)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run: Callable[..., PassResult]
    reference: Callable[[Any, int], PassResult]
    #: one extra set-up, timed alone: more ``setup_s`` samples per run
    setup: Callable[[Any, int], float]


def _span(rec: SpanRecorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


# -- serve-plane helpers ------------------------------------------------------

def _replay(plane, arrivals, op_s: list[float]) -> None:
    """Submit the open-loop schedule back to back, then run out the
    deadline timers and drain (the same tail as ``run_workload``)."""
    for a in arrivals:
        t = perf()
        plane.submit(a.tenant, a.messages, a.requests, at_vt=a.vt)
        op_s.append(perf() - t)
    plane.advance_to(plane.now + 2 * BatchPolicy().max_delay_vt)
    plane.drain()


def _instrument_plane(rec: SpanRecorder, plane) -> None:
    """Spans around the plane's public calls (and, in-process, around
    every shard flush)."""
    rec.patch(plane, "submit", "service.submit",
              lambda t: {"seq": t if isinstance(t, int) else t.seq})
    rec.patch(plane, "advance_to", "service.advance_to")
    rec.patch(plane, "drain", "service.drain")
    for shard in getattr(plane, "shards", ()):
        # an empty accumulator flushes to None: no arguments, no flush
        rec.patch(shard, "flush_tenant", "shard.flush_tenant",
                  lambda r: {"seqs": list(r.covered_seqs)} if r else {})


def _digests(results) -> dict[tuple[str, int], str]:
    """One digest of matched pairs per flush, keyed by (tenant, flush)."""
    out = {}
    for r in results:
        h = hashlib.blake2b(digest_size=8)
        h.update(np.ascontiguousarray(r.outcome.request_to_message,
                                      dtype=np.int64).tobytes())
        out[(r.tenant, r.flush_seq)] = h.hexdigest()
    return out


def _summary(report: dict, results) -> dict[str, Any]:
    out = {k: report[k] for k in SUMMARY_KEYS}
    out["model_seconds"] = math.fsum(r.outcome.seconds for r in results)
    return out


def _ledger(res: PassResult, accepted: list[int], results) -> None:
    """Covered seqs must equal accepted seqs, each covered once."""
    covered = Counter(s for r in results for s in r.covered_seqs)
    dup = sum(n - 1 for n in covered.values() if n > 1)
    acc = set(accepted)
    lost = len(acc - covered.keys())
    extra = len(covered.keys() - acc)
    res.fail(dup, f"{dup} requests matched more than once")
    res.fail(lost, f"{lost} accepted requests never flushed")
    res.fail(extra, f"{extra} flushed seqs were never accepted")


def _serve_result(*, wall, op_s, setup_s, report, results, accepted,
                  layers) -> PassResult:
    res = PassResult(wall=wall, matched=report["matched"], op_s=op_s,
                     setup_s=setup_s, teardown_s=0.0,
                     summary=_summary(report, results),
                     digests=_digests(results), attempted=len(op_s))
    shed = report["shed_retryable"] + report["shed_overloaded"]
    res.fail(shed, f"{shed} requests shed")
    _ledger(res, accepted, results)
    res.layers = layers
    return res


# -- set-up: what ``setup_s`` times -------------------------------------------

def _build_service(specs, seed: int, verify: bool = False,
                   stages=None) -> MatchingService:
    svc = MatchingService(n_shards=SERVE_SHARDS, seed=seed, verify=verify,
                          stages=stages)
    for spec in specs:
        svc.register(spec)
    return svc


def _build_cluster(specs, seed: int, verify: bool = False, stages=None,
                   rec: SpanRecorder | None = None) -> ClusterService:
    cluster = ClusterService(n_workers=1, seed=seed, verify=verify,
                             start_method="fork", stages=stages)
    for spec in specs:
        cluster.register(spec)
    with _span(rec, "cluster.start"):
        cluster.start()
    return cluster


def _build_fabric(seed: int, verify: bool = False, stages=None):
    """The span-8 tenant, its bridge, and the ring of partitioned
    channels (rank r sends to r+1)."""
    span = FABRIC_SPAN
    svc = MatchingService(n_shards=FABRIC_SHARDS, seed=seed, verify=verify,
                          stages=stages)
    name = spanning_name(span, FABRIC_SHARDS)
    svc.register(TenantSpec(name=name, span=span, autotune=False))
    bridge = CollectiveBridge(
        svc, name, link=FabricLink(bytes_per_envelope=8 + PAYLOAD_BYTES),
        stages=stages)
    psends = [bridge.psend_init(r, (r + 1) % span, PARTITIONS, tag=PART_TAG)
              for r in range(span)]
    precvs = [bridge.precv_init((r + 1) % span, r, PARTITIONS, tag=PART_TAG)
              for r in range(span)]
    return svc, bridge, psends, precvs


def _setup_sample(build: Callable[[], Any],
                  close: Callable[[Any], None] = lambda plane: None) -> float:
    """One more set-up, timed alone (``close`` is not timed)."""
    t0 = perf()
    plane = build()
    secs = perf() - t0
    close(plane)
    return secs


# -- per-layer metrics --------------------------------------------------------

def _pct_us(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def _matcher_of(label: str) -> str:
    rel = RelaxationSet.from_label(label)
    if rel.wildcards:
        return "matrix"
    return "partitioned" if rel.ordering else "hash"


def layer_metrics(rec: SpanRecorder, results, report: dict,
                  stages: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics every workload reports; 0 where the
    workload does not reach the layer (or, for worker-side flushes, the
    layer is not observable from the router)."""
    flush_s = [s["end"] - s["start"] for s in rec.spans
               if s["name"] == "shard.flush_tenant" and s["args"]]
    sizes = [r.meta["n_messages"] + r.meta["n_requests"] for r in results]
    n_req = sum(r.outcome.n_requests for r in results)
    engines = Counter(_matcher_of(r.engine_label) for r in results)
    return {
        "traces.generate_s": rec.total("traces.generate_trace"),
        "traces.events": rec.arg_sum("traces.generate_trace", "events"),
        "loadgen.columns_s": rec.total("loadgen.busiest_rank"),
        "loadgen.chunk_s": rec.total("loadgen.tenant_stream_from_trace"),
        "loadgen.envelopes": rec.arg_sum("loadgen.tenant_stream_from_trace",
                                         "envelopes"),
        "service.submit_s": rec.total("service.submit"),
        "service.advance_s": rec.total("service.advance_to"),
        "service.drain_s": rec.total("service.drain"),
        "admission.busy_s": stages["admission"],
        "batching.busy_s": stages["batching"],
        "core.match_busy_s": stages["match"],
        "result.busy_s": stages["result"],
        "shard.flushes": len(results),
        "shard.envelopes_per_flush_p50": (statistics.median(sizes)
                                          if sizes else 0),
        "shard.flush_us_p50": _pct_us(flush_s, 50),
        "shard.flush_us_p99": _pct_us(flush_s, 99),
        "autotuner.retunes": report["retunes"],
        "core.match_fraction": report["matched"] / n_req if n_req else 0.0,
        "core.flushes.matrix": engines["matrix"],
        "core.flushes.partitioned": engines["partitioned"],
        "core.flushes.hash": engines["hash"],
        "simt.model_s": math.fsum(r.outcome.seconds for r in results),
        "simt.cycles": math.fsum(r.outcome.cycles for r in results),
        "cluster.start_s": rec.total("cluster.start"),
        "cluster.stop_s": rec.total("cluster.stop"),
        "cluster.sync_s": rec.total("cluster.sync"),
        "cluster.router_cpu_s": 0.0,
        "cluster.router_wait_s": 0.0,
        "cluster.transport_s": stages["transport"],
        "cluster.worker_busy_s": 0.0,
        "fabric.supersteps": 0,
        "fabric.pair_batches": 0,
        "fabric.messages": 0,
        "fabric.combine_ratio": 0.0,
        "fabric.wire_vt_s": 0.0,
        "fabric.busy_s": stages["fabric"],
        "mpi.ring_step_us": _pct_us(rec.durations("mpi.ring_step"), 50),
        "mpi.neighbor_alltoall_us": _pct_us(
            rec.durations("mpi.neighbor_alltoall"), 50),
        "mpi.allreduce_us": _pct_us(rec.durations("mpi.allreduce"), 50),
        "partitioned.epoch_us": _pct_us(rec.durations("partitioned.epoch"),
                                        50),
        "partitioned.matches_per_epoch": 0.0,
    }


# -- in-process serve passes --------------------------------------------------

def _service_pass(specs, stream: Callable[[], Any], seed: int,
                  rec: SpanRecorder | None, verify: bool) -> PassResult:
    """Set up an in-process service, then time ``stream()`` (which makes
    or returns the workload) plus its replay; tear down by dropping the
    service and collecting."""
    stages = rec.stages if rec is not None else None
    with _span(rec, "setup"):
        t0 = perf()
        svc = _build_service(specs, seed, verify, stages)
        setup_s = perf() - t0
    if rec is not None:
        _instrument_plane(rec, svc)
    op_s: list[float] = []
    try:
        t0 = perf()
        workload = stream()
        _replay(svc, workload.arrivals, op_s)
        wall = perf() - t0
    finally:
        if rec is not None:
            rec.restore()
    report = svc.report()
    res = _serve_result(
        wall=wall, op_s=op_s, setup_s=setup_s, report=report,
        results=svc.results,
        accepted=[t.seq for t in svc.tickets if t.accepted],
        layers=(layer_metrics(rec, svc.results, report, stages.snapshot())
                if rec is not None else {}))
    res.fail(int(tuple(workload.tenants) != tuple(specs)),
             "served tenant specs differ from the registered ones")
    with _span(rec, "teardown"):
        t0 = perf()
        svc = None
        gc.collect()
        res.teardown_s = perf() - t0
    return res


# -- trace_pipeline -----------------------------------------------------------

def _pipeline_inputs(seed: int) -> None:
    return None   # the pipeline generates its own traces, timed


#: The pipeline's tenants, as ``workload_from_app`` declares them.
PIPELINE_SPECS = tuple(TenantSpec(name=app, ordering_required=ordered)
                       for app, ordered in DEFAULT_BENCH_APPS)


def _pipeline_stream(seed: int):
    return loadgen.merge_workloads("trace_pipeline", [
        loadgen.workload_from_app(app, steps=STEPS, seed=seed,
                                  chunk_envelopes=PIPELINE_CHUNK,
                                  ordering_required=ordered)
        for app, ordered in DEFAULT_BENCH_APPS])


def _pipeline_pass(inputs, seed: int, rec: SpanRecorder | None = None,
                   verify: bool = False) -> PassResult:
    if rec is not None:   # restored when the pass's timed region ends
        for fn, name, args_of in (
                ("workload_from_app", "loadgen.workload_from_app", None),
                ("generate_trace", "traces.generate_trace",
                 lambda t: {"events": len(t.events)}),
                ("busiest_rank", "loadgen.busiest_rank", None),
                ("tenant_stream_from_trace",
                 "loadgen.tenant_stream_from_trace",
                 lambda ch: {"envelopes": sum(len(m) + len(r)
                                              for m, r in ch)}),
                ("merge_workloads", "loadgen.merge_workloads", None)):
            rec.patch(loadgen, fn, name, args_of)
    return _service_pass(PIPELINE_SPECS, lambda: _pipeline_stream(seed),
                         seed, rec, verify)


# -- serve_mixed / serve_cluster ----------------------------------------------

def _mixed_inputs(seed: int):
    """12 tenants: the six bench apps x 2 trace seeds.  The second copy
    of each default app runs in session mode; Benchpark tenants are
    declared partitioned."""
    parts = []
    for k in (0, 1):
        for apps, benchpark in ((DEFAULT_BENCH_APPS, False),
                                (BENCHPARK_BENCH_APPS, True)):
            for app, ordered in apps:
                parts.append(loadgen.workload_from_app(
                    app, steps=STEPS, seed=2 * seed + k,
                    ordering_required=ordered, tenant_name=f"{app}.{k}",
                    session=k == 1 and not benchpark,
                    partitioned=benchpark))
    return loadgen.merge_workloads("serve_mixed", parts)


def _mixed_pass(workload, seed: int, rec: SpanRecorder | None = None,
                verify: bool = False) -> PassResult:
    return _service_pass(workload.tenants, lambda: workload, seed, rec,
                         verify)


def _cluster_pass(workload, seed: int, rec: SpanRecorder | None = None,
                  verify: bool = False) -> PassResult:
    """The serve_mixed stream through one fork worker behind the router."""
    stages = rec.stages if rec is not None else None
    with _span(rec, "setup"):
        t0 = perf()
        cluster = _build_cluster(workload.tenants, seed, verify, stages, rec)
        setup_s = perf() - t0
    try:
        if rec is not None:
            _instrument_plane(rec, cluster)
            rec.patch(cluster, "sync", "cluster.sync")
        op_s: list[float] = []
        cpu0 = time.process_time()
        t0 = perf()
        _replay(cluster, workload.arrivals, op_s)
        cluster.sync()
        wall = perf() - t0
        router_cpu = time.process_time() - cpu0
        report = cluster.report()
        results = cluster.results
        layers = {}
        if rec is not None:
            layers = layer_metrics(rec, results, report,
                                   cluster.merged_stage_seconds())
            layers["cluster.router_cpu_s"] = router_cpu
            layers["cluster.router_wait_s"] = wall - router_cpu
            layers["cluster.worker_busy_s"] = sum(cluster.busy_seconds())
        accepted = [t.seq for t in cluster.ticket_list() if t.accepted]
    finally:
        if rec is not None:
            rec.restore()
        with _span(rec, "teardown"), _span(rec, "cluster.stop"):
            t0 = perf()
            cluster.stop()
            teardown_s = perf() - t0
    res = _serve_result(wall=wall, op_s=op_s, setup_s=setup_s, report=report,
                        results=results, accepted=accepted, layers=layers)
    if rec is not None:
        res.layers["cluster.stop_s"] = teardown_s
    res.teardown_s = teardown_s
    return res


def _cluster_reference(workload, seed: int) -> PassResult:
    """The in-process ``verify=True`` pass of the same stream: the
    cluster must reproduce its flush digests and report exactly."""
    return _mixed_pass(workload, seed, verify=True)


# -- fabric_bsp ---------------------------------------------------------------

def _fabric_inputs(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "ring": rng.integers(0, 1 << 30, (FABRIC_ROUNDS, FABRIC_SPAN,
                                          RING_FANOUT)),
        "neighbor": rng.integers(0, 1 << 30, (FABRIC_ROUNDS, FABRIC_SPAN, 4)),
        "allreduce": rng.integers(0, 1 << 20, (FABRIC_ROUNDS, FABRIC_SPAN,
                                               ALLREDUCE_LEN)),
    }


def _neighbor_expected(topo: CartGraph, sent: np.ndarray) -> list[list[int]]:
    """What each rank must receive: the j-th message from a source
    matches the j-th receive posted for it (non-overtaking order)."""
    out = []
    for r in range(topo.n_ranks):
        row, seen = [], Counter()
        for s in topo.sources(r):
            slots = [k for k, d in enumerate(topo.destinations(s)) if d == r]
            row.append(int(sent[s, slots[seen[s]]]))
            seen[s] += 1
        out.append(row)
    return out


def _fabric_pass(inputs, seed: int, rec: SpanRecorder | None = None,
                 verify: bool = False) -> PassResult:
    stages = rec.stages if rec is not None else None
    span = FABRIC_SPAN
    topo = CartGraph((4, 2), periodic=True)
    with _span(rec, "setup"):
        t0 = perf()
        svc, bridge, psends, precvs = _build_fabric(seed, verify, stages)
        setup_s = perf() - t0
    if rec is not None:
        _instrument_plane(rec, svc)
        rec.patch(bridge, "step", "fabric.step")
        rec.patch(bridge.fabric, "flush", "fabric.flush")
        for ch in psends + precvs:
            rec.patch(ch, "start", "partitioned.start")
            rec.patch(ch, "wait", "partitioned.wait")
        for ps in psends:
            rec.patch(ps, "pready_range", "partitioned.pready_range")

    def ring_step(i):
        reqs = [bridge.irecv(r, (r - d) % span, tag=d)
                for r in range(span) for d in range(1, RING_FANOUT + 1)]
        for r in range(span):
            for d in range(1, RING_FANOUT + 1):
                bridge.isend(r, (r + d) % span,
                             int(inputs["ring"][i, r, d - 1]), tag=d)
        return [req.wait() for req in reqs]

    def neighbor(i):
        sent = inputs["neighbor"][i]
        return C.neighbor_alltoall(bridge, topo, [
            [int(v) for v in sent[r, :len(topo.destinations(r))]]
            for r in range(span)])

    def allreduce(i):
        return C.allreduce(bridge, list(inputs["allreduce"][i]), np.add)

    def epoch(i):
        before = len(svc.results)
        for ps in psends:
            ps.start()
        for pr in precvs:
            pr.start()
        for ps in psends:
            ps.pready_range(0, PARTITIONS)
        for ps in psends:
            ps.wait()
        return [pr.wait() for pr in precvs], (before, len(svc.results))

    ops = (("mpi.ring_step", ring_step),
           ("mpi.neighbor_alltoall", neighbor),
           ("mpi.allreduce", allreduce),
           ("partitioned.epoch", epoch))
    outputs: dict[str, list] = {name: [] for name, _ in ops}
    op_s: list[float] = []
    try:
        t0 = perf()
        for i in range(FABRIC_ROUNDS):
            for op_name, op in ops:
                t = perf()
                with _span(rec, op_name):
                    outputs[op_name].append(op(i))
                op_s.append(perf() - t)
        wall = perf() - t0
    finally:
        if rec is not None:
            rec.restore()

    report = svc.report()
    results = svc.results
    res = PassResult(wall=wall, matched=report["matched"], op_s=op_s,
                     setup_s=setup_s, teardown_s=0.0,
                     summary=_summary(report, results),
                     digests=_digests(results), attempted=len(op_s))
    # fabric deliveries share the submission seq space: every seq
    # allocated must be flushed exactly once
    _ledger(res, list(range(report["submitted"])), results)
    bad = 0
    for i, got in enumerate(outputs["mpi.ring_step"]):
        want = [int(inputs["ring"][i, (r - d) % span, d - 1])
                for r in range(span) for d in range(1, RING_FANOUT + 1)]
        bad += got != want
    res.fail(bad, f"{bad} ring steps delivered wrong payloads")
    bad = sum(got != _neighbor_expected(topo, inputs["neighbor"][i])
              for i, got in enumerate(outputs["mpi.neighbor_alltoall"]))
    res.fail(bad, f"{bad} neighbor_alltoall calls returned wrong payloads")
    bad = 0
    for i, got in enumerate(outputs["mpi.allreduce"]):
        want = inputs["allreduce"][i].sum(axis=0)
        bad += not all(np.array_equal(g, want) for g in got)
    res.fail(bad, f"{bad} allreduce calls returned a wrong total")
    short = 0
    per_epoch = []
    for got, (lo, hi) in outputs["partitioned.epoch"]:
        short += sum(len(g) != PARTITIONS for g in got)
        per_epoch.append(sum(r.outcome.matched_count for r in results[lo:hi]))
    res.fail(short, f"{short} partitioned waits missed partitions")
    bad = sum(m != span for m in per_epoch)
    res.fail(bad, f"{bad} channel epochs did not match exactly once "
                  f"per channel")
    if rec is not None:
        fab = bridge.fabric
        res.layers = layer_metrics(rec, results, report, stages.snapshot())
        res.layers.update({
            "fabric.supersteps": fab.supersteps,
            "fabric.pair_batches": fab.pair_batches_total,
            "fabric.messages": fab.fabric_messages_total,
            "fabric.combine_ratio": (fab.combine_ratio
                                     if fab.pair_batches_total else 0.0),
            "fabric.wire_vt_s": fab.wire_seconds_total,
            "partitioned.matches_per_epoch": (statistics.mean(per_epoch)
                                              / span),
        })
    with _span(rec, "teardown"):
        t0 = perf()
        svc = bridge = psends = precvs = None
        gc.collect()
        res.teardown_s = perf() - t0
    return res


# -- layer probes outside the workloads ---------------------------------------

def host_probe() -> float:
    """Seconds of the fixed list-matcher kernel (best of 3): the
    same-process host-speed reference."""
    msgs, reqs = matching_workload(PROBE_N, seed=0)
    best = float("inf")
    for _ in range(3):
        t0 = perf()
        ListMatcher().match(msgs, reqs)
        best = min(best, perf() - t0)
    return best


def host_factor(probe_before: float, probe_after: float) -> float:
    """How much slower than the unloaded host a pass between these two
    probes ran (> 1 when other tenants load the cores)."""
    return ((probe_before + probe_after) / (2 * PROBE_NOMINAL_S)
            ) ** CONTENTION_EXPONENT


def flush_curve(seed: int) -> dict[str, float]:
    """Median wall microseconds per flush at 1, 16, 256 and 4096
    envelopes per flush: one pinned tenant whose size watermark equals
    the submission size, so every ``submit`` flushes exactly once."""
    out = {}
    for n, count in CURVE_POINTS.items():
        svc = MatchingService(n_shards=1, seed=seed,
                              batching=BatchPolicy(max_envelopes=n))
        svc.register(TenantSpec(name="curve", autotune=False))
        msgs, reqs = matching_workload(max(n // 2, 1), seed=seed)
        if n == 1:
            reqs = EnvelopeBatch.empty()
        rec = SpanRecorder()
        rec.patch(svc.shards[0], "flush_tenant", "shard.flush_tenant")
        for _ in range(count):
            svc.submit("curve", msgs, reqs)
        rec.restore()
        flushes = rec.durations("shard.flush_tenant")
        if len(flushes) != count or len(svc.results) != count:
            raise RuntimeError(f"flush curve n={n}: {len(svc.results)} "
                               f"flushes for {count} submits")
        out[f"shard.flush_us.n{n}"] = statistics.median(flushes) * 1e6
    return out


WORKLOADS: dict[str, Workload] = {
    "trace_pipeline": Workload(
        _pipeline_inputs, _pipeline_pass,
        lambda inputs, seed: _pipeline_pass(inputs, seed, verify=True),
        lambda inputs, seed: _setup_sample(
            lambda: _build_service(PIPELINE_SPECS, seed))),
    "serve_mixed": Workload(
        _mixed_inputs, _mixed_pass,
        lambda inputs, seed: _mixed_pass(inputs, seed, verify=True),
        lambda inputs, seed: _setup_sample(
            lambda: _build_service(inputs.tenants, seed))),
    "serve_cluster": Workload(
        _mixed_inputs, _cluster_pass, _cluster_reference,
        lambda inputs, seed: _setup_sample(
            lambda: _build_cluster(inputs.tenants, seed),
            lambda cluster: cluster.stop())),
    "fabric_bsp": Workload(
        _fabric_inputs, _fabric_pass,
        lambda inputs, seed: _fabric_pass(inputs, seed, verify=True),
        lambda inputs, seed: _setup_sample(lambda: _build_fabric(seed))),
}
