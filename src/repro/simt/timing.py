"""Cost accounting and the throughput timing model.

The functional simulator executes the paper's algorithms lane-accurately;
this module turns the *instruction and memory-transaction counts* of that
execution into predicted cycles and wall time on a given
:class:`~repro.simt.gpu.GPUSpec`.

Model
-----
Execution is split into **phases** (e.g. the matrix matcher's *scan* and
*reduce*).  Each phase knows how many warps were concurrently active.  For
a phase ``p`` the model charges:

``issue(p)``
    total scheduler occupancy: ``sum(count_k * issue_cost_k)`` divided by
    the number of schedulers that can be kept busy,
    ``min(schedulers_per_sm, active_warps)``.

``latency(p)``
    total exposed memory latency: each memory instruction stalls its warp
    for the device latency, but stalls of different warps overlap, so the
    total is divided by ``active_warps``.  This is the classic
    latency-hiding throughput argument: a single warp (the sequential
    reduce phase!) eats every stall, 32 warps hide almost all of them.

``cycles(p) = max(issue(p), latency(p)) + sync_overhead(p)``

Phases may declare an *overlap group*: phases in the same group run
concurrently (software pipelining of scan and reduce, Section V-A) and the
group costs ``max`` of its members rather than their sum.

The final per-device, per-family ``calibration`` multiplier anchors
absolute rates to the paper's measured hardware numbers; all *relative*
effects (queue length, queue count, CTA serialization, match fraction)
emerge from the counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .gpu import GPUSpec

__all__ = ["PhaseCost", "CostLedger", "TimingModel", "TimingBreakdown"]

#: Latency class of each instruction kind; kinds not listed expose no
#: additional latency beyond their issue cost.
_LATENCY_KIND = {
    "smem_load": "smem",
    "smem_store": "smem_store",
    "gmem_load": "gmem",
    "gmem_store": "gmem_store",
    "atomic": "atomic",
}

#: Cycles a CTA-wide barrier costs on top of issue (drain + reconverge).
SYNC_OVERHEAD_CYCLES = 30.0

#: Distinct ledger signatures one :class:`TimingModel` remembers; the memo
#: is cleared when it reaches this size, so a long run of ever-new
#: ledgers costs bounded memory.
PRICE_MEMO_LIMIT = 4096


@dataclass
class PhaseCost:
    """Instruction counts for one execution phase.

    Attributes
    ----------
    name:
        Phase label (appears in timing breakdowns).
    active_warps:
        Warps concurrently resident and runnable during the phase; this is
        the latency-hiding pool.
    counts:
        Mapping instruction-kind -> number of *warp* instructions issued
        (already aggregated across all warps participating in the phase).
    overlap_group:
        Phases sharing a non-None group execute concurrently and are
        charged ``max`` instead of ``sum``.
    """

    name: str
    active_warps: int = 1
    counts: dict = field(default_factory=lambda: defaultdict(float))
    overlap_group: str | None = None

    def add(self, kind: str, count: float = 1.0) -> None:
        """Record ``count`` warp instructions of ``kind``."""
        self.counts[kind] += count

    def merge(self, other: "PhaseCost") -> None:
        """Fold another phase's counts into this one (same name/warps)."""
        for kind, count in other.counts.items():
            self.counts[kind] += count

    def total(self, kind: str) -> float:
        """Count for one kind (0 when absent)."""
        return self.counts.get(kind, 0.0)


class CostLedger:
    """Accumulates :class:`PhaseCost` records during a simulated kernel.

    A ledger always has a *current* phase; :meth:`issue` charges it.  Use
    :meth:`phase` to open a new phase (phases with the same name and warp
    count are merged so loops can re-open phases cheaply).
    """

    def __init__(self) -> None:
        self.phases: list[PhaseCost] = []
        self._current: PhaseCost | None = None
        self.phase("default", active_warps=1)

    def phase(self, name: str, active_warps: int = 1,
              overlap_group: str | None = None) -> PhaseCost:
        """Open (or re-open) a phase and make it current."""
        if active_warps < 1:
            raise ValueError("active_warps must be >= 1")
        for existing in self.phases:
            if (existing.name == name and existing.active_warps == active_warps
                    and existing.overlap_group == overlap_group):
                self._current = existing
                return existing
        ph = PhaseCost(name=name, active_warps=active_warps,
                       overlap_group=overlap_group)
        self.phases.append(ph)
        self._current = ph
        return ph

    @property
    def current(self) -> PhaseCost:
        """The phase currently receiving issues."""
        assert self._current is not None
        return self._current

    def issue(self, kind: str, count: float = 1.0) -> None:
        """Charge ``count`` warp instructions of ``kind`` to the current phase."""
        self.current.add(kind, count)

    def total(self, kind: str) -> float:
        """Total count of ``kind`` across all phases."""
        return sum(p.total(kind) for p in self.phases)

    def grand_total(self) -> float:
        """Total warp instructions across all phases and kinds."""
        return sum(sum(p.counts.values()) for p in self.phases)

    def nonempty_phases(self) -> list[PhaseCost]:
        """Phases that actually issued something."""
        return [p for p in self.phases if p.counts]


@dataclass
class TimingBreakdown:
    """Result of evaluating a ledger on a device."""

    cycles: float
    seconds: float
    per_phase_cycles: dict
    spec_name: str

    def rate(self, items: int) -> float:
        """Items per second given this breakdown's wall time."""
        if self.seconds <= 0:
            raise ValueError("non-positive duration")
        return items / self.seconds


class TimingModel:
    """Evaluates a :class:`CostLedger` on a :class:`GPUSpec`.

    Parameters
    ----------
    spec:
        Target device.
    serialization:
        Multiplier for CTA serialization: when more CTAs are launched than
        the SM can co-schedule, the caller computes the factor via
        :mod:`repro.simt.occupancy` and passes it here (default 1.0).
    family:
        Algorithm family selecting the device's calibration anchor
        ("default" for the matrix/list kernels, "hash" for the
        hash-table kernel).
    """

    def __init__(self, spec: GPUSpec, serialization: float = 1.0,
                 family: str = "default") -> None:
        if serialization < 1.0:
            raise ValueError("serialization factor cannot be < 1")
        self.spec = spec
        self.serialization = serialization
        self.family = family
        # ledger signature -> breakdown; valid because neither ``spec``
        # (never reassigned) nor its cost dicts (never mutated) change
        self._memo: dict[tuple, TimingBreakdown] = {}

    # -- per-phase model -----------------------------------------------------

    def _latency_of(self, kind: str) -> float:
        spec = self.spec
        cls = _LATENCY_KIND.get(kind)
        if cls == "smem":
            return spec.smem_latency
        if cls == "smem_store":
            return spec.smem_latency * 0.5  # stores retire without load-use stall
        if cls == "gmem":
            return spec.gmem_latency
        if cls == "gmem_store":
            return spec.gmem_latency * 0.4  # write-back, partially fire-and-forget
        if cls == "atomic":
            return spec.gmem_latency * 1.5
        return 0.0

    def phase_cycles(self, phase: PhaseCost) -> float:
        """Predicted cycles for one phase (before calibration scaling)."""
        spec = self.spec
        issue_total = sum(count * spec.issue_cost(kind)
                          for kind, count in phase.counts.items())
        issue_cycles = issue_total / max(1, min(spec.schedulers_per_sm,
                                                phase.active_warps))
        latency_total = sum(count * self._latency_of(kind)
                            for kind, count in phase.counts.items())
        latency_cycles = latency_total / max(1, phase.active_warps)
        sync_cycles = phase.total("sync") * SYNC_OVERHEAD_CYCLES
        return max(issue_cycles, latency_cycles) + sync_cycles

    # -- ledger evaluation ----------------------------------------------------

    def evaluate(self, ledger: CostLedger) -> TimingBreakdown:
        """Total predicted cycles / seconds for a ledger.

        Phases in the same overlap group cost the max of the group's
        members; ungrouped phases are summed.

        Memoized by the ledger's signature: the name, warps, overlap
        group and ordered counts of each non-empty phase.  Equal
        signatures run the same float operations in the same order, so a
        hit is bit-identical to pricing the ledger again.  Each call
        returns a fresh breakdown with its own ``per_phase_cycles`` dict.
        """
        key = tuple((p.name, p.active_warps, p.overlap_group,
                     tuple(p.counts.items()))
                    for p in ledger.phases if p.counts)
        priced = self._memo.get(key)
        if priced is None:
            priced = self._evaluate(ledger)
            if len(self._memo) >= PRICE_MEMO_LIMIT:
                self._memo.clear()
            self._memo[key] = priced
        return TimingBreakdown(cycles=priced.cycles, seconds=priced.seconds,
                               per_phase_cycles=dict(priced.per_phase_cycles),
                               spec_name=priced.spec_name)

    def _evaluate(self, ledger: CostLedger) -> TimingBreakdown:
        """Price a ledger from its counts (the memo's miss path)."""
        per_phase: dict[str, float] = {}
        groups: dict[str, float] = defaultdict(float)
        total = 0.0
        for phase in ledger.nonempty_phases():
            cycles = self.phase_cycles(phase)
            per_phase[phase.name] = per_phase.get(phase.name, 0.0) + cycles
            if phase.overlap_group is not None:
                groups[phase.overlap_group] = max(groups[phase.overlap_group],
                                                  cycles)
            else:
                total += cycles
        total += sum(groups.values())
        total *= self.serialization * self.spec.calibration_for(self.family)
        seconds = total / self.spec.clock_hz
        return TimingBreakdown(cycles=total, seconds=seconds,
                               per_phase_cycles=per_phase,
                               spec_name=self.spec.name)
