"""Device descriptor and timing model tests."""

from __future__ import annotations

import pytest

from repro.core.hash_matching import HashMatcher
from repro.core.matrix_matching import MatrixMatcher
from repro.core.partitioned import PartitionedMatcher
from repro.simt.gpu import (GPU, KEPLER_K80, MAXWELL_M40, PASCAL_GTX1080,
                            GPUSpec)
from repro.simt.timing import (PRICE_MEMO_LIMIT, CostLedger, PhaseCost,
                               SYNC_OVERHEAD_CYCLES, TimingModel)
from tests.core.test_fastpath_equivalence import SEEDS, SIZES, WORKLOADS


class TestGPUSpecs:
    def test_three_generations(self):
        gens = GPU.all_generations()
        assert [g.generation for g in gens] == ["kepler", "maxwell", "pascal"]

    def test_clock_ordering_matches_paper(self):
        # "the higher clock rate of the M40 and GTX1080 yields superior
        # performance" -- clocks must be strictly increasing.
        k, m, p = GPU.all_generations()
        assert k.clock_mhz < m.clock_mhz < p.clock_mhz

    def test_lookup_by_name(self):
        assert GPU.by_name("pascal") is PASCAL_GTX1080
        assert GPU.by_name("Tesla K80") is KEPLER_K80
        assert GPU.by_name("m40") is MAXWELL_M40
        with pytest.raises(KeyError):
            GPU.by_name("volta")

    def test_warp_size_is_32(self):
        for g in GPU.all_generations():
            assert g.warp_size == 32
            assert g.max_threads_per_cta == 1024

    def test_with_override(self):
        fast = PASCAL_GTX1080.with_(clock_mhz=2000.0)
        assert fast.clock_mhz == 2000.0
        assert fast.sm_count == PASCAL_GTX1080.sm_count
        assert PASCAL_GTX1080.clock_mhz == 1733.0  # original untouched

    def test_calibration_families(self):
        for g in GPU.all_generations():
            assert g.calibration_for("default") > 0
            assert g.calibration_for("hash") > 0
            assert g.calibration_for("compaction") == 1.0
            # unknown family falls back to default
            assert g.calibration_for("nonesuch") == g.calibration_for("default")


class TestPhaseCost:
    def test_add_and_total(self):
        p = PhaseCost(name="x")
        p.add("alu", 3)
        p.add("alu", 2)
        assert p.total("alu") == 5
        assert p.total("ballot") == 0

    def test_merge(self):
        a = PhaseCost(name="x")
        b = PhaseCost(name="x")
        a.add("alu", 1)
        b.add("alu", 2)
        b.add("sync", 1)
        a.merge(b)
        assert a.total("alu") == 3
        assert a.total("sync") == 1


class TestCostLedger:
    def test_phase_reopen_merges(self):
        led = CostLedger()
        led.phase("scan", active_warps=4)
        led.issue("alu", 10)
        led.phase("reduce", active_warps=1)
        led.issue("alu", 5)
        led.phase("scan", active_warps=4)
        led.issue("alu", 1)
        scans = [p for p in led.phases if p.name == "scan"]
        assert len(scans) == 1
        assert scans[0].total("alu") == 11
        assert led.total("alu") == 16

    def test_distinct_warp_counts_are_distinct_phases(self):
        led = CostLedger()
        led.phase("scan", active_warps=4)
        led.issue("alu")
        led.phase("scan", active_warps=8)
        led.issue("alu")
        assert len([p for p in led.phases if p.name == "scan"]) == 2

    def test_rejects_zero_warps(self):
        with pytest.raises(ValueError):
            CostLedger().phase("x", active_warps=0)

    def test_grand_total(self):
        led = CostLedger()
        led.issue("alu", 2)
        led.issue("gmem_load", 3)
        assert led.grand_total() == 5


class TestTimingModel:
    def _ledger(self, kind: str, count: float, warps: int) -> CostLedger:
        led = CostLedger()
        led.phase("p", active_warps=warps)
        led.issue(kind, count)
        return led

    def test_latency_hiding_with_more_warps(self):
        """The model's core claim: 32 warps hide memory latency a single
        warp fully exposes (this is why the reduce phase is slow)."""
        model = TimingModel(PASCAL_GTX1080)
        one = model.evaluate(self._ledger("gmem_load", 320, warps=1))
        many = model.evaluate(self._ledger("gmem_load", 320, warps=32))
        assert one.cycles > 10 * many.cycles

    def test_issue_bound_floor(self):
        """With plenty of warps, time is bounded by issue throughput, not
        zero -- adding warps beyond the scheduler count stops helping."""
        model = TimingModel(PASCAL_GTX1080)
        c8 = model.evaluate(self._ledger("alu", 10000, warps=8)).cycles
        c32 = model.evaluate(self._ledger("alu", 10000, warps=32)).cycles
        assert c8 == pytest.approx(c32)

    def test_sync_overhead(self):
        model = TimingModel(PASCAL_GTX1080)
        led = self._ledger("sync", 4, warps=2)
        breakdown = model.evaluate(led)
        assert breakdown.cycles >= 4 * SYNC_OVERHEAD_CYCLES

    def test_overlap_group_charges_max(self):
        led = CostLedger()
        led.phase("a", active_warps=4, overlap_group="pipe")
        led.issue("alu", 1000)
        led.phase("b", active_warps=4, overlap_group="pipe")
        led.issue("alu", 500)
        grouped = TimingModel(PASCAL_GTX1080).evaluate(led).cycles

        led2 = CostLedger()
        led2.phase("a", active_warps=4)
        led2.issue("alu", 1000)
        led2.phase("b", active_warps=4)
        led2.issue("alu", 500)
        summed = TimingModel(PASCAL_GTX1080).evaluate(led2).cycles
        assert grouped < summed
        # grouped equals the larger member alone
        led3 = CostLedger()
        led3.phase("a", active_warps=4)
        led3.issue("alu", 1000)
        assert grouped == pytest.approx(
            TimingModel(PASCAL_GTX1080).evaluate(led3).cycles)

    def test_serialization_multiplies(self):
        led = self._ledger("alu", 100, warps=4)
        base = TimingModel(PASCAL_GTX1080).evaluate(led).cycles
        tripled = TimingModel(PASCAL_GTX1080, serialization=3.0).evaluate(
            led).cycles
        assert tripled == pytest.approx(3 * base)

    def test_serialization_below_one_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(PASCAL_GTX1080, serialization=0.5)

    def test_family_selects_calibration(self):
        led = self._ledger("alu", 100, warps=4)
        d = TimingModel(PASCAL_GTX1080, family="default").evaluate(led).cycles
        h = TimingModel(PASCAL_GTX1080, family="hash").evaluate(led).cycles
        ratio = PASCAL_GTX1080.calibration_for("hash") \
            / PASCAL_GTX1080.calibration_for("default")
        assert h / d == pytest.approx(ratio)

    def test_seconds_uses_clock(self):
        led = self._ledger("alu", 100, warps=1)
        bd = TimingModel(PASCAL_GTX1080).evaluate(led)
        assert bd.seconds == pytest.approx(bd.cycles / PASCAL_GTX1080.clock_hz)

    def test_rate_helper(self):
        led = self._ledger("alu", 100, warps=1)
        bd = TimingModel(PASCAL_GTX1080).evaluate(led)
        assert bd.rate(10) == pytest.approx(10 / bd.seconds)


# -- memoized pricing ----------------------------------------------------------


@pytest.fixture(scope="module")
def matcher_ledgers():
    """``(family, serialization, ledger)`` of every ledger the GPU matchers
    price on the fast-path equivalence workloads."""
    priced = []
    real = TimingModel.evaluate

    def record(self, ledger):
        priced.append((self.family, self.serialization, ledger))
        return real(self, ledger)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TimingModel, "evaluate", record)
        for name, make in sorted(WORKLOADS.items()):
            for n in SIZES:
                for seed in SEEDS:
                    msgs, reqs = make(n, seed=seed)
                    matchers = [MatrixMatcher(reduce_impl="batched"),
                                MatrixMatcher(reduce_impl="scalar")]
                    if not reqs.has_wildcards:
                        matchers += [PartitionedMatcher(n_queues=4,
                                                        compaction=True),
                                     HashMatcher()]
                    for matcher in matchers:
                        matcher.match(msgs, reqs)
    assert {family for family, _, _ in priced} == {
        "default", "hash", "compaction"}
    return priced


def _assert_cold_equal(model: TimingModel, ledger: CostLedger) -> None:
    got = model.evaluate(ledger)
    cold = TimingModel(model.spec, model.serialization,
                       model.family).evaluate(ledger)
    assert got.cycles == cold.cycles
    assert got.seconds == cold.seconds
    assert got.per_phase_cycles == cold.per_phase_cycles
    assert got.spec_name == cold.spec_name


class TestPricingMemo:
    def test_matcher_ledgers_price_as_cold_model(self, matcher_ledgers):
        models: dict[tuple, TimingModel] = {}
        for family, serialization, ledger in matcher_ledgers:
            model = models.setdefault(
                (family, serialization),
                TimingModel(PASCAL_GTX1080, serialization, family))
            _assert_cold_equal(model, ledger)  # miss, or a repeated shape
            _assert_cold_equal(model, ledger)  # hit
        # the workloads repeat ledger shapes, so the memo did serve hits
        assert sum(len(m._memo) for m in models.values()) \
            < len(matcher_ledgers)

    def test_returned_phase_dict_is_a_copy(self):
        led = CostLedger()
        led.phase("scan", active_warps=4, overlap_group="pipe")
        led.issue("gmem_load", 8)
        led.phase("reduce", active_warps=1, overlap_group="pipe")
        led.issue("smem_load", 3)
        model = TimingModel(PASCAL_GTX1080)
        first = model.evaluate(led)
        first.per_phase_cycles["scan"] = -1.0
        first.per_phase_cycles["bogus"] = 1.0
        _assert_cold_equal(model, led)
        second = model.evaluate(led)
        second.per_phase_cycles.clear()
        _assert_cold_equal(model, led)

    def test_signature_separates_phase_fields_and_count_order(self):
        def ledger(name="p", warps=4, group=None, counts=(("alu", 64.0),
                                                          ("gmem_load", 8.0))):
            led = CostLedger()
            led.phase(name, active_warps=warps, overlap_group=group)
            for kind, count in counts:
                led.issue(kind, count)
            return led

        variants = [ledger(), ledger(name="q"), ledger(warps=1),
                    ledger(group="pipe"),
                    ledger(counts=(("gmem_load", 8.0), ("alu", 64.0))),
                    ledger(counts=(("alu", 64.0), ("gmem_load", 9.0)))]
        model = TimingModel(PASCAL_GTX1080)
        for led in variants + variants:
            _assert_cold_equal(model, led)
        assert len(model._memo) == len(variants)

    def test_memo_is_bounded_and_stays_exact(self):
        def ledger(i):
            led = CostLedger()
            led.phase("p", active_warps=1 + i % 32)
            led.issue("alu", float(i))
            led.issue("gmem_load", float(i % 7))
            return led

        model = TimingModel(PASCAL_GTX1080, family="hash")
        n = PRICE_MEMO_LIMIT + 100
        for i in range(n):
            _assert_cold_equal(model, ledger(i))
            assert len(model._memo) <= PRICE_MEMO_LIMIT
        assert len(model._memo) == n - PRICE_MEMO_LIMIT  # it was cleared
        # entries dropped by the bound are priced afresh, identically
        for i in (0, 1, n // 2, n - 1):
            _assert_cold_equal(model, ledger(i))
