"""Unit tests for the cost model, work counters and config validation."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.params import (CostModel, SimConfig, WorkCounters, PAGE_SIZE,
                              _tally, page_align_down, page_align_up,
                              pages_for)

COUNTS = st.integers(min_value=0, max_value=10**9)
#: One work record's counts, by counter name.
RECORDS = st.fixed_dictionaries(
    {name: COUNTS for name in WorkCounters().as_dict()})
#: The default model and single- and multi-constant ablations of it.
MODELS = st.sampled_from([
    CostModel(),
    CostModel().without(page_copy_ns=True),
    CostModel().without(fault_ns=True, zero_fill_ns=True),
    CostModel().without(exec_load_ns=True, syscall_ns=True,
                        context_switch_ns=True),
    CostModel().without(**{name: True for _, name in
                           CostModel._COUNTER_COSTS}),
])


class TestWorkCounters:
    def test_snapshot_is_independent(self):
        c = WorkCounters()
        snap = c.snapshot()
        c.faults += 5
        assert snap.faults == 0

    def test_delta_attributes_work(self):
        c = WorkCounters(pages_copied=10)
        snap = c.snapshot()
        c.pages_copied += 3
        c.faults += 1
        d = c.delta(snap)
        assert d.pages_copied == 3
        assert d.faults == 1

    def test_add_accumulates(self):
        a = WorkCounters(faults=2)
        a.add(WorkCounters(faults=3, ipis=1))
        assert a.faults == 5
        assert a.ipis == 1

    def test_as_dict_roundtrip(self):
        c = WorkCounters(tlb_shootdowns=7)
        assert c.as_dict()["tlb_shootdowns"] == 7


class TestCostModel:
    def test_zero_work_costs_nothing(self):
        assert CostModel().work_ns(WorkCounters()) == 0.0

    def test_pages_copied_priced_linearly(self):
        m = CostModel(page_copy_ns=100.0)
        one = m.work_ns(WorkCounters(pages_copied=1))
        thousand = m.work_ns(WorkCounters(pages_copied=1000))
        assert thousand == pytest.approx(1000 * one)

    def test_every_counter_is_priced_or_classification(self):
        # A model must not silently ignore any work counter; the only
        # unpriced ones are declared classification counters (their cost
        # is already captured by the counters they classify).
        priced = {counter for counter, _ in CostModel._COUNTER_COSTS}
        import dataclasses
        all_counters = {f.name for f in dataclasses.fields(WorkCounters)}
        assert priced | CostModel.CLASSIFICATION_COUNTERS == all_counters
        assert not priced & CostModel.CLASSIFICATION_COUNTERS

    @given(model=MODELS, start=RECORDS, increments=RECORDS)
    def test_tally_charge_equals_priced_delta(self, model, start,
                                              increments):
        # The kernel prices a call from a tally taken before it; that
        # charge must be the very float work_ns gives for the delta.
        counters = WorkCounters(**start)
        before_record = counters.snapshot()
        before = _tally(counters)
        for name, count in increments.items():
            setattr(counters, name, getattr(counters, name) + count)
        assert (model._charge(counters, before)
                == model.work_ns(counters.delta(before_record)))

    def test_without_zeroes_named_constant(self):
        m = CostModel().without(page_copy_ns=True)
        assert m.page_copy_ns == 0.0
        assert m.pte_copy_ns == CostModel().pte_copy_ns

    def test_without_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            CostModel().without(bogus_ns=True)

    def test_without_is_nondestructive(self):
        base = CostModel()
        base.without(fault_ns=True)
        assert base.fault_ns != 0.0


class TestSimConfig:
    def test_defaults_validate(self):
        cfg = SimConfig()
        assert cfg.total_frames == cfg.total_ram // cfg.page_size

    def test_bad_overcommit_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(overcommit="maybe")

    def test_bad_lock_granularity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(vm_lock_granularity="page")

    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(page_size=5000)

    def test_tiny_ram_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(total_ram=100, page_size=4096)

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_cpus=0)


class TestAlignmentHelpers:
    def test_pages_for_exact(self):
        assert pages_for(2 * PAGE_SIZE) == 2

    def test_pages_for_rounds_up(self):
        assert pages_for(PAGE_SIZE + 1) == 2

    def test_pages_for_zero(self):
        assert pages_for(0) == 0

    def test_pages_for_rejects_negative(self):
        with pytest.raises(ValueError):
            pages_for(-1)

    def test_align_down(self):
        assert page_align_down(PAGE_SIZE + 123) == PAGE_SIZE

    def test_align_up(self):
        assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE

    def test_align_up_is_idempotent_on_aligned(self):
        assert page_align_up(3 * PAGE_SIZE) == 3 * PAGE_SIZE
