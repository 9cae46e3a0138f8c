"""Simulator configuration and the cost model.

The simulated kernel never reads a wall clock.  Every operation *counts
work* — pages copied, PTEs written, faults taken, IPIs sent — in a
:class:`WorkCounters` record, and :class:`CostModel` converts counted work
into virtual nanoseconds.  Keeping the conversion in data rather than in
code is what makes the ablation experiments (A1 in DESIGN.md) parameter
sweeps instead of code forks: zeroing one constant removes exactly one
mechanism's cost.

The kernel prices each syscall without copying that record:
:data:`_tally` reads the priced counts into one tuple before the handler
runs, and :meth:`CostModel._charge` afterwards subtracts that tuple from
the live counts and sums ``count * cost`` over the non-zero ones, in
``CostModel._COUNTER_COSTS`` order.  :meth:`CostModel.work_ns` is the
same loop from a zero baseline, so ``work_ns(counters.delta(before))``
is the very float the kernel charges for the same work.

Default constants are calibrated so the simulated Figure 1 matches the
shape and rough magnitudes of the real-OS run on commodity x86 hardware
(see EXPERIMENTS.md): a fork of a dirty multi-gigabyte address space costs
hundreds of milliseconds, while ``posix_spawn`` stays at a fraction of a
millisecond regardless of parent size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, sub

PAGE_SIZE = 4096
HUGE_PAGE_SIZE = 2 * 1024 * 1024

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass
class WorkCounters:
    """Mechanical work performed by the simulated kernel.

    Counters are cumulative; take a :meth:`snapshot` before an operation
    and subtract with :meth:`delta` to attribute work to it.
    """

    pages_copied: int = 0          # full page copies (COW break, eager fork)
    ptes_copied: int = 0           # PTEs duplicated into a child page table
    ptes_writeprotected: int = 0   # parent PTEs downgraded to read-only at fork
    pte_writes: int = 0            # other PTE installs/updates (mmap, fault)
    faults: int = 0                # page faults taken (demand zero + COW)
    cow_breaks: int = 0            # COW faults that had to copy
    cow_reuses: int = 0            # COW faults resolved by reusing a sole frame
    zero_fills: int = 0            # demand-zero page materialisations
    tlb_shootdowns: int = 0        # remote-TLB invalidation rounds
    ipis: int = 0                  # inter-processor interrupts sent
    tlb_flushes: int = 0           # local TLB flushes (incl. context switch)
    frames_allocated: int = 0
    frames_freed: int = 0
    syscalls: int = 0
    context_switches: int = 0
    vm_lock_acquisitions: int = 0
    exec_loads: int = 0            # program images loaded by exec/spawn
    fd_dups: int = 0               # fd table entries duplicated at fork

    def snapshot(self) -> "WorkCounters":
        """Return an independent copy of the current counts."""
        return WorkCounters(*_counts(self))

    def delta(self, since: "WorkCounters") -> "WorkCounters":
        """Return the work performed since ``since`` was snapshotted."""
        return WorkCounters(*map(sub, _counts(self), _counts(since)))

    def add(self, other: "WorkCounters") -> None:
        """Accumulate ``other`` into this record in place."""
        for name, count in zip(_COUNTER_NAMES, _counts(other)):
            setattr(self, name, getattr(self, name) + count)

    def as_dict(self) -> dict:
        """Counters as a plain ``{name: count}`` dictionary."""
        return dict(zip(_COUNTER_NAMES, _counts(self)))


_COUNTER_NAMES = tuple(f.name for f in fields(WorkCounters))
_counts = attrgetter(*_COUNTER_NAMES)


@dataclass(frozen=True)
class CostModel:
    """Nanosecond cost of each unit of kernel work.

    The defaults approximate a ~3 GHz x86 server: a 4 KiB page copy is a
    few hundred nanoseconds of streaming memcpy, a PTE write tens of
    nanoseconds once the cache line is hot, an IPI round a few
    microseconds, and loading a small static program image a few hundred
    microseconds.  ``fixed_*`` constants capture the size-independent
    syscall path (entry/exit, accounting, scheduler insertion).
    """

    page_copy_ns: float = 250.0
    pte_copy_ns: float = 12.0
    pte_writeprotect_ns: float = 10.0
    pte_write_ns: float = 15.0
    fault_ns: float = 900.0
    zero_fill_ns: float = 300.0
    tlb_shootdown_ns: float = 4000.0
    ipi_ns: float = 2000.0
    tlb_flush_ns: float = 500.0
    frame_alloc_ns: float = 40.0
    frame_free_ns: float = 30.0
    syscall_ns: float = 300.0
    context_switch_ns: float = 1200.0
    vm_lock_ns: float = 50.0
    exec_load_ns: float = 250_000.0
    fd_dup_ns: float = 60.0

    fixed_fork_ns: float = 45_000.0
    fixed_spawn_ns: float = 60_000.0
    fixed_exec_ns: float = 50_000.0
    fixed_exit_ns: float = 20_000.0

    #: Counters that classify other counted work rather than adding to it:
    #: a COW break is already priced as one fault plus one page copy, and
    #: a COW reuse as one fault.  Pricing these would double-charge.
    CLASSIFICATION_COUNTERS = frozenset({"cow_breaks", "cow_reuses"})

    _COUNTER_COSTS = (
        ("pages_copied", "page_copy_ns"),
        ("ptes_copied", "pte_copy_ns"),
        ("ptes_writeprotected", "pte_writeprotect_ns"),
        ("pte_writes", "pte_write_ns"),
        ("faults", "fault_ns"),
        ("zero_fills", "zero_fill_ns"),
        ("tlb_shootdowns", "tlb_shootdown_ns"),
        ("ipis", "ipi_ns"),
        ("tlb_flushes", "tlb_flush_ns"),
        ("frames_allocated", "frame_alloc_ns"),
        ("frames_freed", "frame_free_ns"),
        ("syscalls", "syscall_ns"),
        ("context_switches", "context_switch_ns"),
        ("vm_lock_acquisitions", "vm_lock_ns"),
        ("exec_loads", "exec_load_ns"),
        ("fd_dups", "fd_dup_ns"),
    )

    def __post_init__(self):
        # The price of each counter _charge reads, in _COUNTER_COSTS order.
        object.__setattr__(self, "_costs", tuple(
            getattr(self, cost_name) for _, cost_name in self._COUNTER_COSTS))

    def work_ns(self, work: WorkCounters) -> float:
        """Virtual nanoseconds implied by a work record (no fixed costs)."""
        return self._charge(work, _NO_WORK)

    def _charge(self, work: WorkCounters, since: tuple) -> float:
        """Virtual nanoseconds of the work counted in ``work`` since the
        :data:`_tally` ``since`` was taken (no fixed costs)."""
        total = 0.0
        for now, then, cost in zip(_tally(work), since, self._costs):
            count = now - then
            if count:
                total += count * cost
        return total

    def without(self, **zeroed: bool) -> "CostModel":
        """Return a copy with the named cost constants set to zero.

        Used by the A1 ablation: ``model.without(page_copy_ns=True)``
        prices page copies at nothing, isolating the remaining terms.
        """
        updates = {name: 0.0 for name, flag in zeroed.items() if flag}
        for name in updates:
            if name not in {f.name for f in fields(self)}:
                raise ValueError(f"unknown cost constant: {name}")
        return replace(self, **updates)


#: The priced counters of a :class:`WorkCounters` as one tuple, in
#: ``CostModel._COUNTER_COSTS`` order: what :meth:`CostModel._charge`
#: subtracts from the live counts.
_PRICED = tuple(counter_name for counter_name, _ in CostModel._COUNTER_COSTS)
_tally = attrgetter(*_PRICED)
_NO_WORK = (0,) * len(_PRICED)


@dataclass(frozen=True)
class SimConfig:
    """Tunable parameters of a simulated machine.

    Attributes:
        total_ram: bytes of simulated physical memory.
        page_size: base page size; 4 KiB unless huge pages are modelled.
        num_cpus: CPUs, which bounds TLB-shootdown fan-out and the
            scaling experiment's parallelism.
        overcommit: ``"heuristic"`` (Linux default: refuse only wildly
            unreasonable requests), ``"always"``, or ``"never"`` (strict
            commit accounting, the mode under which fork of a large
            process fails — experiment T3).
        aslr_entropy_bits: bits of randomness in fresh mmap placements.
        cow_enabled: when ``False`` fork copies every page eagerly
            (pre-BSD behaviour; A1 ablation point).
        vm_lock_granularity: ``"addrspace"`` (one lock per mm, the Linux
            ``mmap_sem`` that the paper blames for fork's scaling
            collapse) or ``"vma"`` (per-region locks, the fix the
            scaling experiment F2 contrasts).
    """

    total_ram: int = 4 * GIB
    page_size: int = PAGE_SIZE
    num_cpus: int = 4
    overcommit: str = "heuristic"
    aslr_entropy_bits: int = 28
    cow_enabled: bool = True
    vm_lock_granularity: str = "addrspace"
    rng_seed: int = 20190513  # HotOS'19 workshop date
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        if self.overcommit not in ("heuristic", "always", "never"):
            raise ValueError(f"bad overcommit mode: {self.overcommit!r}")
        if self.vm_lock_granularity not in ("addrspace", "vma"):
            raise ValueError(
                f"bad vm_lock_granularity: {self.vm_lock_granularity!r}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.total_ram < self.page_size:
            raise ValueError("total_ram smaller than one page")
        if self.num_cpus < 1:
            raise ValueError("need at least one CPU")

    @property
    def total_frames(self) -> int:
        """Number of physical frames implied by RAM and page size."""
        return self.total_ram // self.page_size


def pages_for(nbytes: int, page_size: int = PAGE_SIZE) -> int:
    """Number of pages needed to cover ``nbytes`` (ceiling division)."""
    if nbytes < 0:
        raise ValueError("negative size")
    return -(-nbytes // page_size)


def page_align_down(addr: int, page_size: int = PAGE_SIZE) -> int:
    """Round ``addr`` down to a page boundary."""
    return addr & ~(page_size - 1)


def page_align_up(addr: int, page_size: int = PAGE_SIZE) -> int:
    """Round ``addr`` up to a page boundary."""
    return (addr + page_size - 1) & ~(page_size - 1)
