"""Address spaces: VMAs, demand paging, copy-on-write, and fork.

This module is the heart of the simulator, because the paper's core
performance claim is about exactly this code path: duplicating an address
space.  Even with copy-on-write, ``fork`` must

1. duplicate every VMA descriptor,
2. copy every present PTE into the child,
3. write-protect every private writable page in the *parent*, and
4. shoot down stale TLB entries on every CPU the parent ran on —

all work proportional to the parent's size, none of which ``posix_spawn``
performs.  :meth:`AddressSpace.fork_into` implements steps 1–4 and charges
them to the shared :class:`~repro.sim.params.WorkCounters`, so the cost
model can price a fork of any address space, real or synthetic.

Content is modelled at page granularity: a page holds one token (any
value), reads return it, and copy-on-write isolation is checked token by
token in the tests.  Bulk-populated ranges (benchmark ballast) are carried
by :class:`~repro.sim.vma.BulkRun` descriptors so a simulated 8 GiB heap
costs a handful of Python objects while still being charged for two
million page copies when forked.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Tuple

from ..errors import SimError, SimMemoryError, SimSegfault
from .frames import AggregateFrame, Frame, FrameAllocator
from .overcommit import CommitPolicy
from .pagetable import PTE, PageTable
from .params import (GIB, MIB, SimConfig, WorkCounters, page_align_down,
                     page_align_up, pages_for)
from .shm import ShmBacking
from .tlb import TLBModel
from .vma import VMA, BulkRun, parse_prot

# Canonical x86-64-ish user layout (bytes).
TEXT_BASE = 0x0000_0000_0040_0000
HEAP_FLOOR = 0x0000_0000_1000_0000
MMAP_FLOOR = 0x0000_1000_0000_0000
MMAP_CEILING = 0x0000_7000_0000_0000
STACK_CEILING = 0x0000_7FFF_FFFF_F000
DEFAULT_STACK_BYTES = 8 * MIB

#: The global shared zero page.  Read faults on untouched anonymous memory
#: map it (as Linux does); it is never charged to any frame budget and its
#: refcount is not maintained.
ZERO_FRAME = Frame(value=None)


class AddressSpace:
    """One process's virtual address space.

    Usually created through :class:`~repro.sim.kernel.Kernel`, which wires
    in the machine-shared allocator, TLB, commit policy and counters; it
    can also stand alone for unit tests, in which case private instances
    of each are created.
    """

    _asids = itertools.count(1)

    def __init__(self, config: Optional[SimConfig] = None, *,
                 allocator: Optional[FrameAllocator] = None,
                 tlb: Optional[TLBModel] = None,
                 commit: Optional[CommitPolicy] = None,
                 counters: Optional[WorkCounters] = None,
                 rng: Optional[random.Random] = None,
                 name: str = "as"):
        self.config = config if config is not None else SimConfig()
        self.counters = counters if counters is not None else WorkCounters()
        self.allocator = (allocator if allocator is not None else
                          FrameAllocator(self.config.total_frames,
                                         self.counters))
        self.tlb = (tlb if tlb is not None else
                    TLBModel(self.config.num_cpus, self.counters))
        self.commit = (commit if commit is not None else
                       CommitPolicy(self.config.total_frames,
                                    self.config.overcommit))
        self.rng = rng if rng is not None else random.Random(
            self.config.rng_seed)
        self.name = name
        self.asid = next(self._asids)
        self.page_size = self.config.page_size
        self.pagetable = PageTable(self.counters)
        self.vmas: List[VMA] = []
        self.commit_pages = 0
        self.dead = False
        self._randomize_layout()
        self.brk = self.heap_base
        self.tlb.activate(self.asid, cpu=0)

    # ------------------------------------------------------------------
    # Layout and ASLR
    # ------------------------------------------------------------------

    def _randomize_layout(self) -> None:
        """Pick randomised region bases (ASLR).

        Fork *copies* the resulting layout into the child verbatim, while
        exec/spawn re-randomises — the asymmetry experiment A2 measures.
        """
        bits = self.config.aslr_entropy_bits
        page = self.page_size

        def slide(modulus: int) -> int:
            if bits <= 0:
                return 0
            return (self.rng.getrandbits(bits) * page) % modulus

        self.text_base = page_align_up(TEXT_BASE, page)
        self.heap_base = page_align_up(HEAP_FLOOR + slide(1 * GIB), page)
        self.mmap_top = page_align_down(MMAP_CEILING - slide(64 * GIB), page)
        self.stack_top = page_align_down(STACK_CEILING - slide(1 * GIB),
                                         page)

    def layout_signature(self) -> Tuple[int, int, int, int]:
        """The randomised bases, for entropy measurements (A2)."""
        return (self.text_base, self.heap_base, self.mmap_top, self.stack_top)

    # ------------------------------------------------------------------
    # VMA bookkeeping
    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise SimError(f"address space {self.name!r} was destroyed")

    def find_vma(self, addr: int) -> Optional[VMA]:
        """The VMA containing ``addr``, or ``None``."""
        for vma in self.vmas:
            if vma.contains(addr):
                return vma
        return None

    def _insert_vma(self, vma: VMA) -> None:
        for existing in self.vmas:
            if existing.overlaps(vma.start, vma.end):
                raise SimError(f"{vma!r} overlaps {existing!r}")
        self.vmas.append(vma)
        self.vmas.sort(key=lambda v: v.start)

    def _vpn(self, addr: int) -> int:
        return addr // self.page_size

    def _find_gap(self, length: int) -> int:
        """Top-down search of the mmap region for a free range.

        The region runs from ``MMAP_FLOOR`` up to this space's
        (ASLR-slid) ``mmap_top``; mappings outside it — the program
        image down low, the stack up high — are skipped over, not
        squeezed under.
        """
        ceiling = self.mmap_top
        for vma in sorted(self.vmas, key=lambda v: v.start, reverse=True):
            if vma.start >= ceiling:
                continue
            if vma.end <= ceiling - length and ceiling - length >= MMAP_FLOOR:
                return ceiling - length
            ceiling = vma.start
        if ceiling - length >= MMAP_FLOOR:
            return ceiling - length
        raise SimMemoryError("mmap region exhausted")

    def _charges_commit(self, vma: VMA) -> bool:
        """Whether a mapping counts against the commit limit.

        Private writable memory is a promise of distinct pages; shared
        and read-only mappings are not (matching Linux's accounting).
        """
        return vma.writable and not vma.shared

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------

    def map(self, length: int, prot: str = "rw", *, shared: bool = False,
            addr: Optional[int] = None, name: str = "[anon]",
            inode=None, file_offset: int = 0) -> VMA:
        """Create a mapping of ``length`` bytes; returns the new VMA.

        With ``addr=None`` an address is chosen top-down in the mmap
        region (subject to ASLR).  Private writable mappings are charged
        against the commit limit and may raise :class:`SimMemoryError`
        under ``never`` overcommit.
        """
        self._check_alive()
        if length <= 0:
            raise SimError("mapping needs a positive length")
        length = page_align_up(length, self.page_size)
        if addr is None:
            addr = self._find_gap(length)
        elif addr % self.page_size:
            raise SimError(f"unaligned mapping address {addr:#x}")
        if shared and inode is None:
            # MAP_SHARED|MAP_ANONYMOUS is backed by a fresh shm object so
            # every inheritor (fork keeps sharing it) sees the same pages.
            inode = ShmBacking(self.allocator, length, name=name)
        vma = VMA(addr, addr + length, prot, shared=shared, name=name,
                  inode=inode, file_offset=file_offset)
        if self._charges_commit(vma):
            pages = length // self.page_size
            self.commit.charge(pages)
            self.commit_pages += pages
        self._insert_vma(vma)
        self._acquire_backing(vma)
        return vma

    @staticmethod
    def _acquire_backing(vma: VMA) -> None:
        if vma.inode is not None and hasattr(vma.inode, "acquire_mapping"):
            vma.inode.acquire_mapping()

    def _release_backing(self, vma: VMA) -> None:
        if vma.inode is not None and hasattr(vma.inode, "release_mapping"):
            vma.inode.release_mapping(self.allocator)

    def _split_vma(self, vma: VMA, at: int) -> Tuple[VMA, VMA]:
        """Split ``vma`` at page-aligned address ``at``; returns (lo, hi)."""
        if not vma.start < at < vma.end:
            raise SimError(f"split point {at:#x} outside {vma!r}")
        hi = VMA(at, vma.end, vma.prot, shared=vma.shared, name=vma.name,
                 inode=vma.inode,
                 file_offset=vma.file_offset + (at - vma.start))
        vma.end = at
        split_vpn = self._vpn(at)
        keep, move = [], []
        for run in vma.bulk_runs:
            if run.end_vpn <= split_vpn:
                keep.append(run)
            elif run.start_vpn >= split_vpn:
                move.append(run)
            else:
                self._split_run(run, split_vpn, keep, move)
        vma.bulk_runs = keep
        hi.bulk_runs = move
        hi.touched_vpns = {v for v in vma.touched_vpns if v >= split_vpn}
        vma.touched_vpns = {v for v in vma.touched_vpns if v < split_vpn}
        self._acquire_backing(hi)  # two VMAs now reference the backing
        self.vmas.append(hi)
        self.vmas.sort(key=lambda v: v.start)
        return vma, hi

    def _split_run(self, run: BulkRun, split_vpn: int, keep: list,
                   move: list) -> None:
        """Divide a bulk run straddling ``split_vpn`` into two runs.

        Sole-owned aggregates are split exactly (each half releasable on
        its own); fork-shared aggregates are shared by both halves with
        an extra reference, the bulk path's documented approximation.
        Halves with no mapped pages are dropped rather than created.
        """
        lo_exc = {e for e in run.exceptions if e < split_vpn}
        hi_exc = {e for e in run.exceptions if e >= split_vpn}
        lo_mapped = (split_vpn - run.start_vpn) - len(lo_exc)
        hi_mapped = (run.end_vpn - split_vpn) - len(hi_exc)
        if lo_mapped == 0 and hi_mapped == 0:
            self.allocator.decref(run.agg)
            return
        if lo_mapped == 0:
            move.append(BulkRun(split_vpn, run.end_vpn - split_vpn, run.agg,
                                run.writable, run.cow, hi_exc))
            return
        if hi_mapped == 0:
            keep.append(BulkRun(run.start_vpn, split_vpn - run.start_vpn,
                                run.agg, run.writable, run.cow, lo_exc))
            return
        if run.agg.refcount == 1:
            hi_agg = self.allocator.split_aggregate(run.agg, hi_mapped)
        else:
            hi_agg = run.agg
            self.allocator.incref(run.agg)
        keep.append(BulkRun(run.start_vpn, split_vpn - run.start_vpn,
                            run.agg, run.writable, run.cow, lo_exc))
        move.append(BulkRun(split_vpn, run.end_vpn - split_vpn, hi_agg,
                            run.writable, run.cow, hi_exc))

    def _isolate_range(self, start: int, end: int) -> List[VMA]:
        """Split VMAs so that ``[start, end)`` is covered by whole VMAs."""
        for vma in list(self.vmas):
            if vma.start < start < vma.end:
                self._split_vma(vma, start)
        for vma in list(self.vmas):
            if vma.start < end < vma.end:
                self._split_vma(vma, end)
        return [v for v in self.vmas if v.start >= start and v.end <= end]

    def _drop_run(self, run: BulkRun) -> None:
        """Release a whole bulk run's pages and reference."""
        mapped = run.mapped_pages()
        if run.agg.refcount == 1 and mapped:
            self.allocator.release_from_aggregate(run.agg, mapped)
        self.allocator.decref(run.agg)

    def _drop_sparse_range(self, start_vpn: int, end_vpn: int) -> None:
        for vpn, pte in list(self.pagetable.entries_in(start_vpn, end_vpn)):
            self.pagetable.remove(vpn)
            if not pte.zero:
                self.allocator.decref(pte.frame)

    def unmap(self, addr: int, length: int) -> None:
        """Remove mappings in ``[addr, addr+length)``; partial unmaps split.

        Frees sparse frames, trims or drops bulk runs, releases commit
        charge for private writable pages, and shoots down the TLB.
        """
        self._check_alive()
        if length <= 0:
            raise SimError("unmap needs a positive length")
        start = page_align_down(addr, self.page_size)
        end = page_align_up(addr + length, self.page_size)
        victims = self._isolate_range(start, end)
        if not victims:
            return
        for vma in victims:
            self._drop_sparse_range(self._vpn(vma.start), self._vpn(vma.end))
            for run in vma.bulk_runs:
                self._drop_run(run)
            vma.bulk_runs = []
            if self._charges_commit(vma):
                pages = vma.length // self.page_size
                self.commit.uncharge(pages)
                self.commit_pages -= pages
            self._release_backing(vma)
            self.vmas.remove(vma)
        self.tlb.shootdown(self.asid)

    def protect(self, addr: int, length: int, prot: str) -> None:
        """Change protection on ``[addr, addr+length)`` (``mprotect``).

        Removing write access downgrades every mapped page and costs a
        TLB shootdown; granting write only updates descriptors (pages
        fault their way back to writable lazily).  Commit charge follows
        the private-writable rule.
        """
        self._check_alive()
        start = page_align_down(addr, self.page_size)
        end = page_align_up(addr + length, self.page_size)
        new_prot = parse_prot(prot)
        targets = self._isolate_range(start, end)
        if not targets:
            raise SimSegfault(addr, "mprotect")
        losing_write = False
        for vma in targets:
            was_charged = self._charges_commit(vma)
            had_write = vma.writable
            vma.prot = new_prot
            now_charged = self._charges_commit(vma)
            pages = vma.length // self.page_size
            if now_charged and not was_charged:
                self.commit.charge(pages)
                self.commit_pages += pages
            elif was_charged and not now_charged:
                self.commit.uncharge(pages)
                self.commit_pages -= pages
            if had_write and "w" not in new_prot:
                losing_write = True
                for _, pte in self.pagetable.entries_in(
                        self._vpn(vma.start), self._vpn(vma.end)):
                    if pte.writable:
                        pte.writable = False
                        self.counters.ptes_writeprotected += 1
                for run in vma.bulk_runs:
                    if run.writable:
                        run.writable = False
                        self.counters.ptes_writeprotected += run.mapped_pages()
        if losing_write:
            self.tlb.shootdown(self.asid)

    def sbrk(self, delta: int) -> int:
        """Grow (or shrink) the heap; returns the new break address.

        The heap is a private anonymous writable VMA starting at the
        (ASLR-randomised) heap base, managed exactly like Linux's ``brk``.
        """
        self._check_alive()
        new_brk = page_align_up(self.brk + delta, self.page_size)
        if new_brk < self.heap_base:
            raise SimError("brk below heap base")
        old_brk = self.brk
        if new_brk > old_brk:
            if old_brk == self.heap_base:
                self.map(new_brk - self.heap_base, "rw",
                         addr=self.heap_base, name="[heap]")
            else:
                heap = self.find_vma(self.heap_base)
                grow = new_brk - old_brk
                pages = grow // self.page_size
                self.commit.charge(pages)
                self.commit_pages += pages
                heap.end = new_brk
        elif new_brk < old_brk:
            self.unmap(new_brk, old_brk - new_brk)
        self.brk = new_brk
        return self.brk

    # ------------------------------------------------------------------
    # Access: reads, writes, faults
    # ------------------------------------------------------------------

    def _vma_for_access(self, addr: int, access: str) -> VMA:
        vma = self.find_vma(addr)
        if vma is None:
            raise SimSegfault(addr, access)
        if access == "read" and not vma.readable:
            raise SimSegfault(addr, access)
        if access == "write" and not vma.writable:
            raise SimSegfault(addr, access)
        return vma

    def _file_page_index(self, vma: VMA, vpn: int) -> int:
        page_off = (vpn * self.page_size - vma.start) + vma.file_offset
        return page_off // self.page_size

    def _shared_access(self, vma: VMA, vpn: int, access: str, value):
        """Read or write a MAP_SHARED page through its backing object.

        Shared mappings never hold page content locally — that is what
        makes them shared.  The first access per page counts a fault and
        a PTE install, like the real demand-paging path.
        """
        if vpn not in vma.touched_vpns:
            vma.touched_vpns.add(vpn)
            self.counters.faults += 1
            self.counters.pte_writes += 1
        page = self._file_page_index(vma, vpn)
        if access == "read":
            return vma.inode.page_value(page)
        vma.inode.write_page(page, value)
        return None

    def read(self, addr: int):
        """Read the content token of the page containing ``addr``.

        Untouched anonymous pages read as ``None`` through the shared
        zero page; file pages read through to the backing inode; shared
        mappings always go through their backing object.  First touches
        take a (counted) fault.
        """
        self._check_alive()
        vma = self._vma_for_access(addr, "read")
        vpn = self._vpn(addr)
        if vma.shared:
            return self._shared_access(vma, vpn, "read", None)
        pte = self.pagetable.get(vpn)
        if pte is not None:
            return pte.frame.value
        run = vma.run_covering(vpn)
        if run is not None:
            return run.agg.value
        # Demand fault.
        self.counters.faults += 1
        if vma.anonymous:
            self.pagetable.install(vpn, PTE(ZERO_FRAME, writable=False,
                                            zero=True))
            return None
        # Private file mapping: materialise a page-cache copy, read-only
        # so a later write goes through the fault path.
        frame = self.allocator.alloc(
            vma.inode.page_value(self._file_page_index(vma, vpn)))
        self.pagetable.install(vpn, PTE(frame, writable=False))
        return frame.value

    def write(self, addr: int, value) -> None:
        """Write a content token to the page containing ``addr``.

        Handles demand-zero faults, copy-on-write breaks (sole-owner
        reuse vs. page copy), and eviction of individually-written pages
        out of bulk runs into the sparse page table.
        """
        self._check_alive()
        vma = self._vma_for_access(addr, "write")
        vpn = self._vpn(addr)
        if vma.shared:
            self._shared_access(vma, vpn, "write", value)
            return
        pte = self.pagetable.get(vpn)
        if pte is not None:
            self._write_sparse(vma, vpn, pte, value)
            return
        run = vma.run_covering(vpn)
        if run is not None:
            self._write_into_run(vma, run, vpn, value)
            return
        # Demand fault on an untouched page.
        self.counters.faults += 1
        if vma.anonymous:
            self.counters.zero_fills += 1
            frame = self.allocator.alloc(value)
            self.pagetable.install(vpn, PTE(frame, writable=True))
            return
        # Private file mapping, never read: copy the file page, overwrite.
        self.counters.pages_copied += 1
        frame = self.allocator.alloc(value)
        self.pagetable.install(vpn, PTE(frame, writable=True))

    def _write_sparse(self, vma: VMA, vpn: int, pte: PTE, value) -> None:
        if pte.writable:
            pte.frame.value = value
            return
        # Write fault on a read-only PTE inside a writable VMA: demand
        # zero, COW reuse, or COW break, decided by who else maps the
        # frame.
        self.counters.faults += 1
        if pte.zero:
            self.counters.zero_fills += 1
            frame = self.allocator.alloc(value)
            self.pagetable.update(vpn, frame=frame, writable=True, zero=False,
                                  cow=False)
            return
        if pte.frame.refcount == 1:
            # Sole mapper (other sharers exited or broke their copies, or
            # this is a private file page / post-mprotect restore): flip
            # writable without copying.
            if pte.cow:
                self.counters.cow_reuses += 1
            pte.frame.value = value
            self.pagetable.update(vpn, writable=True, cow=False)
            self.tlb.flush_local(self.asid)
            return
        self.counters.cow_breaks += 1
        self.counters.pages_copied += 1
        old = pte.frame
        frame = self.allocator.alloc(value)
        self.allocator.decref(old)
        self.pagetable.update(vpn, frame=frame, writable=True, cow=False)
        self.tlb.flush_local(self.asid)

    def _write_into_run(self, vma: VMA, run: BulkRun, vpn: int, value) -> None:
        if run.cow and run.agg.refcount == 1:
            # Sole owner of the whole run: regain write access in bulk.
            self.counters.cow_reuses += 1
            run.cow = False
            run.writable = True
            self.tlb.flush_local(self.asid)
        if not run.writable and not run.cow:
            # Write-protected by an earlier mprotect; the VMA has since
            # been granted write again, so restore access on fault.
            self.counters.faults += 1
            run.writable = True
        if run.writable and not run.cow:
            run.exceptions.add(vpn)
            frame = self.allocator.split_from_aggregate(run.agg)
            frame.value = value
            self.pagetable.install(vpn, PTE(frame, writable=True))
            return
        # COW break out of a shared run.
        self.counters.faults += 1
        self.counters.cow_breaks += 1
        self.counters.pages_copied += 1
        run.exceptions.add(vpn)
        frame = self.allocator.split_from_aggregate(run.agg)
        frame.value = value
        self.pagetable.install(vpn, PTE(frame, writable=True))
        self.tlb.flush_local(self.asid)

    def populate(self, addr: int, nbytes: int, value=None) -> int:
        """Bulk-populate ``[addr, addr+nbytes)`` with dirty anonymous pages.

        This is the ballast path: it creates :class:`BulkRun` descriptors
        (one per uncovered gap) and charges the same work a page-by-page
        dirtying loop would — one fault, one zero fill, one PTE write per
        page — without materialising per-page objects.  Returns the number
        of pages populated.
        """
        self._check_alive()
        if nbytes <= 0:
            raise SimError("populate needs a positive size")
        start = page_align_down(addr, self.page_size)
        end = page_align_up(addr + nbytes, self.page_size)
        total = 0
        cursor = start
        while cursor < end:
            vma = self.find_vma(cursor)
            if (vma is None or not vma.writable or not vma.anonymous
                    or vma.shared):
                raise SimSegfault(cursor, "populate")
            span_end = min(end, vma.end)
            total += self._populate_vma(vma, self._vpn(cursor),
                                        self._vpn(span_end), value)
            cursor = span_end
        return total

    def _populate_vma(self, vma: VMA, start_vpn: int, end_vpn: int,
                      value) -> int:
        covered = []
        for run in vma.bulk_runs:
            lo, hi = max(run.start_vpn, start_vpn), min(run.end_vpn, end_vpn)
            if hi > lo:
                covered.append((lo, hi))
        for vpn, _ in self.pagetable.entries_in(start_vpn, end_vpn):
            covered.append((vpn, vpn + 1))
        covered.sort()
        gaps = []
        cursor = start_vpn
        for lo, hi in covered:
            if lo > cursor:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < end_vpn:
            gaps.append((cursor, end_vpn))
        populated = 0
        for lo, hi in gaps:
            n = hi - lo
            agg = self.allocator.alloc_aggregate(n, value)
            vma.bulk_runs.append(BulkRun(lo, n, agg, writable=True))
            self.counters.faults += n
            self.counters.zero_fills += n
            self.counters.pte_writes += n
            populated += n
        return populated

    def dirty(self, addr: int, nbytes: int, value=None) -> int:
        """Write ``value`` to *every* page in the range, COW included.

        Unlike :meth:`populate` (which only fills gaps), this is the
        bulk equivalent of storing to each page: untouched pages
        materialise, COW-shared pages break (charging a copy per page),
        already-private pages are overwritten in place.  Returns the
        number of pages written.  This is what "the child dirties its
        inherited heap" means, at ballast scale.
        """
        self._check_alive()
        if nbytes <= 0:
            raise SimError("dirty needs a positive size")
        start = page_align_down(addr, self.page_size)
        end = page_align_up(addr + nbytes, self.page_size)
        total = 0
        for vma in self._isolate_range(start, end):
            if not vma.writable or not vma.anonymous or vma.shared:
                raise SimSegfault(vma.start, "dirty")
            lo, hi = self._vpn(vma.start), self._vpn(vma.end)
            # Individually-tracked pages: ordinary writes.
            for vpn, pte in list(self.pagetable.entries_in(lo, hi)):
                self._write_sparse(vma, vpn, pte, value)
                total += 1
            # Bulk runs: break or overwrite whole runs at aggregate cost.
            for run in vma.bulk_runs:
                mapped = run.mapped_pages()
                if mapped == 0:
                    continue
                if run.cow and run.agg.refcount > 1:
                    new_agg = self.allocator.alloc_aggregate(mapped, value)
                    self.allocator.decref(run.agg)
                    run.agg = new_agg
                    run.cow = False
                    run.writable = True
                    self.counters.faults += mapped
                    self.counters.cow_breaks += mapped
                    self.counters.pages_copied += mapped
                    self.tlb.flush_local(self.asid)
                else:
                    if run.cow:  # sole owner: regain write in bulk
                        self.counters.cow_reuses += mapped
                        run.cow = False
                        run.writable = True
                        self.tlb.flush_local(self.asid)
                    run.agg.value = value
                total += mapped
            # Untouched gaps: populate them with the value.
            total += self._populate_vma(vma, lo, hi, value)
        return total

    # ------------------------------------------------------------------
    # fork
    # ------------------------------------------------------------------

    def fork_into(self, child: "AddressSpace") -> None:
        """Duplicate this address space into a fresh, empty ``child``.

        Implements copy-on-write fork (or eager-copy when the config
        disables COW): commit is charged up front for every private
        writable page the child could dirty, descriptors and PTEs are
        duplicated, private writable pages are write-protected in both
        parent and child, and the parent's TLB is shot down.  On a commit
        refusal (``never`` overcommit) the child is left untouched — the
        ENOMEM the paper says large processes hit when they fork.  An
        eager copy that runs out of frames part-way leaves what it copied
        in the child, whose :meth:`destroy` gives it all back.
        """
        self._check_alive()
        if child.vmas or len(child.pagetable):
            raise SimError("fork target must be an empty address space")
        commit_pages = sum(
            v.length // self.page_size for v in self.vmas
            if self._charges_commit(v))
        self.commit.charge(commit_pages)  # may raise SimMemoryError
        child.commit_pages += commit_pages
        cow = self.config.cow_enabled
        for vma in self.vmas:
            # Each child VMA owns its runs as they are made, so a child
            # that runs out of frames part-way is torn down by destroy().
            child_vma = vma.clone_for_fork([])
            child._insert_vma(child_vma)
            self._acquire_backing(child_vma)
            for run in vma.bulk_runs:
                child_vma.bulk_runs.append(self._fork_run(vma, run, cow))
            self.counters.ptes_copied += len(vma.touched_vpns)
            self._fork_sparse(vma, child, cow)
        child.brk = self.brk
        # Fork inherits the parent's layout verbatim — no fresh ASLR.
        child.text_base = self.text_base
        child.heap_base = self.heap_base
        child.mmap_top = self.mmap_top
        child.stack_top = self.stack_top
        self.tlb.shootdown(self.asid)

    def _fork_run(self, vma: VMA, run: BulkRun, cow: bool) -> BulkRun:
        mapped = run.mapped_pages()
        if vma.shared or not vma.writable:
            # Shared (or unwritable) mappings are simply shared.
            self.allocator.incref(run.agg)
            self.counters.ptes_copied += mapped
            return BulkRun(run.start_vpn, run.npages, run.agg, run.writable,
                           run.cow, run.exceptions)
        if cow:
            self.allocator.incref(run.agg)
            if run.writable:
                run.writable = False
                run.cow = True
                self.counters.ptes_writeprotected += mapped
            self.counters.ptes_copied += mapped
            return BulkRun(run.start_vpn, run.npages, run.agg,
                           writable=False, cow=True,
                           exceptions=run.exceptions)
        # Eager copy (pre-COW Unix; the A1 ablation point).
        agg = self.allocator.alloc_aggregate(max(mapped, 1), run.agg.value)
        if mapped == 0:
            self.allocator.release_from_aggregate(agg, 1)
        self.counters.pages_copied += mapped
        self.counters.ptes_copied += mapped
        return BulkRun(run.start_vpn, run.npages, agg, writable=True,
                       cow=False, exceptions=run.exceptions)

    def _fork_sparse(self, vma: VMA, child: "AddressSpace", cow: bool) -> None:
        lo, hi = self._vpn(vma.start), self._vpn(vma.end)
        for vpn, pte in self.pagetable.entries_in(lo, hi):
            self.counters.ptes_copied += 1
            if pte.zero:
                child.pagetable.install(vpn, PTE(ZERO_FRAME, writable=False,
                                                 zero=True))
                continue
            if vma.shared or not vma.writable:
                self.allocator.incref(pte.frame)
                child.pagetable.install(
                    vpn, PTE(pte.frame, pte.writable, pte.cow))
                continue
            if cow:
                self.allocator.incref(pte.frame)
                if pte.writable:
                    pte.writable = False
                    pte.cow = True
                    self.counters.ptes_writeprotected += 1
                child.pagetable.install(
                    vpn, PTE(pte.frame, writable=False, cow=True))
            else:
                frame = self.allocator.alloc(pte.frame.value)
                self.counters.pages_copied += 1
                child.pagetable.install(vpn, PTE(frame, writable=True))

    def snapshot(self, *, name: Optional[str] = None
                 ) -> "AddressSpaceSnapshot":
        """Checkpoint this space as a frozen COW spawn source.

        Pays fork's write-protect sweep against the live parent ONCE,
        producing a frozen copy that is never executed and never
        written.  Each later :meth:`AddressSpaceSnapshot.restore_into`
        COW-forks from the *frozen* image, whose size is fixed at
        checkpoint time — so restore cost stays flat no matter how
        large the live parent grows afterwards (the template-zygote
        story, replayed in the simulator's pagetable machinery).
        """
        self._check_alive()
        frozen = AddressSpace(
            self.config, allocator=self.allocator, tlb=self.tlb,
            commit=self.commit, counters=self.counters,
            rng=random.Random(0),
            name=name if name is not None else f"{self.name}@snap")
        self.fork_into(frozen)
        return AddressSpaceSnapshot(frozen, source=self.name)

    # ------------------------------------------------------------------
    # Accounting and teardown
    # ------------------------------------------------------------------

    def resident_pages(self) -> int:
        """Pages of real memory currently mapped (RSS, zero page excluded)."""
        total = self.pagetable.resident_pages()
        for vma in self.vmas:
            for run in vma.bulk_runs:
                total += run.mapped_pages()
        return total

    def resident_bytes(self) -> int:
        """RSS in bytes."""
        return self.resident_pages() * self.page_size

    def virtual_bytes(self) -> int:
        """Total mapped virtual size (VSZ)."""
        return sum(v.length for v in self.vmas)

    def destroy(self) -> None:
        """Release everything the address space holds (process exit)."""
        if self.dead:
            return
        for vma in list(self.vmas):
            self._drop_sparse_range(self._vpn(vma.start), self._vpn(vma.end))
            for run in vma.bulk_runs:
                self._drop_run(run)
            vma.bulk_runs = []
            self._release_backing(vma)
        self.vmas = []
        # All at once: a fork that failed part-way charged for VMAs it
        # never laid out.
        self.commit.uncharge(self.commit_pages)
        self.commit_pages = 0
        self.tlb.retire(self.asid)
        self.dead = True

    def __repr__(self):
        return (f"<AddressSpace {self.name!r} asid={self.asid} "
                f"vmas={len(self.vmas)} rss={self.resident_pages()}p>")


class AddressSpaceSnapshot:
    """A frozen address-space checkpoint, usable as a spawn source.

    Produced by :meth:`AddressSpace.snapshot`.  The wrapped space holds
    COW references to the checkpointed pages; every restore is a pure
    COW share of that fixed-size image.  :meth:`destroy` releases the
    frames (restored children keep theirs — frame refcounting already
    handles shared aggregates outliving any one space).
    """

    __slots__ = ("space", "source", "restores")

    def __init__(self, space: AddressSpace, *, source: str = "?"):
        self.space = space
        self.source = source
        self.restores = 0

    @property
    def name(self) -> str:
        return self.space.name

    @property
    def dead(self) -> bool:
        return self.space.dead

    def resident_pages(self) -> int:
        return self.space.resident_pages()

    def virtual_bytes(self) -> int:
        return self.space.virtual_bytes()

    def restore_into(self, child: AddressSpace) -> None:
        """COW-fork the frozen image into a fresh, empty ``child``."""
        if self.space.dead:
            raise SimError(f"snapshot {self.name!r} has been destroyed")
        self.space.fork_into(child)
        self.restores += 1

    def destroy(self) -> None:
        self.space.destroy()

    def __repr__(self):
        return (f"<AddressSpaceSnapshot {self.name!r} of {self.source!r} "
                f"restores={self.restores}>")
