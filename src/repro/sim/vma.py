"""Virtual memory areas (VMAs) and bulk population runs.

A :class:`VMA` is a contiguous range of virtual addresses with one
protection and one backing (anonymous or file).  An address space is an
ordered, non-overlapping list of VMAs — exactly Linux's model, and the
structure whose duplication dominates fork's cost.

:class:`BulkRun` is the simulator's scalability device: a run of pages
populated en masse (benchmark ballast) is described by one object carrying
an :class:`~repro.sim.frames.AggregateFrame`, instead of millions of page
table entries.  Pages that a program later touches *individually* are
evicted from the run into the sparse page table via the run's
``exceptions`` set, so correctness-path semantics (COW isolation) are
preserved page by page while cost-path arithmetic stays O(1) per run.
"""

from __future__ import annotations

import itertools
from typing import Optional, Set

from ..errors import SimError
from .frames import AggregateFrame

PROT_CHARS = "rwx"


def parse_prot(prot: str) -> frozenset:
    """Normalise a protection string like ``"rw"`` into a flag set."""
    flags = set()
    for ch in prot:
        if ch == "-":
            continue
        if ch not in PROT_CHARS:
            raise SimError(f"bad protection flag {ch!r} in {prot!r}")
        flags.add(ch)
    return frozenset(flags)


def format_prot(flags: frozenset) -> str:
    """Render a flag set as the classic ``rwx``/``r--`` string."""
    return "".join(ch if ch in flags else "-" for ch in PROT_CHARS)


class BulkRun:
    """A run of uniformly-populated pages inside one VMA.

    Attributes:
        start_vpn / npages: the virtual range the run covers.
        agg: the aggregate frame charged with the run's physical pages.
        writable / cow: effective page-level rights, mirroring PTE bits.
        exceptions: vpns inside the range that are *no longer* served by
            the run (they moved to the sparse page table).  Kept small by
            construction — only individually-touched pages land here.
    """

    __slots__ = ("start_vpn", "npages", "agg", "writable", "cow", "exceptions")

    def __init__(self, start_vpn: int, npages: int, agg: AggregateFrame,
                 writable: bool, cow: bool = False,
                 exceptions: Optional[Set[int]] = None):
        if npages <= 0:
            raise SimError("bulk run needs a positive page count")
        self.start_vpn = start_vpn
        self.npages = npages
        self.agg = agg
        self.writable = writable
        self.cow = cow
        self.exceptions = set() if exceptions is None else set(exceptions)

    @property
    def end_vpn(self) -> int:
        """One past the last vpn in the run's range."""
        return self.start_vpn + self.npages

    def covers(self, vpn: int) -> bool:
        """True if the run currently serves ``vpn``."""
        return (self.start_vpn <= vpn < self.end_vpn
                and vpn not in self.exceptions)

    def mapped_pages(self) -> int:
        """Pages the run currently serves."""
        return self.npages - len(self.exceptions)

    def __repr__(self):
        return (f"<BulkRun vpn[{self.start_vpn},{self.end_vpn}) "
                f"mapped={self.mapped_pages()} agg=#{self.agg.index}>")


class VMA:
    """One virtual memory area.

    ``start`` and ``end`` are byte addresses, page aligned, ``end``
    exclusive.  ``shared`` distinguishes MAP_SHARED from MAP_PRIVATE;
    private writable mappings are the ones fork must mark copy-on-write.
    File-backed VMAs carry the backing inode and starting offset.
    """

    _ids = itertools.count()

    def __init__(self, start: int, end: int, prot: str = "rw", *,
                 shared: bool = False, name: str = "[anon]",
                 inode=None, file_offset: int = 0):
        if end <= start:
            raise SimError(f"empty VMA [{start:#x},{end:#x})")
        self.id = next(self._ids)
        self.start = start
        self.end = end
        self.prot = parse_prot(prot) if isinstance(prot, str) else frozenset(prot)
        self.shared = shared
        self.name = name
        self.inode = inode
        self.file_offset = file_offset
        self.bulk_runs: list = []
        # For shared mappings, which vpns this address space has already
        # faulted in (accesses go through the backing object; this set
        # only drives fault accounting).
        self.touched_vpns: Set[int] = set()

    @property
    def length(self) -> int:
        """Size of the area in bytes."""
        return self.end - self.start

    @property
    def readable(self) -> bool:
        return "r" in self.prot

    @property
    def writable(self) -> bool:
        return "w" in self.prot

    @property
    def executable(self) -> bool:
        return "x" in self.prot

    @property
    def anonymous(self) -> bool:
        """True when not backed by a file."""
        return self.inode is None

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside the area."""
        return self.start <= addr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` intersects the area."""
        return start < self.end and end > self.start

    def run_covering(self, vpn: int) -> Optional[BulkRun]:
        """The bulk run serving ``vpn``, if any."""
        for run in self.bulk_runs:
            if run.covers(vpn):
                return run
        return None

    def clone_for_fork(self, child_runs: list) -> "VMA":
        """A child copy of this VMA with the given bulk runs attached.

        Frame bookkeeping (refcounts, COW bits) is the address space's
        job; this only duplicates descriptor state.
        """
        child = VMA(self.start, self.end, self.prot, shared=self.shared,
                    name=self.name, inode=self.inode,
                    file_offset=self.file_offset)
        child.bulk_runs = child_runs
        child.touched_vpns = set(self.touched_vpns)
        return child

    def __repr__(self):
        return (f"<VMA [{self.start:#x},{self.end:#x}) "
                f"{format_prot(self.prot)} "
                f"{'shared' if self.shared else 'private'} {self.name}>")
