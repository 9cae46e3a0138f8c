"""Fork emulated on a kernel that never wanted it (the WSL story).

The paper's "implementing fork" section: fork *infects* OS design.  A
kernel built around explicit process construction (Zircon, NT's
picoprocesses under WSL1) that later needs Unix compatibility must
*emulate* fork through its explicit interfaces — and the emulation is
ugly: without kernel-level copy-on-write hooks, every resident page is
copied eagerly, every descriptor granted one by one, and the layout must
be forced to match the parent (defeating the clean API's fresh ASLR).

:meth:`EmulationSyscalls.sys_fork_emulated` implements exactly that on
top of the same public address-space operations the cross-process API
uses.  Comparing its cost against native :meth:`sys_fork` quantifies the
tax (experiment A3): the emulation pays a page *copy* plus a write fault
per resident page where native COW fork pays one PTE write — and it
forfeits COW sharing, so memory use doubles immediately.
"""

from __future__ import annotations

from ..vma import format_prot
from .base import KernelFacet


class EmulationSyscalls(KernelFacet):
    """``fork`` rebuilt from explicit construction primitives."""

    def sys_fork_emulated(self, thread, child_main, *args) -> int:
        """fork() for a kernel with no fork: eager copy via explicit ops.

        Semantically close to fork — same layout, same memory contents,
        every descriptor present, signal state copied — but implemented
        only with operations an explicit-construction kernel exports:
        map-at-address, write-page, grant-descriptor.  No copy-on-write
        is available across address spaces, so cost and memory are both
        proportional to the parent's resident set *immediately*.
        """
        parent = thread.process
        self.charge_fixed(self.cost.fixed_spawn_ns)
        return self._assemble(
            parent, f"{parent.name}+emulfork", "fork_emulated",
            space=lambda child_as: self._copy_address_space(
                parent.addrspace, child_as),
            files=lambda: self._grant_every_fd(parent.fdtable),
            signals=parent.signals.fork_copy(),
            mutexes=parent.fork_mutex_table(),
            main=child_main, args=args).pid

    def _grant_every_fd(self, parent_fdt):
        """A new descriptor table holding one explicit grant per entry."""
        table = self.make_fdtable()
        for fd in parent_fdt.fds():
            ofd = parent_fdt.ofd(fd)
            ofd.incref()
            table.install(ofd, at=fd, cloexec=parent_fdt.get_cloexec(fd))
            self.counters.fd_dups += 1
        return table

    def _copy_address_space(self, parent_as, child_as) -> None:
        """Rebuild the parent's address space through public operations.

        The layout is forced to match the parent (fork semantics demand
        it — pointers must stay valid), which is itself one of the
        emulation's costs: the clean kernel's fresh ASLR must be
        overridden.
        """
        child_as.text_base = parent_as.text_base
        child_as.heap_base = parent_as.heap_base
        child_as.mmap_top = parent_as.mmap_top
        child_as.stack_top = parent_as.stack_top
        for vma in parent_as.vmas:
            child_vma = child_as.map(
                vma.length, format_prot(vma.prot).replace("-", ""),
                shared=vma.shared, addr=vma.start, name=vma.name,
                inode=vma.inode, file_offset=vma.file_offset)
            if vma.shared:
                continue  # shared objects stay shared; nothing to copy
            if not vma.writable:
                # Still must be reproduced; file-backed text faults in
                # from the same image, so only accounting happens here.
                continue
            # Bulk-populated ranges: copy the uniform token en masse —
            # the emulator's one mercy — but pay a real page copy each.
            page = parent_as.page_size
            for run in vma.bulk_runs:
                mapped = run.mapped_pages()
                if mapped == 0:
                    continue
                child_as.populate(run.start_vpn * page, run.npages * page,
                                  value=run.agg.value)
                self.counters.pages_copied += mapped
            # Individually-written pages: one write (fault + allocate)
            # plus one copy each.
            lo, hi = parent_as._vpn(vma.start), parent_as._vpn(vma.end)
            for vpn, pte in parent_as.pagetable.entries_in(lo, hi):
                if pte.zero:
                    continue
                child_as.write(vpn * page, pte.frame.value)
                self.counters.pages_copied += 1
        child_as.brk = parent_as.brk
