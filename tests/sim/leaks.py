"""Leak accounting for the sim kernel: every reference has a live owner.

A process creation that fails must leave nothing behind.  The kernel
keeps counted references on address spaces (``_as_refs``) and
descriptor tables (``_fdt_refs``), a table of embryos (``_embryos``,
built by ``xproc_create``, not yet started) and one machine-wide commit
charge.  :func:`assert_nothing_leaked` holds each of them to the owners
that are still there: the live processes and the open embryos.
"""

from collections import Counter


def assert_nothing_leaked(kernel, *, embryos: int = 0) -> None:
    """Check that no reference or commitment outlives its owner.

    ``embryos`` is how many ``xproc_create`` handles the caller still
    holds.  Every address-space and descriptor-table reference must
    belong to a live process or one of those embryos, and the committed
    pages must be exactly what the owners' spaces (plus live snapshots)
    account for.
    """
    assert len(kernel._embryos) == embryos, kernel._embryos
    owners = [p for p in kernel.processes.values() if p.alive]
    owners += kernel._embryos.values()
    assert kernel._as_refs == Counter(p.addrspace.asid for p in owners)
    assert kernel._fdt_refs == Counter(id(p.fdtable) for p in owners)
    spaces = {p.addrspace.asid: p.addrspace for p in owners}
    spaces.update((snapshot.space.asid, snapshot.space)
                  for snapshot in kernel.snapshots.values()
                  if not snapshot.dead)
    assert kernel.commit.committed_pages == sum(
        space.commit_pages for space in spaces.values())
