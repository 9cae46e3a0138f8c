"""The paper's proposed alternative: a cross-process construction API.

Instead of cloning the caller (fork) or accreting flags onto a monolithic
spawn call, the paper points to systems like Zircon and ExOS where a new
process starts **empty** and the parent explicitly builds it through
handles: map memory into it, install descriptors into it, then start a
thread.  Nothing is inherited by accident; cost is proportional to what
you transfer; and the "exotic" fork use cases (preload a cache, set up a
sandbox) become ordinary sequences of explicit operations.

Handles here are plain integers scoped to the creating process's kernel —
capability transfer and revocation are out of scope for the experiments,
which only need the construction cost and inheritance behaviour.

Every failure names both the *handle* and the *construction stage* in its
:class:`~repro.errors.SimOSError` message (``[EINVAL] xproc_map: bad or
stale process handle 7``), so a failed t10 run is debuggable straight
from a CI log: the stage says which step of the create→map→grant→start
program died, the handle says on which embryo.
"""

from __future__ import annotations

from ...errors import SimOSError
from ..process import Process
from ..signals import SIG_DFL
from .base import KernelFacet


class CrossProcessSyscalls(KernelFacet):
    """process_create / xproc_map / xproc_grant_fd / xproc_start."""

    def _embryo(self, handle: int, stage: str) -> Process:
        """The embryo behind ``handle``, or a stage-stamped EINVAL.

        ``stage`` is the construction step that needed the handle
        (``"map"``, ``"grant_fd"``, ``"start"``...); it rides the error
        message so every ``sys_xproc_*`` failure is self-locating.
        """
        embryo = self._embryos.get(handle)
        if embryo is None:
            raise SimOSError(
                "EINVAL",
                f"xproc_{stage}: bad or stale process handle {handle}")
        return embryo

    def sys_xproc_create(self, thread, name: str = "xproc") -> int:
        """Create an empty process; returns a construction handle.

        The embryo has a fresh (fresh-ASLR) address space, an *empty*
        descriptor table, default signal state, and no threads.  It is
        invisible to the scheduler until :meth:`sys_xproc_start`.
        """
        embryo = self._assemble(thread.process, name, "xproc")
        handle = self._next_handle
        self._next_handle += 1
        self._embryos[handle] = embryo
        return handle

    def sys_xproc_map(self, thread, handle: int, length: int,
                      prot: str = "rw") -> int:
        """Map anonymous memory into the embryo; returns its base address."""
        embryo = self._embryo(handle, "map")
        vma = embryo.addrspace.map(length, prot)
        return vma.start

    def sys_xproc_write(self, thread, handle: int, addr: int, value) -> int:
        """Write one page token into the embryo's memory.

        This is how a parent preloads exactly the state it means to hand
        over — the explicit, pay-per-page alternative to inheriting the
        whole parent image.
        """
        self._embryo(handle, "write").addrspace.write(addr, value)
        return 0

    def sys_xproc_populate(self, thread, handle: int, addr: int,
                           nbytes: int, value=None) -> int:
        """Bulk-populate embryo memory (the ballast path)."""
        embryo = self._embryo(handle, "populate")
        return embryo.addrspace.populate(addr, nbytes, value)

    def sys_xproc_grant_fd(self, thread, handle: int, parent_fd: int,
                           child_fd: int) -> int:
        """Install one of the caller's descriptors into the embryo.

        The single explicit grant replaces fork's inherit-everything: a
        descriptor the parent does not grant simply does not exist in the
        child (experiment A2's descriptor-surface comparison).
        """
        embryo = self._embryo(handle, "grant_fd")
        ofd = thread.process.fdtable.ofd(parent_fd)
        ofd.incref()
        embryo.fdtable.install(ofd, at=child_fd)
        self.counters.fd_dups += 1
        return child_fd

    def sys_xproc_sigaction(self, thread, handle: int, signum: int,
                            disposition=SIG_DFL) -> int:
        """Install one signal disposition into the embryo.

        The explicit counterpart of fork's inherit-all-handlers: the
        embryo starts with every signal at default, and the parent
        installs exactly the dispositions it means the child to have
        (``SIG_DFL``, ``SIG_IGN``, or a callable).  Uncatchable signals
        are rejected the same way :meth:`sys_sigaction` rejects them.
        """
        embryo = self._embryo(handle, "sigaction")
        embryo.signals.set_handler(signum, disposition)
        return 0

    def sys_xproc_start(self, thread, handle: int, path: str,
                        argv=()) -> int:
        """Load ``path``'s image and schedule the embryo; returns its pid.

        The handle is consumed only by a start that succeeds.  The image
        is resolved and laid out first, all or nothing: a start against
        an unregistered path (``ENOENT``) or with an image the embryo
        cannot hold (``ENOMEM``) leaves the handle valid and the embryo
        exactly as it was, so the caller can still abort (or retry) the
        construction instead of leaking the embryo's resources.
        """
        embryo = self._embryo(handle, "start")
        image = self.lookup_program(path)
        self.charge_fixed(self.cost.fixed_spawn_ns)
        self.build_image(embryo.addrspace, image)
        del self._embryos[handle]
        entry = self._load(embryo, image, argv)
        self.adopt(embryo, thread.process)
        self.attach_thread(embryo, entry, name="main")
        return embryo.pid

    def sys_xproc_abort(self, thread, handle: int) -> int:
        """Destroy an embryo without starting it.

        Refcount hygiene lives here: dropping the embryo's descriptor
        table closes every granted descriptor (decref'ing the shared
        OFDs), and dropping its address space returns every populated
        frame — an aborted construction leaks nothing.
        """
        embryo = self._embryo(handle, "abort")
        del self._embryos[handle]
        self.fdt_release(embryo.fdtable)
        self.as_release(embryo.addrspace)
        return 0
