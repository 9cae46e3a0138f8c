"""Pricing one syscall: the exact virtual time of each creation, and a
hot path that never copies the work ledger.

``Kernel.timed_call`` is how the Figure 1 sweeps and the end-to-end
ruler price a single creation.  The machines here have the ruler's
shape: a root process carrying 1, 64 or 512 MiB of populated memory,
whose first fork (the one that write-protects the ballast) has already
been paid.
"""

import pytest

from repro.sim.kernel import Kernel
from repro.sim.params import GIB, MIB, SimConfig, WorkCounters
from repro.sim.syscalls.base import Park


def _trivial_main(sys):
    return iter(())


class Machine:
    """One fresh kernel whose root process carries ``ballast_mib``."""

    def __init__(self, ballast_mib: int):
        self.kernel = kernel = Kernel(SimConfig(total_ram=32 * GIB))
        kernel.register_program("/bin/idle", _trivial_main)
        kernel.register_program("/bin/true", _trivial_main)
        self.parent = kernel.spawn_root("/bin/idle")
        self.thread = self.parent.main_thread()
        addr, _ = kernel.timed_call(self.thread, "mmap", ballast_mib * MIB)
        kernel.timed_call(self.thread, "populate", addr, ballast_mib * MIB)
        self.retire(self.create("fork")[0])

    def create(self, mech: str):
        """One creation through ``mech``: ``(child pid, virtual ns)``."""
        kernel, thread = self.kernel, self.thread
        if mech == "fork":
            return kernel.timed_call(thread, "fork", _trivial_main)
        if mech == "spawn":
            return kernel.timed_call(thread, "spawn", "/bin/true")
        if mech == "xproc":
            handle, create_ns = kernel.timed_call(thread, "xproc_create")
            pid, start_ns = kernel.timed_call(thread, "xproc_start", handle,
                                              "/bin/true")
            return pid, create_ns + start_ns
        assert mech == "vfork"
        before = kernel.now_ns
        with pytest.raises(Park):
            kernel.timed_call(thread, "vfork", _trivial_main)
        return self.parent.children[-1], kernel.now_ns - before

    def retire(self, pid: int) -> None:
        """Exit the child, un-park a vfork parent, and reap the child."""
        kernel, thread = self.kernel, self.thread
        kernel.exit_process(kernel.find_process(pid), 0)
        thread.state = "ready"
        thread.pending_call = None
        thread.wake_result = None
        kernel.timed_call(thread, "waitpid", pid)
        assert kernel.find_process(pid).state == "reaped"


class TestVirtualTime:
    """The exact price of each creation on a fresh machine.  A change to
    how a call is priced (the order of its terms included) fails here."""

    @pytest.mark.parametrize("ballast_mib, fork_ns", [
        (1, 52_872), (64, 246_408), (512, 1_622_664)])
    def test_creation_prices(self, ballast_mib, fork_ns):
        expected = {"fork": fork_ns, "vfork": 11_550, "spawn": 310_300,
                    "xproc": 310_600}
        for mech, ns in expected.items():
            machine = Machine(ballast_mib)
            pid, virtual = machine.create(mech)
            machine.retire(pid)
            assert virtual == ns, mech


class TestNoLedgerCopies:
    """The kernel prices a call from a tally of the counters, never from
    a ``WorkCounters`` snapshot and delta."""

    @pytest.fixture(autouse=True)
    def forbid_copies(self, monkeypatch):
        def copied(*_):
            raise AssertionError("the work ledger was copied")

        monkeypatch.setattr(WorkCounters, "snapshot", copied)
        monkeypatch.setattr(WorkCounters, "delta", copied)

    def test_timed_calls(self):
        machine = Machine(1)
        for mech in ("fork", "vfork", "spawn", "xproc"):
            pid, virtual = machine.create(mech)
            assert virtual > 0
            machine.retire(pid)

    def test_scheduled_fork_wait_loop(self):
        kernel = Kernel()
        kernel.register_program("/bin/true", _trivial_main)

        def init(sys):
            for _ in range(5):
                pid = yield sys.fork(_trivial_main)
                yield sys.waitpid(pid)

        kernel.register_program("/sbin/init", init)
        kernel.spawn_root("/sbin/init")
        assert kernel.run() > 0
        assert kernel.now_ns > 0
