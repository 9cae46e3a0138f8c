"""Tests for address-space snapshot/restore — checkpoint-as-spawn-source.

The snapshot mechanism is the simulator's half of the template-zygote
argument: pay fork's write-protect sweep *once* against a warm process,
then materialise children from the frozen image at spawn-like (fixed)
cost, no matter how large the live parent grows afterwards.
"""

import pytest

from repro.errors import SimError, SimOSError
from repro.sim.addrspace import AddressSpace
from repro.sim.kernel import Kernel
from repro.sim.params import MIB, PAGE_SIZE, SimConfig

from .leaks import assert_nothing_leaked


@pytest.fixture
def kernel():
    return Kernel(SimConfig(total_ram=2048 * MIB))


def run_main(kernel, main, argv=()):
    kernel.register_program("/sbin/init", main)
    return kernel.run_program("/sbin/init", argv)


def make_as(config=None, **kwargs):
    return AddressSpace(config if config is not None else SimConfig(),
                        **kwargs)


def sibling_of(parent, name="child"):
    return AddressSpace(parent.config, allocator=parent.allocator,
                        tlb=parent.tlb, commit=parent.commit,
                        counters=parent.counters, name=name)


class TestAddressSpaceSnapshot:
    def test_snapshot_freezes_current_contents(self):
        a = make_as()
        vma = a.map(4 * PAGE_SIZE)
        a.write(vma.start, "before")
        snap = a.snapshot()
        a.write(vma.start, "after")

        child = sibling_of(a)
        snap.restore_into(child)
        assert child.read(vma.start) == "before"
        assert a.read(vma.start) == "after"

    def test_restores_are_isolated_from_each_other(self):
        a = make_as()
        vma = a.map(PAGE_SIZE)
        a.write(vma.start, "base")
        snap = a.snapshot()

        one = sibling_of(a, "one")
        two = sibling_of(a, "two")
        snap.restore_into(one)
        snap.restore_into(two)
        one.write(vma.start, "one's")
        assert two.read(vma.start) == "base"
        assert snap.restores == 2

    def test_restore_shares_frames_cow(self):
        a = make_as()
        vma = a.map(8 * PAGE_SIZE)
        for i in range(8):
            a.write(vma.start + i * PAGE_SIZE, i)
        snap = a.snapshot()

        used_before = a.allocator.used_frames
        child = sibling_of(a)
        snap.restore_into(child)
        # Pure COW: a restore allocates no new frames until a write.
        assert a.allocator.used_frames == used_before
        child.write(vma.start, "dirty")
        assert a.allocator.used_frames == used_before + 1

    def test_restore_cost_is_snapshot_sized_not_parent_sized(self):
        a = make_as()
        vma = a.map(4 * PAGE_SIZE)
        for i in range(4):
            a.write(vma.start + i * PAGE_SIZE, i)
        snap = a.snapshot()

        # The live parent balloons after the checkpoint.
        big = a.map(64 * MIB)
        for off in range(0, 64 * MIB, PAGE_SIZE):
            a.write(big.start + off, 0)

        before = a.counters.snapshot()
        child = sibling_of(a)
        snap.restore_into(child)
        delta = a.counters.delta(before)
        # Only the 4 frozen pages are walked — none of the 64 MiB.
        assert delta.ptes_copied == 4

    def test_restore_into_nonempty_space_rejected(self):
        a = make_as()
        vma = a.map(PAGE_SIZE)
        a.write(vma.start, 1)
        snap = a.snapshot()
        child = sibling_of(a)
        child.map(PAGE_SIZE)
        with pytest.raises(SimError):
            snap.restore_into(child)

    def test_destroy_releases_frames_but_spares_children(self):
        a = make_as()
        vma = a.map(2 * PAGE_SIZE)
        a.write(vma.start, "x")
        a.write(vma.start + PAGE_SIZE, "y")
        snap = a.snapshot()
        child = sibling_of(a)
        snap.restore_into(child)

        snap.destroy()
        assert snap.dead
        with pytest.raises(SimError):
            snap.restore_into(sibling_of(a, "late"))
        # The child's COW shares survive the snapshot's death.
        assert child.read(vma.start) == "x"
        assert child.read(vma.start + PAGE_SIZE) == "y"

    def test_snapshot_name_defaults_to_source(self):
        a = make_as(name="warm")
        a.map(PAGE_SIZE)
        assert "warm" in a.snapshot().name
        assert a.snapshot(name="img").name == "img"


class TestSnapshotSyscalls:
    def test_spawn_from_snapshot_sees_checkpoint_not_live_parent(self, kernel):
        def main(sys):
            addr = yield sys.mmap(PAGE_SIZE)
            yield sys.poke(addr, "frozen")
            handle = yield sys.snapshot()
            yield sys.poke(addr, "mutated")

            def child(sys2):
                value = yield sys2.peek(addr)
                yield sys2.exit(0 if value == "frozen" else 1)

            cpid = yield sys.spawn_from_snapshot(handle, child)
            _, status = yield sys.waitpid(cpid)
            yield sys.exit(status)
        assert run_main(kernel, main) == 0

    def test_child_identity_descriptors_and_origin(self, kernel):
        seen = {}

        def main(sys):
            kernel.vfs.write_file("/tmp/f", b"0123456789")
            fd = yield sys.open("/tmp/f", "r")
            my_pid = yield sys.getpid()
            handle = yield sys.snapshot()

            def child(sys2):
                pid = yield sys2.getpid()
                ppid = yield sys2.getppid()
                data = yield sys2.read(fd, 5)
                ok = pid != my_pid and ppid == my_pid and data == b"01234"
                yield sys2.exit(0 if ok else 1)

            cpid = yield sys.spawn_from_snapshot(handle, child)
            seen["child"] = kernel.find_process(cpid)
            _, status = yield sys.waitpid(cpid)
            yield sys.exit(status)
        assert run_main(kernel, main) == 0
        assert seen["child"].origin == "snapshot"

    def test_restore_cost_flat_as_parent_grows(self, kernel):
        costs = []

        def main(sys):
            addr = yield sys.mmap(4 * MIB)
            yield sys.populate(addr, 4 * MIB)
            handle = yield sys.snapshot()
            for growth in (16 * MIB, 64 * MIB, 256 * MIB):
                extra = yield sys.mmap(growth)
                yield sys.populate(extra, growth)
                before = kernel.counters.snapshot()
                cpid = yield sys.spawn_from_snapshot(
                    handle, lambda s: iter(()))
                costs.append(kernel.counters.delta(before).ptes_copied)
                yield sys.waitpid(cpid)
            yield sys.exit(0)
        assert run_main(kernel, main) == 0
        # Same restore work every time, regardless of the live heap.
        assert costs[0] == costs[1] == costs[2] == 4 * MIB // PAGE_SIZE

    def test_fork_pays_for_growth_but_snapshot_does_not(self, kernel):
        work = {}

        def main(sys):
            addr = yield sys.mmap(4 * MIB)
            yield sys.populate(addr, 4 * MIB)
            handle = yield sys.snapshot()
            extra = yield sys.mmap(128 * MIB)
            yield sys.populate(extra, 128 * MIB)

            before = kernel.counters.snapshot()
            fpid = yield sys.fork(lambda s: iter(()))
            work["fork"] = kernel.counters.delta(before).ptes_copied
            yield sys.waitpid(fpid)

            before = kernel.counters.snapshot()
            spid = yield sys.spawn_from_snapshot(handle, lambda s: iter(()))
            work["snapshot"] = kernel.counters.delta(before).ptes_copied
            yield sys.waitpid(spid)
            yield sys.exit(0)
        assert run_main(kernel, main) == 0
        # The paper's asymmetry, provisioned-concurrency edition.
        assert work["fork"] > 8 * work["snapshot"]

    def test_signals_start_fresh_in_restored_child(self, kernel):
        SIGUSR1 = 10

        def main(sys):
            yield sys.sigaction(SIGUSR1, "ignore")
            handle = yield sys.snapshot()

            def child(sys2):
                previous = yield sys2.sigaction(SIGUSR1, "default")
                yield sys2.exit(0 if previous == "default" else 1)

            cpid = yield sys.spawn_from_snapshot(handle, child)
            _, status = yield sys.waitpid(cpid)
            yield sys.exit(status)
        assert run_main(kernel, main) == 0

    def test_drop_invalidates_handle(self, kernel):
        def main(sys):
            addr = yield sys.mmap(PAGE_SIZE)
            yield sys.poke(addr, "x")
            handle = yield sys.snapshot()
            cpid = yield sys.spawn_from_snapshot(handle, lambda s: iter(()))
            yield sys.waitpid(cpid)
            yield sys.snapshot_drop(handle)
            try:
                yield sys.spawn_from_snapshot(handle, lambda s: iter(()))
            except SimOSError as err:
                yield sys.exit(0 if err.errno_name == "EBADF" else 1)
            yield sys.exit(2)
        assert run_main(kernel, main) == 0

    def test_bogus_handle_is_ebadf(self, kernel):
        def main(sys):
            try:
                yield sys.spawn_from_snapshot(999, lambda s: iter(()))
            except SimOSError as err:
                yield sys.exit(0 if err.errno_name == "EBADF" else 1)
            yield sys.exit(2)
        assert run_main(kernel, main) == 0
        with pytest.raises(SimOSError):
            kernel.drop_snapshot(999)

    def test_snapshot_charges_like_fork_restore_like_spawn(self, kernel):
        times = {}

        def main(sys):
            addr = yield sys.mmap(MIB)
            yield sys.populate(addr, MIB)
            t0 = yield sys.clock()
            handle = yield sys.snapshot()
            t1 = yield sys.clock()
            cpid = yield sys.spawn_from_snapshot(handle, lambda s: iter(()))
            t2 = yield sys.clock()
            times["snapshot"] = t1 - t0
            times["restore"] = t2 - t1
            yield sys.waitpid(cpid)
            yield sys.exit(0)
        assert run_main(kernel, main) == 0
        cost = kernel.cost
        assert times["snapshot"] >= cost.fixed_fork_ns
        assert times["restore"] >= cost.fixed_spawn_ns

    def test_origin_stamps_for_every_creation_api(self, kernel):
        origins = {}

        def one(request):
            return (yield request)

        def xproc(sys):
            handle = yield sys.xproc_create()
            return (yield sys.xproc_start(handle, "/bin/true"))

        def main(sys):
            for label, launch in (
                    ("fork", lambda: one(sys.fork(lambda s: iter(())))),
                    ("vfork", lambda: one(sys.vfork(lambda s: iter(())))),
                    ("clone", lambda: one(sys.clone(lambda s: iter(())))),
                    ("spawn", lambda: one(sys.spawn("/bin/true"))),
                    ("xproc", lambda: xproc(sys)),
                    ("fork_emulated",
                     lambda: one(sys.fork_emulated(lambda s: iter(()))))):
                pid = yield from launch()
                origins[label] = kernel.find_process(pid).origin
                assert_nothing_leaked(kernel)
                yield sys.waitpid(pid)
            yield sys.exit(0)
        kernel.register_program("/bin/true", lambda sys: iter(()))
        assert run_main(kernel, main) == 0
        assert_nothing_leaked(kernel)
        assert origins == {"fork": "fork", "vfork": "vfork",
                           "clone": "clone", "spawn": "spawn",
                           "xproc": "xproc",
                           "fork_emulated": "fork_emulated"}
        init = next(p for p in kernel.processes.values()
                    if p.name.endswith("init"))
        assert init.origin == "boot"
