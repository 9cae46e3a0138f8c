"""Tests for the kernel engine: boot, scheduling, dispatch, teardown."""

import time

import pytest

from repro.errors import DeadlockError, SimError, SimOSError
from repro.sim.kernel import Kernel, SyscallProxy, SyscallRequest
from repro.sim.params import MIB, SimConfig


@pytest.fixture
def kernel():
    k = Kernel(SimConfig(total_ram=512 * MIB))
    k.register_program("/bin/true", lambda sys: iter(()))
    return k


def run_main(kernel, main, argv=()):
    """Register ``main`` as init, run it, return its exit status."""
    kernel.register_program("/sbin/init", main)
    return kernel.run_program("/sbin/init", argv)


class TestProxy:
    def test_builds_requests(self):
        req = SyscallProxy().read(3, 100)
        assert isinstance(req, SyscallRequest)
        assert req.name == "read"
        assert req.args == (3, 100)

    def test_keyword_arguments_carried(self):
        req = SyscallProxy().open("/x", "r", cloexec=True)
        assert req.kwargs == {"cloexec": True}

    def test_private_names_rejected(self):
        with pytest.raises(AttributeError):
            SyscallProxy()._hidden

    def test_repr_is_readable(self):
        assert "sys.read(3, 100)" in repr(SyscallProxy().read(3, 100))


class TestBootAndExit:
    def test_empty_program_exits_zero(self, kernel):
        assert kernel.run_program("/bin/true") == 0

    def test_explicit_exit_status(self, kernel):
        def main(sys):
            yield sys.exit(42)
        assert run_main(kernel, main) == 42

    def test_generator_return_value_is_status(self, kernel):
        def main(sys):
            yield sys.getpid()
            return 5
        assert run_main(kernel, main) == 5

    def test_root_process_gets_pid_1(self, kernel):
        def main(sys):
            pid = yield sys.getpid()
            yield sys.exit(pid)
        assert run_main(kernel, main) == 1

    def test_all_frames_released_at_shutdown(self, kernel):
        def main(sys):
            addr = yield sys.mmap(4 * MIB)
            yield sys.populate(addr, 4 * MIB)
            yield sys.exit(0)
        run_main(kernel, main)
        assert kernel.allocator.used_frames == 0

    def test_unknown_program_raises_enoent(self, kernel):
        with pytest.raises(SimOSError) as exc:
            kernel.run_program("/bin/missing")
        assert exc.value.errno_name == "ENOENT"

    def test_register_program_creates_vfs_entry(self, kernel):
        assert kernel.vfs.exists("/bin/true")


class TestDispatch:
    def test_unknown_syscall_raises_enosys_in_program(self, kernel):
        def main(sys):
            try:
                yield sys.frobnicate()
            except SimOSError as err:
                yield sys.exit(61 if err.errno_name == "ENOSYS" else 1)
        assert run_main(kernel, main) == 61

    def test_yielding_garbage_is_reported(self, kernel):
        def main(sys):
            try:
                yield "not a syscall"
            except SimError:
                yield sys.exit(3)
        assert run_main(kernel, main) == 3

    def test_os_errors_are_catchable(self, kernel):
        def main(sys):
            try:
                yield sys.open("/no/such/file", "r")
            except SimOSError as err:
                yield sys.exit(4 if err.errno_name == "ENOENT" else 1)
        assert run_main(kernel, main) == 4

    def test_uncaught_program_exception_is_strict_by_default(self, kernel):
        def main(sys):
            yield sys.getpid()
            raise RuntimeError("program bug")
        with pytest.raises(SimError):
            run_main(kernel, main)

    def test_lenient_mode_crashes_process_instead(self):
        kernel = Kernel(strict_crashes=False)

        def main(sys):
            yield sys.getpid()
            raise RuntimeError("program bug")
        kernel.register_program("/sbin/init", main)
        assert kernel.run_program("/sbin/init") == 134

    def test_virtual_clock_advances(self, kernel):
        def main(sys):
            t0 = yield sys.clock()
            yield sys.compute(5000)
            t1 = yield sys.clock()
            yield sys.exit(0 if t1 - t0 >= 5000 else 1)
        assert run_main(kernel, main) == 0

    def test_max_steps_backstop(self, kernel):
        def main(sys):
            while True:
                yield sys.sched_yield()
        kernel.register_program("/sbin/init", main)
        kernel.spawn_root("/sbin/init")
        with pytest.raises(SimError):
            kernel.run(max_steps=100)


class TestSegfaults:
    def test_wild_write_kills_process_with_sigsegv(self, kernel):
        def main(sys):
            yield sys.poke(0xDEAD_BEEF_000, "x")
            yield sys.exit(0)  # never reached
        assert run_main(kernel, main) == 128 + 11

    def test_write_to_readonly_kills(self, kernel):
        def main(sys):
            addr = yield sys.mmap(4096, prot="r")
            yield sys.poke(addr, "x")
        assert run_main(kernel, main) == 128 + 11


class TestDeadlockDetection:
    def test_self_deadlock_on_empty_pipe(self, kernel):
        def main(sys):
            r, _w = yield sys.pipe()
            yield sys.read(r, 1)  # nobody will ever write
        kernel.register_program("/sbin/init", main)
        kernel.spawn_root("/sbin/init")
        with pytest.raises(DeadlockError) as exc:
            kernel.run()
        assert "empty pipe" in str(exc.value)

    def test_clean_completion_returns_steps(self, kernel):
        def main(sys):
            yield sys.exit(0)
        kernel.register_program("/sbin/init", main)
        kernel.spawn_root("/sbin/init")
        assert kernel.run() >= 1


class TestScopedRun:
    """``run(root=pid)`` schedules one subtree and nothing else."""

    @staticmethod
    def _stuck(sys):
        r, _w = yield sys.pipe()
        yield sys.read(r, 1)

    def test_returns_while_an_unrelated_process_stays_blocked(self, kernel):
        kernel.register_program("/bin/stuck", self._stuck)
        bystander = kernel.spawn_root("/bin/stuck")
        with pytest.raises(DeadlockError):
            kernel.run()
        root = kernel.spawn_root("/bin/true")
        assert kernel.run(root=root.pid) >= 1
        assert not root.alive
        assert bystander.alive and bystander.threads[0].state == "blocked"
        with pytest.raises(DeadlockError):
            kernel.run()  # the scope ended with the call

    def test_descendants_join_the_scope_even_once_orphaned(self, kernel):
        done = []

        def grandchild(sys):
            for _ in range(3):
                yield sys.sched_yield()
            done.append("grandchild")

        def child(sys):
            yield sys.fork(grandchild)
            done.append("child")

        def main(sys):
            yield sys.fork(child)

        kernel.register_program("/bin/tree", main)
        idle = kernel.spawn_root("/bin/true")  # never stepped by the scoped run
        root = kernel.spawn_root("/bin/tree")
        kernel.run(root=root.pid)
        assert done == ["child", "grandchild"]
        assert idle.alive and idle.threads[0].state == "ready"

    def test_a_stuck_member_is_a_deadlock(self, kernel):
        kernel.register_program("/bin/stuck", self._stuck)
        root = kernel.spawn_root("/bin/stuck")
        with pytest.raises(DeadlockError, match=f"pid {root.pid}/main"):
            kernel.run(root=root.pid)

    def test_deadline_raises_timeout(self, kernel):
        def spin(sys):
            while True:
                yield sys.sched_yield()

        kernel.register_program("/bin/spin", spin)
        root = kernel.spawn_root("/bin/spin")
        with pytest.raises(TimeoutError):
            kernel.run(root=root.pid, deadline=time.monotonic() + 0.05)


class TestAddressSpaceRefcounting:
    def test_over_release_detected(self, kernel):
        space = kernel.make_address_space("x")
        kernel.as_acquire(space)
        kernel.as_release(space)
        with pytest.raises(SimError):
            kernel.as_release(space)

    def test_shared_space_survives_first_release(self, kernel):
        space = kernel.make_address_space("x")
        kernel.as_acquire(space)
        kernel.as_acquire(space)
        kernel.as_release(space)
        assert not space.dead
        kernel.as_release(space)
        assert space.dead


class TestProcessTable:
    def test_ps_reports_live_processes(self, kernel):
        def main(sys):
            yield sys.mmap(4 * MIB)
            kernel._ps_snapshot = kernel.ps()
            yield sys.exit(0)
        kernel.register_program("/sbin/init", main)
        kernel.run_program("/sbin/init")
        (row,) = [r for r in kernel._ps_snapshot if r["pid"] == 1]
        assert row["state"] == "alive"
        assert row["threads"] == 1
        assert row["vsz_bytes"] >= 4 * MIB

    def test_ps_shows_zombies(self, kernel):
        snapshots = {}

        def main(sys):
            def child(sys2):
                yield sys2.exit(0)
            cpid = yield sys.fork(child)
            yield sys.sched_yield()
            yield sys.sched_yield()
            snapshots["rows"] = {r["pid"]: r for r in kernel.ps()}
            yield sys.waitpid(cpid)
            yield sys.exit(cpid)
        status = run_main(kernel, main)
        assert snapshots["rows"][status]["state"] == "zombie"
        assert snapshots["rows"][status]["rss_bytes"] == 0
