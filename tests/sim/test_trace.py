"""Tests for the syscall tracer."""

import json

import pytest

from repro.errors import SimError
from repro.sim.kernel import Kernel
from repro.sim.params import MIB, SimConfig
from repro.sim.syscalls.base import Park
from repro.sim.trace import SyscallEvent, Trace, Tracer


@pytest.fixture
def kernel():
    k = Kernel(SimConfig(total_ram=256 * MIB))
    k.register_program("/bin/true", lambda sys: iter(()))
    return k


def traced_run(kernel, main):
    tracer = Tracer().attach(kernel)
    kernel.register_program("/sbin/init", main)
    kernel.run_program("/sbin/init")
    return tracer.detach()


class TestRecording:
    def test_every_syscall_recorded(self, kernel):
        def main(sys):
            yield sys.getpid()
            yield sys.getpid()
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        assert len(trace.for_syscall("getpid")) == 2
        assert len(trace.for_syscall("exit")) == 1

    def test_events_carry_identity_and_time(self, kernel):
        def main(sys):
            yield sys.mmap(4 * MIB)
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        (event,) = trace.for_syscall("mmap")
        assert event.pid == 1
        assert event.duration_ns >= 0
        assert event.outcome == "ok"

    def test_fork_work_attributed(self, kernel):
        def main(sys):
            addr = yield sys.mmap(8 * MIB)
            yield sys.populate(addr, 8 * MIB)
            cpid = yield sys.fork(lambda s: iter(()))
            yield sys.waitpid(cpid)
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        (fork_event,) = trace.for_syscall("fork")
        assert fork_event.ptes_copied >= 8 * MIB // 4096

    def test_blocked_outcome_recorded(self, kernel):
        def main(sys):
            r, w = yield sys.pipe()

            def child(sys2):
                yield sys2.write(w, b"x")
                yield sys2.exit(0)

            cpid = yield sys.fork(child)
            yield sys.read(r, 1)   # blocks until the child writes
            yield sys.waitpid(cpid)
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        outcomes = {e.outcome for e in trace.for_syscall("read")}
        assert "blocked" in outcomes

    def test_error_outcome_recorded(self, kernel):
        def main(sys):
            try:
                yield sys.open("/missing", "r")
            except Exception:
                pass
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        (event,) = trace.for_syscall("open")
        assert event.outcome == "ENOENT"

    def test_timed_call_traced_too(self, kernel):
        tracer = Tracer().attach(kernel)
        proc = kernel.spawn_root("/bin/true")
        kernel.timed_call(proc.main_thread(), "mmap", 4 * MIB)
        trace = tracer.detach()
        assert len(trace.for_syscall("mmap")) == 1

    def test_parked_timed_call_is_blocked_not_an_error(self, kernel):
        # vfork parks its caller: the scheduler path files that as
        # "blocked", and the direct timed_call path must agree.
        tracer = Tracer().attach(kernel)
        proc = kernel.spawn_root("/bin/true")
        with pytest.raises(Park):
            kernel.timed_call(proc.main_thread(), "vfork",
                              lambda sys: iter(()))
        trace = tracer.detach()
        assert [(e.name, e.outcome) for e in trace.events] == [
            ("vfork", "blocked")]
        assert trace.summary()["vfork"]["errors"] == 0

    def test_events_from_multiple_processes(self, kernel):
        def main(sys):
            pid = yield sys.spawn("/bin/true")
            yield sys.waitpid(pid)
            yield sys.exit(0)
        trace = traced_run(kernel, main)
        assert {1} <= {e.pid for e in trace.events}
        assert trace.for_pid(1)


class TestLifecycle:
    def test_double_attach_rejected(self, kernel):
        tracer = Tracer().attach(kernel)
        with pytest.raises(SimError):
            tracer.attach(kernel)
        tracer.detach()

    def test_detach_unattached_rejected(self):
        with pytest.raises(SimError):
            Tracer().detach()

    def test_detach_restores_dispatch(self, kernel):
        tracer = Tracer().attach(kernel)
        tracer.detach()

        def main(sys):
            yield sys.exit(0)
        kernel.register_program("/sbin/init", main)
        kernel.run_program("/sbin/init")
        assert len(tracer.trace.for_syscall("exit")) == 0

    def test_context_manager(self, kernel):
        with Tracer() as tracer:
            tracer.attach(kernel)
        assert not tracer.attached


class TestReporting:
    def _trace(self):
        trace = Trace()
        trace.record(SyscallEvent(0, 100, 1, 1, "init", "fork", "ok",
                                  pages_copied=5))
        trace.record(SyscallEvent(100, 50, 1, 1, "init", "read", "blocked"))
        trace.record(SyscallEvent(150, 25, 2, 2, "child", "read",
                                  "EBADF"))
        return trace

    def test_summary_aggregates(self):
        summary = self._trace().summary()
        assert summary["read"]["calls"] == 2
        assert summary["read"]["errors"] == 1
        assert summary["fork"]["total_ns"] == 100

    def test_summary_sorted_by_total_time(self):
        names = list(self._trace().summary())
        assert names[0] == "fork"

    def test_summary_table_renders(self):
        text = self._trace().summary_table()
        assert "fork" in text and "total traced time" in text

    def test_total_ns(self):
        assert self._trace().total_ns() == 175

    def test_chrome_export_roundtrips(self, tmp_path):
        target = tmp_path / "trace.json"
        payload = self._trace().to_chrome_json(str(target))
        data = json.loads(payload)
        assert len(data["traceEvents"]) == 3
        event = data["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["args"]["pages_copied"] == 5
        assert json.loads(target.read_text()) == data
