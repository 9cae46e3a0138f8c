"""The xproc strategy: explicit cross-process construction at the front door.

These tests pin the tentpole contract: ``xproc`` is a registered strategy, an
unmodified ProcessBuilder program produces a CompletedChild on the sim backend,
policy machinery (fallback, deadline) applies, and every construction stage is
visible through repro.obs.
"""

import pytest

from repro.core import (
    CrossProcessBuilder,
    ProcessBuilder,
    SpawnPolicy,
    get_strategy,
    reset_breakers,
    run,
    strategies,
)
from repro.errors import SpawnError, SpawnTimeout
from repro.obs import TELEMETRY, RingBufferSink
from repro.sim.kernel import Kernel
from repro.sim.params import MIB
from repro.sim.process import Process
from repro.sim.signals import SIGSTOP


@pytest.fixture
def xproc():
    strategy = get_strategy("xproc")
    strategy.shutdown()
    reset_breakers()
    yield strategy
    strategy.shutdown()
    reset_breakers()


class TestRegistration:
    def test_listed_in_the_registry(self):
        assert "xproc" in strategies()

    def test_always_available(self, xproc):
        assert xproc.available()


class TestProcessBuilderContract:
    def test_echo_produces_a_completed_child(self, xproc):
        result = run("/bin/echo", "hello", "world", strategy="xproc")
        assert result.returncode == 0
        assert result.stdout == b"hello world\n"

    def test_exit_statuses_survive_the_sim_boundary(self, xproc):
        assert run("/bin/true", strategy="xproc").returncode == 0
        assert run("/bin/false", strategy="xproc").returncode == 1

    def test_unknown_program_fails_loudly(self, xproc):
        with pytest.raises(SpawnError, match="register_program"):
            run("/bin/no-such-sim-program", strategy="xproc")

    def test_stdout_to_file_lands_on_the_host_filesystem(self, xproc, tmp_path):
        target = tmp_path / "out.txt"
        builder = ProcessBuilder("/bin/echo", "to-file").stdout_to_file(str(target))
        child = builder.strategy("xproc").spawn()
        assert child.wait() == 0
        assert target.read_bytes() == b"to-file\n"

    def test_stdin_from_file_feeds_the_child(self, xproc, tmp_path):
        source = tmp_path / "in.txt"
        source.write_bytes(b"bytes that exist before start\n")
        builder = ProcessBuilder("/bin/cat").stdin_from_file(str(source)).stdout_to_pipe()
        child = builder.strategy("xproc").spawn()
        assert builder.io.read_stdout() == b"bytes that exist before start\n"
        assert child.wait() == 0
        builder.io.close()

    def test_custom_programs_register_through_the_strategy(self, xproc):
        def fan_out(sys):
            def worker(sys2):
                yield sys2.write(1, b"child\n")

            pid = yield sys.fork(worker)
            _, status = yield sys.waitpid(pid)
            yield sys.write(1, b"parent\n")
            return status

        xproc.register_program("/bin/fan-out", fan_out)
        result = run("/bin/fan-out", strategy="xproc")
        assert result.returncode == 0
        assert result.stdout == b"child\nparent\n"

    def test_signals_to_the_handle_are_safe_noops(self, xproc):
        child = ProcessBuilder("/bin/true").strategy("xproc").spawn()
        child.kill()  # must never forward a sim pid to os.kill
        assert child.wait() == 0


class TestAttributes:
    def test_reset_signals_is_accepted_as_inherent(self, xproc):
        child = ProcessBuilder("/bin/true").reset_signals().strategy("xproc").spawn()
        assert child.wait() == 0

    def test_replacement_env_is_refused(self, xproc):
        with pytest.raises(SpawnError, match="env"):
            ProcessBuilder("/bin/true").env({"KEY": "value"}).strategy("xproc").spawn()

    def test_cwd_is_refused(self, xproc):
        with pytest.raises(SpawnError, match="cwd"):
            ProcessBuilder("/bin/true").cwd("/tmp").strategy("xproc").spawn()


class TestPolicyCompatibility:
    def test_refused_request_degrades_down_the_ladder(self, xproc):
        builder = ProcessBuilder("/bin/echo", "via-fallback").env({"KEY": "value"})
        builder.strategy("xproc").policy(SpawnPolicy(fallback=("posix_spawn",))).stdout_to_pipe()
        child = builder.spawn()
        assert child.strategy == "posix_spawn"
        assert builder.io.read_stdout() == b"via-fallback\n"
        assert child.wait() == 0
        builder.io.close()

    def test_deadline_bounds_a_runaway_child(self, xproc):
        def spinner(sys):
            while True:
                yield sys.clock()

        xproc.register_program("/bin/spinner", spinner)
        builder = ProcessBuilder("/bin/spinner").strategy("xproc").deadline(0.2)
        with pytest.raises(SpawnTimeout):
            builder.spawn()


def _stuck(sys):
    r, _w = yield sys.pipe()
    yield sys.read(r, 1)  # nobody will ever write


class TestSubtreeDriving:
    """A launch is one scoped ``Kernel.run``: the child and everything it
    creates run to exit, and nothing else on the machine is touched."""

    def test_a_grandchild_that_outlives_its_parent_runs_to_exit(self, xproc):
        def grandchild(sys):
            for _ in range(5):
                yield sys.sched_yield()
            yield sys.write(1, b"grandchild\n")

        def parent(sys):
            pid = yield sys.fork(grandchild)
            yield sys.write(1, f"{pid}\n".encode())  # exits without waiting

        xproc.register_program("/bin/orphaner", parent)
        result = run("/bin/orphaner", strategy="xproc")
        assert result.returncode == 0
        pid_line, rest = result.stdout.split(b"\n", 1)
        assert rest == b"grandchild\n"
        grandchild_proc = xproc.kernel().find_process(int(pid_line))
        assert not grandchild_proc.alive

    def test_a_stuck_subtree_names_every_blocked_thread(self, xproc):
        def parent(sys):
            pid = yield sys.fork(_stuck)
            yield sys.waitpid(pid)

        xproc.register_program("/bin/stuck-pair", parent)
        with pytest.raises(SpawnError, match="stuck") as exc:
            run("/bin/stuck-pair", strategy="xproc")
        kernel = xproc.kernel()
        members = [p for p in kernel.processes.values() if p.alive and p.pid != 1]
        assert len(members) == 2  # everything alive but the agent (pid 1)
        for proc in members:
            assert f"pid {proc.pid}/main:" in str(exc.value)
        assert "waitpid" in str(exc.value)
        assert "empty pipe" in str(exc.value)

    def test_a_stopped_member_is_reported_as_stopped(self, xproc):
        def spin(sys):
            while True:
                yield sys.sched_yield()

        def parent(sys):
            pid = yield sys.fork(spin)
            yield sys.kill(pid, SIGSTOP)
            yield sys.waitpid(pid)

        xproc.register_program("/bin/stopper", parent)
        with pytest.raises(SpawnError) as exc:
            run("/bin/stopper", strategy="xproc")
        message = str(exc.value)
        stopped = [p for p in xproc.kernel().processes.values() if p.stopped]
        assert len(stopped) == 1
        assert f"pid {stopped[0].pid}: stopped" in message
        assert f"pid {stopped[0].ppid}/main: waitpid" in message

    def test_leftovers_and_the_agent_are_never_stepped(self, xproc):
        spins = []

        def spinner(sys):
            while True:
                spins.append(1)
                yield sys.sched_yield()

        xproc.register_program("/bin/spinner", spinner)
        xproc.register_program("/bin/stuck", _stuck)
        with pytest.raises(SpawnTimeout):
            ProcessBuilder("/bin/spinner").strategy("xproc").deadline(0.05).spawn()
        with pytest.raises(SpawnError, match="stuck"):
            run("/bin/stuck", strategy="xproc")
        spun = len(spins)
        assert spun > 0
        for _ in range(3):
            assert run("/bin/true", strategy="xproc").returncode == 0
        assert len(spins) == spun  # the runnable leftover never ran again
        agent = xproc.kernel().find_process(1)
        assert agent.alive and agent.threads[0].state == "ready"


class TestPricing:
    """The exact virtual price of a launch, as the ruler's
    ``core.xproc.virtual_ns`` reads it: a reordered step or an extra
    context switch fails here instead of moving that figure."""

    def test_launch_prices_on_a_fresh_machine(self, xproc):
        kernel = xproc.kernel()
        costs = []
        for argv in (("/bin/true",), ("/bin/echo", "hi"), ("/bin/true",)):
            before = kernel.now_ns
            builder = ProcessBuilder(*argv).strategy("xproc").stdout_to_pipe()
            assert builder.spawn().wait() == 0
            builder.io.close()
            costs.append(kernel.now_ns - before)
        # Every launch after the first also pays one context switch
        # (1,200 ns) from the previous launch's thread.
        assert costs == [311_980, 313_480, 313_180]


class TestAging:
    def test_a_launch_inspects_as_many_processes_at_500_as_at_1(self, xproc, monkeypatch):
        reads = [0]
        alive = Process.alive

        def counted(proc):
            reads[0] += 1
            return alive.fget(proc)

        monkeypatch.setattr(Process, "alive", property(counted))
        xproc.kernel()  # boot outside the count

        def launch():
            reads[0] = 0
            assert ProcessBuilder("/bin/true").strategy("xproc").spawn().wait() == 0
            return reads[0]

        first = launch()
        for _ in range(498):
            launch()
        assert launch() == first


class TestObservability:
    def test_construction_stages_are_traced_and_counted(self, xproc):
        sink = RingBufferSink()
        TELEMETRY.enable(sink, reset_metrics=True)
        try:
            run("/bin/echo", "traced", strategy="xproc")
        finally:
            TELEMETRY.disable()
        stages = [event["stage"] for event in sink.events() if event.get("event") == "stage"]
        assert "xproc_create" in stages
        assert "xproc_grant_fd" in stages
        assert "xproc_start" in stages
        assert stages.index("xproc_create") < stages.index("xproc_start")
        assert "execed" in stages and "reaped" in stages
        created = TELEMETRY.metrics.counter("xproc_stage", stage="create")
        granted = TELEMETRY.metrics.counter("xproc_stage", stage="grant_fd")
        assert created.value == 1
        assert granted.value == 3  # the stdio triple


class TestCrossProcessBuilderDirect:
    @pytest.fixture
    def machine(self):
        kernel = Kernel()
        kernel.register_program("/bin/true", lambda sys: iter(()))
        agent = kernel.spawn_root("/bin/true")
        return kernel, agent.threads[0]

    def test_construction_is_priced_by_the_virtual_clock(self, machine):
        kernel, thread = machine
        builder = CrossProcessBuilder(kernel, thread).create("worker")
        addr = builder.map(4 * MIB)
        assert builder.populate(addr, 4 * MIB) > 0
        pid = builder.start("/bin/true")
        assert kernel.find_process(pid) is not None
        assert builder.spent_ns > 0

    def test_stage_before_create_raises(self, machine):
        kernel, thread = machine
        builder = CrossProcessBuilder(kernel, thread)
        with pytest.raises(SpawnError, match="create"):
            builder.map(MIB)

    def test_stages_after_start_raise(self, machine):
        kernel, thread = machine
        builder = CrossProcessBuilder(kernel, thread).create()
        builder.start("/bin/true")
        with pytest.raises(SpawnError, match="already started"):
            builder.map(MIB)
        with pytest.raises(SpawnError, match="already started"):
            builder.start("/bin/true")

    def test_double_create_raises(self, machine):
        kernel, thread = machine
        builder = CrossProcessBuilder(kernel, thread).create()
        with pytest.raises(SpawnError, match="already"):
            builder.create()

    def test_abort_returns_every_transferred_frame(self, machine):
        kernel, thread = machine
        baseline = kernel.allocator.used_frames
        builder = CrossProcessBuilder(kernel, thread).create()
        addr = builder.map(8 * MIB)
        builder.populate(addr, 8 * MIB)
        assert kernel.allocator.used_frames > baseline
        builder.abort()
        assert kernel.allocator.used_frames == baseline
        builder.abort()  # idempotent
