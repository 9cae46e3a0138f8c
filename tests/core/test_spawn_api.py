"""Tests for the high-level spawn API against the real OS."""

import os
import signal
import time

import pytest

from repro.core import CompletedChild, ProcessBuilder, SpawnAttributes, run
from repro.core.strategies import (Strategy, get_strategy,
                                   pick_default_strategy, register_strategy,
                                   strategies, _REGISTRY,
                                   _resolve_executable)
from repro.core.result import ChildProcess
from repro.errors import SpawnError, SpawnTimeout

SH = "/bin/sh"


def open_fds():
    """The process's open descriptors, for leak accounting."""
    return set(os.listdir("/proc/self/fd"))


def own_children():
    """The pids whose parent is this process, zombies included."""
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == os.getpid():
            pids.add(int(entry))
    return pids


class TestRunConvenience:
    def test_captures_stdout(self):
        code, out = run("/bin/echo", "hello")
        assert (code, out) == (0, b"hello\n")

    def test_nonzero_exit_code(self):
        code, _ = run(SH, "-c", "exit 9")
        assert code == 9

    @pytest.mark.parametrize("argv", [
        ("/bin/sleep", "3"),
        ("/bin/sh", "-c", "exec >&-; exec sleep 2"),
    ], ids=["holds-stdout-open", "closes-stdout-then-sleeps"])
    def test_timeout_bounds_the_run_and_leaves_nothing(self, argv):
        """The timeout bounds reading stdout to EOF as well as the wait;
        on expiry the child is killed and reaped and the pipe closed."""
        fds, children = open_fds(), own_children()
        started = time.monotonic()
        with pytest.raises(SpawnTimeout):
            run(*argv, timeout=0.2)
        assert time.monotonic() - started < 1.0
        assert open_fds() == fds
        assert own_children() == children

    def test_reads_more_than_a_mebibyte_to_eof(self):
        """The read used to stop at 1 MiB and then wait for a child
        blocked writing the rest: a deadlock, or with a timeout a
        killed child."""
        code, out = run(SH, "-c", "head -c 2000000 /dev/zero", timeout=10)
        assert (code, len(out)) == (0, 2_000_000)

    def test_returns_completed_child(self):
        result = run("/bin/echo", "shape")
        assert isinstance(result, CompletedChild)
        assert result.argv == ("/bin/echo", "shape")
        assert result.returncode == 0
        assert result.stdout == b"shape\n"
        assert result.duration > 0
        assert result.as_tuple() == (0, b"shape\n")

    def test_check_raises_on_failure(self):
        with pytest.raises(SpawnError):
            run(SH, "-c", "exit 3").check()
        assert run("/bin/true").check().returncode == 0


class TestProcessBuilder:
    def test_spawn_returns_handle_with_pid(self):
        child = ProcessBuilder("/bin/true").spawn()
        assert child.pid > 0
        assert child.wait() == 0

    def test_stdout_to_file(self, tmp_path):
        for fd, to_file in ((1, ProcessBuilder.stdout_to_file),
                            (2, ProcessBuilder.stderr_to_file)):
            out = tmp_path / f"o{fd}"
            out.write_bytes(b"a longer line, truncated away\n")
            child = to_file(ProcessBuilder(SH, "-c", f"echo to file >&{fd}"),
                            str(out)).spawn()
            assert child.wait() == 0
            assert out.read_bytes() == b"to file\n"

    def test_stdout_append_mode(self, tmp_path):
        for fd, to_file in ((1, ProcessBuilder.stdout_to_file),
                            (2, ProcessBuilder.stderr_to_file)):
            out = tmp_path / f"o{fd}"
            out.write_bytes(b"first\n")
            child = to_file(ProcessBuilder(SH, "-c", f"echo second >&{fd}"),
                            str(out), append=True).spawn()
            child.wait()
            assert out.read_bytes() == b"first\nsecond\n"

    def test_stdin_from_file(self, tmp_path):
        src = tmp_path / "in"
        src.write_bytes(b"line a\nline b\n")
        builder = (ProcessBuilder("/usr/bin/wc", "-l")
                   .stdin_from_file(str(src)).stdout_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stdout().strip() == b"2"
        child.wait()

    def test_stderr_to_stdout_merge(self):
        builder = (ProcessBuilder(SH, "-c", "echo out; echo err >&2")
                   .stdout_to_pipe().stderr_to_stdout())
        child = builder.spawn()
        data = builder.io.read_stdout()
        child.wait()
        assert b"out" in data and b"err" in data
        # With stderr closed instead, the redirection fails and nothing
        # but stdout is written.
        builder = (ProcessBuilder(SH, "-c", "echo out; echo err >&2")
                   .stdout_to_pipe().close_fd(2))
        child = builder.spawn()
        assert builder.io.read_stdout() == b"out\n"
        assert child.wait(timeout=5) != 0

    def test_env_replacement(self):
        builder = (ProcessBuilder(SH, "-c", "echo $MARKER")
                   .env({"MARKER": "custom-env", "PATH": "/bin:/usr/bin"})
                   .stdout_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stdout().strip() == b"custom-env"
        child.wait()

    def test_env_add_extends(self):
        builder = (ProcessBuilder(SH, "-c", "echo $EXTRA")
                   .env_add(EXTRA="added").stdout_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stdout().strip() == b"added"
        child.wait()

    def test_cwd_falls_back_to_fork_exec(self, tmp_path):
        # posix_spawn cannot express cwd; the default picker must route
        # this through fork_exec transparently.
        builder = (ProcessBuilder(SH, "-c", "pwd")
                   .cwd(str(tmp_path)).stdout_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stdout().strip() == str(tmp_path).encode()
        child.wait()
        assert child.strategy == "fork_exec"

    def test_explicit_strategy_selection(self):
        for name in ("posix_spawn", "fork_exec"):
            child = ProcessBuilder("/bin/true").strategy(name).spawn()
            assert child.wait() == 0
            assert child.strategy == name

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SpawnError) as excinfo:
            ProcessBuilder("/bin/true").strategy("teleport")
        # The error must name the alternatives, not just reject.
        for name in strategies():
            assert name in str(excinfo.value)

    def test_failed_launch_leaks_no_descriptors(self):
        # Regression: a builder that already created pipes must close
        # BOTH ends when the strategy refuses the launch — the
        # parent-side endpoints used to survive on builder.io.
        before = open_fds()
        builder = (ProcessBuilder("/bin/cat")
                   .stdin_from_pipe().stdout_to_pipe().stderr_to_pipe())
        with pytest.raises(SpawnError):
            # subprocess strategy takes no file actions -> launch raises
            builder.strategy("subprocess").spawn()
        assert open_fds() == before
        assert builder.io.stdin_fd is None
        assert builder.io.stdout_fd is None
        assert builder.io.stderr_fd is None

    def test_builder_is_single_shot(self):
        builder = ProcessBuilder("/bin/true")
        builder.spawn().wait()
        with pytest.raises(SpawnError):
            builder.spawn()

    def test_empty_argv_rejected(self):
        with pytest.raises(SpawnError):
            ProcessBuilder()

    def test_stdin_pipe_roundtrip(self):
        builder = (ProcessBuilder("/bin/cat")
                   .stdin_from_pipe().stdout_to_pipe())
        child = builder.spawn()
        builder.io.write_stdin(b"ping")
        builder.io.close_stdin()
        assert builder.io.read_stdout() == b"ping"
        assert child.wait() == 0

    def test_missing_executable_raises(self):
        with pytest.raises(SpawnError):
            ProcessBuilder("definitely-not-a-real-binary-xyz").spawn()


class TestChildProcessHandle:
    def test_poll_running_then_finished(self):
        builder = ProcessBuilder("/bin/cat").stdin_from_pipe()
        child = builder.spawn()
        assert child.poll() is None
        builder.io.close_stdin()
        assert child.wait(timeout=5) == 0
        assert child.poll() == 0

    def test_wait_is_idempotent(self):
        child = ProcessBuilder("/bin/true").spawn()
        assert child.wait() == 0
        assert child.wait() == 0  # cached, no double reap

    def test_signal_death_is_negative_returncode(self):
        builder = ProcessBuilder("/bin/cat").stdin_from_pipe()
        child = builder.spawn()
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=5) == -signal.SIGKILL
        builder.io.close()

    def test_terminate_after_exit_is_noop(self):
        child = ProcessBuilder("/bin/true").spawn()
        child.wait()
        child.terminate()  # must not raise or kill a recycled pid

    def test_wait_timeout_raises(self):
        builder = ProcessBuilder("/bin/cat").stdin_from_pipe()
        child = builder.spawn()
        with pytest.raises(SpawnError):
            child.wait(timeout=0.05)
        builder.io.close_stdin()
        child.wait(timeout=5)

    def test_timed_wait_sleeps_on_a_pidfd_and_always_closes_it(self):
        before = len(os.listdir("/proc/self/fd"))
        slow = ProcessBuilder("/bin/sleep", "30").spawn()
        started = time.monotonic()
        with pytest.raises(SpawnError, match="timeout"):
            slow.wait(timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 2
        slow.kill()
        assert slow.wait(timeout=5) == -signal.SIGKILL
        for _ in range(5):
            assert ProcessBuilder("/bin/true").spawn().wait(timeout=5) == 0
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("broken", ["missing", "failing"])
    def test_timed_wait_polls_when_no_pidfd_can_be_had(self, monkeypatch,
                                                       broken):
        if broken == "missing":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        else:
            def refuse(pid, flags=0):
                raise OSError(24, "Too many open files")
            monkeypatch.setattr(os, "pidfd_open", refuse, raising=False)
        builder = ProcessBuilder("/bin/cat").stdin_from_pipe()
        child = builder.spawn()
        with pytest.raises(SpawnError, match="timeout"):
            child.wait(timeout=0.05)
        builder.io.close_stdin()
        assert child.wait(timeout=5) == 0

    def test_timed_wait_on_a_reaped_pid_is_a_typed_error(self):
        child = ProcessBuilder("/bin/true").spawn()
        os.waitpid(child.pid, 0)  # stolen from under the handle
        with pytest.raises(SpawnError, match="not our child"):
            child.wait(timeout=5)


class TestStrategyPlumbing:
    def test_resolve_absolute_path(self):
        assert _resolve_executable(["/bin/true"]) == "/bin/true"

    def test_resolve_searches_path(self):
        assert _resolve_executable(["true"]).endswith("/true")

    def test_resolve_missing_raises(self):
        with pytest.raises(SpawnError):
            _resolve_executable(["no-such-binary-qqq"])

    def test_resolve_empty_argv(self):
        with pytest.raises(SpawnError):
            _resolve_executable([])

    def test_default_picker_prefers_posix_spawn(self):
        assert pick_default_strategy(SpawnAttributes()).name == "posix_spawn"

    def test_default_picker_honours_cwd(self):
        attrs = SpawnAttributes(cwd="/tmp")
        assert pick_default_strategy(attrs).name == "fork_exec"

    def test_subprocess_strategy_roundtrip(self):
        child = ProcessBuilder(SH, "-c", "exit 4").strategy("subprocess").spawn()
        assert child.wait() == 4

    def test_subprocess_timed_wait_sleeps_in_the_reaper(self, monkeypatch):
        def no_polling(self, deadline):
            raise AssertionError("a timed wait polled")

        monkeypatch.setattr(ChildProcess, "_poll_until", no_polling)
        child = ProcessBuilder("/bin/sleep", "5").strategy("subprocess").spawn()
        started = time.monotonic()
        with pytest.raises(SpawnError, match="timeout"):
            child.wait(timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 2
        child.kill()
        assert child.wait(timeout=10) == -signal.SIGKILL

    def test_all_strategies_registered(self):
        assert set(strategies()) == {"posix_spawn", "fork_exec",
                                     "subprocess", "forkserver-pool",
                                     "forkserver", "gateway", "xproc"}

    def test_get_strategy_resolves(self):
        assert get_strategy("posix_spawn").name == "posix_spawn"

    def test_get_strategy_unknown_names_alternatives(self):
        with pytest.raises(SpawnError) as excinfo:
            get_strategy("nope")
        assert "posix_spawn" in str(excinfo.value)

    def test_register_strategy_decorator(self):
        @register_strategy("test-noop-strategy")
        class NoopStrategy(Strategy):
            def launch(self, argv, actions, attrs, trace=None):
                raise SpawnError("noop")
        try:
            assert NoopStrategy.name == "test-noop-strategy"
            assert "test-noop-strategy" in strategies()
            assert isinstance(get_strategy("test-noop-strategy"),
                              NoopStrategy)
        finally:
            _REGISTRY.pop("test-noop-strategy", None)

    def test_register_duplicate_name_rejected(self):
        with pytest.raises(SpawnError):
            @register_strategy("posix_spawn")
            class Impostor(Strategy):
                pass


class TestSpawnedIO:
    def test_reading_non_pipe_stream_raises(self):
        child = ProcessBuilder("/bin/true").spawn()
        child.wait()
        with pytest.raises(SpawnError):
            child.io.read_stdout()
        with pytest.raises(SpawnError):
            child.io.read_stderr()

    def test_writing_non_pipe_stdin_raises(self):
        child = ProcessBuilder("/bin/true").spawn()
        child.wait()
        with pytest.raises(SpawnError):
            child.io.write_stdin(b"x")

    def test_close_stdin_is_idempotent(self):
        builder = ProcessBuilder("/bin/cat").stdin_from_pipe()
        child = builder.spawn()
        builder.io.close_stdin()
        builder.io.close_stdin()
        child.wait(timeout=5)

    def test_read_respects_limit(self):
        builder = (ProcessBuilder("/bin/sh", "-c", "printf 'abcdefgh'")
                   .stdout_to_pipe())
        child = builder.spawn()
        data = builder.io.read_stdout(limit=4)
        assert data == b"abcd"
        builder.io.close()
        child.wait()
        builder = (ProcessBuilder("/bin/sh", "-c", "printf 'abcdefgh' >&2")
                   .stderr_to_pipe())
        child = builder.spawn()
        assert builder.io.read_stderr(limit=4) == b"abcd"
        builder.io.close()
        child.wait()

    def test_close_releases_everything(self):
        builder = (ProcessBuilder("/bin/cat")
                   .stdin_from_pipe().stdout_to_pipe())
        child = builder.spawn()
        builder.io.close()
        assert builder.io.stdin_fd is None
        assert builder.io.stdout_fd is None
        child.wait(timeout=5)

    def test_io_attached_to_child_handle(self):
        builder = ProcessBuilder("/bin/echo", "x").stdout_to_pipe()
        child = builder.spawn()
        assert child.io is builder.io
        assert child.io.read_stdout() == b"x\n"
        child.wait()
        child.io.close()

    def test_a_wired_builder_leaks_no_pipe_end_into_other_launches(self):
        """A builder wired but not yet launched holds its child's pipe
        end close-on-exec: a sleeper launched in between used to
        inherit the write end and hold the reader off EOF until it
        exited (2.0 s)."""
        builder = ProcessBuilder("/bin/echo", "hi").stdout_to_pipe()
        sleeper = ProcessBuilder("/bin/sleep", "2").spawn()
        try:
            child = builder.spawn()
            started = time.monotonic()
            assert builder.io.read_stdout() == b"hi\n"
            assert time.monotonic() - started < 0.5
            assert child.wait(timeout=5) == 0
        finally:
            builder.io.close()
            sleeper.kill()
            sleeper.wait(timeout=5)
