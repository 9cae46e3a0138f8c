"""Tests for the forkserver (zygote) strategy."""

import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.core import (ForkServer, SpawnRequest, TemplateProfile,
                        TemplateServer)
from repro.core.result import ChildProcess
from repro.errors import ExecError, SpawnError


def read_all(fd: int) -> bytes:
    with open(fd, "rb") as stream:
        return stream.read()


def spawn_output(server, argv, **kwargs) -> bytes:
    """Spawn with stdout piped back; waits the child out."""
    r, w = os.pipe()
    try:
        child = server.spawn(argv, stdout=w, **kwargs)
    finally:
        os.close(w)
    data = read_all(r)
    child.wait(timeout=10)
    return data


@pytest.fixture
def server():
    fs = ForkServer().start()
    yield fs
    fs.stop()


class TestLifecycle:
    def test_start_is_idempotent(self, server):
        assert server.start() is server
        assert server.running

    def test_stop_then_spawn_raises(self):
        fs = ForkServer().start()
        fs.stop()
        with pytest.raises(SpawnError):
            fs.spawn(["/bin/true"])

    def test_context_manager(self):
        with ForkServer() as fs:
            assert fs.running
            assert fs.spawn(["/bin/true"]).wait(timeout=10) == 0
        assert not fs.running

    def test_spawn_before_start_raises(self):
        with pytest.raises(SpawnError):
            ForkServer().spawn(["/bin/true"])


class TestSpawning:
    def test_exit_status_roundtrip(self, server):
        child = server.spawn(["/bin/sh", "-c", "exit 23"])
        assert child.wait(timeout=10) == 23

    def test_stdout_redirect_via_fd_passing(self, server):
        r, w = os.pipe()
        child = server.spawn(["/bin/echo", "through the zygote"], stdout=w)
        os.close(w)
        data = os.read(r, 100)
        os.close(r)
        assert data == b"through the zygote\n"
        assert child.wait(timeout=10) == 0

    def test_stdin_redirect(self, server):
        r, w = os.pipe()
        child = server.spawn(["/usr/bin/wc", "-c"], stdin=r,
                             stdout=os.open(os.devnull, os.O_WRONLY))
        os.close(r)
        os.write(w, b"abcd")
        os.close(w)
        assert child.wait(timeout=10) == 0

    def test_env_override(self, server):
        r, w = os.pipe()
        child = server.spawn(["/bin/sh", "-c", "echo $TOKEN"],
                             env={"TOKEN": "zygote-env",
                                  "PATH": "/bin:/usr/bin"},
                             stdout=w)
        os.close(w)
        assert os.read(r, 100).strip() == b"zygote-env"
        os.close(r)
        child.wait(timeout=10)

    def test_cwd_override(self, server, tmp_path):
        r, w = os.pipe()
        child = server.spawn(["/bin/sh", "-c", "pwd"], cwd=str(tmp_path),
                             stdout=w)
        os.close(w)
        assert os.read(r, 200).strip() == str(tmp_path).encode()
        os.close(r)
        child.wait(timeout=10)

    def test_children_are_not_our_children(self, server):
        # The whole point: the server forked, not us — so the host
        # waitpid refuses, and reaping goes through the channel.
        child = server.spawn(["/bin/true"])
        with pytest.raises(ChildProcessError):
            os.waitpid(child.pid, os.WNOHANG)
        assert child.wait(timeout=10) == 0

    def test_poll_running_child(self, server):
        r, w = os.pipe()
        child = server.spawn(["/bin/cat"], stdin=r)
        os.close(r)
        assert child.poll() is None
        os.close(w)
        assert child.wait(timeout=10) == 0

    def test_many_sequential_spawns(self, server):
        for i in range(10):
            assert server.spawn(["/bin/true"]).wait(timeout=10) == 0

    def test_empty_argv_rejected(self, server):
        with pytest.raises(SpawnError):
            server.spawn([])


class TestLaunchPath:
    """The helper launches with posix_spawn alone, a ``cwd`` member's
    too: the observable child must not change.  (What a program it
    cannot execute raises is a cell of the exec-failure row in
    test_environment.py.)"""

    @pytest.fixture
    def bindir(self, tmp_path):
        script = tmp_path / "hello-from-request-path"
        script.write_text("#!/bin/sh\necho resolved in $PWD\n")
        script.chmod(0o755)
        return tmp_path

    def test_bare_name_resolves_on_the_requests_path(self, server, bindir):
        # What execvpe did: a replaced env's PATH is the one searched.
        out = spawn_output(server, ["hello-from-request-path"],
                           env={"PATH": str(bindir)})
        assert out.startswith(b"resolved in ")

    def test_bare_name_resolves_on_the_helpers_path_otherwise(self, server,
                                                              bindir):
        assert server.spawn(["true"]).wait(timeout=10) == 0
        # ...and a name only the *request's* PATH could find is missing.
        with pytest.raises(ExecError):
            server.spawn(["hello-from-request-path"])

    def test_cwd_with_a_bare_name_takes_the_fork_path(self, server, bindir):
        # The name no longer takes a fork path: it is looked up after the
        # helper's chdir, on the request's PATH, as execvpe did.
        out = spawn_output(server, ["hello-from-request-path"],
                           env={"PATH": str(bindir)}, cwd=str(bindir))
        assert out.strip() == b"resolved in " + str(bindir).encode()

    def test_a_relative_path_entry_is_looked_up_from_the_cwd(self, server,
                                                             bindir):
        out = spawn_output(server, ["hello-from-request-path"],
                           env={"PATH": "."}, cwd=str(bindir))
        assert out.strip() == b"resolved in " + str(bindir).encode()

    @pytest.mark.parametrize("kind", ["forkserver", "template"])
    def test_a_cwd_moves_the_child_and_never_the_helper(self, tmp_path,
                                                        kind):
        home = tmp_path / "home"
        home.mkdir()
        if kind == "template":
            srv = TemplateServer(TemplateProfile(
                "t", cwd=str(home), stock=0)).start()
        else:
            srv = ForkServer().start()
        try:
            before = os.readlink(f"/proc/{srv.helper_pid}/cwd")
            out = spawn_output(srv, ["/bin/pwd"], cwd=str(tmp_path))
            assert out.strip() == str(tmp_path).encode()
            with pytest.raises(ExecError):
                srv.spawn(["/bin/pwd"], cwd=str(tmp_path / "gone"))
            with pytest.raises(ExecError):
                srv.spawn(["/no/such/binary"], cwd=str(tmp_path))
            assert os.readlink(f"/proc/{srv.helper_pid}/cwd") == before
            if kind == "template":
                assert before == str(home)
            assert spawn_output(srv, ["/bin/pwd"]).strip() == before.encode()
        finally:
            srv.stop()

    def test_stdout_and_stderr_granted_from_the_same_fd(self, server):
        r, w = os.pipe()
        child = server.spawn(["/bin/sh", "-c", "echo out; echo err >&2"],
                             stdout=w, stderr=w)
        os.close(w)
        assert sorted(read_all(r).split()) == [b"err", b"out"]
        assert child.wait(timeout=10) == 0


class TestFdHygiene:
    """Children get the dup2'd 0-2 and nothing else: SCM_RIGHTS grants
    arrive close-on-exec, so no child inherits a sibling's stdio."""

    LIST_FDS = ["/bin/ls", "/proc/self/fd"]  # fd 3 is ls's own listing fd

    def test_single_spawn_sees_only_its_stdio(self, server):
        assert spawn_output(server, self.LIST_FDS).split() == [
            b"0", b"1", b"2", b"3"]

    def test_fork_path_sees_only_its_stdio_too(self, server, tmp_path):
        assert spawn_output(server, self.LIST_FDS,
                            cwd=str(tmp_path)).split() == [
            b"0", b"1", b"2", b"3"]

    def test_every_batch_member_sees_only_its_stdio(self, server):
        from repro.core import BatchRequest, SpawnRequest
        pipes = [os.pipe() for _ in range(3)]
        children = server.spawn_batch(BatchRequest([
            SpawnRequest(self.LIST_FDS, stdout=w) for _, w in pipes]))
        for _, w in pipes:
            os.close(w)
        for r, _ in pipes:
            assert read_all(r).split() == [b"0", b"1", b"2", b"3"]
        assert [c.wait(timeout=10) for c in children] == [0, 0, 0]

    def test_sibling_pipe_reaches_eof_while_the_other_member_runs(
            self, server):
        # Member 0 used to inherit member 1's stdout pipe across its
        # exec, holding it open for as long as member 0 lived.
        from repro.core import BatchRequest, SpawnRequest
        r, w = os.pipe()
        slow, quick = server.spawn_batch(BatchRequest([
            SpawnRequest(["/bin/sleep", "30"]),
            SpawnRequest(["/bin/echo", "done"], stdout=w)]))
        os.close(w)
        try:
            started = time.monotonic()
            assert read_all(r) == b"done\n"   # EOF, not just the bytes
            assert time.monotonic() - started < 5
            assert quick.wait(timeout=10) == 0
            assert slow.poll() is None
        finally:
            slow.kill()
            slow.wait(timeout=10)

    def test_only_a_spawn_takes_a_grant(self, server):
        # Any other op's grant is closed on arrival, known op or not:
        # the helper's own descriptor table must not grow by it.
        def helper_fds():
            return sorted(os.listdir(f"/proc/{server.helper_pid}/fd"))

        before = helper_fds()
        assert server._roundtrip({"op": "ping"}, fds=(0, 1, 2))["ok"]
        assert server._roundtrip({"op": "nope"},
                                 fds=(0, 1, 2))["error"] == "bad op"
        assert helper_fds() == before


class TestPushedExits:
    """wait() is an event wait on a pushed exit notice, poll() a lookup."""

    def test_tables_are_empty_after_spawns_and_waits(self, server):
        children = [server.spawn(["/bin/true"]) for _ in range(20)]
        assert len(server._channel.exits) == 20
        assert [c.wait(timeout=10) for c in children] == [0] * 20
        assert server._channel.exits == {}
        assert server._channel.waiting == 0
        assert server.in_flight == 0

    def test_poll_is_a_lookup_that_turns_true_unasked(self, server):
        child = server.spawn(["/bin/true"])
        deadline = time.monotonic() + 10
        while child.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert child.returncode == 0
        assert server._channel.exits == {}

    def test_in_flight_counts_a_blocked_waiter(self, server):
        child = server.spawn(["/bin/sleep", "30"])
        thread = threading.Thread(target=child.wait)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while server.in_flight != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            child.kill()
            thread.join(timeout=10)
        assert child.returncode == -signal.SIGKILL
        assert server.in_flight == 0

    def test_timed_wait_expires_without_polling_then_succeeds(self, server):
        child = server.spawn(["/bin/sleep", "30"])
        started = time.monotonic()
        with pytest.raises(SpawnError, match="timeout"):
            child.wait(timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 2
        assert server.in_flight == 0
        child.kill()
        assert child.wait(timeout=10) == -signal.SIGKILL

    def test_unknown_pid_is_echild_not_a_hang(self, server):
        stranger = ChildProcess(os.getpid(), reaper=server._reap)
        for wait in (stranger.wait, stranger.poll,
                     lambda: stranger.wait(timeout=5)):
            with pytest.raises(SpawnError, match="ECHILD"):
                wait()

    def test_second_reap_of_the_same_pid_is_echild(self, server):
        child = server.spawn(["/bin/true"])
        assert child.wait(timeout=10) == 0
        assert child.wait() == 0  # the handle caches...
        with pytest.raises(SpawnError, match="ECHILD"):
            server._reap(child.pid, 0)  # ...the server does not

    def test_two_waiters_on_one_child_both_get_the_status(self, server):
        child = server.spawn(["/bin/sleep", "0.2"])
        statuses = []
        threads = [threading.Thread(
            target=lambda: statuses.append(server._reap(child.pid, 0)))
            for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert statuses == [0, 0]
        assert server._channel.exits == {}

    def test_many_threads_racing_spawns_waits_and_polls(self, server):
        # More callers than cores, a 10 us switch interval: every exit
        # must reach exactly its own caller, by whichever of the three
        # reap paths it took, and leave no slot or waiter count behind.
        statuses = []
        lock = threading.Lock()

        def caller(index):
            for round_ in range(12):
                child = server.spawn(["/bin/sh", "-c",
                                      "exit %d" % (index + round_)])
                if round_ % 3 == 0:
                    got = child.wait()
                elif round_ % 3 == 1:
                    got = child.wait(timeout=30)
                else:
                    deadline = time.monotonic() + 30
                    while (got := child.poll()) is None:
                        assert time.monotonic() < deadline
                        time.sleep(0.0005)
                with lock:
                    statuses.append((index + round_, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(statuses) == 8 * 12
        assert all(want == got for want, got in statuses)
        assert server._channel.exits == {}
        assert server._channel.waiting == 0 and server.in_flight == 0


class TestPipelining:
    def test_pipelined_is_the_default(self, server):
        # Two requests in flight on the one socket at once: the second
        # spawn is answered while the first caller still waits.
        slow = server.spawn(["/bin/sleep", "30"])
        thread = threading.Thread(target=slow.wait)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while server.in_flight != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert server.spawn(["/bin/true"]).wait(timeout=10) == 0
            assert server.in_flight == 1
        finally:
            slow.kill()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_concurrent_spawns_from_many_threads(self, server):
        statuses = []
        lock = threading.Lock()

        def client():
            for _ in range(5):
                status = server.spawn(["/bin/true"]).wait(timeout=30)
                with lock:
                    statuses.append(status)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [0] * 40

    def test_blocking_waits_overlap(self, server):
        # Four children of 0.2s each, waited concurrently: the helper
        # parks the waits instead of serialising them, so the batch
        # finishes in ~one child runtime, not four.
        children = [server.spawn(["/bin/sleep", "0.2"]) for _ in range(4)]
        started = time.monotonic()
        assert all(child.wait() == 0 for child in children)
        assert time.monotonic() - started < 0.6

    def test_in_flight_drains(self, server):
        assert server.spawn(["/bin/true"]).wait(timeout=10) == 0
        assert server.in_flight == 0


class TestDeadHelper:
    def test_killed_helper_is_detected(self):
        fs = ForkServer().start()
        try:
            assert fs.healthy
            os.kill(fs.helper_pid, signal.SIGKILL)
            with pytest.raises(SpawnError):
                fs.spawn(["/bin/true"]).wait(timeout=10)
            assert not fs.healthy
        finally:
            fs.abort()
        assert not fs.running

    def test_killed_helper_wakes_parked_waiter(self):
        fs = ForkServer().start()
        child = fs.spawn(["/bin/sleep", "5"])
        outcome = {}

        def waiter():
            try:
                outcome["status"] = child.wait()
            except SpawnError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)  # let the wait get parked in the helper
        os.kill(fs.helper_pid, signal.SIGKILL)
        thread.join(timeout=10)
        assert not thread.is_alive(), "parked waiter stranded forever"
        assert "error" in outcome
        fs.abort()
        os.kill(child.pid, signal.SIGKILL)  # orphan cleanup

    # One arm, its id kept: the locked arm went with the locked path.
    @pytest.mark.parametrize("pipelined", [True])
    def test_killed_helper_wakes_every_waiter_blocking_or_timed(
            self, pipelined):
        fs = ForkServer().start()
        children = [fs.spawn(["/bin/sleep", "30"]) for _ in range(3)]
        errors = []

        def waiter(child, timeout):
            try:
                child.wait(timeout=timeout)
            except SpawnError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=waiter, args=(child, timeout))
                   for child, timeout in zip(children, (None, 60, None))]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        os.kill(fs.helper_pid, signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=10)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert len(errors) == 3
            assert not any("timeout" in error for error in errors)
            assert fs._channel.exits == {} and fs.in_flight == 0
        finally:
            fs.abort()
            for child in children:
                os.kill(child.pid, signal.SIGKILL)  # orphan cleanup


class TestDamagedReplies:
    """A helper that answers with a frame no reader should trust: the
    old receive loop believed any length prefix and sat waiting for up
    to 4 GiB of body, so a request without a deadline hung forever."""

    @staticmethod
    def fake_helper(damage):
        """A ForkServer whose "helper" is this test: it answers the
        first request with a spawn reply for pid 4242, the second with
        ``damage`` — and never hangs up."""
        from repro.core.forkserver import _pids_handed_out
        from repro.wire import Channel, FrameDecoder, encode_frame
        ours, theirs = socket.socketpair()
        fs = ForkServer()
        fs._channel = Channel(ours, "forkserver", lost=SpawnError,
                              pids_of=_pids_handed_out)

        def serve():
            decoder, seen = FrameDecoder(), 0
            while seen < 2:
                for frame in decoder.feed(theirs.recv(65536)):
                    seen += 1
                    theirs.sendall(
                        encode_frame({"id": frame["id"],
                                      "results": [{"pid": 4242}]})
                        if seen == 1 else damage)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return fs, theirs, thread

    @pytest.mark.parametrize("damage", [
        b"\xff\xff\xff\xff",         # a 4 GiB body that never comes
        b"\x00\x00\x00\x07[1,2,3]",  # well framed, not an object
    ], ids=["oversized-prefix", "non-object-body"])
    def test_channel_dies_typed_and_wakes_everyone(self, damage):
        fs, theirs, thread = self.fake_helper(damage)
        try:
            child = fs.spawn(["/bin/true"])
            fired = threading.Event()
            child.on_exit(lambda handle: fired.set())
            outcome = []

            def blocked_wait():
                try:
                    outcome.append(child.wait())
                except SpawnError as exc:
                    outcome.append(exc)

            waiter = threading.Thread(target=blocked_wait)
            waiter.start()
            started = time.monotonic()
            with pytest.raises(SpawnError):
                fs.spawn(["/bin/true"])  # no deadline: used to hang
            assert time.monotonic() - started < 5
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert isinstance(outcome[0], SpawnError)
            assert fired.wait(5)
            assert not fs.healthy and fs.in_flight == 0
            assert not fs.ping()
        finally:
            fs.abort()
            theirs.close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("damage", [
        b"\xff\xff\xff\xff",
        b"\x00\x00\x00\x07[1,2,3]",
    ], ids=["oversized-prefix", "non-object-body"])
    def test_a_spawn_waiting_by_callback_is_told_once_and_typed(
            self, damage):
        """The same damage under the steps form (what a caller that
        cannot block drives): the yielded wait is told exactly once,
        and resuming raises the typed loss instead of waiting."""
        fs, theirs, thread = self.fake_helper(damage)
        try:
            assert fs.spawn(["/bin/true"]).pid == 4242
            steps = fs._unit_steps([SpawnRequest(["/bin/true"])], None,
                                   None)
            wait = next(steps)  # the frame is out; nothing has waited
            told = []
            wait.notify(lambda: told.append("lost"))  # reader, or at once
            deadline = time.monotonic() + 5
            while not told and time.monotonic() < deadline:
                time.sleep(0.01)
            assert told == ["lost"]
            started = time.monotonic()
            with pytest.raises(SpawnError, match="died before replying"):
                next(steps)
            assert time.monotonic() - started < 1
            fs.abort()
            assert len(told) == 1  # the close that follows tells no one
            assert not fs.healthy and fs.in_flight == 0
        finally:
            fs.abort()
            theirs.close()
            thread.join(timeout=5)
