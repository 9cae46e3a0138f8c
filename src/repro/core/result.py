"""Child-process handles: wait, poll, signal, without global state.

A :class:`ChildProcess` wraps a pid the library created.  It reaps
exactly once (``waitpid`` results are cached), exposes the decoded exit
status, and distinguishes normal exit from signal death — the plumbing
every strategy shares.  :class:`CompletedChild` is the already-finished
counterpart that :func:`repro.core.run` returns.
"""

from __future__ import annotations

import os
import select
import signal
import time
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import SpawnError
from ..obs import NULL_TRACE


def encode_status(returncode: int) -> int:
    """Re-encode a returncode (``subprocess`` convention, also the
    gateway's wire form) as the raw waitpid status reapers speak."""
    if returncode < 0:
        return -returncode  # killed by signal N -> low 7 bits
    return returncode << 8


class ChildProcess:
    """A handle on one spawned child.

    ``reaper`` abstracts who calls ``waitpid``: children created by the
    forkserver are the *server's* children, so their statuses come back
    over the control channel instead of from the host kernel.  It is
    called as ``reaper(pid, flags, timeout)`` and returns the raw status
    or ``None``; a blocking call sleeps on the exit for at most
    ``timeout`` seconds (``None``: for as long as it takes), so a timed
    :meth:`wait` never has to poll it.  ``watch`` is how such a reaper
    lets :meth:`on_exit` hear of the exit: ``watch(pid, fn)`` calls
    ``fn()`` once, when the status is there to be reaped.

    Usable as a context manager: on ``with``-exit the handle closes its
    attached :class:`~repro.core.spawn.SpawnedIO` pipe ends (so a child
    reading a piped stdin sees EOF rather than blocking forever) and
    waits for the exit status — no leaked descriptors, no zombies::

        with ProcessBuilder("/bin/true").spawn() as child:
            pass
        assert child.returncode == 0
    """

    def __init__(self, pid: int, *, argv=(), strategy: str = "?",
                 reaper=None, watch=None, trace=None):
        self.pid = pid
        self.argv = tuple(argv)
        self.strategy = strategy
        self.io = None  # SpawnedIO, attached by ProcessBuilder.spawn
        self._reaper = reaper
        self._watch = watch
        self._on_exit = None  # fired by whoever reaps an unwatched child
        self._trace = trace if trace is not None else NULL_TRACE
        self._status: Optional[int] = None  # raw waitpid status, once known

    def attach_trace(self, trace) -> None:
        """Adopt a live :class:`~repro.obs.SpawnTrace` (no-op for null)."""
        if trace:
            self._trace = trace

    # -- status decoding -------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the child is known to have terminated."""
        return self._status is not None

    @property
    def returncode(self) -> Optional[int]:
        """Exit code, negative signal number, or ``None`` if running.

        Follows the ``subprocess`` convention: ``-N`` means "killed by
        signal N".
        """
        if self._status is None:
            return None
        if os.WIFSIGNALED(self._status):
            return -os.WTERMSIG(self._status)
        return os.WEXITSTATUS(self._status)

    # -- reaping ----------------------------------------------------------

    def _waitpid(self, flags: int, timeout: Optional[float] = None) -> bool:
        """One waitpid attempt; returns True if the child was reaped.

        ``timeout`` bounds a blocking attempt by the ``reaper``.
        """
        if self._reaper is not None:
            status = self._reaper(self.pid, flags, timeout)
            if status is None:
                return False
        else:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                raise SpawnError(
                    f"pid {self.pid} is not our child (already reaped?)")
            if pid == 0:
                return False
        self._status = status
        self._trace.reaped(self.returncode)
        callback, self._on_exit = self._on_exit, None
        if callback is not None:
            callback(self)
        return True

    def on_exit(self, callback) -> Optional[int]:
        """Call ``callback(self)`` exactly once, when the exit status is
        there to be had — right now, if it already is.

        The callback runs on whichever thread learns of the exit and
        must not block; :meth:`poll` inside it returns the status (or
        raises, if the helper died holding it).  Nothing parks a thread
        per child:

        * a forkserver-family handle is called from the thread routing
          the helper's pushed exit notice (or its death);
        * our own child has nobody to push for it.  The callback then
          fires from the :meth:`poll`/:meth:`wait` that reaps it, and
          the return value is a pidfd, readable once the child is a
          zombie: watch it on the loop you already run, and when it
          reads, ``poll()`` and close it.  The fd is the caller's.
        * a gateway child is the daemon's, and nothing here routes its
          exit unless some caller pumps that client: its ``watch``
          raises :class:`SpawnError` — ``poll()`` it instead.

        Returns ``None`` whenever no fd needs watching.  One callback
        per handle; a kernel without ``pidfd_open`` raises
        :class:`SpawnError` with the callback left registered for a
        ``poll()`` of the caller's own timing.
        """
        if self._status is not None:
            callback(self)
        elif self._watch is not None:
            self._watch(self.pid, lambda: callback(self))
        elif self._on_exit is not None:
            raise SpawnError(f"pid {self.pid} already has an on_exit "
                             f"callback")
        else:
            self._on_exit = callback
            if self.poll() is None:
                try:
                    return os.pidfd_open(self.pid)
                except (AttributeError, OSError) as exc:
                    raise SpawnError(f"no pidfd for pid {self.pid} "
                                     f"({exc}); poll() it instead")
        return None

    def poll(self) -> Optional[int]:
        """Non-blocking status check; returns the returncode or ``None``."""
        if self._status is None:
            self._waitpid(os.WNOHANG)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until the child exits; returns the returncode.

        With a ``timeout`` the wait still *sleeps* until the exit — in
        the reaper, or on a pidfd for our own children — and raises
        :class:`SpawnError` on expiry.  Only an own child with no pidfd
        to be had (no ``pidfd_open``) is polled, backing off from
        0.5 ms.
        """
        if self._status is not None:
            return self.returncode
        if timeout is None:
            self._waitpid(0)
            return self.returncode
        if self._reaper is not None:
            done = self._waitpid(0, timeout)
        elif self._sleep_on_pidfd(timeout):
            done = self._waitpid(os.WNOHANG)
        else:
            done = self._poll_until(time.monotonic() + timeout)
        if not done:
            raise SpawnError(f"timeout waiting for pid {self.pid}")
        return self.returncode

    def _sleep_on_pidfd(self, timeout: float) -> bool:
        """Sleep until our child is a zombie or ``timeout`` passes.

        ``False`` means no pidfd could be had (old kernel or Python, fd
        table full, pid already reaped) and the caller must poll.
        """
        try:
            fd = os.pidfd_open(self.pid)
        except (AttributeError, OSError):
            return False
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            poller.poll(timeout * 1000)
        finally:
            os.close(fd)
        return True

    def _poll_until(self, deadline: float) -> bool:
        """The fallback: WNOHANG polls, sleeping 0.5 ms and doubling."""
        delay = 0.0005
        while time.monotonic() < deadline:
            if self._waitpid(os.WNOHANG):
                return True
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return False

    # -- context management ------------------------------------------------

    def __enter__(self) -> "ChildProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.io is not None:
            self.io.close()
        if self._status is None:
            try:
                self.wait()
            except SpawnError:
                pass  # already reaped elsewhere; nothing left to release

    # -- signalling --------------------------------------------------------

    def send_signal(self, signum: int) -> None:
        """Send a signal; a no-op if the child already finished."""
        if self._status is not None:
            return
        os.kill(self.pid, signum)

    def terminate(self) -> None:
        """SIGTERM the child."""
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL the child."""
        self.send_signal(signal.SIGKILL)

    def __repr__(self):
        state = (f"rc={self.returncode}" if self.finished else "running")
        return (f"<ChildProcess pid={self.pid} via {self.strategy} {state}>")


class CompletedChild:
    """The outcome of :func:`repro.core.run`: one finished child.

    Carries everything the convenience wrapper knows — argv, decoded
    returncode, captured stdout, wall-clock duration — while still
    unpacking like the historical ``(returncode, stdout)`` tuple::

        code, out = run("/bin/echo", "hi")      # old shape, still fine
        result = run("/bin/echo", "hi")         # new shape
        result.check().stdout                   # raise unless exit 0
    """

    __slots__ = ("argv", "returncode", "stdout", "duration")

    def __init__(self, argv: Sequence[str], returncode: int,
                 stdout: bytes, duration: float):
        self.argv = tuple(argv)
        self.returncode = returncode
        self.stdout = stdout
        self.duration = duration

    def __iter__(self) -> Iterator:
        # Tuple-compatibility: `code, out = run(...)` keeps working.
        return iter((self.returncode, self.stdout))

    def as_tuple(self) -> Tuple[int, bytes]:
        return (self.returncode, self.stdout)

    def check(self) -> "CompletedChild":
        """Raise :class:`SpawnError` unless the child exited 0."""
        if self.returncode != 0:
            raise SpawnError(
                f"{' '.join(self.argv)!r} exited with {self.returncode}")
        return self

    def __repr__(self):
        return (f"<CompletedChild {' '.join(self.argv)!r} "
                f"rc={self.returncode} {len(self.stdout)}B "
                f"{self.duration * 1e3:.1f}ms>")
