"""A process pool that never forks: ``multiprocessing.Pool``, spawned.

Python's ``multiprocessing`` defaults to fork on Linux — the single
biggest source of fork-with-threads incidents in the ecosystem, and the
reason the paper names fork's "convenience" a trap.  This pool
demonstrates the alternative end to end:

* workers are **spawned** (``posix_spawn`` of a fresh interpreter), so
  they inherit no locks, no threads, no open descriptors beyond their
  request/response pipes;
* tasks name an **importable function** (``module:qualname``), the same
  restriction multiprocessing's own spawn method imposes — what cannot
  be pickled through a fresh process was fork-dependent state all along;
* arguments and results travel as pickles over explicit pipes.

The public surface is deliberately small: :meth:`SpawnPool.submit`,
:meth:`SpawnPool.map`, context-manager lifetime.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..errors import SpawnError
from ..obs import TELEMETRY
from .attrs import SpawnAttributes
from .forkserver import SpawnRequest
from .result import ChildProcess
from .steps import run_steps
from .strategies import get_strategy, pick_default_strategy

_LEN = struct.Struct("!I")

#: Seconds a worker gets to see EOF on its stdin and exit at close();
#: one still inside a task by then is killed.
_CLOSE_GRACE = 10.0

#: The worker's whole program: read length-prefixed pickled requests on
#: stdin, import the named callable, reply with (ok, payload) pickles.
_WORKER_SOURCE = r"""
import importlib, pickle, struct, sys, traceback

LEN = struct.Struct("!I")
stdin = sys.stdin.buffer
stdout = sys.stdout.buffer

def read_exact(n):
    data = b""
    while len(data) < n:
        chunk = stdin.read(n - len(data))
        if not chunk:
            raise SystemExit(0)
        data += chunk
    return data

while True:
    header = stdin.read(LEN.size)
    if not header:
        break
    if len(header) < LEN.size:
        header += read_exact(LEN.size - len(header))
    (length,) = LEN.unpack(header)
    spec, args, kwargs = pickle.loads(read_exact(length))
    try:
        module_name, _, qualname = spec.partition(":")
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        reply = (True, target(*args, **kwargs))
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        reply = (False, "".join(traceback.format_exception_only(exc)))
    payload = pickle.dumps(reply)
    stdout.write(LEN.pack(len(payload)) + payload)
    stdout.flush()
"""


def callable_spec(func: Callable) -> str:
    """``module:qualname`` for an importable callable.

    Raises :class:`SpawnError` for lambdas, locals, and other objects a
    fresh interpreter could not re-import — the exact things that only
    ever "worked" because fork cloned them.
    """
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise SpawnError(
            f"{func!r} is not importable (lambda/local?); a spawned "
            f"worker cannot receive it")
    return f"{module}:{qualname}"


class _Worker:
    """One spawned interpreter plus the parent's ends of its
    request/response pipes (see :meth:`SpawnPool._boot`)."""

    def __init__(self, child: ChildProcess, stdin_fd: int, stdout_fd: int):
        self.child = child
        self.stdin_fd: Optional[int] = stdin_fd
        self.stdout_fd: Optional[int] = stdout_fd

    def call(self, spec: str, args: tuple, kwargs: dict) -> Any:
        self.send(spec, args, kwargs)
        return self.receive()

    def send(self, spec: str, args: tuple, kwargs: dict) -> None:
        """Hand the worker one call; :meth:`receive` has its result."""
        request = pickle.dumps((spec, args, kwargs))
        os.write(self.stdin_fd, _LEN.pack(len(request)) + request)
        TELEMETRY.count("spawnpool_tasks")

    def receive(self) -> Any:
        header = self._read_exact(_LEN.size)
        (length,) = _LEN.unpack(header)
        ok, payload = pickle.loads(self._read_exact(length))
        if not ok:
            TELEMETRY.count("spawnpool_task_failures")
            raise SpawnError(f"worker task failed: {payload.strip()}")
        return payload

    def _read_exact(self, n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = os.read(self.stdout_fd, n - len(data))
            if not chunk:
                # EOF arrives as the dying worker's fds close, before
                # it can be reaped: wait, or poll() calls it alive.
                status = self.child.wait(timeout=_CLOSE_GRACE)
                raise SpawnError(f"worker pid {self.child.pid} died "
                                 f"mid-reply (exit {status})")
            data += chunk
        return data

    def close(self) -> None:
        for fd in (self.stdin_fd, self.stdout_fd):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self.stdin_fd = self.stdout_fd = None
        try:
            self.child.wait(timeout=_CLOSE_GRACE)
        except SpawnError:
            self.child.kill()
            self.child.wait()


class SpawnPool:
    """A pool of spawned (never forked) Python workers.

    Usage::

        with SpawnPool(4) as pool:
            squares = pool.map(math.sqrt, [1, 4, 9])

    Scheduling is round-robin over idle workers; :meth:`map` dispatches
    one task batch per worker at a time.  The pool is synchronous by
    design (results return in order) — its purpose is the creation
    semantics, not a futures framework.
    """

    def __init__(self, workers: int = 2, *, strategy: Optional[str] = None):
        """``strategy`` names the launch strategy for the workers
        themselves (e.g. ``"forkserver-pool"`` to create them through
        the shared spawn service); default is the builder's policy.
        """
        if workers < 1:
            raise SpawnError("need at least one worker")
        self._strategy = strategy
        self._workers: List[_Worker] = []
        self._next = 0
        self._closed = False
        self._respawns = 0
        try:
            self.add_workers(workers)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def respawns(self) -> int:
        """Dead workers detected and replaced over the pool's lifetime."""
        return self._respawns

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()

    def __enter__(self) -> "SpawnPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise SpawnError("pool is closed")

    # -- work -------------------------------------------------------------

    def _respawn(self, index: int, dead: _Worker) -> None:
        """Replace a dead worker in place so the pool heals itself."""
        try:
            dead.close()
        except Exception:
            pass
        self._workers[index], = self._boot(1)
        self._respawns += 1
        TELEMETRY.count("pool_retire", pool="spawnpool")

    def add_workers(self, count: int) -> List[int]:
        """Grow the pool by ``count`` workers; returns their pids."""
        self._require_open()
        if count < 1:
            return []
        workers = self._boot(count)
        self._workers.extend(workers)
        return [w.child.pid for w in workers]

    def _boot(self, count: int) -> List[_Worker]:
        """Launch ``count`` workers as one unit of the pool's strategy
        (the default one when none was named): over a helper's wire all
        ``count`` interpreters, their stdio pipe grants included, travel
        in **one** ``spawn`` frame — one ``sendmsg``, one reply — and
        any other strategy launches them one by one, all or none."""
        strategy = (get_strategy(self._strategy) if self._strategy
                    else pick_default_strategy(SpawnAttributes()))
        argv = [sys.executable, "-c", _WORKER_SOURCE]
        # Per worker: a stdin pipe the pool writes and a stdout pipe the
        # pool reads; the child ends ride the unit as its stdio grant.
        pipes: List[tuple] = []  # (parent_w, child_r, parent_r, child_w)
        try:
            requests = []
            for _ in range(count):
                child_r, parent_w = os.pipe()
                parent_r, child_w = os.pipe()
                pipes.append((parent_w, child_r, parent_r, child_w))
                requests.append(SpawnRequest(
                    argv, stdin=child_r, stdout=child_w))
            children = run_steps(strategy._batch_steps(requests, None))
        except BaseException:
            for parent_w, child_r, parent_r, child_w in pipes:
                for fd in (parent_w, child_r, parent_r, child_w):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
            raise
        workers = []
        for (parent_w, child_r, parent_r, child_w), child in zip(
                pipes, children):
            os.close(child_r)
            os.close(child_w)
            workers.append(_Worker(child, parent_w, parent_r))
        return workers

    def submit(self, func: Callable, *args, **kwargs) -> Any:
        """Run one call on the next worker; returns its result.

        A worker that died (killed, crashed) is replaced, so the pool
        heals, and the error still raised: whether the task is safe to
        run twice is the caller's to know.  A *task* failure from a live
        worker — the function raised — is the caller's bug and
        propagates as it is.
        """
        self._require_open()
        spec = callable_spec(func)
        index = self._next % len(self._workers)
        worker = self._workers[index]
        self._next += 1
        try:
            return worker.call(spec, args, kwargs)
        except SpawnError:
            if worker.child.poll() is not None:
                self._respawn(index, worker)
            raise

    def map(self, func: Callable, items: Iterable[Any]) -> List[Any]:
        """``[func(item) for item in items]`` across the workers.

        Items are dealt round-robin in batches of pool size; results
        come back in input order.
        """
        self._require_open()
        spec = callable_spec(func)
        items = list(items)
        results: List[Any] = [None] * len(items)
        for start in range(0, len(items), len(self._workers)):
            chunk = items[start:start + len(self._workers)]
            # Send the whole chunk before reading any reply, so the
            # workers run concurrently.
            for worker, item in zip(self._workers, chunk):
                worker.send(spec, (item,), {})
            for offset in range(len(chunk)):
                results[start + offset] = self._workers[offset].receive()
        return results

    def worker_pids(self) -> Sequence[int]:
        """The workers' pids (for tests and monitoring)."""
        return [w.child.pid for w in self._workers]
