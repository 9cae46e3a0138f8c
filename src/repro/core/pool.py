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
from .batch import BatchRequest
from .forkserver import SpawnRequest
from .result import ChildProcess
from .spawn import ProcessBuilder
from .strategies import ForkServerPoolStrategy, get_strategy

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
    """One spawned interpreter plus its request/response pipes.

    Built either the classic way (spawn our own child through a
    :class:`ProcessBuilder`) or around a pre-spawned child whose pipes
    the pool already owns — the batched boot path, where N workers
    arrive from a single :meth:`ForkServerPool.spawn_batch` wire op.
    """

    def __init__(self, strategy: Optional[str] = None, *,
                 child: Optional[ChildProcess] = None,
                 stdin_fd: Optional[int] = None,
                 stdout_fd: Optional[int] = None):
        if child is not None:
            self.child = child
            self.stdin_fd = stdin_fd
            self.stdout_fd = stdout_fd
        else:
            builder = (ProcessBuilder(sys.executable, "-c", _WORKER_SOURCE)
                       .stdin_from_pipe()
                       .stdout_to_pipe())
            if strategy is not None:
                builder.strategy(strategy)
            self.child = builder.spawn()
            self.stdin_fd = builder.io.stdin_fd
            self.stdout_fd = builder.io.stdout_fd
        self.busy = False

    def call(self, spec: str, args: tuple, kwargs: dict) -> Any:
        request = pickle.dumps((spec, args, kwargs))
        os.write(self.stdin_fd, _LEN.pack(len(request)) + request)
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
        self._workers[index] = _Worker(self._strategy)
        self._respawns += 1
        TELEMETRY.count("pool_retire", pool="spawnpool")

    def add_workers(self, count: int) -> List[int]:
        """Grow the pool by ``count`` workers; returns their pids.

        When the pool's strategy is ``"forkserver-pool"`` all ``count``
        interpreters (argv plus their stdio pipe grants) travel to a
        spawn-service helper in **one** batched wire frame via
        :meth:`ForkServerPool.spawn_batch` — one ``sendmsg``, one fork
        loop, one reply — instead of ``count`` round trips.  Any other
        strategy boots the workers one at a time, same as before.
        """
        self._require_open()
        if count < 1:
            return []
        workers = self._boot_batched(count)
        if workers is None:
            workers = [_Worker(self._strategy) for _ in range(count)]
        self._workers.extend(workers)
        return [w.child.pid for w in workers]

    def _boot_batched(self, count: int) -> Optional[List[_Worker]]:
        """Boot ``count`` workers through one batched wire op, or None
        when the configured strategy cannot batch."""
        if self._strategy is None:
            return None
        try:
            strategy = get_strategy(self._strategy)
        except SpawnError:
            return None
        if not isinstance(strategy, ForkServerPoolStrategy):
            return None
        argv = [sys.executable, "-c", _WORKER_SOURCE]
        # Per worker: a stdin pipe the pool writes and a stdout pipe the
        # pool reads; the child ends ride the batch frame as fd grants.
        pipes: List[tuple] = []  # (parent_w, child_r, parent_r, child_w)
        try:
            requests = []
            for _ in range(count):
                child_r, parent_w = os.pipe()
                parent_r, child_w = os.pipe()
                pipes.append((parent_w, child_r, parent_r, child_w))
                requests.append(SpawnRequest(
                    argv, stdin=child_r, stdout=child_w))
            children = strategy.pool().spawn_batch(BatchRequest(requests))
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
            workers.append(_Worker(
                child=child, stdin_fd=parent_w, stdout_fd=parent_r))
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
        TELEMETRY.count("spawnpool_tasks")
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
            batch = items[start:start + len(self._workers)]
            # Send the whole batch before reading any reply, so the
            # workers run concurrently.
            for offset, item in enumerate(batch):
                worker = self._workers[offset]
                request = pickle.dumps((spec, (item,), {}))
                os.write(worker.stdin_fd,
                         _LEN.pack(len(request)) + request)
                TELEMETRY.count("spawnpool_tasks")
            for offset in range(len(batch)):
                worker = self._workers[offset]
                header = worker._read_exact(_LEN.size)
                (length,) = _LEN.unpack(header)
                ok, payload = pickle.loads(worker._read_exact(length))
                if not ok:
                    TELEMETRY.count("spawnpool_task_failures")
                    raise SpawnError(f"worker task failed: "
                                     f"{payload.strip()}")
                results[start + offset] = payload
        return results

    def worker_pids(self) -> Sequence[int]:
        """The workers' pids (for tests and monitoring)."""
        return [w.child.pid for w in self._workers]
