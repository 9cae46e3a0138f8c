"""The high-level spawn API: what programs should call instead of fork.

:class:`ProcessBuilder` is the library's front door — a fluent builder
over argv, environment, stdio wiring, file actions and attributes that
launches through any registered strategy (``posix_spawn`` by default,
per the paper's recommendation) and returns a
:class:`~repro.core.result.ChildProcess`.

    >>> from repro.core import ProcessBuilder
    >>> child = (ProcessBuilder("/bin/echo", "hello")
    ...          .stdout_to_devnull()
    ...          .spawn())
    >>> child.wait()
    0

The builder owns the descriptors it creates (pipes, opened files) and
closes the parent-side leftovers after launch — including on the error
path, when the strategy refuses the request — so neither the
EOF-forever pipe bug nor a descriptor leak can be written through this
API.

When :data:`repro.obs.TELEMETRY` is enabled, every spawn carries a
:class:`~repro.obs.SpawnTrace`: ``build`` is stamped at builder
construction, ``dispatch`` when a strategy takes the request, the
strategy stamps what its syscall can see, and the eventual
``wait``/``poll`` closes the timeline with ``reaped``.
"""

from __future__ import annotations

import contextlib
import os
import select
import time
from typing import Callable, Dict, FrozenSet, List, Optional

from ..errors import (CannotExpress, ExecError, GatewayConnectionLost,
                      GatewayError, SpawnError, SpawnTimeout)
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from .attrs import SpawnAttributes, check_argv
from .batch import BatchRequest, BatchResult, batch_unit
from .file_actions import FileActions
from .policy import SpawnPolicy, breaker_for
from .result import ChildProcess, CompletedChild
from .steps import Steps, run_steps
from .strategies import (Strategy, cannot, get_strategy, member_request,
                         needs, pick_default_strategy)


class SpawnedIO:
    """Parent-side endpoints of a spawned child's piped stdio.

    A context manager: ``with builder.io:`` guarantees the parent-side
    pipe ends are closed on the way out, whatever the block did.
    """

    def __init__(self, stdin_fd: Optional[int], stdout_fd: Optional[int],
                 stderr_fd: Optional[int]):
        self.stdin_fd = stdin_fd
        self.stdout_fd = stdout_fd
        self.stderr_fd = stderr_fd

    def write_stdin(self, data: bytes) -> int:
        """Write to the child's stdin pipe."""
        if self.stdin_fd is None:
            raise SpawnError("child stdin is not a pipe")
        return os.write(self.stdin_fd, data)

    def close_stdin(self) -> None:
        """Close the stdin pipe (the child sees EOF)."""
        if self.stdin_fd is not None:
            os.close(self.stdin_fd)
            self.stdin_fd = None

    def read_stdout(self, limit: int = 1 << 20) -> bytes:
        """Drain the child's stdout pipe to EOF (up to ``limit``)."""
        return self._drain(self.stdout_fd, limit)

    def read_stderr(self, limit: int = 1 << 20) -> bytes:
        """Drain the child's stderr pipe to EOF (up to ``limit``)."""
        return self._drain(self.stderr_fd, limit)

    @staticmethod
    def _drain(fd: Optional[int], limit: Optional[int],
               deadline: Optional[float] = None) -> Optional[bytes]:
        """Up to ``limit`` bytes (``None``: no cap), read to EOF — or
        ``None`` once the ``time.monotonic()`` instant ``deadline``
        passes first."""
        if fd is None:
            raise SpawnError("that stream is not a pipe")
        chunks: List[bytes] = []
        remaining = limit
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while remaining is None or remaining > 0:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and (left <= 0 or not poller.poll(left * 1e3)):
                return None
            chunk = os.read(fd, 65536 if remaining is None
                            else min(65536, remaining))
            if not chunk:
                break
            chunks.append(chunk)
            if remaining is not None:
                remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Close every remaining parent-side endpoint."""
        for attr in ("stdin_fd", "stdout_fd", "stderr_fd"):
            fd = getattr(self, attr)
            if fd is not None:
                os.close(fd)
                setattr(self, attr, None)

    def __enter__(self) -> "SpawnedIO":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessBuilder:
    """Fluent construction of one child process.

    All mutators return ``self``; :meth:`spawn` performs the launch.  A
    builder is single-shot: the descriptors it opens belong to the one
    child it spawns.
    """

    def __init__(self, *argv: str):
        if not argv:
            raise SpawnError("ProcessBuilder needs an argv")
        self._argv: List[str] = [os.fspath(a) for a in argv]
        self._attrs = SpawnAttributes()
        self._actions = FileActions()
        self._strategy: Optional[Strategy] = None
        self._policy: Optional[SpawnPolicy] = None
        # (child_fd, parent_fd) pairs to close after launch / hand back.
        self._child_side_fds: List[int] = []
        self._io = SpawnedIO(None, None, None)
        self._spawned = False
        self._created_ns = TELEMETRY.now_ns()  # None while telemetry is off

    # -- argv and environment ---------------------------------------------

    def arg(self, *more: str) -> "ProcessBuilder":
        """Append arguments."""
        self._argv.extend(os.fspath(a) for a in more)
        return self

    def env(self, mapping: Dict[str, str]) -> "ProcessBuilder":
        """Replace the child's environment."""
        self._attrs.env = dict(mapping)
        return self

    def env_add(self, **vars: str) -> "ProcessBuilder":
        """Extend the (inherited or replaced) environment."""
        base = self._attrs.effective_env()
        base.update(vars)
        self._attrs.env = base
        return self

    def cwd(self, path: str) -> "ProcessBuilder":
        """Set the child's working directory."""
        self._attrs.cwd = os.fspath(path)
        return self

    def new_process_group(self) -> "ProcessBuilder":
        """Give the child its own process group (job control)."""
        self._attrs.new_process_group = True
        return self

    def reset_signals(self) -> "ProcessBuilder":
        """Default every signal disposition in the child."""
        self._attrs.reset_signals = True
        return self

    # -- stdio wiring ----------------------------------------------------

    def _pipe_for(self, child_fd: int, child_gets: str) -> int:
        FAULTS.fire("builder.pipe", child_fd=child_fd)
        read_fd, write_fd = os.pipe()
        if child_gets == "read":
            child_side, parent_side = read_fd, write_fd
        else:
            child_side, parent_side = write_fd, read_fd
        # Both ends stay close-on-exec, so no other launch inherits
        # them; the dup2 onto ``child_fd`` is what this child gets.
        self._actions.add_dup2(child_side, child_fd)
        self._child_side_fds.append(child_side)
        return parent_side

    def stdin_from_pipe(self) -> "ProcessBuilder":
        """Give the child a piped stdin; write via the returned IO."""
        self._io.stdin_fd = self._pipe_for(0, "read")
        return self

    def stdout_to_pipe(self) -> "ProcessBuilder":
        """Capture the child's stdout through a pipe."""
        self._io.stdout_fd = self._pipe_for(1, "write")
        return self

    def stderr_to_pipe(self) -> "ProcessBuilder":
        """Capture the child's stderr through a pipe."""
        self._io.stderr_fd = self._pipe_for(2, "write")
        return self

    def stdin_from_file(self, path: str) -> "ProcessBuilder":
        """Child stdin reads from ``path``."""
        self._actions.add_open(0, path, os.O_RDONLY)
        return self

    def stdout_to_file(self, path: str, append: bool = False) -> "ProcessBuilder":
        """Child stdout writes to ``path`` (created if needed)."""
        flags = os.O_WRONLY | os.O_CREAT | (os.O_APPEND if append
                                            else os.O_TRUNC)
        self._actions.add_open(1, path, flags)
        return self

    def stderr_to_file(self, path: str, append: bool = False) -> "ProcessBuilder":
        """Child stderr writes to ``path``."""
        flags = os.O_WRONLY | os.O_CREAT | (os.O_APPEND if append
                                            else os.O_TRUNC)
        self._actions.add_open(2, path, flags)
        return self

    def stdout_to_devnull(self) -> "ProcessBuilder":
        """Discard the child's stdout."""
        self._actions.add_open(1, os.devnull, os.O_WRONLY)
        return self

    def stderr_to_stdout(self) -> "ProcessBuilder":
        """Merge the child's stderr into its stdout."""
        self._actions.add_dup2(1, 2)
        return self

    def stdout_to_fd(self, fd: int) -> "ProcessBuilder":
        """Child stdout writes to an existing descriptor (pipelines)."""
        self._actions.add_dup2(fd, 1)
        return self

    def stdin_from_fd(self, fd: int) -> "ProcessBuilder":
        """Child stdin reads from an existing descriptor (pipelines)."""
        self._actions.add_dup2(fd, 0)
        return self

    def stderr_to_fd(self, fd: int) -> "ProcessBuilder":
        """Child stderr writes to an existing descriptor.

        Completes the fd-wiring triple with :meth:`stdin_from_fd` and
        :meth:`stdout_to_fd` — the shape the gateway daemon needs to
        replay a client's SCM_RIGHTS stdio grant onto a local spawn.
        """
        self._actions.add_dup2(fd, 2)
        return self

    def close_fd(self, fd: int) -> "ProcessBuilder":
        """Explicitly close a descriptor in the child."""
        self._actions.add_close(fd)
        return self

    # -- launch --------------------------------------------------------------

    def strategy(self, name: str) -> "ProcessBuilder":
        """Force a launch strategy by name (see
        :func:`repro.core.strategies.strategies`)."""
        self._strategy = get_strategy(name)
        return self

    def policy(self, policy: SpawnPolicy) -> "ProcessBuilder":
        """Launch under a :class:`SpawnPolicy`: deadline, retries with
        backoff, circuit breakers, and the fallback strategy chain."""
        self._policy = policy
        return self

    def deadline(self, seconds: float) -> "ProcessBuilder":
        """Bound one spawn attempt to ``seconds`` (forkserver paths)."""
        self._attrs.deadline = float(seconds)
        return self

    def close(self) -> None:
        """Release every descriptor this builder created without
        spawning — the escape hatch for a builder that was wired up
        (pipes opened) and then abandoned."""
        for fd in self._child_side_fds:
            try:
                os.close(fd)
            except OSError:
                pass
        self._child_side_fds = []
        self._io.close()

    def spawn(self) -> ChildProcess:
        """Launch the child; parent-side pipe ends stay on :attr:`io`.

        On a failed launch the builder closes *all* the descriptors it
        created — the child-side pipe ends it always owned and the
        parent-side ends that would otherwise have been handed back on
        :attr:`io` — so a refused spawn leaks nothing.  With a
        :meth:`policy` attached, "failed" means the whole executor
        failed: every retry, every fallback tier; descriptors stay open
        across attempts because a retried launch still needs them.
        """
        return run_steps(self._spawn_steps())

    def _spawn_steps(self) -> "Steps[ChildProcess]":
        """:meth:`spawn` as resumable steps (:mod:`repro.core.steps`):
        the same launch, ladder and clean-up, yielding wherever the
        strategy's own steps (or a back-off) would block."""
        if self._spawned:
            raise SpawnError("this builder already spawned its child")
        self._spawned = True
        strategy = self._strategy or pick_default_strategy(self._attrs)
        if (self._policy is not None and self._attrs.deadline is None
                and self._policy.deadline is not None):
            self._attrs.deadline = self._policy.deadline
        trace = TELEMETRY.trace(strategy.name, self._argv,
                                start_ns=self._created_ns)
        trace.stage("dispatch")
        try:
            # A request no tier could take is the caller's mistake: it is
            # refused here, once, and charges no tier's breaker.
            check_argv(self._argv)
            self._attrs.validate()
            FAULTS.fire("builder.spawn", argv=list(self._argv),
                        strategy=strategy.name)
            def launch(tier: Strategy) -> "Steps[ChildProcess]":
                return tier._launch_steps(self._argv, self._actions,
                                          self._attrs, trace=trace)
            if self._policy is None:
                child = yield from launch(strategy)
            else:
                child = yield from _ladder_steps(
                    _chain(strategy.name, self._policy), self._policy,
                    trace, launch, repr(self._argv),
                    needs(self._actions, self._attrs))
        except BaseException as error:
            trace.failure(error)
            self._io.close()
            raise
        finally:
            for fd in self._child_side_fds:
                os.close(fd)
            self._child_side_fds = []
        trace.success(child.pid)
        child.io = self._io
        child.attach_trace(trace)
        return child

    @property
    def io(self) -> SpawnedIO:
        """Parent-side pipe endpoints (also attached to the child handle)."""
        return self._io

    def __repr__(self):
        return f"<ProcessBuilder {' '.join(self._argv)!r}>"


def run(*argv: str, timeout: Optional[float] = None,
        strategy: Optional[str] = None,
        policy: Optional[SpawnPolicy] = None) -> CompletedChild:
    """Convenience: spawn, capture stdout, wait.

    Returns a :class:`~repro.core.result.CompletedChild` — which still
    unpacks as the historical ``(returncode, stdout_bytes)`` pair.
    ``strategy`` forces a launcher; ``policy`` runs the spawn under a
    :class:`SpawnPolicy` (retries, deadline, fallback chain).
    stdout is read to EOF, however long, as ``subprocess.run`` reads it.
    ``timeout`` bounds the whole run, that read included: on expiry the
    child is killed and reaped, the pipe closed, and
    :class:`~repro.errors.SpawnTimeout` raised, as ``subprocess.run``
    does.
    """
    started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    builder = ProcessBuilder(*argv).stdout_to_pipe()
    if strategy is not None:
        builder.strategy(strategy)
    if policy is not None:
        builder.policy(policy)
    child = builder.spawn()
    with builder.io:
        output = builder.io._drain(builder.io.stdout_fd, None, deadline)
        with contextlib.suppress(SpawnError):  # a timed-out wait
            if output is not None:
                child.wait(timeout=None if deadline is None
                           else max(0.0, deadline - time.monotonic()))
        if not child.finished:
            child.kill()
            child.wait()
            raise SpawnTimeout(f"{' '.join(argv)!r} outlived its "
                               f"timeout of {timeout}s")
    return CompletedChild(argv=child.argv, returncode=child.returncode,
                          stdout=output,
                          duration=time.monotonic() - started)


def _chain(head: str, policy: SpawnPolicy) -> List[str]:
    """The ladder's tier names: ``head``, then the policy's fallbacks."""
    return [head] + [name for name in policy.fallback if name != head]


def _refuse_inexpressible(chain: List[str], need: FrozenSet[str],
                          what: str) -> None:
    """Refuse, naming each tier and what it lacks, a request no tier of
    ``chain`` can express: the caller's mistake, charged to no tier."""
    lacking = []
    for name in chain:
        missing = get_strategy(name).lacks(need)
        if not missing:
            return
        lacking.append(cannot(name, missing))
    raise CannotExpress(f"no tier of {chain!r} can express {what}: "
                        f"{'; '.join(lacking)}")


def _unit_needs(members) -> FrozenSet[str]:
    """What a batch unit asks of a tier: what its members, as the
    requests a per-member tier launches, need between them."""
    need = frozenset()
    for member in members:
        need |= needs(*member_request(member, None))
    return need


def _ladder_steps(chain: List[str], pol: SpawnPolicy, trace,
                  launch: Callable[[Strategy], Steps], what: str,
                  need: FrozenSet[str]) -> Steps:
    """The resilience executor: retries, breakers, degradation — the
    one walker, for any unit of work (a builder's child, a batch, a
    template's degraded lease), as resumable steps.

    Walks ``chain`` (strategy names, the chosen one first);
    ``launch(strategy)`` is the steps that put the unit on one tier and
    return what it made.  A tier not ``available()`` or unable to express
    ``need`` is passed over (no attempt, back-off or breaker verdict), and
    so is a tier whose launch refuses the unit as
    :class:`~repro.errors.CannotExpress` (a gateway daemon whose tenant's
    ladder is narrower than the ``gateway`` declaration); each other
    gets up to ``pol.attempts()`` tries with exponential backoff and
    jitter, guarded by that tier's shared circuit breaker; a tier whose
    breaker is open is skipped outright.
    Moving down the chain stamps a ``fallback`` trace stage and
    counter, so the degradation is visible in ``repro-bench metrics``,
    not silent.

    An :class:`~repro.errors.ExecError` is re-raised at once, with no
    verdict, retry or fallback: every tier would exec the same file.

    Spawns are only re-issued when it is safe: an ambiguous gateway
    loss (the frame was fully sent, no reply ever came, so the daemon
    may have already spawned the child) is re-raised — stamped
    ``ambiguous_loss`` — instead of retried or degraded, unless the
    policy's ``retry_ambiguous`` explicitly opts the workload in.
    """
    _refuse_inexpressible(chain, need, what)
    last_error: Optional[BaseException] = None
    for index, name in enumerate(chain):
        strategy = get_strategy(name)
        if not strategy.available() or strategy.lacks(need):
            continue
        if index:
            TELEMETRY.count("fallback", strategy=name)
            trace.stage("fallback", strategy=name)
        breaker = breaker_for(name, pol)
        if not breaker.allow():
            last_error = last_error or SpawnError(
                f"circuit breaker open for strategy {name!r}")
            continue
        for attempt in range(pol.attempts()):
            if attempt:
                TELEMETRY.count("spawn_retry", strategy=name)
                trace.stage("retry", attempt=attempt, strategy=name)
                delay = pol.backoff_delay(attempt - 1)
                if delay:
                    yield
                    time.sleep(delay)
                if not breaker.allow():
                    break
            try:
                made = yield from launch(strategy)
            except ExecError:
                breaker.abandon()  # the request's failure, not the tier's
                raise
            except CannotExpress as exc:
                breaker.abandon()  # passed over: this tier cannot take it
                last_error = exc
                break
            except (SpawnError, GatewayError, OSError) as exc:
                if (isinstance(exc, GatewayConnectionLost)
                        and not getattr(exc, "unsent", False)
                        and not pol.retry_ambiguous):
                    # The spawn frame reached the daemon and the
                    # channel died before any reply: the child may
                    # already be running, so a retry (or a fallback
                    # tier) could execute the command twice.  Only
                    # the caller knows whether that is safe —
                    # surface the ambiguity unless the policy's
                    # retry_ambiguous opted in.
                    breaker.record_failure()
                    TELEMETRY.count("ambiguous_loss", strategy=name)
                    trace.stage("ambiguous_loss", strategy=name)
                    raise
                last_error = exc
                if breaker.record_failure():
                    TELEMETRY.count("breaker_open", strategy=name)
                    trace.stage("breaker_open", strategy=name)
                    break  # this tier is sick; degrade
                continue
            except BaseException:
                breaker.abandon()  # closed mid-launch: no verdict
                raise
            breaker.record_success()
            return made
    raise SpawnError(
        f"every strategy in {chain!r} failed to spawn {what}: "
        f"{last_error}") from last_error


def spawn_batch(requests: BatchRequest, *,
                policy: Optional[SpawnPolicy] = None,
                deadline: Optional[float] = None) -> BatchResult:
    """Batched spawn through the full degradation ladder.

    ``requests`` is a :class:`~repro.core.batch.BatchRequest` — the one
    batch shape every tier (and the gateway wire protocol) shares;
    ``policy``/``deadline`` override its terms for this call.

    The batch goes to the shared forkserver *pool* first (one wire
    frame); when that tier is exhausted or its breaker is open, it
    degrades down ``policy.fallback`` — ``"forkserver"`` keeps the
    single-frame wire amortisation on one dedicated helper, every other
    tier launches the members one by one, all or none.  It is the walker
    :class:`ProcessBuilder` spawns under — the same attempts and
    back-off per tier, the same shared breakers, the same
    ``fallback``/``spawn_retry``/``breaker_open`` counters — so the
    resilience ladder holds for batches exactly as it does for single
    spawns.

    The contract is all-or-nothing at every tier: the caller gets all N
    children (a :class:`~repro.core.batch.BatchResult` naming the tier
    that served them) or an exception — members are never silently
    dropped.  A batch no tier could take (not a ``BatchRequest``,
    empty, too many members for one fd grant, a member no exec could
    take, a unit no tier of the chain can express) is refused before
    the first tier is tried and charges no breaker.
    """
    return run_steps(_spawn_batch_steps(batch_unit(
        "repro.core.spawn_batch", requests, policy=policy,
        deadline=deadline)))


def _spawn_batch_steps(unit: BatchRequest,
                       strategy: str = "forkserver-pool"
                       ) -> "Steps[BatchResult]":
    """:func:`spawn_batch` as resumable steps (:mod:`repro.core.steps`)
    for a ``unit`` that has passed its front door
    (:func:`~repro.core.batch.batch_unit`), the ladder headed by
    ``strategy`` (a gateway tenant's own)."""
    policy = unit.policy if unit.policy is not None else SpawnPolicy()
    deadline = (unit.deadline if unit.deadline is not None
                else policy.deadline)
    children = yield from _ladder_steps(
        _chain(strategy, policy), policy, NULL_TRACE,
        lambda tier: tier._batch_steps(unit.members, deadline),
        f"a batch of {len(unit)}", _unit_needs(unit.members))
    return BatchResult(children, strategy=children[0].strategy)
