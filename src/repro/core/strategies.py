"""Launch strategies: the same spawn request through different syscalls.

Every strategy takes the same ``(argv, FileActions, SpawnAttributes)``
triple and produces a running child — which is what lets the benchmarks
compare mechanisms instead of APIs:

* :class:`PosixSpawnStrategy` — ``os.posix_spawn``, the paper's
  recommended default.  glibc implements it with ``CLONE_VM|CLONE_VFORK``
  under the hood, so its cost does not grow with the parent.
* :class:`ForkExecStrategy` — literal ``os.fork`` + apply actions +
  ``os.execv``: the traditional pair whose cost the paper's Figure 1
  charges against parent size.
* :class:`SubprocessStrategy` — the stdlib's ``posix_spawn``/
  ``vfork``-based runner, as the "what you get today" reference point.
* :class:`ForkServerPoolStrategy` — the zygote pattern as a service: a
  shared :class:`~repro.core.forkserver_pool.ForkServerPool` of
  pipelined helpers, started lazily on first use.

A strategy launches an ``argv``.  Workload profiles — preloads, parked
children, ``code`` payloads — are an API, not a strategy:
:class:`~repro.core.templates.TemplateRegistry`.

Strategies register themselves with the :func:`register_strategy`
class decorator; :func:`strategies` lists the known names and
:func:`get_strategy` resolves one (raising :class:`SpawnError` that
names the alternatives on a typo).

Every strategy takes a whole batch as one unit of work through
``_batch_steps`` beside its ``_launch_steps``: the two forkserver
strategies as one wire frame, every other one as an all-or-nothing loop
over its own ``launch``.  So the ladder :func:`repro.core.spawn_batch`
walks enters whatever tier the policy names.

Strategies raise :class:`~repro.errors.SpawnError` for requests they
cannot express (e.g. plain posix_spawn has no ``cwd`` attribute) instead
of silently approximating.

Every ``launch`` accepts an optional :class:`~repro.obs.SpawnTrace` and
stamps the lifecycle stage its syscall can actually observe:
``posix_spawn`` and ``subprocess`` stamp ``execed`` (their launch call
subsumes exec), ``fork_exec`` stamps ``forked`` (the parent never sees
the exec), and the forkserver pool defers to the wire protocol's
``framed``/``forked`` stages.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import threading
from typing import Dict, List, Optional, Sequence

from ..errors import SpawnError
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from .attrs import SpawnAttributes
from .file_actions import FileActions
from .forkserver import ForkServer, SpawnRequest
from .forkserver_pool import ForkServerPool
from .result import ChildProcess, encode_status
from .steps import Steps, run_steps


def _resolve_executable(argv: Sequence[str], env=None) -> str:
    """The path to exec for ``argv[0]``.

    A bare name is looked up the way ``subprocess`` and the forkserver
    helper look it up: on the ``PATH`` of the child's environment
    ``env`` (the caller's when ``None``), skipping directories.
    """
    if not argv:
        raise SpawnError("empty argv")
    exe = os.fspath(argv[0])
    if os.sep in exe:
        return exe
    for directory in os.get_exec_path(env):
        candidate = os.path.join(directory or ".", exe)
        if os.access(candidate, os.X_OK) and not os.path.isdir(candidate):
            return candidate
    raise SpawnError(f"executable not found on PATH: {exe!r}")


class Strategy:
    """Interface: launch ``argv`` with the given actions and attributes."""

    name = "abstract"

    def launch(self, argv: Sequence[str], actions: FileActions,
               attrs: SpawnAttributes, trace=NULL_TRACE) -> ChildProcess:
        raise NotImplementedError

    def _launch_steps(self, argv: Sequence[str], actions: FileActions,
                      attrs: SpawnAttributes, trace=NULL_TRACE
                      ) -> "Steps[ChildProcess]":
        """:meth:`launch` as resumable steps (:mod:`repro.core.steps`).
        A launcher that waits on a helper's wire overrides this and
        makes ``launch`` its :func:`~repro.core.steps.run_steps`; the rest
        get this form, which yields once and launches."""
        yield
        return self.launch(argv, actions, attrs, trace=trace)

    def _batch_steps(self, reqs: Sequence[SpawnRequest],
                     deadline: Optional[float]
                     ) -> "Steps[List[ChildProcess]]":
        """A unit's :class:`~repro.core.forkserver.SpawnRequest` members
        launched all-or-nothing, as resumable steps returning the
        children in request order: here each member through
        :meth:`launch`.  Degradation trades the wire's amortisation for
        availability, never members — a member ``launch`` refuses
        (``cwd`` has no posix_spawn attribute) fails the unit loudly,
        and what already ran is reversed."""
        yield  # step-less launches: resume where a thread may block
        children: List[ChildProcess] = []
        try:
            for req in reqs:
                actions = FileActions()
                for target, fd in enumerate(req.grant()):
                    if fd != target:
                        actions.add_dup2(fd, target)
                trace = TELEMETRY.trace(self.name, req.argv)
                attrs = SpawnAttributes(env=req.env, cwd=req.cwd,
                                        deadline=deadline)
                children.append(self.launch(req.argv, actions, attrs,
                                            trace=trace))
                trace.success(children[-1].pid)
        except BaseException:
            for child in children:
                try:
                    child.kill()
                    child.wait(timeout=5)
                except Exception:
                    pass
            raise
        return children

    def available(self) -> bool:
        """Whether this strategy can work on the host."""
        return True

    def _fire_launch(self, argv: Sequence[str]) -> None:
        """The ``strategy.launch`` injection point, labelled by name.

        Chaos plans target one launcher with ``strategy="..."`` — the
        policy executor's fallback chain is proven by breaking exactly
        one tier and watching the next one catch the request.
        """
        FAULTS.fire("strategy.launch", strategy=self.name,
                    argv=[os.fspath(a) for a in argv])


#: The registry behind :func:`strategies` / :func:`get_strategy`.
_REGISTRY: Dict[str, Strategy] = {}


def register_strategy(name: str):
    """Class decorator: instantiate ``cls`` and register it as ``name``.

        @register_strategy("my-launcher")
        class MyLauncher(Strategy):
            def launch(self, argv, actions, attrs, trace=NULL_TRACE): ...

    The decorator sets ``cls.name``, so a strategy's identity lives in
    exactly one place.  Duplicate names are an error — a silently
    shadowed launcher is the kind of bug this registry exists to stop.
    """
    def decorate(cls):
        if name in _REGISTRY:
            raise SpawnError(f"strategy {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls
    return decorate


def strategies() -> List[str]:
    """The registered strategy names, sorted."""
    return sorted(_REGISTRY)


def get_strategy(name: str) -> Strategy:
    """Resolve a strategy by name; unknown names fail loudly and helpfully."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpawnError(
            f"unknown strategy {name!r}; known strategies: "
            f"{', '.join(strategies())}") from None


@register_strategy("posix_spawn")
class PosixSpawnStrategy(Strategy):
    """``os.posix_spawn`` — constant-cost process creation."""

    def available(self) -> bool:
        return hasattr(os, "posix_spawn")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        attrs.validate()
        self._fire_launch(argv)
        if attrs.needs_helper_hop():
            raise SpawnError(
                "posix_spawn has no cwd/umask attribute; use the "
                "fork_exec strategy or drop those attributes")
        path = _resolve_executable(argv, attrs.env)
        pid = os.posix_spawn(
            path, list(argv), attrs.effective_env(),
            file_actions=actions.as_posix_spawn(),
            **attrs.posix_spawn_kwargs())
        trace.stage("execed", pid=pid)
        return ChildProcess(pid, argv=argv, strategy=self.name, trace=trace)


@register_strategy("fork_exec")
class ForkExecStrategy(Strategy):
    """Literal ``fork`` + child-side fixups + ``exec``.

    This is the strategy whose latency carries the parent's address
    space on its back; it exists as the measured baseline and as the
    fallback for requests posix_spawn cannot express.
    """

    def available(self) -> bool:
        return hasattr(os, "fork")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        attrs.validate()
        self._fire_launch(argv)
        path = _resolve_executable(argv, attrs.env)
        env = attrs.effective_env()
        pid = os.fork()
        if pid == 0:
            # Child: nothing here may touch Python state that another
            # thread could have held mid-mutation; keep it to syscalls.
            try:
                actions.apply_in_child()
                attrs.apply_in_child()
                os.execve(path, list(argv), env)
            except BaseException:
                os._exit(127)
        trace.stage("forked", pid=pid)
        return ChildProcess(pid, argv=argv, strategy=self.name, trace=trace)


@register_strategy("subprocess")
class SubprocessStrategy(Strategy):
    """The stdlib's ``subprocess.Popen`` as a reference implementation.

    Only plain requests (no file actions beyond stdio dup2s) are
    supported; the point of including it is calibration, not features.
    """

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        attrs.validate()
        self._fire_launch(argv)
        if len(actions):
            raise SpawnError(
                "SubprocessStrategy takes no file actions; use "
                "ProcessBuilder's stdio helpers with another strategy")
        proc = subprocess.Popen(
            list(argv), env=attrs.effective_env(), cwd=attrs.cwd,
            start_new_session=attrs.new_process_group,
            restore_signals=attrs.reset_signals)
        trace.stage("execed", pid=proc.pid)

        def reaper(pid: int, flags: int,
                   timeout: Optional[float]) -> Optional[int]:
            try:
                rc = proc.poll() if flags else proc.wait(timeout)
            except subprocess.TimeoutExpired:
                return None
            return None if rc is None else encode_status(rc)

        return ChildProcess(proc.pid, argv=argv, strategy=self.name,
                            reaper=reaper, trace=trace)


def _reject_unwirable_attrs(name: str, attrs: SpawnAttributes) -> None:
    """Forkserver requests travel as JSON + fd grants; only env/cwd fit."""
    if (attrs.new_process_group or attrs.reset_signals
            or attrs.sigmask or attrs.umask is not None):
        raise SpawnError(
            f"{name} supports only env/cwd attributes; use "
            f"posix_spawn or fork_exec for signal/pgroup/umask control")


def _stdio_grant(actions: FileActions):
    """Replay a file-action list into the stdio triple to grant.

    Returns ``(stdio, opened)``: the child-fd → parent-fd map for fds
    0-2, and the descriptors this call opened (the caller must close
    them once the grant is sent).  Actions that cannot be expressed as
    an SCM_RIGHTS stdio grant are rejected rather than approximated.
    """
    stdio = {0: 0, 1: 1, 2: 2}
    opened: List[int] = []
    try:
        for action in actions.actions():
            kind = action[0]
            if kind == "dup2" and action[2] in stdio:
                stdio[action[2]] = stdio.get(action[1], action[1])
            elif kind == "open" and action[1] in stdio:
                _, fd, path, flags, mode = action
                handle = os.open(path, flags, mode)
                opened.append(handle)
                stdio[fd] = handle
            elif kind == "close" and action[1] not in stdio:
                continue  # helper children only ever get the triple
            else:
                raise SpawnError(
                    f"forkserver strategies cannot express file action "
                    f"{action!r}; only stdio wiring travels over "
                    f"SCM_RIGHTS")
    except BaseException:
        for handle in opened:
            os.close(handle)
        raise
    return stdio, opened


class _WireStrategy(Strategy):
    """What the two forkserver strategies share: a launch is one unit of
    work — a single spawn's one member or a batch's N — put on a
    helper's wire by the subclass's ``_unit_steps(reqs, traces,
    deadline)``.  Stdio file actions are translated into the
    forkserver's explicit SCM_RIGHTS grant; actions that cannot be
    expressed that way are rejected rather than approximated.
    """

    def available(self) -> bool:
        return hasattr(os, "fork")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        return run_steps(self._launch_steps(argv, actions, attrs, trace))

    def _launch_steps(self, argv, actions, attrs, trace=NULL_TRACE):
        attrs.validate()
        self._fire_launch(argv)
        _reject_unwirable_attrs(self.name, attrs)
        stdio, opened = _stdio_grant(actions)
        try:
            member = SpawnRequest(
                argv, env=attrs.env, cwd=attrs.cwd,
                stdin=stdio[0], stdout=stdio[1], stderr=stdio[2])
            children = yield from self._unit_steps(
                [member], [trace], attrs.deadline)
        finally:
            for handle in opened:
                os.close(handle)
        return children[0]

    def _batch_steps(self, reqs, deadline):
        return self._unit_steps(reqs, None, deadline)


@register_strategy("forkserver-pool")
class ForkServerPoolStrategy(_WireStrategy):
    """Launch through a shared pool of pipelined forkserver helpers.

    The pool starts lazily on the first launch and is shared by every
    caller of this strategy — that sharing is the point: the zygote
    pattern only pays off when one warm service amortises across many
    requests.
    """

    def __init__(self, workers: Optional[int] = None):
        self._workers = workers
        self._pool: Optional[ForkServerPool] = None
        self._lock = threading.Lock()

    def pool(self) -> ForkServerPool:
        """The shared pool, started on first use."""
        with self._lock:
            if self._pool is None or self._pool.closed:
                kwargs = ({"workers": self._workers}
                          if self._workers is not None else {})
                self._pool = ForkServerPool(**kwargs).start()
            return self._pool

    def shutdown(self) -> None:
        """Stop the shared pool (a later launch starts a fresh one)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop()

    def _unit_steps(self, reqs, traces, deadline):
        pool = self._pool
        if pool is None or pool.closed:
            yield  # the first launch boots the pool
            pool = self.pool()
        # No policy: retries are the ladder's, per tier, not the pool's.
        return (yield from pool._unit_steps(reqs, traces, None, deadline))


@register_strategy("forkserver")
class ForkServerStrategy(_WireStrategy):
    """Launch through one shared pipelined forkserver helper.

    The middle rung of the degradation ladder: when the pool's breaker
    opens, a single dedicated helper still beats falling all the way to
    direct spawn for workloads that need the zygote's warm template.
    Started lazily on first use and shared process-wide, like the pool.
    """

    def __init__(self):
        self._server: Optional[ForkServer] = None
        self._lock = threading.Lock()

    def server(self) -> ForkServer:
        """The shared helper, started (or replaced) on first use."""
        with self._lock:
            if self._server is None or not self._server.healthy:
                old, self._server = self._server, None
                if old is not None:
                    try:
                        old.abort()
                    except Exception:
                        pass
                self._server = ForkServer().start()
            return self._server

    def shutdown(self) -> None:
        """Stop the shared helper (a later launch starts a fresh one)."""
        with self._lock:
            server, self._server = self._server, None
        if server is not None:
            try:
                if server.healthy:
                    server.stop()
                else:
                    server.abort()
            except Exception:
                pass

    def _unit_steps(self, reqs, traces, deadline):
        server = self._server
        if server is None or not server.healthy:
            yield  # server() boots (or replaces) the helper
            server = self.server()
        return (yield from server._unit_steps(reqs, traces, deadline))


@register_strategy("gateway")
class GatewayStrategy(Strategy):
    """Launch through a spawn-gateway daemon (see :mod:`repro.gateway`).

    The same ProcessBuilder program runs in-process or against a
    network daemon: with ``REPRO_GATEWAY`` set (a Unix-socket path,
    plus optional ``REPRO_GATEWAY_TENANT``/``REPRO_GATEWAY_TOKEN``) the
    strategy dials that external daemon; otherwise it boots an
    *embedded* daemon — a :class:`~repro.gateway.server.GatewayServer`
    under a :class:`~repro.gateway.supervisor.GatewaySupervisor` on a
    private Unix socket inside this process, one ``local`` tenant —
    lazily on first launch, the way the pool strategy boots its pool.
    Either way the request crosses the gateway wire protocol, so what
    this strategy measures is the cost of spawn *as a service*.

    The channel is self-healing end to end: the client reconnects (and
    re-authenticates) through connection loss with capped backoff, the
    supervisor restarts a crashed embedded daemon and reaps anything it
    orphaned, and a launch that still fails surfaces a typed
    :class:`~repro.errors.GatewayError` that the
    :class:`~repro.core.policy.SpawnPolicy` ladder
    (:data:`~repro.core.policy.GATEWAY_FALLBACK`) degrades past.
    """

    def __init__(self):
        self._client = None
        self._supervisor = None
        self._socket_dir = None
        self._lock = threading.Lock()

    def available(self) -> bool:
        return hasattr(os, "fork")

    def client(self):
        """The shared client, dialed (booting an embedded daemon if no
        external one is configured) on first use.

        An unhealthy client is *returned*, not replaced: it re-dials
        and re-auths itself on the next op, and for the embedded shape
        the supervisor is meanwhile restarting the daemon on the same
        address — tearing the pair down here would discard both
        recovery paths and orphan the daemon's children mid-flight.
        """
        with self._lock:
            if self._client is None:
                self._teardown_locked()
                self._client = self._dial()
            return self._client

    def _dial(self):
        from ..gateway.client import GatewayClient
        external = os.environ.get("REPRO_GATEWAY")
        if external:
            return GatewayClient(
                external,
                tenant=os.environ.get("REPRO_GATEWAY_TENANT", "local"),
                token=os.environ.get("REPRO_GATEWAY_TOKEN", "local"),
                reconnect=True, rate_limit_retries=2,
            ).connect()
        import secrets
        import tempfile
        from ..gateway.config import GatewayConfig, TenantConfig
        from ..gateway.supervisor import GatewaySupervisor
        from .policy import DEFAULT_FALLBACK, SpawnPolicy
        token = secrets.token_hex(16)
        self._socket_dir = tempfile.mkdtemp(prefix="repro-gateway-")
        config = GatewayConfig(
            unix_path=os.path.join(self._socket_dir, "gateway.sock"),
            tenants={"local": TenantConfig(
                name="local", token=token, max_queue=256,
                strategy="forkserver-pool",
                policy=SpawnPolicy(deadline=30.0, retries=1,
                                   fallback=DEFAULT_FALLBACK))})
        self._supervisor = GatewaySupervisor(config).start()
        return GatewayClient(self._supervisor.address, tenant="local",
                             token=token, reconnect=True,
                             rate_limit_retries=2).connect()

    def _teardown_locked(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except Exception:
                pass
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            try:
                supervisor.stop()
            except Exception:
                pass
        socket_dir, self._socket_dir = self._socket_dir, None
        if socket_dir is not None:
            try:
                os.rmdir(socket_dir)
            except OSError:
                pass

    def shutdown(self) -> None:
        """Close the client and stop any embedded daemon (a later
        launch dials or boots a fresh one)."""
        with self._lock:
            self._teardown_locked()

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        attrs.validate()
        self._fire_launch(argv)
        _reject_unwirable_attrs(self.name, attrs)
        stdio, opened = _stdio_grant(actions)
        try:
            child = self.client().spawn(
                argv, env=attrs.effective_env(), cwd=attrs.cwd,
                stdin=stdio[0], stdout=stdio[1], stderr=stdio[2],
                trace=trace, deadline=attrs.deadline)
        finally:
            for handle in opened:
                os.close(handle)
        return child


# Helpers are real processes; make sure an interpreter that used the
# shared services does not strand them at exit.
atexit.register(_REGISTRY["forkserver-pool"].shutdown)
atexit.register(_REGISTRY["forkserver"].shutdown)
atexit.register(_REGISTRY["gateway"].shutdown)


def pick_default_strategy(attrs: SpawnAttributes) -> Strategy:
    """The paper's policy: spawn by default, fork only when forced."""
    posix = _REGISTRY["posix_spawn"]
    if posix.available() and not attrs.needs_helper_hop():
        return posix
    return _REGISTRY["fork_exec"]
