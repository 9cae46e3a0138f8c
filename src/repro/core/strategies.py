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

Each strategy declares once what it can express (:attr:`Strategy.expresses`,
in :data:`CAPABILITIES`' words; :func:`needs` is a request's side).  A launch
refuses the rest with one :class:`~repro.errors.SpawnError` instead of
silently approximating (plain posix_spawn has no ``cwd`` attribute).

Every ``launch`` accepts an optional :class:`~repro.obs.SpawnTrace` and
stamps the lifecycle stage its syscall can actually observe:
``posix_spawn`` and ``subprocess`` stamp ``execed`` (their launch call
subsumes exec), ``fork_exec`` stamps ``forked`` (the parent never sees
the exec), and the forkserver pool defers to the wire protocol's
``framed``/``forked`` stages.
"""

from __future__ import annotations

import atexit
import contextlib
import errno
import os
import stat
import subprocess
import threading
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..errors import CannotExpress, ExecError, SpawnError
from ..faults import FAULTS
from ..obs import NULL_TRACE, TELEMETRY
from .attrs import SpawnAttributes
from .file_actions import FileActions
from .forkserver import ForkServer, SpawnRequest
from .forkserver_pool import ForkServerPool
from .result import ChildProcess, encode_status
from .steps import Steps, run_steps


def _resolve_executable(argv: Sequence[str], env=None,
                        cwd: Optional[str] = None) -> str:
    """The path to exec for ``argv[0]``, from the child's ``cwd``.

    A bare name is looked up the way ``subprocess`` and the forkserver
    helper look it up: on the ``PATH`` of the child's environment
    ``env`` (the caller's when ``None``), skipping directories, and —
    as the helper does, having changed into it — a relative entry from
    the ``cwd`` the child will start in.  That ``cwd`` is checked
    first, so one that cannot be entered is what the refusal names,
    whatever the program; a name found nowhere is the request's
    :class:`~repro.errors.ExecError`.
    """
    if not argv:
        raise SpawnError("empty argv")
    if cwd is not None:
        _check_cwd(cwd)
    exe = os.fspath(argv[0])
    if os.sep in exe:
        return exe
    for directory in os.get_exec_path(env):
        candidate = os.path.join(directory or ".", exe)
        seen = candidate if cwd is None else os.path.join(cwd, candidate)
        if os.access(seen, os.X_OK) and not os.path.isdir(seen):
            return candidate
    raise ExecError(errno=errno.ENOENT, path=exe)


def _check_cwd(cwd: str) -> None:
    """Refuse a ``cwd`` the child could not ``chdir`` into, with the
    errno that ``chdir`` would report."""
    try:
        mode = os.stat(cwd).st_mode
    except OSError as exc:
        ExecError.raise_for(exc, cwd)
        raise
    if not stat.S_ISDIR(mode):
        raise ExecError(errno=errno.ENOTDIR, path=cwd)
    if not os.access(cwd, os.X_OK):
        raise ExecError(errno=errno.EACCES, path=cwd)


#: What a launch request may ask of its launcher beyond an argv: the
#: :class:`SpawnAttributes` knobs, then the two kinds of file action —
#: ``stdio`` wires the triple a granted child holds (and closes above
#: it, where such a child holds nothing), ``fd_actions`` is any other.
CAPABILITIES = ("env", "cwd", "umask", "process_group", "reset_signals",
                "sigmask", "stdio", "fd_actions")


def needs(actions: FileActions, attrs: SpawnAttributes) -> FrozenSet[str]:
    """What a request asks of its launcher, in :data:`CAPABILITIES`'
    words (a batch unit's: the union over :func:`member_request`)."""
    need = set()
    if attrs.env is not None:
        need.add("env")
    if attrs.cwd is not None:
        need.add("cwd")
    if attrs.umask is not None:
        need.add("umask")
    if attrs.new_process_group:
        need.add("process_group")
    if attrs.reset_signals:
        need.add("reset_signals")
    if attrs.sigmask:
        need.add("sigmask")
    for action in actions.actions():
        # The fd a dup2 or an open makes, or the one a close drops:
        # making 0-2, or dropping above them, only wires the triple.
        kind, fd = action[0], action[2 if action[0] == "dup2" else 1]
        need.add("stdio" if (fd > 2) == (kind == "close") else "fd_actions")
    return frozenset(need)


def member_request(req: SpawnRequest, deadline: Optional[float]):
    """A unit member as the ``(FileActions, SpawnAttributes)`` a
    per-member launch takes: its stdio grant as dup2s."""
    actions = FileActions()
    for target, fd in enumerate(req.grant()):
        if fd != target:
            actions.add_dup2(fd, target)
    return actions, SpawnAttributes(env=req.env, cwd=req.cwd,
                                    deadline=deadline)


def cannot(name: str, lacking: FrozenSet[str]) -> str:
    """The one wording of a refusal: ``<tier> cannot express <what>``."""
    return (f"{name} cannot express "
            f"{', '.join(c for c in CAPABILITIES if c in lacking)}")


class Strategy:
    """Interface: launch ``argv`` with the given actions and attributes."""

    name = "abstract"

    #: What this launcher can express, in :data:`CAPABILITIES`' words.
    #: ``None`` declares nothing: such a launcher is offered every
    #: request and refuses inside its own ``launch``.
    expresses: Optional[FrozenSet[str]] = None

    def lacks(self, need: FrozenSet[str]) -> FrozenSet[str]:
        """What of ``need`` this launcher's declaration cannot express."""
        return frozenset() if self.expresses is None else need - self.expresses

    def _enter(self, argv: Sequence[str], actions: FileActions,
               attrs: SpawnAttributes) -> None:
        """The front of every launch: a request this launcher cannot
        express is refused before the ``strategy.launch`` injection
        point fires."""
        attrs.validate()
        lacking = self.lacks(needs(actions, attrs))
        if lacking:
            raise CannotExpress(cannot(self.name, lacking))
        self._fire_launch(argv)

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
                actions, attrs = member_request(req, deadline)
                trace = TELEMETRY.trace(self.name, req.argv)
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

    #: POSIX's attribute set has no ``cwd`` and no ``umask``.
    expresses = frozenset(CAPABILITIES) - {"cwd", "umask"}

    def available(self) -> bool:
        return hasattr(os, "posix_spawn")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        self._enter(argv, actions, attrs)
        path = _resolve_executable(argv, attrs.env)
        try:
            pid = os.posix_spawn(
                path, list(argv), attrs.effective_env(),
                file_actions=actions.as_posix_spawn(),
                **attrs.posix_spawn_kwargs())
        except OSError as exc:
            ExecError.raise_for(exc, path)
            raise
        trace.stage("execed", pid=pid)
        return ChildProcess(pid, argv=argv, strategy=self.name, trace=trace)


@register_strategy("fork_exec")
class ForkExecStrategy(Strategy):
    """Literal ``fork`` + child-side fixups + ``exec``.

    This is the strategy whose latency carries the parent's address
    space on its back; it exists as the measured baseline and as the
    fallback for requests posix_spawn cannot express.
    """

    #: Code runs in the child between fork and exec: everything.
    expresses = frozenset(CAPABILITIES)

    def available(self) -> bool:
        return hasattr(os, "fork")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        self._enter(argv, actions, attrs)
        path = _resolve_executable(argv, attrs.env, attrs.cwd)
        env = attrs.effective_env()
        # As CPython's own fork_exec does: the child reports a failed
        # file action, chdir or exec on a close-on-exec pipe, which an
        # exec that succeeds closes empty.
        report_r, report_w = os.pipe()
        try:
            try:
                # Literal fork+exec, kept as the measured baseline.
                pid = os.fork()  # lint-ok: F003
                if pid == 0:
                    # Child: nothing here may touch Python state that
                    # another thread could have held mid-mutation; keep
                    # it to syscalls.
                    report = b"0:"
                    try:
                        actions.apply_in_child()
                        attrs.apply_in_child()
                        os.execve(path, list(argv), env)
                    except OSError as exc:
                        report = b"%d:%s" % (exc.errno or 0,
                                             os.fsencode(exc.filename or ""))
                    except BaseException:
                        pass
                    try:
                        os.write(report_w, report)
                    finally:
                        os._exit(127)
            finally:
                os.close(report_w)
            trace.stage("forked", pid=pid)
            report = os.read(report_r, 4096)
        finally:
            os.close(report_r)
        if report:
            os.waitpid(pid, 0)
            number, _, failed = report.partition(b":")
            exc = OSError(int(number), os.strerror(int(number)),
                          os.fsdecode(failed or path))
            ExecError.raise_for(exc, path)
            raise SpawnError(f"fork_exec child failed before exec: "
                             f"{exc}") from exc
        return ChildProcess(pid, argv=argv, strategy=self.name, trace=trace)


@register_strategy("subprocess")
class SubprocessStrategy(Strategy):
    """The stdlib's ``subprocess.Popen`` as a reference implementation:
    an environment and a working directory, no file action and none of
    the knobs ``Popen`` could only approximate.  The point of including
    it is calibration, not features."""

    expresses = frozenset({"env", "cwd"})

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        self._enter(argv, actions, attrs)
        try:
            proc = subprocess.Popen(
                list(argv), env=attrs.effective_env(), cwd=attrs.cwd,
                restore_signals=False)
        except OSError as exc:
            ExecError.raise_for(exc, argv[0])
            raise
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


#: A request that travels as JSON plus an SCM_RIGHTS stdio grant.
WIRE_EXPRESSES = frozenset({"env", "cwd", "stdio"})


@contextlib.contextmanager
def _stdio_grant(actions: FileActions):
    """The triple to grant — child fd → parent fd, for 0-2 — replayed
    from a file-action list that needs no more than ``stdio``; what it
    opens to grant is closed on the way out."""
    stdio = {0: 0, 1: 1, 2: 2}
    opened: List[int] = []
    try:
        for action in actions.actions():
            kind = action[0]
            if kind == "dup2" and action[2] in stdio:
                stdio[action[2]] = stdio.get(action[1], action[1])
            elif kind == "open" and action[1] in stdio:
                _, fd, path, flags, mode = action
                opened.append(os.open(path, flags, mode))
                stdio[fd] = opened[-1]
            # else a close above the triple: the child holds nothing there
        yield stdio
    finally:
        for handle in opened:
            os.close(handle)


class _WireStrategy(Strategy):
    """What the two forkserver strategies share: a launch is one unit of
    work — a single spawn's one member or a batch's N — put on a
    helper's wire by the subclass's ``_unit_steps(reqs, traces,
    deadline)``.  Stdio file actions are translated into the
    forkserver's explicit SCM_RIGHTS grant.
    """

    expresses = WIRE_EXPRESSES

    def available(self) -> bool:
        return hasattr(os, "fork")

    def launch(self, argv, actions, attrs, trace=NULL_TRACE) -> ChildProcess:
        return run_steps(self._launch_steps(argv, actions, attrs, trace))

    def _launch_steps(self, argv, actions, attrs, trace=NULL_TRACE):
        self._enter(argv, actions, attrs)
        with _stdio_grant(actions) as stdio:
            member = SpawnRequest(
                argv, env=attrs.env, cwd=attrs.cwd,
                stdin=stdio[0], stdout=stdio[1], stderr=stdio[2])
            children = yield from self._unit_steps(
                [member], [trace], attrs.deadline)
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

    def __init__(self):
        self._pool: Optional[ForkServerPool] = None
        self._lock = threading.Lock()

    def pool(self) -> ForkServerPool:
        """The shared pool, started on first use."""
        with self._lock:
            if self._pool is None or self._pool.closed:
                self._pool = ForkServerPool().start()
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
        return (yield from pool._unit_steps(reqs, traces, deadline))


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

    expresses = WIRE_EXPRESSES

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
                             token=token).connect()

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
        self._enter(argv, actions, attrs)
        with _stdio_grant(actions) as stdio:
            return self.client().spawn(
                argv, env=attrs.effective_env(), cwd=attrs.cwd,
                stdin=stdio[0], stdout=stdio[1], stderr=stdio[2],
                trace=trace, deadline=attrs.deadline)


# Helpers are real processes; make sure an interpreter that used the
# shared services does not strand them at exit.
atexit.register(_REGISTRY["forkserver-pool"].shutdown)
atexit.register(_REGISTRY["forkserver"].shutdown)
atexit.register(_REGISTRY["gateway"].shutdown)


def pick_default_strategy(attrs: SpawnAttributes) -> Strategy:
    """The paper's policy: spawn by default, fork only when forced —
    when ``posix_spawn``'s declaration lacks something ``attrs`` asks
    for (it expresses every file action, so those never force it)."""
    posix = _REGISTRY["posix_spawn"]
    if posix.available() and not posix.lacks(needs(FileActions(), attrs)):
        return posix
    return _REGISTRY["fork_exec"]
