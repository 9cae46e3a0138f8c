"""Template zygotes: provisioned-concurrency spawn without the fork tax.

The generic forkserver removes the paper's Figure 1 penalty — the
helper's address space is tiny, so forking *it* is cheap — but every
child it execs still boots from nothing: interpreter start, imports,
environment setup, all paid inside the request's latency.  The
serverless literature (NPC, PAPERS.md) names the fix: **specialize warm
templates per workload** and fork from the nearest prepared state,
provisioning concurrency only where traffic warrants it.

This module is that remedy, three layers deep:

* :class:`TemplateProfile` — the declarative shape of one workload:
  modules to preload, env/cwd to apply, files to pre-open, and how many
  children to keep parked.
* :class:`TemplateServer` — a :class:`~repro.core.forkserver.ForkServer`
  whose helper is *specialized* to one profile and keeps a bounded
  stock of **pre-forked, parked children**.  Every launch is a member
  of the inherited ``spawn`` op.  A payload member carries ``code``:
  the helper wakes the oldest parked child to run it inside the
  already-warm runtime, free of the child-side boot tax.  A program
  member carries ``argv``: a ``posix_spawn`` from the specialized
  helper — a warm interpreter is no use to a program that execs it
  away, so none is spent on one.  Either way one wire round trip, O(1)
  regardless of the client's heap.
* :class:`TemplateRegistry` — the profiles, LRU-bounded so only the hot
  ones stay warm; a background restock thread refills leased stock and
  grows the per-profile target when payloads miss (by
  :class:`AutoscaleConfig`'s ``step``), and every miss
  degrades down the :data:`~repro.core.policy.TEMPLATE_FALLBACK` ladder
  (forkserver-pool → forkserver → posix_spawn): the request is replayed
  onto a :class:`~repro.core.spawn.ProcessBuilder` under the registry's
  policy, so it is the builder's ladder — the same attempts, shared
  circuit breakers and counters as the rest of the spawn stack.

Telemetry: ``template_lease`` / ``template_lease_miss`` /
``template_park`` / ``template_unpark`` / ``template_evict`` counters,
a ``template_stock`` gauge per profile, and ``template`` events for
warm/evict decisions — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..errors import ExecError, SpawnError
from ..obs import TELEMETRY
from .forkserver import ForkServer, SpawnRequest
from .policy import TEMPLATE_FALLBACK, SpawnPolicy
from .result import ChildProcess
from .spawn import ProcessBuilder
from .steps import run_steps


class TemplateMiss(SpawnError):
    """A lease found no parked child (stock exhausted or still filling)."""


@dataclass(frozen=True)
class AutoscaleConfig:
    """How a :class:`TemplateRegistry` moves each profile's stock target.

    Attributes:
        step: parked children added per ``code`` miss, and taken back
            per idle decay (one per :attr:`TemplateRegistry.idle_ttl`).
    """

    step: int = 1

    def __post_init__(self):
        if self.step < 1:
            raise SpawnError(f"step must be >= 1: {self.step}")


@dataclass(frozen=True)
class TemplateProfile:
    """The declarative shape of one workload's warm template.

    Attributes:
        name: registry key for this profile.
        preload: module names the helper imports once at specialize
            time; parked children inherit them warm, so a zygote-mode
            payload runs them for free.
        env: environment applied to the helper (inherited by every
            child it parks or spawns); a zygote lease's env layers on
            top, an exec lease's env replaces it.
        cwd: working directory applied to the helper.
        preopen: paths opened read-only in the helper, inheritable.
        stock: parked children to keep ready for zygote leases (the
            provisioned floor; exec leases consume none).
        max_stock: ceiling miss-driven growth may reach.
    """

    name: str
    preload: Tuple[str, ...] = ()
    env: Optional[Mapping[str, str]] = None
    cwd: Optional[str] = None
    preopen: Tuple[str, ...] = ()
    stock: int = 2
    max_stock: int = 8

    def __post_init__(self):
        object.__setattr__(self, "preload", tuple(self.preload))
        object.__setattr__(self, "preopen", tuple(self.preopen))
        if not self.name:
            raise SpawnError("template profile needs a name")
        if self.stock < 0:
            raise SpawnError(f"stock must be >= 0: {self.stock}")
        if self.max_stock < max(1, self.stock):
            raise SpawnError(
                f"max_stock ({self.max_stock}) < stock ({self.stock})")


class _Payload(SpawnRequest):
    """A ``code`` member of the one ``spawn`` op: the helper wakes a
    parked child to run it, so its ``env`` layers on the warm runtime's
    own and never stands for the caller's."""

    __slots__ = ("code",)

    def __init__(self, code: str, **wiring):
        super().__init__([sys.executable, "-c", "<template payload>"],
                         **wiring)
        self.code = code

    def wire(self, inherited=None) -> dict:
        return {"code": self.code, "env": self.env, "cwd": self.cwd,
                "nfds": 3}


class TemplateServer(ForkServer):
    """A forkserver specialized to one :class:`TemplateProfile`.

    :meth:`start` boots the helper (its template ops live next to the
    spawn op in ``core/helper.py``), applies the profile's
    ``specialize`` op, and parks the initial stock.  :meth:`lease`
    launches through the inherited one request path: a ``code`` payload
    is a ``spawn`` member that wakes a parked child, an ``argv`` one
    that the helper spawns.  :meth:`park` / :meth:`unpark` move the
    stock level, and every reply reports it.  A launch is a
    ``template_lease``, whichever member carried it.

    The frame cache is off here: payload frames carry per-call code, so
    there is no repeatable tail to memoize.
    """

    label = "template"

    def __init__(self, profile: TemplateProfile):
        super().__init__(frame_cache=0)
        self.profile = profile
        self._stock = 0

    def start(self) -> "TemplateServer":
        """Boot + specialize + park the initial stock (idempotent)."""
        if self.running:
            return self
        super().start()
        try:
            self.specialize()
            self.restock()
        except Exception:
            self.stop()
            raise
        return self

    def specialize(self) -> dict:
        """Apply the profile to the live helper; raises on any failure."""
        profile = self.profile
        reply = self._roundtrip({"op": "specialize",
                                 "env": dict(profile.env or {}),
                                 "cwd": profile.cwd,
                                 "preload": list(profile.preload),
                                 "preopen": list(profile.preopen)},
                                timeout=self.start_timeout)
        if reply.get("ok") is not True:
            raise SpawnError(
                f"template {profile.name!r} failed to specialize: "
                f"{reply.get('failed') or reply}")
        return reply

    @property
    def stock(self) -> int:
        """Parked children ready to lease: the level the helper's latest
        reply named."""
        return self._stock

    def park(self, timeout: Optional[float] = None) -> int:
        """Pre-fork one parked child; returns its pid."""
        reply = self._roundtrip({"op": "park"}, timeout=timeout)
        if reply.get("pid") is None:
            raise SpawnError(
                f"template {self.profile.name!r} park refused: "
                f"{reply.get('error', reply)}")
        TELEMETRY.count("template_park", profile=self.profile.name)
        return reply["pid"]

    def unpark(self, timeout: Optional[float] = None) -> Optional[int]:
        """Withdraw one parked child (it exits 0); ``None`` when empty."""
        reply = self._roundtrip({"op": "unpark"}, timeout=timeout)
        if reply.get("pid") is not None:
            TELEMETRY.count("template_unpark", profile=self.profile.name)
        return reply.get("pid")

    def restock(self, target: Optional[int] = None,
                landed: Callable[[], None] = lambda: None) -> int:
        """Park up, or unpark down, until the stock reaches ``target``
        (profile default, capped at ``max_stock``); ``landed()`` runs
        after each step.  Returns the net change in stock."""
        if target is None:
            target = self.profile.stock
        target = min(target, self.profile.max_stock)
        before = self.stock
        while self.healthy and self.stock < target:
            self.park()
            landed()
        while (self.healthy and self.stock > target
               and self.unpark() is not None):
            landed()
        return self.stock - before

    def _inherited_env(self) -> None:
        # A program inherits the PROFILE's environment — the helper's,
        # as ``specialize`` left it — never the caller's.
        return None

    def _result(self, sent) -> dict:
        # Every reply names the helper's stock level: file it.  A spawn's
        # hands out this server's launches; of its refusals, only a dry
        # stock is a miss a restock can cure.
        reply = super()._result(sent)
        self._stock = reply.get("stock", self._stock)
        if "results" in reply:
            TELEMETRY.count("template_lease", len(reply["results"]),
                            profile=self.profile.name)
        elif reply.get("error") == "EAGAIN: warm stock exhausted":
            raise TemplateMiss(f"template {self.profile.name!r}: "
                               f"{reply['error']}")
        return reply

    def lease(self, argv: Optional[Sequence[str]] = None, *,
              code: Optional[str] = None,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[str] = None,
              stdin: int = 0, stdout: int = 1, stderr: int = 2,
              deadline: Optional[float] = None) -> ChildProcess:
        """Launch through the specialized helper in one round trip.

        Exactly one of ``argv`` (exec mode, :meth:`~ForkServer.spawn`:
        the program inherits the profile's env, cwd and preopened fds;
        no stock is consumed) or ``code`` (zygote mode: a parked child
        runs the payload inside the warm, preloaded runtime — no exec,
        no import tax) must be given.  A ``code`` lease raises
        :class:`TemplateMiss` when the stock is empty — the caller
        (usually :class:`TemplateRegistry`) degrades down the ladder
        and lets the restock thread refill.
        """
        if (argv is None) == (code is None):
            raise SpawnError("lease takes exactly one of argv= or code=")
        wiring = dict(env=env, cwd=cwd, stdin=stdin, stdout=stdout,
                      stderr=stderr)
        member = (SpawnRequest(argv, **wiring) if code is None
                  else _Payload(code, **wiring))
        return run_steps(self._unit_steps([member], None, deadline))[0]


class _Entry:
    """One profile's registry slot: its server (when warm) and targets."""

    __slots__ = ("profile", "server", "target", "last_used", "warm_pending")

    def __init__(self, profile: TemplateProfile, now: float):
        self.profile = profile
        self.server: Optional[TemplateServer] = None
        self.target = profile.stock
        self.last_used = now
        self.warm_pending = False


class TemplateRegistry:
    """Specialized zygotes keyed by workload profile, LRU-bounded.

    At most ``max_templates`` profiles hold a warm helper at once;
    warming one past the bound evicts the least recently *used* warm
    template (its helper and parked stock are torn down — later spawns
    for it ride the generic ladder until it is re-warmed).  An ``argv``
    spawn on a warm profile never misses; a ``code`` spawn that finds
    warm stock leases in O(1), and a miss degrades down
    ``policy.fallback`` (default
    :data:`~repro.core.policy.TEMPLATE_FALLBACK`) for *this* request
    while the background restock thread refills — and, under sustained
    misses, grows the profile's stock target by ``autoscale.step`` up
    to ``profile.max_stock``, decaying back after ``idle_ttl`` seconds
    without traffic: provisioned children follow demand, not
    configuration.

    Usable as a context manager; :meth:`close` is idempotent.
    """

    #: Profiles that hold a warm helper at once.
    max_templates: int = 4

    #: After a stock miss with a *live* helper, wait up to this many
    #: seconds for the restock thread to park a replacement before
    #: degrading — a burst briefly outrunning the warm stock waits a
    #: beat instead of paying a cold spawn.
    miss_grace: float = 0.25

    #: Seconds idle before a grown stock target decays one ``step``.
    idle_ttl: float = 5.0

    def __init__(self, *, policy: Optional[SpawnPolicy] = None,
                 autoscale: Optional[AutoscaleConfig] = None):
        self.policy = (policy if policy is not None
                       else SpawnPolicy(fallback=TEMPLATE_FALLBACK))
        self.autoscale = (autoscale if autoscale is not None
                          else AutoscaleConfig())
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self.evictions = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "TemplateRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the restock thread and every warm helper (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            thread, self._thread = self._thread, None
            servers = [entry.server for entry in self._entries.values()
                       if entry.server is not None]
            for entry in self._entries.values():
                entry.server = None
            self._cond.notify_all()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        for server in servers:
            try:
                server.stop()
            except Exception:
                pass

    # -- profiles --------------------------------------------------------

    def register(self, profile: TemplateProfile, *,
                 warm: bool = True) -> TemplateProfile:
        """Add a profile; ``warm=True`` boots its helper synchronously."""
        with self._lock:
            if self._closed:
                raise SpawnError("template registry is closed")
            if profile.name in self._entries:
                raise SpawnError(
                    f"template profile {profile.name!r} already registered")
            self._entries[profile.name] = _Entry(profile, time.monotonic())
        if warm:
            self.warm(profile.name)
        return profile

    def profiles(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    @property
    def warm_count(self) -> int:
        """Profiles currently holding a live helper."""
        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if entry.server is not None
                       and entry.server.healthy)

    def stock(self, name: str) -> int:
        """Parked children ready for ``name`` right now (0 when cold)."""
        entry = self._require(name, touch=False)
        server = entry.server
        return server.stock if server is not None and server.healthy else 0

    def server_for(self, name: str) -> Optional[TemplateServer]:
        """The profile's live server, or ``None`` when cold (tests)."""
        entry = self._require(name, touch=False)
        return entry.server

    def _require(self, name: str, *, touch: bool) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise SpawnError(
                    f"unknown template profile {name!r}; registered: "
                    f"{sorted(self._entries)}")
            if touch:
                self._entries.move_to_end(name)
                entry.last_used = time.monotonic()
            return entry

    # -- warming + eviction ----------------------------------------------

    def warm(self, name: str) -> TemplateServer:
        """Boot (or replace) the profile's helper and park its stock.

        Synchronous; warming past ``max_templates`` evicts the LRU warm
        template.  The restock thread calls this lazily after a miss on
        a cold profile, so callers normally never need to.
        """
        entry = self._require(name, touch=True)
        return self._boot(entry)

    def _boot(self, entry: _Entry) -> TemplateServer:
        with self._lock:
            if self._closed:
                raise SpawnError("template registry is closed")
            # Taken, whether the boot lands or fails: a profile whose
            # helper cannot start costs one boot per miss.
            entry.warm_pending = False
            current = entry.server
            if current is not None and current.healthy:
                return current
        server = TemplateServer(entry.profile)
        server.start()
        with self._cond:
            if self._closed:
                stale, evicted = server, []
            else:
                stale, entry.server = entry.server, server
                evicted = self._evict_over_bound(keep=entry)
                TELEMETRY.event("template", action="warm",
                                profile=entry.profile.name)
                self._cond.notify_all()  # a boot, a replacement, evictions
        for old in ([stale] if stale is not None else []) + evicted:
            try:
                old.stop()
            except Exception:
                pass
        if stale is server:
            raise SpawnError("template registry is closed")
        server.restock(entry.target, self._announce)
        TELEMETRY.gauge("template_stock", server.stock,
                        profile=entry.profile.name)
        return server

    def _evict_over_bound(self, keep: _Entry) -> List[TemplateServer]:
        """LRU-evict warm templates past the bound (lock held)."""
        victims: List[TemplateServer] = []
        while True:
            warm = [entry for entry in self._entries.values()
                    if entry.server is not None]
            if len(warm) <= self.max_templates:
                return victims
            victim = next(entry for entry in self._entries.values()
                          if entry.server is not None and entry is not keep)
            victims.append(victim.server)
            victim.server = None
            victim.target = victim.profile.stock
            self.evictions += 1
            TELEMETRY.count("template_evict", profile=victim.profile.name)
            TELEMETRY.event("template", action="evict",
                            profile=victim.profile.name)

    # -- the spawn path --------------------------------------------------

    def spawn(self, name: str, argv: Optional[Sequence[str]] = None, *,
              code: Optional[str] = None,
              env: Optional[Dict[str, str]] = None,
              cwd: Optional[str] = None,
              stdin: int = 0, stdout: int = 1, stderr: int = 2,
              deadline: Optional[float] = None) -> ChildProcess:
        """Lease from the profile's warm helper, or degrade down the ladder.

        The fast path is one wire round trip to the template helper.
        An empty-stock miss (``code`` only) with a live helper sleeps on
        the registry's condition for up to ``miss_grace`` seconds until
        the restock thread parks a replacement, then leases again; a
        cold profile, a dead helper, or an expired grace window sends
        THIS request through ``policy.fallback`` (a code payload becomes
        a ``python -c`` spawn that re-pays the imports: that is the
        honest cold-start cost the template exists to avoid) while the
        restock thread re-warms in the background.
        """
        entry = self._require(name, touch=True)
        limit = None  # when the miss grace runs out, once a lease missed
        while True:
            server = entry.server
            if server is None or not server.healthy:
                break
            try:
                child = server.lease(argv, code=code, env=env, cwd=cwd,
                                     stdin=stdin, stdout=stdout,
                                     stderr=stderr, deadline=deadline)
            except TemplateMiss:
                # Stock exhausted but the helper is alive: the miss asks
                # the restock thread to park more, and a short bounded
                # wait for one beats a cold spawn.
                if limit is None:
                    self._note_miss(entry, code)
                    grace = self.miss_grace
                    if deadline is not None:
                        grace = min(grace, deadline)
                    limit = time.monotonic() + grace
                if self._await_stock(entry, server, limit):
                    continue
                return self._degrade(entry, argv, code, env, cwd,
                                     stdin, stdout, stderr, deadline)
            except ExecError:
                raise  # the request's program: no miss, no re-warm
            except SpawnError:
                break  # dead helper mid-lease: degrade; the thread repairs
            if code is not None:
                self._kick()  # a parked child left: have it replaced
            return child
        if limit is None:
            self._note_miss(entry, code)
        return self._degrade(entry, argv, code, env, cwd,
                             stdin, stdout, stderr, deadline)

    def _await_stock(self, entry: _Entry, server: TemplateServer,
                     limit: float) -> bool:
        """Sleep until ``server`` has stock, the profile's helper dies
        or changes, or ``limit`` passes (``False``: lease no more)."""
        with self._cond:
            while (entry.server is server and server.healthy
                   and server.stock < 1):
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def _note_miss(self, entry: _Entry, code: Optional[str]) -> None:
        TELEMETRY.count("template_lease_miss", profile=entry.profile.name)
        with self._cond:
            if code is not None:  # a program consumes no parked child
                entry.target = min(entry.target + self.autoscale.step,
                                   entry.profile.max_stock)
            entry.warm_pending = True
        self._kick()

    def _kick(self) -> None:
        """Hand the restock thread (started on first need) work."""
        with self._cond:
            if not self._closed:
                self._ensure_thread()
                self._cond.notify_all()

    def _announce(self) -> None:
        """Wake every sleeper on the condition: the restock thread and
        the leases inside a miss grace."""
        with self._cond:
            self._cond.notify_all()

    def _degrade(self, entry: _Entry, argv, code, env, cwd,
                 stdin: int, stdout: int, stderr: int,
                 deadline: Optional[float]) -> ChildProcess:
        """Replay the request onto a :class:`ProcessBuilder` that walks
        ``policy.fallback`` — the builder's ladder, not a copy of it."""
        profile = entry.profile
        if argv is not None:
            run_argv = [os.fspath(a) for a in argv]
        else:
            preamble = ("import %s\n" % ", ".join(profile.preload)
                        if profile.preload else "")
            run_argv = [sys.executable, "-c", preamble + (code or "")]
        merged_env = env
        if profile.env:
            merged_env = dict(profile.env)
            merged_env.update(env or {})
        run_cwd = cwd if cwd is not None else profile.cwd
        tiers = self.policy.fallback or TEMPLATE_FALLBACK
        # Leaving the template tier is itself a step down the ladder.
        TELEMETRY.count("fallback", strategy=tiers[0])
        builder = (ProcessBuilder(*run_argv)
                   .strategy(tiers[0])
                   .policy(replace(self.policy, fallback=tiers[1:]))
                   .stdin_from_fd(stdin)
                   .stdout_to_fd(stdout)
                   .stderr_to_fd(stderr))
        if merged_env is not None:
            builder.env(merged_env)
        if run_cwd is not None:
            builder.cwd(run_cwd)
        if deadline is not None:
            builder.deadline(deadline)
        try:
            return builder.spawn()
        except ExecError:
            raise
        except SpawnError as exc:
            raise SpawnError(
                f"template {profile.name!r}: warm stock empty and the "
                f"fallback ladder failed: {exc}") from exc

    # -- background restock ----------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None and not self._closed:
            self._thread = threading.Thread(
                target=self._restock_loop, name="template-restock",
                daemon=True)
            self._thread.start()

    def _restock_loop(self) -> None:
        # Entries whose live helper refused a park or unpark: retried
        # on the next event, not at once.
        failed = set()
        while True:
            with self._cond:
                if self._closed:
                    return
                due = self._decay(time.monotonic())
                work = [entry for entry in self._entries.values()
                        if entry not in failed and self._wants(entry)]
                if not work:
                    self._cond.wait(due)
                    failed.clear()
                    continue
            for entry in work:
                try:
                    self._service(entry)
                except SpawnError:
                    server = entry.server
                    if server is not None and server.healthy:
                        failed.add(entry)

    def _decay(self, now: float) -> Optional[float]:
        """Idle decay (lock held): a target grown under miss pressure
        drifts back to the profile floor once traffic stops, one step
        per elapsed TTL.  Returns the seconds until the next decay is
        due, ``None`` when no target is above its floor."""
        ttl = self.idle_ttl
        due = None
        for entry in self._entries.values():
            if entry.target <= entry.profile.stock:
                continue
            if now - entry.last_used >= ttl:
                entry.target = max(entry.profile.stock,
                                   entry.target - self.autoscale.step)
                entry.last_used = now
                if entry.target <= entry.profile.stock:
                    continue
            wait = entry.last_used + ttl - now
            due = wait if due is None else min(due, wait)
        return due

    @staticmethod
    def _wants(entry: _Entry) -> bool:
        """Whether the restock thread has work for ``entry`` (lock held):
        a miss asked for a boot, or the stock is off its target."""
        server = entry.server
        if server is None or not server.healthy:
            return entry.warm_pending
        return server.stock != entry.target

    def _service(self, entry: _Entry) -> None:
        server = entry.server
        try:
            if server is None or not server.healthy:
                self._boot(entry)
                return
            server.restock(entry.target, self._announce)
            TELEMETRY.gauge("template_stock", server.stock,
                            profile=entry.profile.name)
        finally:
            self._announce()  # and if a park failed or found the helper dead
