"""Fault plans: a declarative taxonomy of the ways a spawn path dies.

The paper's complaint about ``fork()`` is that its failure modes are
*implicit* — a child inherits broken locks and half-written buffers and
nobody finds out until production.  A spawn *service* must do better:
every way the service can fail should be nameable, injectable on
demand, and covered by a test that proves the stack recovers.

A :class:`FaultPlan` is a list of :class:`Fault` records.  Each fault
names a *kind* from the taxonomy below, an *injection point* (defaulted
per kind), and arming counters (``after`` spawns to skip, ``times`` to
fire).  Plans are plain data: they round-trip through JSON so the same
plan drives a unit test, a ``REPRO_FAULTS`` environment variable, or a
``repro-bench run --faults plan.json`` soak.

==================  ====================  ==================================
kind                default point         effect when armed
==================  ====================  ==================================
kill_helper         forkserver.request    SIGKILL the helper once the
                                          request frame is on the wire
                                          (it is stopped across the send,
                                          so it can never answer first) —
                                          the classic mid-request crash
truncate_frame      forkserver.frame      send only a prefix of the wire
                                          frame; the helper wedges mid-read
corrupt_frame       forkserver.frame      keep the length header, trash the
                                          JSON body; the helper bails out
drop_fd_grant       forkserver.frame      strip the SCM_RIGHTS ancillary
                                          data from a spawn request
stall_helper        helper                the helper sleeps ``seconds``
                                          before handling each request
delay_sigchld       helper                the helper sleeps ``seconds``
                                          before reaping exited children
refuse_exec         strategy.launch       the launch raises SpawnError
                                          (point ``helper``: the helper
                                          refuses the spawn on the wire)
exhaust_fds         strategy.launch       the launch raises OSError(EMFILE)
                                          (point ``builder.pipe``: pipe
                                          allocation fails instead)
conn_reset          gateway.frame         the client's gateway connection
                                          resets before the frame is sent
partial_frame       gateway.frame         the client sends half a frame,
                                          then half-closes the connection
stall_conn          gateway.frame         the client stalls ``seconds``
                                          before each outgoing frame
drop_reply          gateway.reply         the daemon silently drops one
                                          reply frame (the client's
                                          request deadline must save it;
                                          an unsolicited exit notice
                                          answers no request and is
                                          never dropped)
garbage_reply       gateway.reply         the daemon answers with bytes
                                          that are not a protocol frame
refuse_accept       gateway.accept        the daemon hangs up a freshly
                                          accepted connection
kill_daemon         gateway.daemon        the daemon crashes mid-request
                                          (listeners, connections and
                                          queued work all die; children
                                          are orphaned for a supervisor
                                          to reconcile)
==================  ====================  ==================================

Client-side points fire through :data:`repro.faults.FAULTS`; the two
``helper`` kinds (plus ``refuse_exec`` when pointed there) are compiled
into a ``REPRO_HELPER_FAULTS`` environment spec that
:class:`~repro.core.forkserver.ForkServer` hands to helpers it starts
*while the plan is active*.  The two ``*.frame`` points fire in the one
send path both clients share (:meth:`repro.wire.Channel.send`), which
interprets a fault by its kind; the rest of the ``gateway.*`` family
fires on the daemon's accept/reply/dispatch paths — and is what the
t9-chaos availability gauntlet drives.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import FaultPlanError

#: kind -> default injection point.
KIND_POINTS: Dict[str, str] = {
    "kill_helper": "forkserver.request",
    "truncate_frame": "forkserver.frame",
    "corrupt_frame": "forkserver.frame",
    "drop_fd_grant": "forkserver.frame",
    "stall_helper": "helper",
    "delay_sigchld": "helper",
    "refuse_exec": "strategy.launch",
    "exhaust_fds": "strategy.launch",
    "conn_reset": "gateway.frame",
    "partial_frame": "gateway.frame",
    "stall_conn": "gateway.frame",
    "drop_reply": "gateway.reply",
    "garbage_reply": "gateway.reply",
    "refuse_accept": "gateway.accept",
    "kill_daemon": "gateway.daemon",
}

#: Every injection point compiled into the stack (documentation and
#: validation; plans may only target these).
POINTS = (
    "forkserver.frame",    # wire.Channel.send, one outgoing frame
    "forkserver.request",  # ForkServer._send, around the send
    "forkserver.spawn",    # ForkServer's one spawn request, before the send;
                           # strategy is the server's label (template too)
    "pool.dispatch",       # ForkServerPool, a unit of one, per attempt
    "pool.batch",          # ForkServerPool, a unit of N > 1, per attempt
    "strategy.launch",     # every registered Strategy.launch entry
    "builder.pipe",        # ProcessBuilder pipe allocation
    "builder.spawn",       # ProcessBuilder.spawn entry
    "helper",              # inside the helper process (via env spec)
    "gateway.connect",     # GatewayClient dial, before the hello
    "gateway.frame",       # wire.Channel.send, one outgoing frame
    "gateway.reply",       # GatewayServer._send, one outgoing reply
    "gateway.accept",      # GatewayServer._on_accept, per new connection
    "gateway.daemon",      # GatewayServer._handle_frame, the daemon itself
)

#: Kinds whose effect is a mutation of the outgoing wire frame.
FRAME_KINDS = frozenset({"truncate_frame", "corrupt_frame", "drop_fd_grant"})

#: Gateway kinds the injection *site* interprets (socket surgery, reply
#: suppression, daemon crash) rather than :meth:`FaultInjector.fire`
#: applying a generic effect.  Grouped with :data:`FRAME_KINDS` for the
#: "don't also sleep" exemption in the injector.
GATEWAY_SITE_KINDS = frozenset({
    "conn_reset", "partial_frame", "drop_reply", "garbage_reply",
    "refuse_accept", "kill_daemon"})


@dataclass
class Fault:
    """One injectable fault: what breaks, where, and how many times.

    Attributes:
        kind: taxonomy entry from :data:`KIND_POINTS`.
        point: injection point; defaults to the kind's canonical point.
        after: matching fires to skip before arming (0 = immediately).
        times: how many times to fire; ``None`` means every time.
        seconds: sleep length for the stall/delay kinds.
        strategy: only fire when the site reports this strategy name.
    """

    kind: str
    point: Optional[str] = None
    after: int = 0
    times: Optional[int] = 1
    seconds: float = 0.0
    strategy: Optional[str] = None
    # Mutable arming state (the registry decrements under its lock).
    remaining_skips: int = field(init=False, repr=False, default=0)
    remaining_fires: Optional[int] = field(init=False, repr=False,
                                           default=None)

    def __post_init__(self):
        if self.kind not in KIND_POINTS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(KIND_POINTS))}")
        if self.point is None:
            self.point = KIND_POINTS[self.kind]
        if self.point not in POINTS:
            raise FaultPlanError(
                f"unknown injection point {self.point!r}; known points: "
                f"{', '.join(POINTS)}")
        if self.after < 0:
            raise FaultPlanError(f"fault 'after' must be >= 0: {self.after}")
        if self.times is not None and self.times < 0:
            raise FaultPlanError(f"fault 'times' must be >= 0: {self.times}")
        if self.seconds < 0:
            raise FaultPlanError(
                f"fault 'seconds' must be >= 0: {self.seconds}")
        self.remaining_skips = self.after
        self.remaining_fires = self.times

    # -- matching and arming (called by the registry, under its lock) ------

    def matches(self, point: str, strategy: Optional[str]) -> bool:
        """Whether this fault watches ``point`` (and ``strategy``)."""
        if self.point != point:
            return False
        if self.strategy is not None and self.strategy != strategy:
            return False
        return True

    def arm(self) -> bool:
        """Advance the counters; True when this occurrence fires."""
        if self.remaining_skips > 0:
            self.remaining_skips -= 1
            return False
        if self.remaining_fires is None:
            return True
        if self.remaining_fires == 0:
            return False
        self.remaining_fires -= 1
        return True

    @property
    def exhausted(self) -> bool:
        """Whether this fault can never fire again."""
        return self.remaining_fires == 0

    # -- frame mutation (interpreted by ``wire.Channel.send``) -------------

    def mutate_frame(self, message: bytes, fds: Sequence[int]):
        """Apply a frame-kind's damage to an outgoing wire frame."""
        if self.kind == "truncate_frame":
            return message[:max(1, len(message) // 2)], list(fds)
        if self.kind == "corrupt_frame":
            # Keep the length header intact so the helper reads the full
            # body and discovers the damage at the JSON layer.
            damaged = bytearray(message)
            for i in range(4, len(damaged)):
                damaged[i] ^= 0xFF
            return bytes(damaged), list(fds)
        if self.kind == "drop_fd_grant":
            return message, []
        return message, list(fds)

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> dict:
        out = {"kind": self.kind, "point": self.point}
        if self.after:
            out["after"] = self.after
        if self.times != 1:
            out["times"] = self.times
        if self.seconds:
            out["seconds"] = self.seconds
        if self.strategy is not None:
            out["strategy"] = self.strategy
        return out


class FaultPlan:
    """An ordered set of faults, activatable as one unit.

    Build fluently::

        plan = (FaultPlan()
                .add("kill_helper")
                .add("stall_helper", seconds=0.2, times=None))

    or load from JSON (``{"faults": [{"kind": ..., ...}, ...]}``) via
    :meth:`from_json` / :meth:`from_file` / :meth:`from_env_value`.
    """

    def __init__(self, faults: Sequence[Fault] = ()):
        self.faults: List[Fault] = list(faults)

    def add(self, kind: str, **kwargs) -> "FaultPlan":
        """Append a fault; returns the plan for chaining."""
        self.faults.append(Fault(kind, **kwargs))
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultPlanError(
                "a fault plan is an object with a 'faults' list")
        faults = []
        for entry in data["faults"]:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise FaultPlanError(
                    f"each fault needs at least a 'kind': {entry!r}")
            known = {"kind", "point", "after", "times", "seconds", "strategy"}
            extra = set(entry) - known
            if extra:
                raise FaultPlanError(
                    f"unknown fault fields {sorted(extra)} in {entry!r}")
            faults.append(Fault(**entry))
        return cls(faults)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") \
                from exc
        return cls.from_json(text)

    @classmethod
    def from_env_value(cls, value: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` value: inline JSON or a file path."""
        value = value.strip()
        if value.startswith("{"):
            return cls.from_json(value)
        return cls.from_file(value)

    def as_dict(self) -> dict:
        return {"faults": [fault.as_dict() for fault in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    # -- helper-side compilation ------------------------------------------

    def helper_spec(self) -> str:
        """Render the ``point == "helper"`` faults as an env spec.

        Format: comma-separated ``kind:seconds:times:after`` entries,
        with ``times`` ``-1`` meaning unlimited.  Parsed by the helper
        program, which keeps its own arming counters.
        """
        entries = []
        for fault in self.faults:
            if fault.point != "helper":
                continue
            times = -1 if fault.times is None else fault.times
            entries.append(
                f"{fault.kind}:{fault.seconds:g}:{times}:{fault.after}")
        return ",".join(entries)

    def __repr__(self):
        kinds = ",".join(fault.kind for fault in self.faults)
        return f"<FaultPlan [{kinds}]>"
