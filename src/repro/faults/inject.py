"""The fault injector: one process-wide switch the spawn stack consults.

Injection points compiled into the stack call
``FAULTS.fire("point.name", **context)`` on their hot path.  With no
plan active that is one attribute read — cheap enough to leave in
production builds, which is the point: the *same* code path that serves
traffic is the one the chaos suite breaks on purpose.

``fire`` applies the *generic* fault effects itself (raise, sleep,
kill) and returns the matched :class:`~repro.faults.plan.Fault` so
sites with richer context — the forkserver's frame writer — can apply
kind-specific damage such as truncating the frame or dropping the
SCM_RIGHTS grant.
"""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import threading
import time
from typing import List, Optional, Tuple

from ..errors import SpawnError
from .plan import FRAME_KINDS, GATEWAY_SITE_KINDS, Fault, FaultPlan

#: Kinds whose effect is applied by the injection site, not by
#: :meth:`FaultInjector.fire` — they are returned untouched (and a
#: stray ``seconds`` on them does not also sleep the hot path).
_SITE_KINDS = FRAME_KINDS | GATEWAY_SITE_KINDS


class FaultInjector:
    """Holds the active :class:`FaultPlan` and arbitrates firing.

    Thread-safe: arming counters advance under a lock, so concurrent
    spawns cannot double-fire a ``times=1`` fault.  The ``fired`` log
    records every (point, kind) that actually fired — chaos tests use
    it to assert the fault they planned is the one that happened.
    """

    def __init__(self):
        self._plan: Optional[FaultPlan] = None
        self._lock = threading.Lock()
        self._fired: List[Tuple[str, str]] = []

    # -- plan lifecycle ----------------------------------------------------

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self._plan

    @property
    def fired(self) -> List[Tuple[str, str]]:
        """Copy of the (point, kind) pairs that have fired so far."""
        with self._lock:
            return list(self._fired)

    def activate(self, plan: FaultPlan) -> FaultPlan:
        """Install ``plan`` (replacing any active one); clears the log."""
        with self._lock:
            self._plan = plan
            self._fired = []
        return plan

    def deactivate(self) -> Optional[FaultPlan]:
        """Remove the active plan; returns it (or ``None``)."""
        with self._lock:
            plan, self._plan = self._plan, None
        return plan

    @contextlib.contextmanager
    def active(self, plan: FaultPlan):
        """``with FAULTS.active(plan):`` — scoped activation."""
        self.activate(plan)
        try:
            yield plan
        finally:
            self.deactivate()

    # -- the hot-path entry point -----------------------------------------

    def fire(self, point: str, **context) -> Optional[Fault]:
        """Fire the first armed fault watching ``point``, if any.

        Generic effects applied here:

        * ``refuse_exec`` — raises :class:`SpawnError`;
        * ``exhaust_fds`` — raises ``OSError(EMFILE)``;
        * ``kill_helper`` — SIGKILLs ``context["helper_pid"]``; a site
          that passes ``freeze=True`` gets the helper SIGSTOPped
          instead and delivers the SIGKILL itself once its frame is on
          the wire (a frozen helper cannot answer first);
        * any fault with ``seconds`` set sleeps first (a client-side
          stall, e.g. ``stall_helper`` pointed at ``pool.dispatch``).

        Frame-mutation kinds are returned untouched for the caller to
        interpret via :meth:`Fault.mutate_frame`; the gateway family
        (``conn_reset``, ``drop_reply``, ``kill_daemon``, ...) is
        likewise interpreted by its injection site, which owns the
        socket or daemon the fault needs.
        """
        plan = self._plan
        if plan is None:
            return None
        strategy = context.get("strategy")
        with self._lock:
            if self._plan is not plan:
                return None
            fault = None
            for candidate in plan.faults:
                if candidate.matches(point, strategy) and candidate.arm():
                    fault = candidate
                    break
            if fault is None:
                return None
            self._fired.append((point, fault.kind))
        if fault.seconds and fault.kind not in _SITE_KINDS:
            time.sleep(fault.seconds)
        if fault.kind == "kill_helper":
            pid = context.get("helper_pid")
            if pid:
                try:
                    os.kill(pid, signal.SIGSTOP if context.get("freeze")
                            else signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        elif fault.kind == "refuse_exec":
            raise SpawnError(
                f"injected fault at {point}: exec refused"
                + (f" (strategy {strategy})" if strategy else ""))
        elif fault.kind == "exhaust_fds":
            raise OSError(errno.EMFILE,
                          f"injected fault at {point}: "
                          f"file descriptor table exhausted")
        return fault

    # -- helper-side compilation ------------------------------------------

    def helper_spec(self) -> str:
        """The active plan's helper-side faults as an env spec string.

        :class:`~repro.core.forkserver.ForkServer` calls this when it
        starts a helper; an empty string means no helper faults.
        """
        plan = self._plan
        return plan.helper_spec() if plan is not None else ""


#: The process-wide injector every compiled-in injection point uses.
FAULTS = FaultInjector()
