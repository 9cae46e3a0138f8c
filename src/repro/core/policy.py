"""Resilience policies for the spawn stack: deadlines, retries, breakers.

A spawn *service* (the forkserver pool) is only as good as its failure
story: helpers die mid-request, frames truncate, event loops stall.
:class:`SpawnPolicy` names the knobs callers tune —

* **deadline** — seconds one spawn attempt may take before the wire
  request is abandoned (and, on a forkserver channel, the helper is
  treated as wedged and replaced);
* **bounded retries** with exponential backoff and jitter, so a burst
  of retries from many clients does not synchronise into a thundering
  herd;
* a per-target **circuit breaker** that stops hammering a launch path
  that keeps failing;
* a **fallback chain** — graceful degradation from the pool to a single
  forkserver to plain ``posix_spawn`` when a tier's breaker opens.

Every decision is visible through :mod:`repro.obs`: ``spawn_retry``,
``breaker_open`` and ``fallback`` counters, plus ``retry``/``fallback``
trace stages on the request's :class:`~repro.obs.SpawnTrace`.

**Batch semantics.**  A batch is a spawn of N: ``spawn_batch`` on the
pool, a server, or the :func:`repro.core.spawn_batch` ladder runs the
code a single spawn runs, with N members in the unit of work instead of
one.  So the batch consumes one attempt, a mid-batch failure fails (and
retries) the **entire batch** — the wire protocol is all-or-nothing, so
no member is ever silently dropped — and a failed batch strikes its
helper/breaker once, not once per member.  Deadlines bound the single
batched round trip, not each member individually.

**Who backs off, who trips — and on what.**  Retries belong to whoever
holds the policy; one schedule (:class:`Backoff`) and one trip-wire
(:class:`CircuitBreaker`) serve everything in ``src/`` that waits
between tries or gives up after N:

=====================  ==============================  ============================
who                    backs off on                    trips on
=====================  ==============================  ============================
ladder, per tier       ``policy.backoff_delay``        ``breaker_for(tier)``
daemon, per tenant     (the ladder's)                  a ``breaker_for`` per tenant
``ForkServerPool``     —                               ``slot.strikes`` (*)
``TemplateRegistry``   its condition                   — (``miss_grace``) (†)
``GatewayClient``      ``Backoff()``, re-dial only     — (``max_reconnects`` budget)
``GatewaySupervisor``  ``Backoff(jitter=0.0)``         its own ``CircuitBreaker``
=====================  ==============================  ============================

The ladder walks :class:`ProcessBuilder` and :func:`repro.core.spawn_batch`
alike and hands the pool no policy: the pool fails a dead helper over
within one dispatch and retries nothing, so retrying a pool launch is
the ladder's job alone.  A tier whose declaration cannot express the
request (:attr:`~repro.core.strategies.Strategy.expresses`) is passed
over, not retried: it costs no back-off and no breaker verdict.  A
program the request cannot execute (:class:`~repro.errors.ExecError`)
is charged to no one: the ladder re-raises it at once, the pool strikes
no helper, the daemon charges no tenant.  A daemon's refusal
(``RateLimited``, ``Overloaded``) reaches the ladder at once: the
client re-dials a lost connection and waits out nothing else.  Two
things stay apart by decision.
(*) ``slot.strikes``: a fixed limit of three, and its verdict is
"retire the helper", not "cool down" — six lines a breaker would not
shorten.
(†) After a ``code`` miss on a profile's warm stock the registry sleeps
on its condition for up to ``miss_grace`` (0.25 s) until the restock
thread announces a parked child (or the helper's death, a replacement,
an eviction, ``close()``) and leases again; then it degrades down the
ladder: it waits for a resource, not for a launcher to recover.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import SpawnError

#: The degradation ladder the paper's architecture implies: the shared
#: pool first, one dedicated helper second, direct constant-cost spawn
#: last (it needs no service at all, so it is the natural floor).
DEFAULT_FALLBACK = ("forkserver", "posix_spawn")

#: The ladder below a template lease: when a profile's warm stock is
#: exhausted (or its helper is gone), degrade to the generic pool, then
#: a single generic helper, then the constant-cost floor.  Same shape
#: as the paper's remedy list, one rung higher.
TEMPLATE_FALLBACK = ("forkserver-pool",) + DEFAULT_FALLBACK

#: The ladder below the gateway daemon, the same three tiers: when the
#: daemon is unreachable (connection refused, reconnect budget
#: exhausted, breaker open) the spawn degrades to local machinery.
#: The daemon going down costs latency, never availability.
GATEWAY_FALLBACK = TEMPLATE_FALLBACK


@dataclass(frozen=True)
class Backoff:
    """The one back-off schedule: ``base * multiplier**i`` seconds
    capped at ``cap``, then spread over ``±jitter`` of itself (0 =
    deterministic, 0.5 = ±50%) so concurrent clients desynchronise."""

    base: float = 0.05
    multiplier: float = 2.0
    cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.base < 0 or self.cap < 0:
            raise SpawnError("backoff base and cap must be >= 0")
        if self.multiplier < 1.0:
            raise SpawnError(
                f"backoff multiplier must be >= 1: {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise SpawnError(f"jitter must be in [0, 1]: {self.jitter}")

    def delay(self, retry_index: int,
              rng: Callable[[], float] = random.random) -> float:
        """Sleep before retry ``retry_index`` (0-based); ``rng`` is
        injectable for deterministic tests."""
        base = min(self.base * (self.multiplier ** retry_index), self.cap)
        if not self.jitter or not base:
            return base
        spread = self.jitter * (2.0 * rng() - 1.0)  # in [-jitter, +jitter]
        return max(0.0, base * (1.0 + spread))


@dataclass(frozen=True)
class SpawnPolicy:
    """How hard to try, how long to wait, and when to give up.

    Attributes:
        deadline: seconds per spawn attempt (``None`` = wait forever).
        retries: extra attempts after the first failure, per tier.
        backoff: the first sleep between attempts — the ``base`` of
            the default :class:`Backoff` (doubling to 2 s, ±50 %).
        breaker_threshold: consecutive failures before a breaker opens.
        breaker_cooldown: seconds an open breaker rejects attempts
            before allowing a half-open probe.
        fallback: strategy names to degrade to, in order, when a tier
            is exhausted or its breaker is open.
        retry_ambiguous: whether an *ambiguous* remote loss — the
            gateway accepted the spawn frame and the channel died
            before any reply, so the child may already be running —
            may be retried or degraded down the ladder.  Off by
            default: re-issuing an ambiguous spawn can execute the
            command twice, which only the caller can know is safe
            (idempotent workloads opt in; everything else gets the
            typed :class:`~repro.errors.GatewayConnectionLost`).
    """

    deadline: Optional[float] = None
    retries: int = 0
    backoff: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    fallback: Tuple[str, ...] = ()
    retry_ambiguous: bool = False

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            raise SpawnError(f"deadline must be > 0: {self.deadline}")
        if self.retries < 0:
            raise SpawnError(f"retries must be >= 0: {self.retries}")
        if self.breaker_threshold < 1:
            raise SpawnError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}")
        if self.breaker_cooldown < 0:
            raise SpawnError(
                f"breaker_cooldown must be >= 0: {self.breaker_cooldown}")
        object.__setattr__(self, "fallback", tuple(self.fallback))
        object.__setattr__(self, "_schedule",
                           Backoff(self.backoff))  # which validates it

    def attempts(self) -> int:
        """Total attempts per tier (the first one plus the retries)."""
        return self.retries + 1

    def backoff_delay(self, retry_index: int,
                      rng: Callable[[], float] = random.random) -> float:
        """Sleep before retry ``retry_index`` (0-based): the default
        :class:`Backoff` from the policy's ``backoff``."""
        return self._schedule.delay(retry_index, rng)


class CircuitBreaker:
    """Consecutive-failure breaker: closed → open → half-open → closed.

    * **closed** — traffic flows; each success resets the strike count.
    * **open** — after ``threshold`` consecutive failures every attempt
      is rejected until ``cooldown`` seconds pass.
    * **half-open** — one probe is admitted; success closes the
      breaker, failure re-opens it for another cooldown.

    Thread-safe.  ``clock`` is injectable for deterministic tests.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 3, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise SpawnError(f"breaker threshold must be >= 1: {threshold}")
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def failures(self) -> int:
        """Consecutive failures recorded since the last success."""
        with self._lock:
            return self._failures

    def allow(self) -> bool:
        """Whether an attempt may proceed right now.

        In the open state, the first call after the cooldown elapses
        transitions to half-open and admits exactly one probe; further
        calls are rejected until the probe reports an outcome.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self._cooldown:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            # half-open: one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED
            self._probing = False

    def record_failure(self) -> bool:
        """Record one failure; returns True if the breaker just opened."""
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False
                return True
            if self._state == self.CLOSED and \
                    self._failures >= self._threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()
                return True
            return False

    def abandon(self) -> None:
        """An admitted attempt ended with no verdict (its steps were
        closed mid-launch): free the probe slot for the next caller."""
        with self._lock:
            self._probing = False

    def reset(self) -> None:
        self.record_success()

    def __repr__(self):
        return (f"<CircuitBreaker {self.state} "
                f"failures={self.failures}/{self._threshold}>")


#: Strategy-level breakers shared by every policy-driven spawn in the
#: process: if posix_spawn is failing for one caller it is failing for
#: all of them, so the verdict should be shared too.
_BREAKERS: Dict[str, CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(name: str, policy: Optional[SpawnPolicy] = None
                ) -> CircuitBreaker:
    """The shared breaker guarding launch target ``name``.

    Created on first use with the policy's threshold/cooldown; later
    callers share the existing breaker regardless of their policy (a
    breaker's memory would be useless if every caller reset its shape).
    """
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=policy.breaker_threshold if policy else 3,
                cooldown=policy.breaker_cooldown if policy else 5.0)
            _BREAKERS[name] = breaker
        return breaker


def reset_breakers() -> None:
    """Forget every shared breaker (tests, or operator reset)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()
