"""Launches as resumable steps: one implementation, two drivers.

A launch through a helper spends most of its life waiting — for the
reply on the wire, for a back-off to pass, for a helper to boot.  A
caller with a thread to spare just blocks; the gateway's event loop
cannot.  Rather than write every layer twice, the layers that can wait
(``_unit_steps`` on ``ForkServer``, the pool and the two forkserver
strategies, every strategy's ``_launch_steps`` / ``_batch_steps``, the
ladder every policy-driven launch walks in :mod:`repro.core.spawn` —
private forms all, behind the blocking calls they implement) are
*generators* that do the launch in order and ``yield`` immediately
before anything that would block their thread.  Nor is any of them
written once per shape: the unit of work they pass down is a list of
:class:`~repro.core.forkserver.SpawnRequest` members with its
``(policy, deadline)`` — one member for a spawn, N for a batch.  They
yield:

* an :class:`~repro.core.forkserver.InFlight` — the request is on a
  helper's wire and the next step waits for its reply.  A driver that
  must not block asks to be told (``notify``) and resumes the steps
  from that callback, by when the wait is over;
* ``None`` — the next step sleeps, boots or reaps a process, sends on
  a wire that is full, or calls a launcher that has no steps form.
  There is nothing to be told about; resume on a thread that may block.

Resumed early, the steps simply block where a plain call would have:
:func:`run_steps` is that driver, and every blocking entry point
(``spawn``, ``spawn_batch``, ``launch``) is ``run_steps(its steps)`` —
so retries, back-off, strikes, breakers, fallback order and deadlines
are the same code on either driver.  The other driver is
:meth:`GatewayServer._step <repro.gateway.server.GatewayServer._step>`,
which resumes a launch from the callback of the reply that hands out
its children, and hands a launch whose wait ended any other way —
refused, lost, timed out — to a thread that may block: whoever tells it
of a loss is in the middle of killing a helper, and the rest of the
ladder is not that thread's to run.
"""

from __future__ import annotations

from typing import Generator, TypeVar

T = TypeVar("T")

#: What a steps function returns when called: yields ``InFlight`` or
#: ``None``, is sent nothing, returns the launch's result.
Steps = Generator[object, None, T]


def run_steps(steps: "Steps[T]") -> T:
    """Drive ``steps`` to its end on this thread, blocking wherever it
    would; returns what it returns, raises what it raises."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value
