"""An ``pthread_atfork`` registry: fork's consistency band-aid, modelled.

POSIX's answer to fork-vs-threads is ``pthread_atfork(prepare, parent,
child)``: every library takes its locks in ``prepare``, releases them in
``parent`` and ``child``.  The paper's critique — it cannot work in
general (malloc's internal state, lock ordering across libraries) — does
not stop it from being the deployed mitigation, so the reproduction
implements it: a process-wide ordered registry with the POSIX calling
order (prepare handlers run in *reverse* registration order, parent and
child handlers in registration order) and a :func:`fork_with_handlers`
that drives them around a real ``os.fork``.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional

from ..errors import ForkSafetyError

Handler = Optional[Callable[[], None]]


class AtForkRegistry:
    """Ordered (prepare, parent, child) handler triples."""

    def __init__(self):
        self._triples: List[tuple] = []
        self._lock = threading.Lock()

    def register(self, prepare: Handler = None, parent: Handler = None,
                 child: Handler = None) -> None:
        """Register one handler triple (any member may be ``None``)."""
        if prepare is None and parent is None and child is None:
            raise ForkSafetyError("register() needs at least one handler")
        with self._lock:
            self._triples.append((prepare, parent, child))

    def clear(self) -> None:
        """Drop every registration (tests)."""
        with self._lock:
            self._triples = []

    def __len__(self) -> int:
        return len(self._triples)

    # -- the POSIX calling discipline -------------------------------------

    def run_prepare(self) -> None:
        """Call prepare handlers, most recently registered first.

        Reverse order is what makes lock ordering work: if library B
        (registered later) depends on library A, B's prepare runs first
        and takes B's locks before A locks anything B might need.
        """
        with self._lock:
            triples = list(self._triples)
        for prepare, _, _ in reversed(triples):
            if prepare is not None:
                prepare()

    def run_parent(self) -> None:
        """Call parent-side handlers in registration order."""
        with self._lock:
            triples = list(self._triples)
        for _, parent, _ in triples:
            if parent is not None:
                parent()

    def run_child(self) -> None:
        """Call child-side handlers in registration order."""
        with self._lock:
            triples = list(self._triples)
        for _, _, child in triples:
            if child is not None:
                child()


#: The process-wide registry, like the one inside libc.
registry = AtForkRegistry()


def register(prepare: Handler = None, parent: Handler = None,
             child: Handler = None) -> None:
    """Register handlers on the process-wide registry."""
    registry.register(prepare, parent, child)


def fork_with_handlers() -> int:
    """``fork`` bracketed by the registry's handlers, POSIX-style.

    Returns the child pid in the parent and 0 in the child, exactly like
    ``os.fork``.  If a prepare handler raises, the fork does not happen
    and the exception propagates — better a loud failure than a child
    holding a dead thread's locks.
    """
    registry.run_prepare()
    # The fork this module exists to bracket; the caller owns the child.
    pid = os.fork()  # lint-ok: F002, F003
    if pid == 0:  # lint-ok: F006
        registry.run_child()
    else:
        registry.run_parent()
    return pid
